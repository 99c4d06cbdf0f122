#!/usr/bin/env python
"""Dump (or check) the public ``repro.*`` API surface.

Walks every public subpackage's ``__all__`` and records each symbol's kind
and call signature into a deterministic JSON document.  The snapshot lives
at ``tests/api_surface.json`` and is enforced by
``tests/test_api_surface.py`` plus a CI step, so any change to the public
API — a renamed keyword, a dropped export, a new default — shows up as a
reviewable diff instead of sliding through silently.

Usage (from the repo root)::

    PYTHONPATH=src python tools/api_surface.py --check    # CI gate
    PYTHONPATH=src python tools/api_surface.py --update   # accept API change
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import sys
from pathlib import Path

#: every module whose ``__all__`` is public contract; keep sorted
PUBLIC_MODULES = (
    "repro.analysis",
    "repro.baselines",
    "repro.compile",
    "repro.core",
    "repro.data",
    "repro.exec",
    "repro.fleet",
    "repro.harness",
    "repro.nn",
    "repro.obs",
    "repro.optim",
    "repro.parallel",
    "repro.resilience",
    "repro.serve",
    "repro.tensor",
    "repro.training",
)

DEFAULT_SNAPSHOT = Path(__file__).resolve().parent.parent / "tests" / "api_surface.json"


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):  # builtins, some descriptors
        return "(...)"


def _describe(obj) -> dict:
    if inspect.isclass(obj):
        methods = {}
        for name, member in inspect.getmembers(obj):
            if name.startswith("_"):
                continue
            if inspect.isfunction(obj.__dict__.get(name, None)) or inspect.isfunction(
                member
            ):
                methods[name] = _signature(member)
            elif isinstance(
                inspect.getattr_static(obj, name, None),
                (property, functools.cached_property, classmethod, staticmethod),
            ):
                static = inspect.getattr_static(obj, name)
                if isinstance(static, (property, functools.cached_property)):
                    methods[name] = "<property>"
                else:
                    methods[name] = _signature(member)
        return {
            "kind": "class",
            "signature": _signature(obj),
            "methods": dict(sorted(methods.items())),
        }
    if inspect.isroutine(obj):
        return {"kind": "function", "signature": _signature(obj)}
    if inspect.ismodule(obj):
        return {"kind": "module"}
    return {"kind": "constant", "type": type(obj).__name__}


def build_surface() -> dict:
    """The full public surface: module -> exported name -> description."""
    surface: dict = {}
    for module_name in PUBLIC_MODULES:
        module = importlib.import_module(module_name)
        exported = getattr(module, "__all__", None)
        if exported is None:
            exported = [n for n in vars(module) if not n.startswith("_")]
        entry = {}
        for name in sorted(set(exported)):
            try:
                obj = getattr(module, name)
            except AttributeError:
                entry[name] = {"kind": "missing"}  # __all__ lies; surface it
                continue
            entry[name] = _describe(obj)
        surface[module_name] = entry
    return surface


def render(surface: dict) -> str:
    return json.dumps(surface, indent=2, sort_keys=True) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--check", action="store_true", help="fail if the surface drifted from the snapshot"
    )
    mode.add_argument(
        "--update", action="store_true", help="rewrite the snapshot from the live surface"
    )
    parser.add_argument("--path", type=Path, default=DEFAULT_SNAPSHOT)
    args = parser.parse_args(argv)

    current = render(build_surface())
    if args.update:
        args.path.write_text(current)
        print(f"wrote {args.path}")
        return 0

    if not args.path.exists():
        print(f"snapshot {args.path} does not exist; run with --update first")
        return 1
    recorded = args.path.read_text()
    if recorded == current:
        print(f"API surface matches {args.path}")
        return 0
    import difflib

    diff = difflib.unified_diff(
        recorded.splitlines(keepends=True),
        current.splitlines(keepends=True),
        fromfile=str(args.path),
        tofile="live API surface",
    )
    sys.stdout.writelines(diff)
    print(
        "\npublic API drifted from the reviewed snapshot; if intentional, run\n"
        "  PYTHONPATH=src python tools/api_surface.py --update\n"
        "and commit the diff"
    )
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
