"""Spans around calls into the program's public functions.

The traced run wraps public entry points of each layer (an executor's
``train_step``, ``Adam.step``, ``FleetRouter.forecast``, ...) from the
benchmark's side; nothing inside the program is instrumented.  Spans are
kept in memory and written out once, at the end of the run.

``repro.obs.profile`` is deliberately not used: an active op-trace hook
forces compiled executors back onto the interpreter, so a profiled run
would measure a different program.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: the layers self time is charged to: a span's name is ``<layer>.<call>``
LAYERS = ("data", "exec", "optim", "training", "serve", "fleet")


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request", "attrs")

    def __init__(self, span_id, name, start, parent, request):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.attrs: Dict[str, object] = {}

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request": self.request,
            **self.attrs,
        }


class Tracer:
    """In-memory span recorder with an on/off switch.

    Spans nest through a per-thread stack.  A span opened on a thread with
    an empty stack (the serving batcher thread) is parented to the
    innermost open span of the request in flight, which the single load
    thread publishes; that is what ties a batched forward to its request.
    """

    def __init__(self) -> None:
        self.recording = False
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._request: Optional[int] = None
        self._request_top: Optional[int] = None

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_request(self, request_id: int) -> None:
        self._request = request_id

    def end_request(self) -> None:
        self._request = None
        self._request_top = None

    def wrap(self, name: str, function: Callable, on_result=None) -> Callable:
        """``function`` recorded as span ``name`` whenever recording is on.

        ``on_result(span, args, result)`` may attach attributes.
        """

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not self.recording:
                return function(*args, **kwargs)
            stack = self._stack()
            if stack:
                parent = stack[-1].id
            else:
                parent = self._request_top
            span = Span(next(self._ids), name, time.perf_counter(), parent, self._request)
            stack.append(span)
            published = threading.current_thread() is threading.main_thread()
            if published:
                self._request_top = span.id
            try:
                result = function(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if published:
                    self._request_top = stack[-1].id if stack else None
                self.spans.append(span)
            if on_result is not None:
                on_result(span, args, result)
            return result

        return traced

    def wrap_iterable(self, name: str, iterable):
        """An iterable whose every ``next()`` is recorded as span ``name``."""
        return _TracedIterable(self, name, iterable)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps(span.as_dict()) + "\n")


class _TracedIterable:
    def __init__(self, tracer: Tracer, name: str, iterable):
        self._tracer = tracer
        self._name = name
        self._iterable = iterable

    def __len__(self) -> int:
        return len(self._iterable)

    def __iter__(self):
        iterator = iter(self._iterable)
        step = self._tracer.wrap(self._name, functools.partial(next, iterator))
        while True:
            try:
                yield step()
            except StopIteration:
                return


def self_times(spans: List[Span], start: float, end: float) -> Dict[str, float]:
    """Seconds of self time per layer for spans inside ``[start, end]``.

    A span's self time is its duration minus the part of it that its child
    spans cover; children are attached by parent id, so a forward on the
    batcher thread is subtracted from the request span that waited on it.
    """
    inside = [s for s in spans if s.start >= start and s.end <= end]
    children = defaultdict(list)
    for span in inside:
        if span.parent is not None:
            children[span.parent].append(span)
    totals = {layer: 0.0 for layer in LAYERS}
    for span in inside:
        covered = _covered(
            [(max(c.start, span.start), min(c.end, span.end)) for c in children[span.id]]
        )
        totals[span.layer] += span.duration - covered
    return totals


def _covered(intervals) -> float:
    """Total length of the union of ``intervals``."""
    total, reach = 0.0, None
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if reach is None or lo > reach:
            total += hi - lo
            reach = hi
        elif hi > reach:
            total += hi - reach
            reach = hi
    return total


def top_level_seconds(spans: List[Span], start: float, end: float) -> float:
    """Summed duration of the parentless spans inside ``[start, end]``.

    Top-level spans must not overlap one another in a single-caller
    workload, so this sum stays within the end-to-end time; a span that
    lost its parent (and would be counted twice) pushes it over.
    """
    return sum(s.duration for s in spans if s.parent is None and s.start >= start and s.end <= end)


def attribution(spans: List[Span], start: float, end: float, end_to_end_s: float) -> Dict[str, float]:
    """Layer self times plus ``unattributed``; the parts sum to ``end_to_end_s``."""
    parts = self_times(spans, start, end)
    parts["unattributed"] = end_to_end_s - sum(parts.values())
    return parts
