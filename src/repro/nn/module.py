"""Module/Parameter system (the ``torch.nn.Module`` substitute).

Modules register parameters and child modules automatically through
attribute assignment, expose recursive traversal (:meth:`Module.parameters`,
:meth:`Module.named_parameters`), train/eval mode switching, and
``state_dict`` save/load for checkpointing.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..tensor import Tensor


class Parameter(Tensor):
    """A tensor that is a learnable leaf of a module (always requires grad)."""

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True, name=name)


_hook_generation = 0


def hook_generation() -> int:
    """A counter bumped by every forward (pre-)hook registration or removal.

    Lets a caller cache :meth:`Module.has_forward_hooks` until any module's
    hooks next change.
    """
    return _hook_generation


def _hooks_changed() -> None:
    global _hook_generation
    _hook_generation += 1


class RemovableHandle:
    """Deregisters a hook when :meth:`remove` is called."""

    _next_id = 0

    def __init__(self, registry: Dict[int, object]):
        self._registry = registry
        self.id = RemovableHandle._next_id
        RemovableHandle._next_id += 1

    def remove(self) -> None:
        if self._registry.pop(self.id, None) is not None:
            _hooks_changed()


class Module:
    """Base class for all neural-network components.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; registration is automatic.  ``Module`` also tracks a
    ``training`` flag consumed by stochastic layers (dropout, variational
    sampling).
    """

    def __init__(self):
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "_forward_pre_hooks", {})
        object.__setattr__(self, "_forward_hooks", {})
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
            self._modules.pop(name, None)
        elif isinstance(value, Module):
            self._modules[name] = value
            self._parameters.pop(name, None)
        object.__setattr__(self, name, value)

    def register_parameter(self, name: str, parameter: Parameter) -> None:
        """Register a parameter under ``name`` (for dynamic construction)."""
        self._parameters[name] = parameter
        object.__setattr__(self, name, parameter)

    def register_module(self, name: str, module: "Module") -> None:
        """Register a child module under ``name``."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # ------------------------------------------------------------------ #
    # traversal
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` pairs recursively."""
        for name, parameter in self._parameters.items():
            yield (f"{prefix}{name}", parameter)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> List[Parameter]:
        """Return every distinct parameter of this module and its children.

        A parameter shared by several children (one module registered in
        more places) is listed once, at its first occurrence, so optimizers
        and gradient clipping see it once; :meth:`named_parameters` still
        yields every qualified name.
        """
        unique: Dict[int, Parameter] = {}
        for _, parameter in self.named_parameters():
            unique.setdefault(id(parameter), parameter)
        return list(unique.values())

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants."""
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        """Yield ``(qualified_name, module)`` pairs, root first.

        The root's name is ``prefix`` (empty by default); children append
        their attribute names, e.g. ``encoder.window_attention.0``.
        """
        yield prefix, self
        for name, module in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from module.named_modules(child_prefix)

    def num_parameters(self) -> int:
        """Total number of scalar learnable parameters."""
        return sum(parameter.size for parameter in self.parameters())

    # ------------------------------------------------------------------ #
    # mode / gradients
    # ------------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects dropout and sampling)."""
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self) -> "Module":
        """Set inference mode recursively."""
        return self.train(False)

    def zero_grad(self) -> None:
        """Clear gradients of every parameter."""
        for parameter in self.parameters():
            parameter.zero_grad()

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a name -> array snapshot (copies) of all parameters."""
        return {name: parameter.data.copy() for name, parameter in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter values by qualified name; shapes must match."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}")
        for name, parameter in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != parameter.data.shape:
                raise ValueError(f"shape mismatch for {name}: {value.shape} vs {parameter.data.shape}")
            parameter.data = value.copy()

    # ------------------------------------------------------------------ #
    # hooks
    # ------------------------------------------------------------------ #
    def register_forward_pre_hook(self, hook) -> RemovableHandle:
        """Call ``hook(module, args)`` before every forward of this module."""
        handle = RemovableHandle(self._forward_pre_hooks)
        self._forward_pre_hooks[handle.id] = hook
        _hooks_changed()
        return handle

    def register_forward_hook(self, hook) -> RemovableHandle:
        """Call ``hook(module, args, output)`` after every forward.

        A hook returning a non-``None`` value replaces the output (mirrors
        the PyTorch contract, and lets wrappers rewrite activations).
        """
        handle = RemovableHandle(self._forward_hooks)
        self._forward_hooks[handle.id] = hook
        _hooks_changed()
        return handle

    def has_forward_hooks(self) -> bool:
        """Whether this module or any descendant has a forward or pre-hook."""
        return any(
            module.__dict__.get("_forward_pre_hooks") or module.__dict__.get("_forward_hooks")
            for _, module in self.named_modules()
        )

    # ------------------------------------------------------------------ #
    # call protocol
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        # dict.get keeps pre-hook-era pickles / exotic subclasses working
        pre_hooks = self.__dict__.get("_forward_pre_hooks")
        if pre_hooks:
            for hook in tuple(pre_hooks.values()):
                hook(self, args)
        output = self.forward(*args, **kwargs)
        post_hooks = self.__dict__.get("_forward_hooks")
        if post_hooks:
            for hook in tuple(post_hooks.values()):
                result = hook(self, args, output)
                if result is not None:
                    output = result
        return output

    def __repr__(self) -> str:
        children = ", ".join(self._modules)
        return f"{type(self).__name__}(params={self.num_parameters()}, children=[{children}])"


class ModuleList(Module):
    """A list of sub-modules, registered so traversal finds them."""

    def __init__(self, modules: Optional[Iterable[Module]] = None):
        super().__init__()
        self._items: List[Module] = []
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        self.register_module(str(len(self._items)), module)
        self._items.append(module)
        return self

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]

    def forward(self, *args, **kwargs):
        raise RuntimeError("ModuleList is a container and cannot be called")


class ParameterList(Module):
    """A list of parameters, registered so traversal finds them."""

    def __init__(self, parameters: Optional[Iterable[Parameter]] = None):
        super().__init__()
        self._items: List[Parameter] = []
        for parameter in parameters or []:
            self.append(parameter)

    def append(self, parameter: Parameter) -> "ParameterList":
        self.register_parameter(str(len(self._items)), parameter)
        self._items.append(parameter)
        return self

    def __iter__(self) -> Iterator[Parameter]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Parameter:
        return self._items[index]

    def forward(self, *args, **kwargs):
        raise RuntimeError("ParameterList is a container and cannot be called")


class Sequential(Module):
    """Apply child modules in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.layers = ModuleList(modules)

    def forward(self, x):
        for layer in self.layers:
            x = layer(x)
        return x
