"""Module and Parameter abstractions (a tiny fraction of ``torch.nn``)."""

from __future__ import annotations

from typing import Dict, Iterator, List

import numpy as np

from repro.nn.tensor import Tensor


class Parameter(Tensor):
    """A :class:`Tensor` that is a trainable model parameter."""

    def __init__(self, data: np.ndarray, name: str = "") -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for models.

    Subclasses register :class:`Parameter` instances and child modules as
    attributes; ``parameters()`` walks both recursively.  ``forward`` is left
    abstract; calling the module delegates to it.
    """

    def __init__(self) -> None:
        self._parameters: Dict[str, Parameter] = {}
        self._modules: Dict[str, "Module"] = {}

    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    def parameters(self) -> List[Parameter]:
        """All trainable parameters of this module and its children."""
        params: List[Parameter] = list(self._parameters.values())
        for child in self._modules.values():
            params.extend(child.parameters())
        return params

    def named_parameters(self, prefix: str = "") -> Iterator[tuple]:
        """Yield ``(name, parameter)`` pairs, names dotted by module path."""
        for name, parameter in self._parameters.items():
            yield (f"{prefix}{name}", parameter)
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def zero_grad(self) -> None:
        """Clear gradients of every parameter."""
        for parameter in self.parameters():
            parameter.zero_grad()

    def n_parameters(self) -> int:
        """Total number of scalar parameters."""
        return int(sum(p.data.size for p in self.parameters()))

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of every parameter's value keyed by dotted name."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter values produced by :meth:`state_dict`."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        if missing:
            raise KeyError(f"state dict is missing parameters: {sorted(missing)}")
        for name, parameter in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != parameter.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: expected {parameter.data.shape}, "
                    f"got {value.shape}"
                )
            parameter.data = value.copy()

    def forward(self, *args, **kwargs):
        raise NotImplementedError("Module subclasses must implement forward()")

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


__all__ = ["Parameter", "Module"]
