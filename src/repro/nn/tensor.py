"""A numpy-backed tensor with reverse-mode automatic differentiation.

The design follows the classic "define-by-run tape" pattern: every operation
creates a new :class:`Tensor` that remembers its parent tensors and a local
backward closure.  ``Tensor.backward()`` topologically sorts the graph and
accumulates gradients into ``.grad`` for every tensor that requires them.

Only the operations needed by the library's models are implemented; they all
support the broadcasting rules numpy applies in the forward pass (gradients
are "unbroadcast" by summing over the broadcast axes).

**Compute dtype.**  Tensors are no longer unconditionally ``float64``:
floating-point input data keeps its dtype (gradients follow the tensor's
own dtype), non-floating data — and the weight initialisers in
:mod:`repro.nn.init` — follow the module default, ``float64`` unless
changed via :func:`set_default_dtype`; an explicit ``dtype=`` wins over
both.  The float64 default is exactly the historical behaviour.  Note the
HTC pipeline's graph attributes are float64, so training stays float64
regardless of :class:`repro.core.HTCConfig`'s ``compute_dtype`` (which
governs the *scoring* stack, :mod:`repro.backend.precision`); a float32
training pipeline needs ``set_default_dtype(np.float32)`` (float32
parameters) plus float32 features and Laplacians.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Set, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, list, tuple]

#: Dtypes a tensor may hold.
_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

_DEFAULT_DTYPE = np.dtype(np.float64)


def get_default_dtype() -> np.dtype:
    """The dtype non-floating tensor data is promoted to."""
    return _DEFAULT_DTYPE


def set_default_dtype(dtype) -> np.dtype:
    """Set the default tensor dtype; returns the previous default.

    Only ``float32`` and ``float64`` are supported (the autograd closures
    assume real floating arithmetic).
    """
    global _DEFAULT_DTYPE
    new = np.dtype(dtype)
    if new not in _FLOAT_DTYPES:
        raise ValueError(
            f"default tensor dtype must be float32 or float64, got {new}"
        )
    previous = _DEFAULT_DTYPE
    _DEFAULT_DTYPE = new
    return previous


def _as_array(value: ArrayLike, dtype=None) -> np.ndarray:
    array = np.asarray(value)
    if dtype is not None:
        wanted = np.dtype(dtype)
    elif array.dtype in _FLOAT_DTYPES:
        return array
    else:
        wanted = _DEFAULT_DTYPE
    if array.dtype == wanted:
        return array
    return array.astype(wanted)


def _unbroadcast(gradient: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``gradient`` down to ``shape`` (inverse of numpy broadcasting)."""
    if gradient.shape == shape:
        return gradient
    # Remove leading broadcast axes.
    while gradient.ndim > len(shape):
        gradient = gradient.sum(axis=0)
    # Sum over axes that were expanded from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and gradient.shape[axis] != 1:
            gradient = gradient.sum(axis=axis, keepdims=True)
    return gradient.reshape(shape)


class Tensor:
    """A differentiable numpy array.

    Parameters
    ----------
    data:
        Array-like numeric data.  Floating input keeps its dtype;
        non-floating input is promoted to the module default dtype
        (:func:`get_default_dtype`, ``float64`` out of the box).
    requires_grad:
        Whether gradients should be accumulated for this tensor.
    dtype:
        Optional explicit dtype (``float32`` / ``float64``) overriding both
        rules.

    ``.grad`` holds the accumulated gradient (``None`` before any) and is
    read-only: the first gradient a tensor receives is stored without a
    copy, so it may share memory with another node's gradient.  Rebind it
    (``t.grad = t.grad * 0.5``); never write into it.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Iterable["Tensor"] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
        dtype=None,
    ) -> None:
        self.data = _as_array(data, dtype=dtype)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents: Tuple["Tensor", ...] = tuple(_parents)
        self._backward = _backward
        self.name = name

    # ------------------------------------------------------------------
    # shape helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a scalar tensor as a Python float."""
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the autograd graph."""
        return Tensor(self.data, requires_grad=False)

    # ------------------------------------------------------------------
    # autograd machinery
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def _accumulate(self, gradient: np.ndarray) -> None:
        # Gradients live in the tensor's own compute dtype.
        gradient = _unbroadcast(
            np.asarray(gradient, dtype=self.data.dtype), self.data.shape
        )
        if self.grad is None:
            self.grad = gradient
        else:
            self.grad = self.grad + gradient

    def backward(self, gradient: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor.

        ``gradient`` defaults to 1.0 and is only optional for scalar tensors.
        """
        if gradient is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a scalar tensor"
                )
            gradient = np.ones_like(self.data)

        # Iterative post-order walk, parents in order.  A recursive closure
        # would reference itself, and that cycle would keep every node alive
        # until the cycle collector ran; without it the graph is freed as
        # soon as its last outside reference goes.
        topo_order: List[Tensor] = []
        visited: Set[int] = {id(self)}
        stack = [(self, iter(self._parents))]
        while stack:
            node, parents = stack[-1]
            for parent in parents:
                if id(parent) not in visited:
                    visited.add(id(parent))
                    stack.append((parent, iter(parent._parents)))
                    break
            else:
                stack.pop()
                topo_order.append(node)

        self._accumulate(np.asarray(gradient, dtype=self.data.dtype))
        for node in reversed(topo_order):
            if node._backward is None or node.grad is None:
                continue
            node._backward(node.grad)

    # ------------------------------------------------------------------
    # arithmetic operators (elementwise, broadcasting)
    # ------------------------------------------------------------------
    @staticmethod
    def _wrap(value: Union["Tensor", ArrayLike]) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._wrap(other)
        out = Tensor(
            self.data + other.data,
            requires_grad=self.requires_grad or other.requires_grad,
            _parents=(self, other),
        )

        def backward(gradient: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(gradient)
            if other.requires_grad:
                other._accumulate(gradient)

        out._backward = backward
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out = Tensor(-self.data, requires_grad=self.requires_grad, _parents=(self,))

        def backward(gradient: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-gradient)

        out._backward = backward
        return out

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self + (-self._wrap(other))

    def __rsub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self._wrap(other) + (-self)

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._wrap(other)
        out = Tensor(
            self.data * other.data,
            requires_grad=self.requires_grad or other.requires_grad,
            _parents=(self, other),
        )

        def backward(gradient: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(gradient * other.data)
            if other.requires_grad:
                other._accumulate(gradient * self.data)

        out._backward = backward
        return out

    __rmul__ = __mul__

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._wrap(other)
        out = Tensor(
            self.data / other.data,
            requires_grad=self.requires_grad or other.requires_grad,
            _parents=(self, other),
        )

        def backward(gradient: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(gradient / other.data)
            if other.requires_grad:
                other._accumulate(-gradient * self.data / (other.data**2))

        out._backward = backward
        return out

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out = Tensor(
            self.data**exponent, requires_grad=self.requires_grad, _parents=(self,)
        )

        def backward(gradient: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(gradient * exponent * self.data ** (exponent - 1))

        out._backward = backward
        return out

    def __matmul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._wrap(other)
        out = Tensor(
            self.data @ other.data,
            requires_grad=self.requires_grad or other.requires_grad,
            _parents=(self, other),
        )

        def backward(gradient: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(gradient @ other.data.T)
            if other.requires_grad:
                other._accumulate(self.data.T @ gradient)

        out._backward = backward
        return out

    # ------------------------------------------------------------------
    # shape ops and reductions
    # ------------------------------------------------------------------
    @property
    def T(self) -> "Tensor":
        """Matrix transpose (2-D tensors)."""
        out = Tensor(self.data.T, requires_grad=self.requires_grad, _parents=(self,))

        def backward(gradient: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(gradient.T)

        out._backward = backward
        return out

    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (or everything)."""
        out = Tensor(
            self.data.sum(axis=axis, keepdims=keepdims),
            requires_grad=self.requires_grad,
            _parents=(self,),
        )

        def backward(gradient: np.ndarray) -> None:
            if not self.requires_grad:
                return
            grad = np.asarray(gradient)
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis=axis)
            self._accumulate(np.broadcast_to(grad, self.data.shape))

        out._backward = backward
        return out

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        """Mean over ``axis`` (or everything)."""
        if axis is None:
            count = self.data.size
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape: int) -> "Tensor":
        """Reshape, keeping the autograd connection."""
        out = Tensor(
            self.data.reshape(*shape), requires_grad=self.requires_grad, _parents=(self,)
        )

        def backward(gradient: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(gradient.reshape(self.data.shape))

        out._backward = backward
        return out

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{grad_flag})"


__all__ = ["Tensor", "get_default_dtype", "set_default_dtype"]
