"""The ``"compute"`` backend registry: dense linear-algebra kernels.

A compute backend supplies the handful of array primitives the hot scoring
paths are written against — today a GEMM (``matmul``) and the score clip.
The similarity kernels call these through the registry instead of
``np.matmul`` directly, so an accelerated implementation (a GPU library, a
tuned C extension) can be dropped in by registering a backend, without
touching the kernels:

>>> from repro.backend import compute_registry, ComputeBackend
>>> compute_registry().register(
...     "my-accel", ComputeBackend(name="my-accel", matmul=my_gemm),
...     priority=10, available=my_probe)

``"numpy"`` is the built-in default.  The numpy backend forwards to
``np.matmul``/``np.clip`` unchanged, so routing through the registry keeps
the float64 path bit-identical to the pre-registry code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.backend.registry import AUTO_BACKEND, BackendRegistry, get_registry

#: Registry kind for dense compute backends.
COMPUTE_KIND = "compute"


@dataclass(frozen=True)
class ComputeBackend:
    """Array primitives one compute backend provides.

    Attributes
    ----------
    name:
        Backend identity (matches its registry name).
    matmul:
        ``matmul(a, b, out) -> out`` — a GEMM writing into ``out``; operand
        dtypes follow the active precision policy.
    clip:
        ``clip(a, lo, hi, out) -> out`` — elementwise clamp (defaults to
        ``np.clip``).
    """

    name: str
    matmul: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    clip: Callable[[np.ndarray, float, float, np.ndarray], np.ndarray] = np.clip


def _numpy_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    return np.matmul(a, b, out=out)


def _numpy_clip(a, lo, hi, out):
    return np.clip(a, lo, hi, out=out)


NUMPY_BACKEND = ComputeBackend(name="numpy", matmul=_numpy_matmul, clip=_numpy_clip)


def compute_registry() -> BackendRegistry:
    """The process-global compute registry (``"numpy"`` is built in)."""
    registry = get_registry(COMPUTE_KIND)
    if "numpy" not in registry.names():
        registry.register("numpy", NUMPY_BACKEND, priority=0)
    return registry


def available_compute_backends() -> Tuple[str, ...]:
    """Usable compute backend names (without the ``"auto"`` alias)."""
    return compute_registry().available()


def resolve_compute_backend(name: str = AUTO_BACKEND) -> str:
    """Normalise a compute-backend selector (``"auto"`` → the default)."""
    return compute_registry().resolve(name)


def get_compute_backend(name: Optional[str] = None) -> ComputeBackend:
    """The :class:`ComputeBackend` behind ``name`` (default ``"auto"``)."""
    return compute_registry().get(AUTO_BACKEND if name is None else name)


__all__ = [
    "COMPUTE_KIND",
    "ComputeBackend",
    "NUMPY_BACKEND",
    "compute_registry",
    "available_compute_backends",
    "resolve_compute_backend",
    "get_compute_backend",
]
