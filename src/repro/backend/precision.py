"""Precision policies: which dtype the hot paths compute and accumulate in.

Every GEMM, hubness pass and top-``k`` selection in the similarity, serve
and shard layers used to hard-code ``np.float64``.  A
:class:`PrecisionPolicy` makes the choice explicit and threads it through
the kernels as one object:

* ``float64`` (the default) — exact mode.  Every operation is performed in
  double precision, **bit-identical** to the pre-policy code paths; the
  regression-gated identity tests run in this mode.
* ``float32`` — compute mode.  Score matrices, GEMM operands and index
  score arrays are ``float32`` (half the memory, and measurably faster
  GEMMs on typical BLAS builds — see ``benchmarks/bench_precision.py``),
  while **reductions accumulate in float64**: hubness means, weighted
  integration sums and similar statistics are produced with a float64
  accumulator (``accum_dtype``) so error does not grow with the reduction
  length.  Results carry documented tolerances rather than bit-identity.

Policies are immutable value objects; ``resolve_policy`` accepts a policy,
a dtype-like spec (``"float32"``, ``np.float32`` ...) or ``None`` (the
float64 default), so call sites can expose a permissive ``policy=`` kwarg.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

#: Precision names accepted by :func:`resolve_policy` and ``--dtype``.
PRECISIONS = ("float64", "float32")


@dataclass(frozen=True)
class PrecisionPolicy:
    """An immutable (compute dtype, accumulation dtype) pair.

    Attributes
    ----------
    name:
        ``"float64"`` or ``"float32"`` — the user-facing policy name.
    compute_dtype:
        Dtype of score matrices, GEMM operands/outputs and stored index
        scores.
    accum_dtype:
        Dtype reductions accumulate in; always ``float64`` so the float32
        policy keeps full-precision statistics (hubness vectors, weighted
        sums).
    """

    name: str
    compute_dtype: np.dtype
    accum_dtype: np.dtype

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------
    @property
    def is_exact(self) -> bool:
        """True for the bit-identical float64 policy."""
        return self.compute_dtype == np.dtype(np.float64)

    # ------------------------------------------------------------------
    # array helpers
    # ------------------------------------------------------------------
    def empty(self, shape) -> np.ndarray:
        return np.empty(shape, dtype=self.compute_dtype)

    def cast(self, array: np.ndarray) -> np.ndarray:
        """Cast to the compute dtype, returning the input unchanged if it
        already matches (the float64 policy never copies float64 data)."""
        array = np.asarray(array)
        if array.dtype == self.compute_dtype:
            return array
        return array.astype(self.compute_dtype)

    def validate_out(self, out: np.ndarray, shape: Tuple[int, ...], *,
                     context: str = "out") -> np.ndarray:
        """Check a pre-allocated output buffer against this policy.

        The error names the active policy so callers who allocated a buffer
        under one dtype and scored under another see exactly which knob
        disagrees (the old check hard-rejected anything non-float64).
        """
        if out.shape != tuple(shape) or out.dtype != self.compute_dtype:
            raise ValueError(
                f"{context} must be a {self.compute_dtype.name} array of shape "
                f"{tuple(shape)} under the active precision policy "
                f"{self.name!r}, got {out.dtype} {out.shape}"
            )
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PrecisionPolicy({self.name!r}, compute={self.compute_dtype.name}, "
            f"accum={self.accum_dtype.name})"
        )


#: The exact (bit-identical, default) policy.
FLOAT64 = PrecisionPolicy(
    name="float64",
    compute_dtype=np.dtype(np.float64),
    accum_dtype=np.dtype(np.float64),
)

#: The reduced-memory policy: float32 compute, float64 accumulation.
FLOAT32 = PrecisionPolicy(
    name="float32",
    compute_dtype=np.dtype(np.float32),
    accum_dtype=np.dtype(np.float64),
)

_POLICIES = {"float64": FLOAT64, "float32": FLOAT32}

PolicyLike = Union[None, str, np.dtype, type, PrecisionPolicy]


def resolve_policy(policy: PolicyLike = None) -> PrecisionPolicy:
    """Normalise a policy spec to a :class:`PrecisionPolicy`.

    Accepts ``None`` (→ the float64 default), a policy name, a dtype-like
    (``np.float32``, ``"float32"``, ``np.dtype("float32")``) or an existing
    policy (returned as-is).
    """
    if policy is None:
        return FLOAT64
    if isinstance(policy, PrecisionPolicy):
        return policy
    try:
        name = np.dtype(policy).name
    except TypeError:
        name = str(policy)
    resolved = _POLICIES.get(name)
    if resolved is None:
        raise ValueError(
            f"unknown precision policy {policy!r}; expected one of {PRECISIONS}"
        )
    return resolved


def score_dtype(array_or_dtype) -> np.dtype:
    """The policy-legal dtype a score container should use for ``array``.

    Float32 and float64 data keep their dtype; anything else (ints, bools,
    float16 ...) is promoted to float64 — exactly the historical coercion,
    minus the silent float32 upcast.
    """
    dtype = getattr(array_or_dtype, "dtype", None)
    if dtype is None:
        dtype = np.dtype(array_or_dtype)
    if dtype in (np.dtype(np.float32), np.dtype(np.float64)):
        return dtype
    return np.dtype(np.float64)


def as_score_matrix(array) -> np.ndarray:
    """Coerce to a policy-legal score array (see :func:`score_dtype`)."""
    array = np.asarray(array)
    wanted = score_dtype(array)
    if array.dtype == wanted:
        return array
    return array.astype(wanted)


__all__ = [
    "PRECISIONS",
    "PrecisionPolicy",
    "FLOAT64",
    "FLOAT32",
    "resolve_policy",
    "score_dtype",
    "as_score_matrix",
]
