"""Pairwise similarity matrices between two embedding sets.

All dense measures compute their score matrix in fixed row *windows* of
:data:`BLOCK_ROWS` rows, aligned to absolute row indices.  The windowing is
invisible to callers (the full matrix comes back either way) but it is what
makes the block engine in :mod:`repro.similarity.chunked` **bit-identical**
to these dense kernels: BLAS GEMM results depend on the operand
shapes, so ``(a @ b)[s:e]`` and ``a[s:e] @ b`` can differ in the last ulp.
By always issuing the same aligned ``(BLOCK_ROWS, d) x (d, n_t)`` products,
every code path performs the exact same floating-point operations per output
element, regardless of how many rows are materialised at a time.

**Precision.**  Every kernel takes a ``policy``
(:class:`repro.backend.PrecisionPolicy` or a spec like ``"float32"``).  The
default float64 policy performs exactly the historical operations and stays
bit-identical; the float32 policy computes the factorisation statistics in
float64 (the accumulation dtype), casts the ``O(n·d)`` factors down once,
and runs the GEMMs and the ``(n_s, n_t)`` score matrix in float32 — half
the peak memory and a measurably faster GEMM
(``benchmarks/bench_precision.py``).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.backend.precision import PolicyLike, PrecisionPolicy, resolve_policy

#: Fixed GEMM window (rows).  Every similarity kernel — dense or chunked —
#: computes score rows in windows of exactly this many rows, aligned to
#: absolute row index, so all paths are bit-identical (see module docstring).
BLOCK_ROWS = 64


def _validate_embeddings(source: np.ndarray, target: np.ndarray) -> tuple:
    source = np.asarray(source, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if source.ndim != 2 or target.ndim != 2:
        raise ValueError("embeddings must be 2-D arrays")
    if source.shape[1] != target.shape[1]:
        raise ValueError(
            f"embedding dimensions differ: {source.shape[1]} vs {target.shape[1]}"
        )
    return source, target


def _pearson_factors(
    source: np.ndarray,
    target: np.ndarray,
    policy: Optional[PrecisionPolicy] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Row-normalised factors whose product is the Pearson matrix.

    Centering and normalisation always run in float64 (the accumulation
    dtype); a non-exact policy only casts the finished ``O(n·d)`` factors,
    so the cheap statistics keep full precision and the expensive GEMM
    runs in the compute dtype.
    """
    source_centered = source - source.mean(axis=1, keepdims=True)
    target_centered = target - target.mean(axis=1, keepdims=True)
    source_norm = np.linalg.norm(source_centered, axis=1, keepdims=True)
    target_norm = np.linalg.norm(target_centered, axis=1, keepdims=True)
    source_norm[source_norm == 0] = 1.0
    target_norm[target_norm == 0] = 1.0
    source_centered /= source_norm
    target_centered /= target_norm
    if policy is not None and not policy.is_exact:
        return policy.cast(source_centered), policy.cast(target_centered)
    return source_centered, target_centered


def _cosine_factors(
    source: np.ndarray,
    target: np.ndarray,
    policy: Optional[PrecisionPolicy] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Row-normalised factors whose product is the cosine matrix."""
    source_norm = np.linalg.norm(source, axis=1, keepdims=True)
    target_norm = np.linalg.norm(target, axis=1, keepdims=True)
    source_norm[source_norm == 0] = 1.0
    target_norm[target_norm == 0] = 1.0
    source_factor = source / source_norm
    target_factor = target / target_norm
    if policy is not None and not policy.is_exact:
        return policy.cast(source_factor), policy.cast(target_factor)
    return source_factor, target_factor


def _windowed_product(
    source_factor: np.ndarray,
    target_factor: np.ndarray,
    out: np.ndarray,
    row_offset: int = 0,
    clip: bool = True,
) -> np.ndarray:
    """Fill ``out`` with ``source_factor @ target_factor.T`` window by window.

    ``row_offset`` is the absolute row index of ``source_factor[0]`` in the
    full score matrix; windows are aligned to absolute multiples of
    :data:`BLOCK_ROWS` so that any row chunking whose boundaries are multiples
    of the window produces identical GEMM calls.
    """
    n_rows = source_factor.shape[0]
    target_t = target_factor.T
    start = 0
    while start < n_rows:
        # Align the window end to the next absolute BLOCK_ROWS boundary.
        absolute = row_offset + start
        stop = min(n_rows, start + BLOCK_ROWS - (absolute % BLOCK_ROWS))
        np.matmul(source_factor[start:stop], target_t, out=out[start:stop])
        if clip:
            np.clip(out[start:stop], -1.0, 1.0, out=out[start:stop])
        start = stop
    return out


def _allocate_out(
    out: Optional[np.ndarray],
    shape: Tuple[int, int],
    policy: Optional[PrecisionPolicy] = None,
) -> np.ndarray:
    policy = resolve_policy(policy)
    if out is None:
        return policy.empty(shape)
    return policy.validate_out(out, shape)


def pearson_similarity(
    source: np.ndarray,
    target: np.ndarray,
    *,
    out: Optional[np.ndarray] = None,
    policy: PolicyLike = None,
) -> np.ndarray:
    """Pearson correlation between every source row and every target row.

    The paper (Eq. 9) uses Pearson correlation because of its translation and
    scale invariance.  Rows with zero variance are mapped to zero correlation
    with everything.

    ``out`` optionally receives the result in place (one ``(n_s, n_t)``
    allocation is the peak memory either way; see
    :func:`repro.similarity.chunked.chunked_mutual_nearest_neighbors` for
    trusted pairs without materialising the matrix).  ``policy`` selects the precision policy (see the
    module docstring).
    """
    policy = resolve_policy(policy)
    source, target = _validate_embeddings(source, target)
    out = _allocate_out(out, (source.shape[0], target.shape[0]), policy)
    source_factor, target_factor = _pearson_factors(source, target, policy)
    return _windowed_product(source_factor, target_factor, out)


def cosine_similarity(
    source: np.ndarray,
    target: np.ndarray,
    *,
    out: Optional[np.ndarray] = None,
    policy: PolicyLike = None,
) -> np.ndarray:
    """Cosine similarity between every source row and every target row."""
    policy = resolve_policy(policy)
    source, target = _validate_embeddings(source, target)
    out = _allocate_out(out, (source.shape[0], target.shape[0]), policy)
    source_factor, target_factor = _cosine_factors(source, target, policy)
    return _windowed_product(source_factor, target_factor, out)


def euclidean_similarity(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Negative squared Euclidean distance (larger = more similar)."""
    source, target = _validate_embeddings(source, target)
    source_sq = (source**2).sum(axis=1, keepdims=True)
    target_sq = (target**2).sum(axis=1, keepdims=True)
    distances = source_sq + target_sq.T - 2.0 * source @ target.T
    return -np.maximum(distances, 0.0)


__all__ = [
    "BLOCK_ROWS",
    "pearson_similarity",
    "cosine_similarity",
    "euclidean_similarity",
]
