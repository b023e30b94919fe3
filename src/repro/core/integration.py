"""Posterior importance assignment (paper §IV-E, Eq. 15).

Every orbit's fine-tuning loop produces an alignment matrix ``M_k`` and a
trusted-pair count ``T_k``.  The orbit's importance is
``γ_k = T_k / Σ_i T_i`` and the final alignment matrix is the weighted sum
``M = Σ_k γ_k M_k``.  Orbits whose embeddings identified more mutually
consistent pairs are trusted more — which is how HTC adapts to the very
different orbit-importance profiles of dense and sparse networks (Fig. 6).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.backend.precision import PolicyLike, resolve_policy
from repro.similarity.chunked import _row_blocks


def orbit_importance(trusted_pair_counts: Dict[int, int]) -> Dict[int, float]:
    """Normalise trusted-pair counts into importance weights γ_k.

    If no orbit found any trusted pair, the weights fall back to uniform.
    """
    if not trusted_pair_counts:
        raise ValueError("trusted_pair_counts must not be empty")
    counts = {k: max(0, int(v)) for k, v in trusted_pair_counts.items()}
    total = sum(counts.values())
    if total == 0:
        uniform = 1.0 / len(counts)
        return {k: uniform for k in counts}
    return {k: v / total for k, v in counts.items()}


def integrate_alignment_matrices(
    orbit_matrices: Dict[int, np.ndarray],
    trusted_pair_counts: Dict[int, int],
    policy: PolicyLike = None,
) -> Tuple[np.ndarray, Dict[int, float]]:
    """Combine per-orbit alignment matrices into the final matrix ``M``.

    The γ-weighted sum runs over the row blocks of the similarity engine
    (:mod:`repro.similarity.chunked`): each block accumulates its orbits in
    a float64 buffer, in orbit order, and is stored in the compute dtype of
    ``policy`` (:mod:`repro.backend.precision`).  Under the float64 default
    this is bit-identical to ``M += γ_k · M_k`` over whole matrices; under
    float32 the output is float32 but the 13-view reduction does not lose
    precision to the storage dtype (compute-low / accumulate-high).

    Returns
    -------
    alignment_matrix:
        The γ-weighted sum of the per-orbit matrices.
    importance:
        The γ_k weights used.
    """
    if not orbit_matrices:
        raise ValueError("orbit_matrices must not be empty")
    if set(orbit_matrices) != set(trusted_pair_counts):
        raise ValueError(
            "orbit_matrices and trusted_pair_counts must have the same keys"
        )
    shapes = {matrix.shape for matrix in orbit_matrices.values()}
    if len(shapes) != 1:
        raise ValueError(f"alignment matrices have inconsistent shapes: {shapes}")

    importance = orbit_importance(trusted_pair_counts)
    n_rows, n_cols = next(iter(shapes))
    policy = resolve_policy(policy)
    final = policy.empty((n_rows, n_cols))
    for start, stop in _row_blocks(n_rows, n_cols):
        accumulator = np.zeros((stop - start, n_cols), dtype=policy.accum_dtype)
        for orbit, matrix in orbit_matrices.items():
            accumulator += importance[orbit] * np.asarray(
                matrix[start:stop], dtype=policy.accum_dtype
            )
        final[start:stop] = accumulator
    return final, importance


__all__ = ["orbit_importance", "integrate_alignment_matrices"]
