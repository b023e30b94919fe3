"""Result container returned by :class:`repro.core.HTCAligner`."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.similarity.matching import greedy_match, top_k_indices


@dataclass
class AlignmentResult:
    """Everything the HTC pipeline produced for one graph pair.

    Attributes
    ----------
    alignment_matrix:
        ``(n_source, n_target)`` final integrated alignment scores ``M``.
    orbit_importance:
        Posterior importance weights γ_k keyed by orbit id (sums to 1).
    trusted_pair_counts:
        Maximal number of trusted pairs found per orbit during fine-tuning.
    source_embeddings, target_embeddings:
        Final per-orbit node embeddings keyed by orbit id.  Scoring them as
        refinement did rebuilds each per-orbit ``M_k`` bit for bit (README).
    stage_times:
        Wall-clock seconds per pipeline stage (the Fig. 8 decomposition).
    training_losses:
        Total reconstruction loss per epoch.
    """

    alignment_matrix: np.ndarray
    orbit_importance: Dict[int, float] = field(default_factory=dict)
    trusted_pair_counts: Dict[int, int] = field(default_factory=dict)
    source_embeddings: Dict[int, np.ndarray] = field(default_factory=dict)
    target_embeddings: Dict[int, np.ndarray] = field(default_factory=dict)
    stage_times: Dict[str, float] = field(default_factory=dict)
    training_losses: List[float] = field(default_factory=list)

    @property
    def total_time(self) -> float:
        """Total wall-clock time across all recorded stages."""
        return float(sum(self.stage_times.values()))

    def predicted_anchors(self) -> List[Tuple[int, int]]:
        """Hard one-to-one alignment obtained by greedy matching on ``M``."""
        return greedy_match(self.alignment_matrix)

    def top_candidates(self, k: int = 10) -> np.ndarray:
        """Top-``k`` target candidates per source node, best first."""
        return top_k_indices(self.alignment_matrix, k)

    def best_match(self, source_node: int) -> int:
        """Highest-scoring target node for ``source_node``."""
        if not 0 <= source_node < self.alignment_matrix.shape[0]:
            raise IndexError(f"source node {source_node} out of range")
        return int(self.alignment_matrix[source_node].argmax())

    def ranked_orbits(self) -> List[Tuple[int, float]]:
        """Orbits sorted by decreasing importance weight (the Fig. 6 ranking)."""
        return sorted(self.orbit_importance.items(), key=lambda kv: -kv[1])

    # ------------------------------------------------------------------
    # serialization hooks (used by :mod:`repro.serve.artifacts`)
    # ------------------------------------------------------------------
    def array_payload(self) -> Dict[str, np.ndarray]:
        """All array-valued fields keyed by flat, filesystem-safe names.

        Orbit-keyed dictionaries are flattened to ``<field>_<orbit_id>``
        entries; :meth:`from_payload` reverses the flattening.
        """
        arrays: Dict[str, np.ndarray] = {
            "alignment_matrix": np.asarray(self.alignment_matrix)
        }
        for orbit, emb in self.source_embeddings.items():
            arrays[f"source_embedding_{orbit}"] = np.asarray(emb)
        for orbit, emb in self.target_embeddings.items():
            arrays[f"target_embedding_{orbit}"] = np.asarray(emb)
        if self.training_losses:
            arrays["training_losses"] = np.asarray(
                self.training_losses, dtype=np.float64
            )
        return arrays

    def scalar_payload(self) -> Dict[str, object]:
        """JSON-serialisable scalar fields (importances, counts, timings)."""
        return {
            "orbit_importance": {str(k): float(v) for k, v in self.orbit_importance.items()},
            "trusted_pair_counts": {
                str(k): int(v) for k, v in self.trusted_pair_counts.items()
            },
            "stage_times": {str(k): float(v) for k, v in self.stage_times.items()},
        }

    @classmethod
    def from_payload(
        cls, arrays: Dict[str, np.ndarray], scalars: Dict[str, object]
    ) -> "AlignmentResult":
        """Rebuild a result from :meth:`array_payload` + :meth:`scalar_payload`.

        Unknown array or scalar keys are ignored so newer writers stay
        loadable by older readers (forward compatibility); so are the
        per-orbit score matrices that older writers stored.
        """
        if "alignment_matrix" not in arrays:
            raise ValueError("payload is missing the alignment_matrix array")
        source_embeddings: Dict[int, np.ndarray] = {}
        target_embeddings: Dict[int, np.ndarray] = {}
        for name, array in arrays.items():
            for prefix, bucket in (
                ("source_embedding_", source_embeddings),
                ("target_embedding_", target_embeddings),
            ):
                suffix = name[len(prefix):]
                # Non-numeric suffixes are unknown keys from a newer writer.
                if name.startswith(prefix) and suffix.lstrip("-").isdigit():
                    bucket[int(suffix)] = np.asarray(array)
        losses = arrays.get("training_losses")
        return cls(
            alignment_matrix=np.asarray(arrays["alignment_matrix"]),
            orbit_importance={
                int(k): float(v)
                for k, v in dict(scalars.get("orbit_importance", {})).items()
            },
            trusted_pair_counts={
                int(k): int(v)
                for k, v in dict(scalars.get("trusted_pair_counts", {})).items()
            },
            source_embeddings=source_embeddings,
            target_embeddings=target_embeddings,
            stage_times={
                str(k): float(v)
                for k, v in dict(scalars.get("stage_times", {})).items()
            },
            training_losses=[] if losses is None else [float(x) for x in losses],
        )

    def __repr__(self) -> str:
        shape = self.alignment_matrix.shape
        return (
            f"AlignmentResult(alignment_matrix={shape[0]}x{shape[1]}, "
            f"orbits={sorted(self.orbit_importance)}, total_time={self.total_time:.2f}s)"
        )


__all__ = ["AlignmentResult"]
