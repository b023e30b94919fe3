"""Trusted-pair based fine-tuning (paper §IV-D, Algorithm 2).

After training, the per-orbit embeddings are refined independently:

1. compute the LISI alignment matrix of the current embeddings,
2. find the trusted pairs (mutual nearest neighbours under LISI),
3. multiply the reinforcement factor of every trusted node by β (Eq. 13),
4. re-encode both graphs with the reinforced Laplacians ``R ~L R`` (Eq. 14),
5. repeat while the number of trusted pairs keeps growing.

Every encode is the encoder's forward-only explicit pass
(:meth:`repro.nn.layers.SharedGCNEncoder.forward`): no autograd tape, and
new output arrays, since each view keeps its best embeddings.

The output per orbit is the final alignment matrix and the maximal trusted
pair count, which later drives the posterior importance assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np
import scipy.sparse as sp

from repro.core.config import HTCConfig
from repro.graph.laplacian import reinforced_laplacian
from repro.nn.layers import SharedGCNEncoder
from repro.similarity.lisi import lisi_matrix
from repro.similarity.matching import mutual_nearest_neighbors
from repro.similarity.measures import pearson_similarity
from repro.utils.logging import get_logger

logger = get_logger(__name__)


@dataclass
class RefinementOutput:
    """Per-orbit outcome of the fine-tuning loop."""

    alignment_matrix: np.ndarray
    trusted_pairs: int
    iterations: int
    source_embedding: np.ndarray
    target_embedding: np.ndarray


class TrustedPairRefiner:
    """Runs Algorithm 2 on one orbit view at a time."""

    def __init__(self, config: HTCConfig) -> None:
        self.config = config

    def _score_matrix(
        self, source_embedding: np.ndarray, target_embedding: np.ndarray
    ) -> np.ndarray:
        # ``compute_dtype`` selects the precision policy of the scoring
        # GEMMs (float64 default = exact).
        policy = self.config.precision_policy
        if self.config.use_lisi:
            return lisi_matrix(
                source_embedding,
                target_embedding,
                n_neighbors=self.config.n_neighbors,
                policy=policy,
            )
        return pearson_similarity(source_embedding, target_embedding, policy=policy)

    def refine_view(
        self,
        encoder: SharedGCNEncoder,
        source_laplacian: sp.csr_matrix,
        target_laplacian: sp.csr_matrix,
        source_attributes: np.ndarray,
        target_attributes: np.ndarray,
    ) -> RefinementOutput:
        """Fine-tune one orbit view and return its alignment matrix."""
        beta = self.config.reinforcement_rate
        n_source = source_attributes.shape[0]
        n_target = target_attributes.shape[0]
        reinforcement_source = np.ones(n_source)
        reinforcement_target = np.ones(n_target)

        source_embedding = encoder(source_laplacian, source_attributes)
        target_embedding = encoder(target_laplacian, target_attributes)

        best_matrix = self._score_matrix(source_embedding, target_embedding)
        pairs = mutual_nearest_neighbors(best_matrix)
        best_count = len(pairs)
        best_source, best_target = source_embedding, target_embedding

        if not self.config.use_refinement:
            return RefinementOutput(
                alignment_matrix=best_matrix,
                trusted_pairs=best_count,
                iterations=0,
                source_embedding=best_source,
                target_embedding=best_target,
            )

        max_count = best_count
        iterations = 0
        for iterations in range(1, self.config.max_refinement_iterations + 1):
            # Reinforce the aggregation coefficients of the trusted nodes
            # (the pairs of the last scored matrix).  Mutual nearest
            # neighbours repeat no row and no column, so one indexed
            # multiply per side scales each trusted node exactly once.
            trusted = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
            reinforcement_source[trusted[:, 0]] *= beta
            reinforcement_target[trusted[:, 1]] *= beta

            reinforced_source = reinforced_laplacian(
                source_laplacian, reinforcement_source
            )
            reinforced_target = reinforced_laplacian(
                target_laplacian, reinforcement_target
            )
            source_embedding = encoder(reinforced_source, source_attributes)
            target_embedding = encoder(reinforced_target, target_attributes)
            current_matrix = self._score_matrix(source_embedding, target_embedding)
            pairs = mutual_nearest_neighbors(current_matrix)
            current_count = len(pairs)
            logger.debug(
                "refinement iteration %d: %d trusted pairs", iterations, current_count
            )

            if current_count <= max_count:
                break
            max_count = current_count
            best_matrix = current_matrix
            best_source, best_target = source_embedding, target_embedding

        return RefinementOutput(
            alignment_matrix=best_matrix,
            trusted_pairs=max_count,
            iterations=iterations,
            source_embedding=best_source,
            target_embedding=best_target,
        )

    def refine_all(
        self,
        encoder: SharedGCNEncoder,
        source_views: Dict[int, sp.csr_matrix],
        target_views: Dict[int, sp.csr_matrix],
        source_attributes: np.ndarray,
        target_attributes: np.ndarray,
    ) -> Dict[int, RefinementOutput]:
        """Fine-tune every view independently (loops do not interact)."""
        outputs: Dict[int, RefinementOutput] = {}
        for view_id in source_views:
            outputs[view_id] = self.refine_view(
                encoder,
                source_views[view_id],
                target_views[view_id],
                source_attributes,
                target_attributes,
            )
        return outputs


__all__ = ["TrustedPairRefiner", "RefinementOutput"]
