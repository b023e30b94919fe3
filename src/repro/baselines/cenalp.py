"""CENALP (Du, Yan & Zha, IJCAI 2019) — joint link prediction and alignment.

CENALP alternates between aligning node pairs and densifying both networks by
predicted links, growing the anchor set iteratively from a small seed.  This
implementation keeps the iterative *alignment-growth* loop, which is the part
that matters for comparison, and simplifies the embedding step (spectral
embeddings plus a linear cross-graph mapping re-fitted every round on the
current anchor set) — the original uses cross-graph skip-gram walks; see
:mod:`repro.baselines.embedding`.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.baselines.base import AnchorList, BaseAligner
from repro.baselines.embedding import spectral_embedding
from repro.datasets.pair import GraphPair
from repro.similarity.matching import mutual_nearest_neighbors
from repro.similarity.measures import cosine_similarity
from repro.utils.random import RandomStateLike


class CENALP(BaseAligner):
    """Iterative cross-graph alignment growth from a seed anchor set.

    Parameters
    ----------
    embedding_dim:
        Per-network embedding dimension.
    n_rounds:
        Number of alignment-growth rounds.
    growth_per_round:
        Maximum number of new pseudo-anchors accepted per round.
    ridge:
        Ridge regularisation of the least-squares mapping.
    """

    name = "CENALP"
    requires_supervision = True

    def __init__(
        self,
        embedding_dim: int = 64,
        n_rounds: int = 5,
        growth_per_round: int = 25,
        ridge: float = 1e-3,
        random_state: RandomStateLike = 0,
    ) -> None:
        if n_rounds < 1:
            raise ValueError(f"n_rounds must be >= 1, got {n_rounds}")
        self.embedding_dim = embedding_dim
        self.n_rounds = n_rounds
        self.growth_per_round = growth_per_round
        self.ridge = ridge
        self.random_state = random_state

    def _fit_mapping(
        self,
        source_embedding: np.ndarray,
        target_embedding: np.ndarray,
        anchors: List[Tuple[int, int]],
    ) -> np.ndarray:
        """Least-squares linear map W with  source[anchor] @ W ≈ target[anchor]."""
        source_rows = source_embedding[[i for i, _ in anchors]]
        target_rows = target_embedding[[j for _, j in anchors]]
        dim = source_embedding.shape[1]
        gram = source_rows.T @ source_rows + self.ridge * np.eye(dim)
        return np.linalg.solve(gram, source_rows.T @ target_rows)

    def align(self, pair: GraphPair, train_anchors: AnchorList = None) -> np.ndarray:
        self._check_pair(pair)
        source_embedding = spectral_embedding(
            pair.source, self.embedding_dim, use_attributes=True
        )
        target_embedding = spectral_embedding(
            pair.target, self.embedding_dim, use_attributes=True
        )

        anchors: List[Tuple[int, int]] = list(train_anchors or [])
        if not anchors:
            # Unsupervised fallback: seed with mutual nearest neighbours of the
            # raw attribute space.
            attribute_similarity = cosine_similarity(
                pair.source.attributes, pair.target.attributes
            )
            anchors = mutual_nearest_neighbors(attribute_similarity)[
                : self.growth_per_round
            ]
        if not anchors:
            return cosine_similarity(source_embedding, target_embedding)

        scores = cosine_similarity(source_embedding, target_embedding)
        used_source = {i for i, _ in anchors}
        used_target = {j for _, j in anchors}

        for _ in range(self.n_rounds):
            mapping = self._fit_mapping(source_embedding, target_embedding, anchors)
            mapped = source_embedding @ mapping
            scores = cosine_similarity(mapped, target_embedding)

            # Grow the anchor set with confident mutual nearest neighbours that
            # do not clash with existing anchors.
            candidates = [
                (i, j, scores[i, j])
                for i, j in mutual_nearest_neighbors(scores)
                if i not in used_source and j not in used_target
            ]
            candidates.sort(key=lambda item: -item[2])
            added = 0
            for i, j, _ in candidates:
                if added >= self.growth_per_round:
                    break
                anchors.append((i, j))
                used_source.add(i)
                used_target.add(j)
                added += 1
            if added == 0:
                break
        return scores


__all__ = ["CENALP"]
