"""The end-to-end HTC pipeline (paper Fig. 3).

``HTCAligner.align(pair)`` runs the five stages and records their wall-clock
decomposition (the Fig. 8 breakdown):

1. *orbit counting* — edge-orbit counts of both graphs,
2. *laplacian construction* — GOMs → modified, normalised orbit Laplacians,
3. *multi-orbit-aware training* — Algorithm 1 on the shared encoder,
4. *trusted-pair fine-tuning* — Algorithm 2 per orbit,
5. *weighted integration* — posterior importance assignment (Eq. 15).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.config import HTCConfig
from repro.core.encoder import (
    build_topology_views,
    count_orbits_if_needed,
    make_encoder,
)
from repro.core.integration import integrate_alignment_matrices
from repro.core.refinement import TrustedPairRefiner
from repro.core.result import AlignmentResult
from repro.core.training import MultiOrbitTrainer
from repro.datasets.pair import GraphPair
from repro.graph.attributed_graph import AttributedGraph
from repro.orbits.cache import resolve_cache
from repro.orbits.engine import graphlet_degree_vectors
from repro.utils.logging import get_logger
from repro.utils.timing import StageTimer

logger = get_logger(__name__)


def _augment_with_gdv(graph: AttributedGraph, config: HTCConfig) -> np.ndarray:
    """Concatenate L2-normalised graphlet degree vectors to the node attributes.

    This is the ``augment_with_gdv`` extension: node orbits are isomorphism
    invariant, so the augmentation preserves the attribute-consistency premise
    of Proposition 1 while injecting higher-order structure into the features.
    The GDV block is normalised per node so its magnitude stays comparable to
    one-hot attributes; even so, raw counts are sensitive to edge removal, and
    the ablation bench shows the augmentation does not improve on HTC's
    orbit-weighted aggregation (see EXPERIMENTS.md).
    """
    gdv = graphlet_degree_vectors(
        graph,
        backend=config.orbit_backend,
        cache=resolve_cache(config.orbit_cache),
    )
    norms = np.linalg.norm(gdv, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return np.hstack([graph.attributes, gdv / norms])

#: Stage names used in the runtime decomposition (matches the paper's Fig. 8).
STAGE_ORBIT_COUNTING = "orbit_counting"
STAGE_LAPLACIAN = "laplacian_construction"
STAGE_TRAINING = "multi_orbit_training"
STAGE_FINE_TUNING = "trusted_pair_fine_tuning"
STAGE_INTEGRATION = "weighted_integration"
STAGE_OTHER = "other"


class HTCAligner:
    """Higher-order Topological Consistency aligner.

    Parameters
    ----------
    config:
        Hyper-parameters; defaults reproduce the paper's configuration scaled
        to the bundled synthetic datasets.

    Examples
    --------
    >>> from repro.datasets import load_dataset
    >>> from repro.core import HTCAligner, HTCConfig
    >>> pair = load_dataset("tiny")
    >>> aligner = HTCAligner(HTCConfig(epochs=10, embedding_dim=16))
    >>> result = aligner.align(pair)
    >>> result.alignment_matrix.shape == (pair.source.n_nodes, pair.target.n_nodes)
    True
    """

    name = "HTC"
    requires_supervision = False

    def __init__(self, config: Optional[HTCConfig] = None) -> None:
        self.config = config if config is not None else HTCConfig()
        self.encoder_ = None
        self.last_result_: Optional[AlignmentResult] = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def align(self, pair: GraphPair, train_anchors=None) -> AlignmentResult:
        """Align ``pair`` and return the full :class:`AlignmentResult`.

        ``train_anchors`` is accepted (and ignored) so HTC can be driven by
        the same experiment protocol as the supervised baselines.
        """
        return self.align_graphs(pair.source, pair.target)

    def align_graphs(
        self, source: AttributedGraph, target: AttributedGraph
    ) -> AlignmentResult:
        """Align two graphs directly (no ground truth needed)."""
        if source.n_attributes != target.n_attributes:
            raise ValueError(
                "source and target must share an attribute space; got "
                f"{source.n_attributes} and {target.n_attributes} dimensions"
            )
        config = self.config
        timer = StageTimer()

        with timer.stage(STAGE_ORBIT_COUNTING):
            source_counts = count_orbits_if_needed(source, config)
            target_counts = count_orbits_if_needed(target, config)

        source_attributes = source.attributes
        target_attributes = target.attributes
        if config.augment_with_gdv:
            with timer.stage(STAGE_OTHER):
                source_attributes = _augment_with_gdv(source, config)
                target_attributes = _augment_with_gdv(target, config)

        with timer.stage(STAGE_LAPLACIAN):
            source_views = build_topology_views(source, config, source_counts)
            target_views = build_topology_views(target, config, target_counts)

        with timer.stage(STAGE_TRAINING):
            encoder = make_encoder(source_attributes.shape[1], config)
            trainer = MultiOrbitTrainer(config)
            losses = trainer.train(
                encoder,
                source_views,
                target_views,
                source_attributes,
                target_attributes,
            )
        self.encoder_ = encoder

        with timer.stage(STAGE_FINE_TUNING):
            refiner = TrustedPairRefiner(config)
            refined = refiner.refine_all(
                encoder,
                source_views,
                target_views,
                source_attributes,
                target_attributes,
            )

        with timer.stage(STAGE_INTEGRATION):
            orbit_matrices = {k: out.alignment_matrix for k, out in refined.items()}
            trusted_counts = {k: out.trusted_pairs for k, out in refined.items()}
            alignment_matrix, importance = integrate_alignment_matrices(
                orbit_matrices, trusted_counts, policy=config.precision_policy
            )

        result = AlignmentResult(
            alignment_matrix=alignment_matrix,
            orbit_importance=importance,
            trusted_pair_counts=trusted_counts,
            source_embeddings={k: out.source_embedding for k, out in refined.items()},
            target_embeddings={k: out.target_embedding for k, out in refined.items()},
            stage_times=timer.as_dict(),
            training_losses=losses,
        )
        self.last_result_ = result
        logger.info(
            "HTC aligned %s -> %s in %.2fs (%d views)",
            source.name,
            target.name,
            result.total_time,
            len(importance),
        )
        return result

    def alignment_matrix(self, pair: GraphPair) -> np.ndarray:
        """Convenience wrapper returning only the final alignment matrix."""
        return self.align(pair).alignment_matrix

    def __repr__(self) -> str:
        return f"HTCAligner(config={self.config!r})"


__all__ = [
    "HTCAligner",
    "STAGE_ORBIT_COUNTING",
    "STAGE_LAPLACIAN",
    "STAGE_TRAINING",
    "STAGE_FINE_TUNING",
    "STAGE_INTEGRATION",
    "STAGE_OTHER",
]
