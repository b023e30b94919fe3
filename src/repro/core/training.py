"""Multi-orbit-aware training (paper §IV-C, Algorithm 1).

Without anchor labels, HTC trains its shared GCN encoder in the Graph
Auto-Encoder paradigm: for every orbit view ``k`` and both graphs, the
encoder's embeddings must reconstruct that view's Laplacian through an inner
product decoder.  Because the encoder parameters are shared across *all*
views and both graphs, minimising the summed loss makes the encoder
multi-orbit-aware — it cannot overfit to any single topological pattern,
which is also the mechanism behind HTC's robustness to edge removal.

An epoch encodes each graph's K views in one pass: the block-diagonal stack
of the views is the propagation matrix of K independent GCNs that share
weights, over the K-fold tiled attributes, and one blockwise loss sums the K
per-view losses.  Each graph's stack is prepared once per training as a
:class:`~repro.nn.functional.Propagation`: the views are exactly symmetric,
so the stack is its own transpose, ``L X`` and each view's ``||L_k||_F^2``
are computed up front, and an epoch runs three sparse products per graph
(the second layer forward and backward, and the loss).

Each graph's half of an epoch is one explicit forward, loss and
vector-Jacobian pass (:class:`~repro.nn.gcn.EncoderPass`) on the plain
weight arrays, with no autograd tape.  It replays the tape's numpy
operations in the tape's order, so losses and weights are bit-identical to
the tape's, and it writes into a workspace allocated once per ``train``
call: per layer an output, a gradient and (after the first) a product
buffer, ReLU's mask, and the loss's ``L H``.  The sparse products write
into their buffers too, through scipy's own CSR kernel where the operands
allow it (:func:`~repro.nn.functional.sparse_product`, which falls back to
``L.dot``).  So an epoch allocates only weight-sized arrays, and the pages
of the large ones are faulted in once per training, not once per epoch.

The two graphs' passes meet only at the shared weights, so while the
calling thread runs the source pass, a worker thread runs the target pass
over the same weight arrays, read afresh each epoch because the optimiser
step rebinds them.  Each pass writes only into its own workspace, which is
allocated here on the calling thread.  Training pins BLAS to one thread
(:func:`repro.backend.shm.single_blas_thread`) and starts the worker only
where the BLAS thread budget it found was at least 2, so a process-pool
worker capped at one thread trains serially.  Each weight gets exactly two
gradient terms, one per graph, and a sum of two terms does not depend on
their order: losses and weights are bit-identical with or without the
worker, on any BLAS thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from typing import Dict, List, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.backend.shm import single_blas_thread
from repro.core.config import HTCConfig
from repro.nn.functional import Propagation

# perfbench's ``loss`` probe resolves ``repro.core.training:frobenius_loss``;
# training itself no longer calls it.
from repro.nn.functional import frobenius_loss  # noqa: F401
from repro.nn.gcn import EncoderPass
from repro.nn.layers import SharedGCNEncoder
from repro.nn.optim import Adam
from repro.utils.logging import get_logger

logger = get_logger(__name__)


def _stack(
    views: Dict[int, sp.csr_matrix], view_ids: List[int], attributes: np.ndarray
) -> Propagation:
    """One graph's views as a block-diagonal operand holding ``L X``."""
    return Propagation(
        sp.block_diag([views[k] for k in view_ids], format="csr"),
        blocks=len(view_ids),
        features=np.tile(attributes, (len(view_ids), 1)),
    )


def _half_epoch(
    graph_pass: EncoderPass, weights: Sequence[np.ndarray]
) -> Tuple[float, List[np.ndarray]]:
    """One graph's loss and weight gradients for ``weights``."""
    graph_pass.forward(weights)
    loss = graph_pass.loss()
    return loss, graph_pass.vjp(weights)


class MultiOrbitTrainer:
    """Trains a shared encoder over all orbit views of two graphs."""

    def __init__(self, config: HTCConfig) -> None:
        self.config = config

    def train(
        self,
        encoder: SharedGCNEncoder,
        source_views: Dict[int, sp.csr_matrix],
        target_views: Dict[int, sp.csr_matrix],
        source_attributes: np.ndarray,
        target_attributes: np.ndarray,
    ) -> List[float]:
        """Run Algorithm 1 and return the per-epoch total losses.

        Each epoch rebinds ``encoder.weights`` to the optimiser's updated
        arrays; embeddings can afterwards be obtained with
        :func:`repro.core.encoder.encode_views`.
        """
        if set(source_views) != set(target_views):
            raise ValueError("source and target must expose the same view ids")
        if not source_views:
            raise ValueError("training needs at least one view")

        optimizer = Adam(
            encoder.weights,
            lr=self.config.learning_rate,
            weight_decay=self.config.weight_decay,
        )
        view_ids = list(source_views)
        source_pass = EncoderPass(
            encoder.activations,
            _stack(source_views, view_ids, source_attributes),
            encoder.weights,
        )
        target_pass = EncoderPass(
            encoder.activations,
            _stack(target_views, view_ids, target_attributes),
            encoder.weights,
        )

        losses: List[float] = []
        with single_blas_thread() as budget, (
            ThreadPoolExecutor(max_workers=1) if budget >= 2 else nullcontext()
        ) as worker:
            for epoch in range(self.config.epochs):
                weights = encoder.weights
                pending = (
                    worker.submit(_half_epoch, target_pass, weights) if worker else None
                )
                loss, gradients = _half_epoch(source_pass, weights)
                target_loss, target_gradients = (
                    pending.result() if pending else _half_epoch(target_pass, weights)
                )
                loss += target_loss
                encoder.weights = optimizer.step(
                    weights, [a + b for a, b in zip(gradients, target_gradients)]
                )
                losses.append(loss)
                if epoch % 25 == 0:
                    logger.debug("epoch %d: loss %.4f", epoch, loss)
        return losses


__all__ = ["MultiOrbitTrainer"]
