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
weights, over the K-fold tiled attributes, and one blockwise loss node sums
the K per-view losses.  Each graph's stack is prepared once per training as
a :class:`~repro.nn.functional.Propagation`: the views are exactly
symmetric, so the stack is its own transpose, ``L X`` and each view's
``||L_k||_F^2`` are computed up front, and an epoch runs three sparse
products per graph (the second layer forward and backward, and the loss).

The two graphs' passes meet only at the shared weights, so while the
calling thread runs the source pass (forward, loss, backward), a worker
thread runs the target pass on a replica of the encoder: new leaf
parameters over the same arrays, re-pointed after every optimiser step.
Training pins BLAS to one thread (:func:`repro.backend.shm.single_blas_thread`)
and starts the worker only where the BLAS thread budget it found was at
least 2, so a process-pool worker capped at one thread trains serially.
Each weight gets exactly two gradient terms, one per graph, and a sum of two
terms does not depend on their order: losses and weights are bit-identical
with or without the worker, on any BLAS thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from typing import Dict, List, Optional

import numpy as np
import scipy.sparse as sp

from repro.backend.shm import single_blas_thread
from repro.core.config import HTCConfig
from repro.nn.functional import Propagation, frobenius_loss
from repro.nn.layers import SharedGCNEncoder
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.utils.logging import get_logger

logger = get_logger(__name__)


def reconstruction_loss(
    encoder: SharedGCNEncoder,
    laplacian,
    attributes: Optional[np.ndarray] = None,
) -> Tensor:
    """Orbit-reconstruction loss of one graph on one view (Eq. 6-7).

    ``laplacian`` is both the view the encoder propagates over and the
    target the inner product ``H H^T`` must reconstruct.  A
    :class:`~repro.nn.functional.Propagation` with ``blocks=K`` is the
    block-diagonal stack of K views and gives the sum of the K per-view
    losses; built with the tiled attributes as ``features``, it needs no
    ``attributes`` here.
    """
    embedding = encoder(laplacian, attributes)
    return frobenius_loss(embedding, laplacian)


def _stack(
    views: Dict[int, sp.csr_matrix], view_ids: List[int], attributes: np.ndarray
) -> Propagation:
    """One graph's views as a block-diagonal operand holding ``L X``."""
    return Propagation(
        sp.block_diag([views[k] for k in view_ids], format="csr"),
        blocks=len(view_ids),
        features=np.tile(attributes, (len(view_ids), 1)),
    )


class _GraphPass:
    """One graph's half of an epoch: forward, loss and backward."""

    def __init__(self, encoder: SharedGCNEncoder, stack: Propagation) -> None:
        self.encoder = encoder
        self.stack = stack
        self.loss: Optional[Tensor] = None

    def __call__(self) -> float:
        loss = reconstruction_loss(self.encoder, self.stack)
        # Rebinding frees the previous epoch's graph only now, after this
        # forward pass has allocated: freed first, glibc trims the heap and
        # every epoch re-faults every page.
        self.loss = loss
        loss.backward()
        return loss.item()


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

        The encoder is modified in place; embeddings can afterwards be
        obtained with :func:`repro.core.encoder.encode_views`.
        """
        if set(source_views) != set(target_views):
            raise ValueError("source and target must expose the same view ids")
        if not source_views:
            raise ValueError("training needs at least one view")

        parameters = encoder.parameters()
        optimizer = Adam(
            parameters,
            lr=self.config.learning_rate,
            weight_decay=self.config.weight_decay,
        )
        replica = encoder.replica()
        replica_parameters = replica.parameters()

        view_ids = list(source_views)
        source_pass = _GraphPass(
            encoder, _stack(source_views, view_ids, source_attributes)
        )
        target_pass = _GraphPass(
            replica, _stack(target_views, view_ids, target_attributes)
        )

        losses: List[float] = []
        with single_blas_thread() as budget, (
            ThreadPoolExecutor(max_workers=1) if budget >= 2 else nullcontext()
        ) as worker:
            for epoch in range(self.config.epochs):
                optimizer.zero_grad()
                replica.zero_grad()
                pending = worker.submit(target_pass) if worker else None
                loss = source_pass()
                loss += pending.result() if pending else target_pass()
                for parameter, twin in zip(parameters, replica_parameters):
                    parameter.grad = parameter.grad + twin.grad
                optimizer.step()
                for parameter, twin in zip(parameters, replica_parameters):
                    twin.data = parameter.data
                losses.append(loss)
                if epoch % 25 == 0:
                    logger.debug("epoch %d: loss %.4f", epoch, loss)
        return losses


__all__ = ["MultiOrbitTrainer", "reconstruction_loss"]
