"""Configuration of the HTC framework.

The defaults mirror the paper's settings (§V-A) scaled to the CPU-only,
reduced-size datasets shipped with this reproduction: two GCN layers, Adam
with learning rate 0.01, reinforcement rate β = 1.1.  The paper uses an
embedding dimension of 200 and m = 20 nearest neighbours on networks with
thousands of nodes; the defaults here are proportionally smaller but both are
plain configuration fields.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple, Union

from repro.backend.executor import AUTO_BACKEND, available_executor_backends
from repro.backend.precision import PrecisionPolicy, resolve_policy
from repro.nn.functional import get_activation
from repro.orbits.cache import resolve_cache
from repro.orbits.graphlets import EDGE_ORBIT_COUNT
from repro.utils.random import RandomStateLike

#: Valid values for :attr:`HTCConfig.topology_mode`.
TOPOLOGY_MODES = ("orbit", "adjacency", "diffusion")


@dataclass
class HTCConfig:
    """Hyper-parameters of :class:`repro.core.HTCAligner`.

    Attributes
    ----------
    orbits:
        Edge-orbit ids to use (``None`` = all 13).  The paper's K-sweep
        (Fig. 10a) corresponds to ``orbits=range(K)``.
    topology_mode:
        ``"orbit"`` (default, the paper's GOMs), ``"adjacency"`` (plain
        edge-indiscriminative topology — the low-order ablation), or
        ``"diffusion"`` (PPR diffusion matrices — the HTC-DT ablation).
    weighted_orbits:
        Weighted (occurrence counts) vs binary GOMs.
    embedding_dim:
        Output dimension ``d`` of the encoder.
    n_layers:
        Number of GCN layers ``L`` (the paper finds 2 is best).
    activation:
        Hidden-layer activation name, a key of
        :data:`repro.nn.functional.ACTIVATIONS` (checked on construction).
    learning_rate, epochs, weight_decay:
        Adam settings for the multi-orbit-aware training stage.
    n_neighbors:
        Neighbourhood size ``m`` of the LISI hubness correction.
    reinforcement_rate:
        β > 1; trusted nodes' aggregation coefficients are multiplied by it.
    max_refinement_iterations:
        Safety cap on the per-orbit fine-tuning loop.
    use_refinement:
        Enable the trusted-pair fine-tuning stage.
    use_lisi:
        Use LISI (hubness-corrected) scores; if False, raw Pearson similarity
        is used for both trusted-pair detection and the final matrices.
    augment_with_gdv:
        Extension beyond the paper: concatenate each node's log-scaled
        graphlet degree vector (15 node orbits) to its attributes before
        encoding, which injects higher-order structure even into the
        low-order ablations.
    compute_dtype:
        Precision policy of the similarity/serve/shard hot paths:
        ``"float64"`` (default — exact, bit-identical to the historical
        kernels) or ``"float32"`` (half the score-matrix memory, faster
        GEMMs, float64 accumulation for reductions; documented tolerances
        instead of bit-identity).  See :mod:`repro.backend.precision`.
    orbit_cache:
        Orbit-count memoisation spec: ``"memory"`` (default; process-wide
        in-memory cache keyed by graph content hash), ``"off"``, a directory
        path for an on-disk cache, a bool, or an
        :class:`repro.orbits.OrbitCache` instance.
    shard_count:
        ``None`` (default) aligns the whole pair in one shot.  An integer
        ``N >= 1`` routes alignment through the partition–align–stitch
        subsystem (:mod:`repro.shard`): both graphs are partitioned into
        ``N`` community-consistent shards, shard pairs are aligned
        independently (bounding per-job memory/time by the shard size), and
        the results are stitched into one global sparse alignment.
    shard_overlap:
        BFS hops of boundary overlap added around every shard (sharded mode
        only).  Overlapping shards give the stitcher multiple scored
        opinions about boundary nodes; ``0`` disables the overlap ring.
    executor_backend:
        Job-execution strategy for sharded alignment (and any suite this
        config rides in): ``"auto"`` (default), ``"serial"``,
        ``"process-pool"`` or ``"process-pool-shm"``
        (:mod:`repro.backend.executor`).  Execution-only: it never changes
        results, job spec hashes, or resume artifacts.
    diffusion_orders, diffusion_alpha:
        Settings of the diffusion family used when ``topology_mode ==
        "diffusion"``.
    random_state:
        Seed controlling weight initialisation.
    """

    orbits: Optional[Sequence[int]] = None
    topology_mode: str = "orbit"
    weighted_orbits: bool = True
    embedding_dim: int = 64
    n_layers: int = 2
    activation: str = "relu"
    learning_rate: float = 0.01
    epochs: int = 100
    weight_decay: float = 0.0
    n_neighbors: int = 10
    reinforcement_rate: float = 1.1
    max_refinement_iterations: int = 15
    use_refinement: bool = True
    use_lisi: bool = True
    augment_with_gdv: bool = False
    compute_dtype: str = "float64"
    orbit_cache: Union[bool, str, object] = "memory"
    shard_count: Optional[int] = None
    shard_overlap: int = 1
    executor_backend: str = AUTO_BACKEND
    diffusion_orders: Tuple[int, ...] = (1, 2, 3, 4, 5)
    diffusion_alpha: float = 0.15
    random_state: RandomStateLike = 0

    def __post_init__(self) -> None:
        if self.topology_mode not in TOPOLOGY_MODES:
            raise ValueError(
                f"topology_mode must be one of {TOPOLOGY_MODES}, "
                f"got {self.topology_mode!r}"
            )
        if self.orbits is not None:
            self.orbits = tuple(int(k) for k in self.orbits)
            if not self.orbits:
                raise ValueError("orbits must be non-empty or None")
            for orbit in self.orbits:
                if not 0 <= orbit < EDGE_ORBIT_COUNT:
                    raise ValueError(
                        f"orbit ids must be in [0, {EDGE_ORBIT_COUNT}), got {orbit}"
                    )
        if self.embedding_dim < 1:
            raise ValueError(f"embedding_dim must be >= 1, got {self.embedding_dim}")
        if self.n_layers < 1:
            raise ValueError(f"n_layers must be >= 1, got {self.n_layers}")
        # Checked here, not only when a hidden layer is built: with
        # n_layers=1 the encoder never reads it.
        get_activation(self.activation)
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.n_neighbors < 1:
            raise ValueError(f"n_neighbors must be >= 1, got {self.n_neighbors}")
        if self.reinforcement_rate <= 1.0:
            raise ValueError(
                f"reinforcement_rate must be > 1, got {self.reinforcement_rate}"
            )
        if self.max_refinement_iterations < 1:
            raise ValueError(
                "max_refinement_iterations must be >= 1, "
                f"got {self.max_refinement_iterations}"
            )
        if self.shard_count is not None and self.shard_count < 1:
            raise ValueError(
                f"shard_count must be >= 1 or None, got {self.shard_count}"
            )
        if self.shard_overlap < 0:
            raise ValueError(
                f"shard_overlap must be >= 0, got {self.shard_overlap}"
            )
        valid_executors = (AUTO_BACKEND,) + available_executor_backends()
        if self.executor_backend not in valid_executors:
            raise ValueError(
                f"executor_backend must be one of {valid_executors}, "
                f"got {self.executor_backend!r}"
            )
        # Fail fast so a bad CLI/suite value surfaces before any training.
        resolve_policy(self.compute_dtype)
        try:
            resolve_cache(self.orbit_cache)
        except TypeError as exc:
            raise ValueError(str(exc)) from exc

    @property
    def resolved_orbits(self) -> Tuple[int, ...]:
        """The orbit ids actually used (all 13 when ``orbits`` is None)."""
        if self.orbits is None:
            return tuple(range(EDGE_ORBIT_COUNT))
        return tuple(self.orbits)

    @property
    def hidden_dims(self) -> Tuple[int, ...]:
        """Per-layer output sizes fed to the shared encoder."""
        return tuple([self.embedding_dim] * self.n_layers)

    @property
    def precision_policy(self) -> PrecisionPolicy:
        """The resolved :class:`PrecisionPolicy` behind ``compute_dtype``."""
        return resolve_policy(self.compute_dtype)

    def updated(self, **changes) -> "HTCConfig":
        """Return a copy of the config with ``changes`` applied."""
        return replace(self, **changes)


__all__ = ["HTCConfig", "TOPOLOGY_MODES"]
