"""Partition–align–stitch: divide-and-conquer alignment of large graph pairs.

Single-shot HTC trains and scores a whole graph pair at once, so per-pair
cost grows superlinearly in the number of nodes (orbit counting, the
``O(n_s·n_t)`` scoring stages, per-orbit refinement).  This subsystem aligns
pairs far beyond that envelope in three stages:

1. :mod:`repro.shard.partition` — deterministic seeded community
   partitioning of both graphs plus cross-graph shard matching by cheap
   structural/attribute signatures,
2. :mod:`repro.shard.executor` — per-shard-pair :class:`~repro.core.HTCAligner`
   jobs executed through the existing :mod:`repro.runner` machinery
   (spec-hashed artifacts, the :mod:`repro.backend.executor` backends,
   ``resume``),
3. :mod:`repro.shard.stitch` — merging the shard jobs' own sparse top-``k``
   serve indexes, in memory, into one global sparse alignment with
   deterministic boundary-conflict resolution and an optional
   seed-consistency refinement pass.  No shard's dense score matrix is
   loaded.

Wire-up: ``HTCConfig(shard_count=..., shard_overlap=...)``, the CLI
(``align --shards N``), ``run-suite`` (any HTC job whose config sets
``shard_count``), and :func:`repro.serve.artifacts.save_index_artifact` for
serving stitched results.
"""

from repro.shard.executor import ShardedAligner, align_sharded
from repro.shard.partition import (
    Partition,
    ShardPair,
    ShardPlan,
    build_shard_plan,
    expand_with_overlap,
    match_partitions,
    node_features,
    partition_graph,
    shard_signature,
    transfer_seeds,
)
from repro.shard.stitch import (
    StitchedAlignment,
    refine_stitched,
    stitch_alignments,
)

__all__ = [
    "Partition",
    "ShardPair",
    "ShardPlan",
    "partition_graph",
    "transfer_seeds",
    "node_features",
    "expand_with_overlap",
    "shard_signature",
    "match_partitions",
    "build_shard_plan",
    "align_sharded",
    "ShardedAligner",
    "StitchedAlignment",
    "stitch_alignments",
    "refine_stitched",
]
