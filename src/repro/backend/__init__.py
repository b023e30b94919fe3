"""Job executors and precision policies.

This package is the shared substrate under the suite runner, the shard
pipeline and the similarity hot paths:

* :mod:`repro.backend.executor` — the job-execution strategies
  (``serial`` / ``process-pool`` / ``process-pool-shm``) behind the
  :class:`ExecutorBackend` contract, and their ``"auto"`` selector
  (:data:`AUTO_BACKEND`); the suite runner and the shard pipeline submit
  their jobs through it,
* :mod:`repro.backend.shm` — the zero-copy shared-memory substrate under
  ``process-pool-shm``: :class:`~repro.backend.shm.SharedArena` segments
  with refcounted handles and guaranteed unlink, graph-pair staging /
  attach helpers, per-worker dataset caches and BLAS thread governance,
* :mod:`repro.backend.precision` — :class:`PrecisionPolicy`, the
  (compute dtype, accumulation dtype) pair threaded through the similarity
  kernels, the serve index/artifacts, the shard stitcher and the core
  aligner.  ``float64`` (default) is bit-identical to the historical code;
  ``float32`` halves score-matrix memory and accumulates reductions in
  float64.

Select both knobs per run via :class:`repro.core.HTCConfig`
(``compute_dtype=...``, ``executor_backend=...``) or the CLI (``--dtype``,
``--executor``).
"""

from repro.backend.executor import (
    AUTO_BACKEND,
    ExecutorBackend,
    ExecutorJob,
    available_executor_backends,
    get_executor_backend,
    resolve_executor_backend,
)
from repro.backend.precision import (
    FLOAT32,
    FLOAT64,
    PRECISIONS,
    PrecisionPolicy,
    as_score_matrix,
    resolve_policy,
    score_dtype,
)
from repro.backend.shm import (
    SharedArena,
    SharedPairHandle,
    ShmArrayHandle,
    attach_pair,
    blas_thread_cap,
    share_pair,
)

__all__ = [
    "AUTO_BACKEND",
    "ExecutorBackend",
    "ExecutorJob",
    "available_executor_backends",
    "resolve_executor_backend",
    "get_executor_backend",
    "SharedArena",
    "SharedPairHandle",
    "ShmArrayHandle",
    "share_pair",
    "attach_pair",
    "blas_thread_cap",
    "PRECISIONS",
    "PrecisionPolicy",
    "FLOAT64",
    "FLOAT32",
    "resolve_policy",
    "score_dtype",
    "as_score_matrix",
]
