"""Small shared utilities used across the HTC reproduction.

The utilities are deliberately lightweight: deterministic seeding helpers,
simple structured logging, and a handful of scipy sparse-matrix helpers that
the graph and orbit packages build on.  Stages are timed by
:func:`repro.obs.span` (``into=``), not here.
"""

from repro.utils.logging import get_logger
from repro.utils.random import check_random_state, seed_everything
from repro.utils.sparse import (
    is_symmetric,
    row_normalize,
    sparse_from_edges,
    symmetrize,
    to_csr,
)

__all__ = [
    "get_logger",
    "seed_everything",
    "check_random_state",
    "to_csr",
    "sparse_from_edges",
    "symmetrize",
    "is_symmetric",
    "row_normalize",
]
