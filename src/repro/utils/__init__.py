"""Small shared utilities used across the HTC reproduction.

The utilities are deliberately lightweight: deterministic seeding helpers,
simple structured logging, id and content-hash naming, and a handful of
scipy sparse-matrix helpers that the graph and orbit packages build on.
The sparse helpers load on first attribute access (PEP 562), so the serve
layers can use :mod:`repro.utils` without importing scipy.  Stages are timed
by :func:`repro.obs.span` (``into=``), not here.
"""

import importlib

from repro.utils.logging import get_logger
from repro.utils.random import check_random_state, seed_everything

#: Names of :mod:`repro.utils.sparse`, resolved on first use.
_SPARSE = ("to_csr", "sparse_from_edges", "symmetrize", "is_symmetric", "row_normalize")


def __getattr__(name):
    if name not in _SPARSE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module("repro.utils.sparse"), name)


def __dir__():
    return sorted(set(globals()) | set(_SPARSE))


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
