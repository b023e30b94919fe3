"""HTC: Higher-order Topological Consistency for Unsupervised Network Alignment.

A from-scratch Python reproduction of Sun et al. (ICDE 2023).  The public API
re-exports the pieces most users need, each imported on first use (PEP 562);
see the subpackages for the full surface:

* :mod:`repro.core` — the HTC aligner, its configuration, and ablation
  variants,
* :mod:`repro.graph` — the attributed-graph substrate,
* :mod:`repro.orbits` — graphlet edge/node orbit counting,
* :mod:`repro.nn` — the numpy autograd / GCN substrate,
* :mod:`repro.baselines` — IsoRank, FINAL, REGAL, PALE, CENALP, GAlign,
* :mod:`repro.datasets` — synthetic paper-calibrated alignment pairs,
* :mod:`repro.eval` — metrics, protocols, robustness/ablation/sweep runners,
* :mod:`repro.viz` — t-SNE and embedding-overlap statistics.

Example
-------
>>> from repro import HTCAligner, HTCConfig, load_dataset
>>> pair = load_dataset("tiny")
>>> result = HTCAligner(HTCConfig(epochs=20, embedding_dim=16)).align(pair)
>>> result.alignment_matrix.shape == (pair.source.n_nodes, pair.target.n_nodes)
True
"""

import importlib

__version__ = "1.0.0"

#: Lazily resolved exports → the subpackage that defines them, so that
#: ``import repro`` (and every ``repro.serve``/``repro.api`` import, which
#: reads ``__version__``) loads none of the pipeline until a name is used.
_LAZY = {
    "HTCAligner": "repro.core",
    "HTCConfig": "repro.core",
    "AlignmentResult": "repro.core",
    "make_variant": "repro.core",
    "ABLATION_VARIANTS": "repro.core",
    "AttributedGraph": "repro.graph",
    "GraphPair": "repro.datasets",
    "load_dataset": "repro.datasets",
    "available_datasets": "repro.datasets",
    "count_edge_orbits": "repro.orbits",
    "build_orbit_matrices": "repro.orbits",
    "precision_at_q": "repro.eval",
    "mean_reciprocal_rank": "repro.eval",
    "evaluate_alignment": "repro.eval",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "__version__",
    "HTCAligner",
    "HTCConfig",
    "AlignmentResult",
    "make_variant",
    "ABLATION_VARIANTS",
    "AttributedGraph",
    "GraphPair",
    "load_dataset",
    "available_datasets",
    "count_edge_orbits",
    "build_orbit_matrices",
    "precision_at_q",
    "mean_reciprocal_rank",
    "evaluate_alignment",
]
