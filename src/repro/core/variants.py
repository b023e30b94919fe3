"""Ablation variants of HTC (paper Table III plus extra design ablations).

Paper variants
--------------
* **HTC-L** — low-order only (plain adjacency view), no fine-tuning,
* **HTC-H** — all orbits (multi-orbit-aware training), no fine-tuning,
* **HTC-LT** — low-order only, with trusted-pair fine-tuning,
* **HTC-DT** — diffusion matrices instead of GOMs, with fine-tuning,
* **HTC** — the full method (the paper's table calls it HTC-HT).

Additional design ablations (EXPERIMENTS.md, "Ablation findings")
------------------------------------------------------------------
* **HTC-binary** — binary instead of weighted GOMs,
* **HTC-cosine** — raw Pearson similarity instead of LISI in fine-tuning,
* **HTC-GDV** — extension: node attributes augmented with graphlet degree
  vectors before encoding.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.aligner import HTCAligner
from repro.core.config import HTCConfig

_FULL = {"topology_mode": "orbit", "use_refinement": True}

#: Every HTC variant's name and the config fields it sets, the full method
#: first: the one vocabulary of :func:`make_variant` and of the HTC names in
#: :func:`repro.runner.executor.known_method_names`.
VARIANTS = {
    "HTC": _FULL,
    "HTC-L": {"topology_mode": "adjacency", "use_refinement": False},
    "HTC-H": {"topology_mode": "orbit", "use_refinement": False},
    "HTC-LT": {"topology_mode": "adjacency", "use_refinement": True},
    "HTC-DT": {"topology_mode": "diffusion", "use_refinement": True},
    "HTC-binary": {**_FULL, "weighted_orbits": False},
    "HTC-cosine": {**_FULL, "use_lisi": False},
    "HTC-GDV": {**_FULL, "augment_with_gdv": True},
}


def make_variant(name: str, config: Optional[HTCConfig] = None) -> HTCAligner:
    """Instantiate an ablation variant by name.

    ``config`` provides the shared hyper-parameters (embedding size, epochs,
    ...); the variant overrides only the fields it ablates.
    """
    try:
        fields = VARIANTS[name]
    except KeyError as error:
        raise KeyError(
            f"unknown variant {name!r}; available: {sorted(VARIANTS)}"
        ) from error
    base = config if config is not None else HTCConfig()
    aligner = HTCAligner(base.updated(**fields))
    aligner.name = name
    return aligner


#: The variant names reported in the paper's Table III, in table order.
ABLATION_VARIANTS = ("HTC-L", "HTC-H", "HTC-LT", "HTC-DT", "HTC")

#: Extra design ablations covered by the extended ablation bench.
EXTRA_ABLATION_VARIANTS = ("HTC-binary", "HTC-cosine", "HTC-GDV")


def all_variants(config: Optional[HTCConfig] = None) -> Dict[str, HTCAligner]:
    """Instantiate every paper variant keyed by name."""
    return {name: make_variant(name, config) for name in ABLATION_VARIANTS}


__all__ = [
    "VARIANTS",
    "make_variant",
    "all_variants",
    "ABLATION_VARIANTS",
    "EXTRA_ABLATION_VARIANTS",
]
