"""Shared configuration and reporting helpers for the benchmark harness.

Every benchmark module regenerates one table or figure of the paper's
evaluation section (the "Experiment index" table of EXPERIMENTS.md lists
them).  The stand-in datasets are scaled down (``DATASET_SCALE``) so the
whole harness runs on CPU in minutes; the *shape* of the results (method
ordering, trends, crossovers) is what is being reproduced, not the absolute
numbers.

Each benchmark prints its table/series and also writes it to
``benchmarks/results/<name>.txt`` so the output survives pytest's capture.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List

from repro.baselines import CENALP, FINAL, PALE, REGAL, GAlign, IsoRank
from repro.core import HTCAligner, HTCConfig

#: Scale factor applied to every paper dataset stand-in.
DATASET_SCALE = 0.3

#: Number of repetitions per (method, dataset) cell.  The paper averages over
#: 20 runs; one run per cell keeps the harness fast while remaining
#: representative (the generators and models are seeded).
N_RUNS = 1

#: Shared HTC configuration for all benchmarks (paper §V-A scaled down:
#: 2 GCN layers, Adam lr=0.01, beta=1.1, all 13 orbits).  Orbit counting uses
#: the vectorized backend with the shared in-memory cache, so benchmarks that
#: re-align the same pair (Fig. 7/8 runtime, robustness and hyper-parameter
#: sweeps) pay the counting stage once per distinct graph.
HTC_CONFIG = HTCConfig(
    embedding_dim=32,
    n_layers=2,
    epochs=40,
    learning_rate=0.01,
    n_neighbors=10,
    reinforcement_rate=1.1,
    orbit_backend="auto",
    orbit_cache="memory",
    random_state=0,
)

RESULTS_DIR = Path(__file__).parent / "results"


def make_htc() -> HTCAligner:
    """The full HTC model with the shared benchmark configuration."""
    return HTCAligner(HTC_CONFIG)


def make_paper_baselines() -> List:
    """The six baselines of the paper's Table II, in table order."""
    return [
        GAlign(embedding_dim=32, epochs=40, random_state=0),
        FINAL(n_iterations=25),
        PALE(embedding_dim=32, epochs=150, random_state=0),
        CENALP(embedding_dim=32, n_rounds=4, random_state=0),
        IsoRank(n_iterations=25),
        REGAL(n_landmarks=60, random_state=0),
    ]


def make_all_methods() -> List:
    """HTC followed by every baseline."""
    return [make_htc(), *make_paper_baselines()]


def write_report(name: str, sections: Iterable[str]) -> Path:
    """Print ``sections`` and persist them under ``benchmarks/results/``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    text = "\n\n".join(sections) + "\n"
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text)
    print(f"\n{text}")
    print(f"[report written to {path}]")
    return path
