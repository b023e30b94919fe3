"""Experiment E11 — Fig. 11: t-SNE visualisation of anchor embeddings.

The paper samples anchor nodes from Douban Online/Offline, embeds them with
t-SNE before and after HTC alignment, and observes that the source and target
clouds overlap much more after alignment.  Without a plotting backend the
bench reports the same evidence numerically: 2-D t-SNE coordinates are
computed for both conditions and the anchor-overlap statistics (matched vs
random cross-graph distances) are compared.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import HTCAligner
from repro.core.encoder import build_topology_views, make_encoder
from repro.datasets import load_dataset
from repro.eval.reporting import format_table
from repro.viz.embedding_stats import anchor_overlap_statistics
from repro.viz.tsne import tsne

from _common import DATASET_SCALE, HTC_CONFIG, write_report

N_SAMPLED_ANCHORS = 80
ORBITS_TO_VISUALISE = (0, 1, 3, 5, 7)


def _run_tsne_analysis():
    pair = load_dataset("douban", scale=DATASET_SCALE, random_state=1)
    anchors = pair.anchor_links[:N_SAMPLED_ANCHORS]

    # "Before": no alignment has taken place, so each graph is embedded by its
    # own independently initialised encoder (no parameter sharing) — the two
    # embedding clouds live in unrelated spaces, as in the paper's upper row.
    config = HTC_CONFIG.updated(orbits=ORBITS_TO_VISUALISE)
    source_encoder = make_encoder(pair.source.n_attributes, config.updated(random_state=11))
    target_encoder = make_encoder(pair.target.n_attributes, config.updated(random_state=23))
    source_views = build_topology_views(pair.source, config)
    target_views = build_topology_views(pair.target, config)

    before_stats = {}
    for orbit in ORBITS_TO_VISUALISE:
        source_embedding = source_encoder(source_views[orbit], pair.source.attributes)
        target_embedding = target_encoder(target_views[orbit], pair.target.attributes)
        before_stats[orbit] = anchor_overlap_statistics(
            source_embedding, target_embedding, anchors, random_state=0
        )

    # "After": embeddings produced by the full HTC pipeline.
    result = HTCAligner(config).align(pair)
    after_stats = {}
    tsne_shapes = {}
    for orbit in ORBITS_TO_VISUALISE:
        source_embedding = result.source_embeddings[orbit]
        target_embedding = result.target_embeddings[orbit]
        after_stats[orbit] = anchor_overlap_statistics(
            source_embedding, target_embedding, anchors, random_state=0
        )
        stacked = np.vstack(
            [
                source_embedding[[i for i, _ in anchors]],
                target_embedding[[j for _, j in anchors]],
            ]
        )
        coordinates = tsne(stacked, n_iterations=150, random_state=0)
        tsne_shapes[orbit] = coordinates.shape
    return before_stats, after_stats, tsne_shapes


@pytest.mark.benchmark(group="fig11")
def test_fig11_tsne_overlap(benchmark):
    before_stats, after_stats, tsne_shapes = benchmark.pedantic(
        _run_tsne_analysis, rounds=1, iterations=1
    )

    rows = []
    for orbit in before_stats:
        rows.append(
            {
                "orbit": orbit,
                "overlap_before": round(before_stats[orbit]["overlap_ratio"], 3),
                "overlap_after": round(after_stats[orbit]["overlap_ratio"], 3),
                "tsne_points": tsne_shapes[orbit][0],
            }
        )
    write_report(
        "fig11_tsne",
        [
            "Fig. 11 — anchor-embedding overlap before/after HTC "
            "(overlap_ratio = random-pair distance / matched-pair distance)",
            format_table(rows),
        ],
    )

    # After alignment, matched anchors are clearly closer than random pairs on
    # the majority of the visualised orbits, and overall overlap improves.
    improved = sum(
        after_stats[orbit]["overlap_ratio"] >= before_stats[orbit]["overlap_ratio"]
        for orbit in after_stats
    )
    assert improved >= len(after_stats) // 2
    assert np.mean([s["overlap_ratio"] for s in after_stats.values()]) > 1.2
