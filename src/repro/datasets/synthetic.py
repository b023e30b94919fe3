"""Synthetic alignment pairs calibrated to the paper's dataset statistics.

The original evaluation datasets cannot be redistributed or downloaded in this
environment, so each pair is replaced by a generator that matches the
characteristics that drive the paper's findings (Table I and §V-B):

* **Allmovie–Imdb** — dense (average degree > 40 in the paper), motif-rich,
  moderately informative attributes, near-complete node overlap.  Stand-in: a
  Holme–Kim power-law-cluster graph with high attribute fidelity and light
  structural noise.
* **Douban Online–Offline** — sparse social networks with strong attributes
  and partial node overlap (the offline network is much smaller).  Stand-in:
  an SBM with community-correlated attributes whose target keeps only a
  fraction of the nodes.
* **Flickr–Myspace** — extremely sparse, almost attribute-free, and with the
  consistency assumption frequently violated; all methods perform poorly.
  Stand-in: a sparse graph whose target suffers heavy edge removal, heavy
  attribute corruption, and low node overlap.
* **Econ / BN** — the paper's synthetic robustness datasets: the target is the
  source with ``p``% of edges removed.  Stand-ins follow exactly that
  protocol on a power-law (Econ) and community-structured (BN) source graph.

Every generator accepts a ``scale`` factor on the node count (defaults run the
harness on CPU in minutes).  ``douban`` and ``bn`` fix ``p_out``, so their mean
source degree grows with it (5.8 → 18.7 from scale 1.0 to 12.2; 10.3 → 18.3
to 6.4), where ``allmovie_imdb``'s keeps its shape (11.7 → 12.0 to 20).
"""

from __future__ import annotations


import numpy as np

from repro.datasets.pair import GraphPair
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.generators import powerlaw_cluster_graph, sbm_graph
from repro.graph.perturbation import add_attribute_noise, permute_graph, remove_edges
from repro.utils.random import RandomStateLike, check_random_state


def synthetic_pair(
    source: AttributedGraph,
    edge_removal_ratio: float = 0.1,
    attribute_flip_ratio: float = 0.0,
    target_node_fraction: float = 1.0,
    name: str = "synthetic",
    random_state: RandomStateLike = None,
) -> GraphPair:
    """Build an alignment pair from a source graph.

    The target network is constructed with the paper's protocol: optionally
    keep only a fraction of the nodes (partial overlap), remove a fraction of
    the remaining edges, corrupt attributes, and permute node identities.
    Ground truth maps each surviving source node to its permuted target index.
    """
    if not 0.0 < target_node_fraction <= 1.0:
        raise ValueError(
            f"target_node_fraction must be in (0, 1], got {target_node_fraction}"
        )
    rng = check_random_state(random_state)

    n_source = source.n_nodes
    if target_node_fraction < 1.0:
        n_keep = max(2, int(round(target_node_fraction * n_source)))
        kept_nodes = np.sort(rng.choice(n_source, size=n_keep, replace=False))
    else:
        kept_nodes = np.arange(n_source)

    target = source.subgraph(kept_nodes)
    target = remove_edges(target, edge_removal_ratio, random_state=rng)
    if attribute_flip_ratio > 0:
        target = add_attribute_noise(
            target, flip_ratio=attribute_flip_ratio, random_state=rng
        )
    target, permutation = permute_graph(target, random_state=rng)
    target.name = f"{name}-target"

    ground_truth = np.full(n_source, -1, dtype=np.int64)
    ground_truth[kept_nodes] = permutation

    source = source.copy()
    source.name = f"{name}-source"
    return GraphPair(
        source=source,
        target=target,
        ground_truth=ground_truth,
        name=name,
        metadata={
            "edge_removal_ratio": edge_removal_ratio,
            "attribute_flip_ratio": attribute_flip_ratio,
            "target_node_fraction": target_node_fraction,
        },
    )


def allmovie_imdb(
    scale: float = 1.0, random_state: RandomStateLike = 0
) -> GraphPair:
    """Stand-in for the dense Allmovie–Imdb movie-network pair."""
    rng = check_random_state(random_state)
    n_nodes = max(60, int(300 * scale))
    source = powerlaw_cluster_graph(
        n_nodes=n_nodes,
        edges_per_node=6,
        triangle_prob=0.6,
        n_attributes=14,
        label_fidelity=0.95,
        random_state=rng,
        name="allmovie",
    )
    return synthetic_pair(
        source,
        edge_removal_ratio=0.05,
        attribute_flip_ratio=0.02,
        target_node_fraction=0.95,
        name="allmovie_imdb",
        random_state=rng,
    )


def douban(scale: float = 1.0, random_state: RandomStateLike = 1) -> GraphPair:
    """Stand-in for the sparse Douban pair; denser as ``scale`` grows."""
    rng = check_random_state(random_state)
    n_nodes = max(60, int(320 * scale))
    n_blocks = 8
    block_size = n_nodes // n_blocks
    source = sbm_graph(
        block_sizes=[block_size] * n_blocks,
        p_in=min(1.0, 5.0 / block_size),
        p_out=0.004,
        n_attributes=16,
        label_fidelity=0.9,
        random_state=rng,
        name="douban_online",
    )
    return synthetic_pair(
        source,
        edge_removal_ratio=0.15,
        attribute_flip_ratio=0.05,
        target_node_fraction=0.6,
        name="douban",
        random_state=rng,
    )


def flickr_myspace(
    scale: float = 1.0, random_state: RandomStateLike = 2
) -> GraphPair:
    """Stand-in for the hard Flickr–Myspace pair (consistency violated)."""
    rng = check_random_state(random_state)
    n_nodes = max(60, int(300 * scale))
    source = powerlaw_cluster_graph(
        n_nodes=n_nodes,
        edges_per_node=1,
        triangle_prob=0.1,
        n_attributes=3,
        label_fidelity=0.5,
        random_state=rng,
        name="flickr",
    )
    return synthetic_pair(
        source,
        edge_removal_ratio=0.45,
        attribute_flip_ratio=0.5,
        target_node_fraction=0.5,
        name="flickr_myspace",
        random_state=rng,
    )


def econ(
    edge_removal_ratio: float = 0.1,
    scale: float = 1.0,
    random_state: RandomStateLike = 3,
) -> GraphPair:
    """Stand-in for the Econ robustness dataset (Victoria-1880 contract network).

    ``edge_removal_ratio`` is the noise level swept from 0.1 to 0.5 in the
    paper's Fig. 9.
    """
    rng = check_random_state(random_state)
    n_nodes = max(60, int(250 * scale))
    source = powerlaw_cluster_graph(
        n_nodes=n_nodes,
        edges_per_node=6,
        triangle_prob=0.4,
        n_attributes=20,
        label_fidelity=0.95,
        random_state=rng,
        name="econ",
    )
    return synthetic_pair(
        source,
        edge_removal_ratio=edge_removal_ratio,
        attribute_flip_ratio=0.0,
        target_node_fraction=1.0,
        name=f"econ[p={edge_removal_ratio:.1f}]",
        random_state=rng,
    )


def bn(
    edge_removal_ratio: float = 0.1,
    scale: float = 1.0,
    random_state: RandomStateLike = 4,
) -> GraphPair:
    """Stand-in for the BN robustness dataset; denser as ``scale`` grows."""
    rng = check_random_state(random_state)
    n_nodes = max(60, int(280 * scale))
    n_blocks = 7
    block_size = n_nodes // n_blocks
    source = sbm_graph(
        block_sizes=[block_size] * n_blocks,
        p_in=min(1.0, 9.0 / block_size),
        p_out=0.006,
        n_attributes=20,
        label_fidelity=0.95,
        random_state=rng,
        name="bn",
    )
    return synthetic_pair(
        source,
        edge_removal_ratio=edge_removal_ratio,
        attribute_flip_ratio=0.0,
        target_node_fraction=1.0,
        name=f"bn[p={edge_removal_ratio:.1f}]",
        random_state=rng,
    )


def tiny_pair(
    n_nodes: int = 40, random_state: RandomStateLike = 0, noise: float = 0.05
) -> GraphPair:
    """A very small pair used by unit/integration tests and the quickstart."""
    rng = check_random_state(random_state)
    source = powerlaw_cluster_graph(
        n_nodes=n_nodes,
        edges_per_node=3,
        triangle_prob=0.5,
        n_attributes=6,
        label_fidelity=0.95,
        random_state=rng,
        name="tiny",
    )
    return synthetic_pair(
        source,
        edge_removal_ratio=noise,
        attribute_flip_ratio=0.0,
        target_node_fraction=1.0,
        name="tiny",
        random_state=rng,
    )


__all__ = [
    "synthetic_pair",
    "allmovie_imdb",
    "douban",
    "flickr_myspace",
    "econ",
    "bn",
    "tiny_pair",
]
