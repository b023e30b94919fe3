"""Embedding-similarity measures and matching utilities.

This package turns node embeddings into alignment scores:

* :mod:`repro.similarity.measures` — Pearson-correlation and cosine
  similarity matrices between two embedding sets (the dense reference),
* :mod:`repro.similarity.chunked` — the one engine that builds every score
  matrix: :class:`ChunkedScorer` streams it in row blocks whose height the
  code sets from a fixed cell budget, bit-identical to the dense reference,
* :mod:`repro.similarity.lisi` — the Locally Isolated Similarity Index
  (Eq. 9-11), which corrects raw similarity for hubness,
* :mod:`repro.similarity.csls` — the CSLS alternative hubness correction,
* :mod:`repro.similarity.matching` — mutual-nearest-neighbour (trusted-pair)
  detection, greedy one-to-one matching, and top-k retrieval on a score
  matrix.
"""

from repro.similarity.chunked import (
    ChunkedScorer,
    chunked_mutual_nearest_neighbors,
)
from repro.similarity.csls import csls_matrix
from repro.similarity.lisi import hubness_degrees, lisi_matrix
from repro.similarity.matching import (
    greedy_match,
    mutual_nearest_neighbors,
    top_k_indices,
)
from repro.similarity.measures import cosine_similarity, pearson_similarity

__all__ = [
    "pearson_similarity",
    "cosine_similarity",
    "hubness_degrees",
    "lisi_matrix",
    "csls_matrix",
    "mutual_nearest_neighbors",
    "greedy_match",
    "top_k_indices",
    "ChunkedScorer",
    "chunked_mutual_nearest_neighbors",
]
