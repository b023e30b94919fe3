"""Plain-text persistence for alignment pairs.

A pair is stored as a directory of five files:

* ``source.edges`` / ``target.edges`` — a node-count header line followed by
  one ``u v`` pair per line,
* ``source.attrs.npy`` / ``target.attrs.npy`` — dense attribute matrices,
* ``ground_truth.txt`` — one ``source_id target_id`` anchor per line.

Users holding the original paper datasets (Allmovie/Imdb, Douban, ...) can
export them to this format and load them with :func:`load_pair`; loaded
directories are also reachable by name through the dataset registry as
``load_dataset("dir:<path>")``.

The format is deliberately forgiving about *shape* — isolated nodes (ids
never appearing in an edge line) and empty edge lists round-trip because the
node count is an explicit header — but strict about *content*: malformed
lines raise a :class:`ValueError` naming the offending file and line number
instead of failing deep inside the graph builders.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import List, Tuple, Union

import numpy as np

from repro.datasets.pair import GraphPair
from repro.graph.builders import from_edge_list


def save_pair(pair: GraphPair, directory: Union[str, Path]) -> Path:
    """Serialise ``pair`` into ``directory`` (created if missing)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    for role, graph in (("source", pair.source), ("target", pair.target)):
        edge_lines = [f"{u} {v}" for u, v in graph.edges()]
        (directory / f"{role}.edges").write_text(
            "\n".join([str(graph.n_nodes)] + edge_lines) + "\n"
        )
        np.save(directory / f"{role}.attrs.npy", graph.attributes)

    anchor_lines = [f"{i} {j}" for i, j in pair.anchor_links]
    (directory / "ground_truth.txt").write_text("\n".join(anchor_lines) + "\n")
    (directory / "name.txt").write_text(pair.name + "\n")
    return directory


#: The files :func:`save_pair` writes that define a pair's content
#: (``name.txt`` is left out: it only labels the pair).
_CONTENT_FILES = (
    "source.edges",
    "source.attrs.npy",
    "target.edges",
    "target.attrs.npy",
    "ground_truth.txt",
)


def pair_digest(directory: Union[str, Path]) -> str:
    """SHA-256 (hex) of the files that define a stored pair's content.

    The bytes of each content file present are hashed in a fixed order
    (:func:`load_pair` treats a missing attribute or ground-truth file as
    absent), so writing another pair into a directory changes its digest.
    """
    directory = Path(directory)
    digest = hashlib.sha256()
    for name in _CONTENT_FILES:
        path = directory / name
        if path.is_file():
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _parse_int_pair(line: str, path: Path, lineno: int) -> Tuple[int, int]:
    """Parse one ``"a b"`` line, or raise naming the file and line."""
    tokens = line.split()
    if len(tokens) != 2:
        raise ValueError(
            f"{path}:{lineno}: expected two whitespace-separated integers, "
            f"got {line.strip()!r}"
        )
    try:
        return int(tokens[0]), int(tokens[1])
    except ValueError:
        raise ValueError(
            f"{path}:{lineno}: expected two integers, got {line.strip()!r}"
        ) from None


def _load_graph(directory: Path, role: str, name: str):
    path = directory / f"{role}.edges"
    if not path.is_file():
        raise FileNotFoundError(f"missing edge file: {path}")
    lines = path.read_text().splitlines()
    header_index = next(
        (i for i, line in enumerate(lines) if line.strip()), None
    )
    if header_index is None:
        raise ValueError(
            f"{path}:1: empty edge file; the first line must be the node count"
        )
    header = lines[header_index].strip()
    try:
        n_nodes = int(header)
    except ValueError:
        raise ValueError(
            f"{path}:{header_index + 1}: the first line must be the node "
            f"count, got {header!r}"
        ) from None
    if n_nodes < 0:
        raise ValueError(f"{path}:{header_index + 1}: node count must be >= 0")

    edges: List[Tuple[int, int]] = []
    for offset, line in enumerate(lines[header_index + 1 :]):
        if not line.strip():
            continue
        lineno = header_index + 2 + offset
        u, v = _parse_int_pair(line, path, lineno)
        if not (0 <= u < n_nodes and 0 <= v < n_nodes):
            raise ValueError(
                f"{path}:{lineno}: edge ({u}, {v}) references a node outside "
                f"[0, {n_nodes})"
            )
        edges.append((u, v))

    attrs_path = directory / f"{role}.attrs.npy"
    attributes = np.load(attrs_path) if attrs_path.exists() else None
    if attributes is not None and attributes.shape[0] != n_nodes:
        raise ValueError(
            f"{attrs_path}: attribute matrix has {attributes.shape[0]} rows "
            f"but {path} declares {n_nodes} nodes"
        )
    return from_edge_list(edges, n_nodes=n_nodes, attributes=attributes, name=name)


def _load_ground_truth(
    directory: Path, n_source: int, n_target: int
) -> np.ndarray:
    path = directory / "ground_truth.txt"
    ground_truth = np.full(n_source, -1, dtype=np.int64)
    if not path.is_file():
        return ground_truth
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        i, j = _parse_int_pair(line, path, lineno)
        if not 0 <= i < n_source:
            raise ValueError(
                f"{path}:{lineno}: source id {i} outside [0, {n_source})"
            )
        if not 0 <= j < n_target:
            raise ValueError(
                f"{path}:{lineno}: target id {j} outside [0, {n_target})"
            )
        ground_truth[i] = j
    return ground_truth


def load_pair(directory: Union[str, Path]) -> GraphPair:
    """Load a pair previously written by :func:`save_pair`.

    Raises
    ------
    FileNotFoundError
        If the directory or a required edge file is missing.
    ValueError
        On any malformed content, naming the offending file and line.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"dataset directory not found: {directory}")
    name_file = directory / "name.txt"
    name = name_file.read_text().strip() if name_file.exists() else directory.name

    source = _load_graph(directory, "source", f"{name}-source")
    target = _load_graph(directory, "target", f"{name}-target")
    ground_truth = _load_ground_truth(directory, source.n_nodes, target.n_nodes)

    return GraphPair(source=source, target=target, ground_truth=ground_truth, name=name)


__all__ = ["save_pair", "load_pair", "pair_digest"]
