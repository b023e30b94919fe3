"""Versioned, content-hash-addressed persistence of alignment results.

One artifact is a directory::

    <root>/<artifact_id>/
        manifest.json    # schema version, config, scalars, array index, hashes
        arrays.npz       # every array, uncompressed: result fields + top-k index

``artifact_id`` is ``<name>-<hash12>`` where the hash covers the manifest's
content — the config, the scalar payload and every array's shape/dtype/sha256
— so identical results collapse to one artifact and any change produces a
new id.  The manifest records each array's SHA-256, verified on load.

Format stability:

* ``schema_version`` gates compatibility — loading an artifact written by a
  *newer major* schema raises :class:`ArtifactSchemaError`; unknown manifest
  keys and unknown array names are ignored (forward-compatible load),
* an artifact missing its sparse index arrays (e.g. written by a stripped
  exporter) is still servable: the index is rebuilt from the dense
  alignment matrix on load.

Loading supports two modes: ``"full"`` (rebuild the complete
:class:`~repro.core.result.AlignmentResult`) and ``"serve"`` (load only the
``O(n·k)`` index arrays — the memory-light path the query service uses).

The manifests on disk are the only record of what the store holds:
:func:`find_artifacts` (``GET /artifacts``, ``serve-stats``) walks them on
every call and :func:`artifact_record` (``GET /artifacts/<id>``) reads one,
so a removed directory stops being listed and a copied-in one is listed at
once.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro.backend.precision import as_score_matrix
from repro.core.config import HTCConfig
from repro.core.result import AlignmentResult
from repro.runner.spec import canonical_json, spec_hash
from repro.serve.index import DEFAULT_INDEX_K, SparseTopKIndex, build_index
from repro.utils.naming import slugify

#: Current artifact schema.  Major bumps break readers.  1.1 added the
#: top-level ``dtype`` field (the precision policy the scores were computed
#: and stored under); it is required to *load* an artifact — a pre-1.1
#: manifest raises :class:`ArtifactSchemaError` asking for a re-export —
#: but listing/discovery (:func:`list_artifacts`) still surfaces pre-1.1
#: artifacts so the error is reachable instead of the store silently
#: shrinking.
SCHEMA_VERSION = [1, 1]

MANIFEST_FILE = "manifest.json"
ARRAYS_FILE = "arrays.npz"

#: Array names belonging to the sparse index (the ``"serve"`` loading set).
_INDEX_ARRAYS = (
    "index_indices",
    "index_scores",
    "index_reverse_indices",
    "index_reverse_scores",
)


class ArtifactNotFoundError(FileNotFoundError):
    """No artifact with the requested id under the store root."""


class ArtifactSchemaError(ValueError):
    """The artifact was written by an incompatible (newer) schema."""


class ArtifactIntegrityError(ValueError):
    """An array's content does not match its recorded hash."""


def _check_artifact_id(artifact_id: str) -> None:
    """Refuse an id that names anything but one directory under the root.

    An empty id, ``.``, ``..``, an absolute path or an id with a path
    separator would resolve outside ``<root>/<id>``; each raises
    :class:`ArtifactNotFoundError`, as an unknown id does.
    """
    if artifact_id in ("", ".", "..") or Path(artifact_id).name != artifact_id:
        raise ArtifactNotFoundError(f"invalid artifact id {artifact_id!r}")


def _slug(text: str) -> str:
    return slugify(text, "artifact")


def _array_sha256(array: np.ndarray) -> str:
    digest = hashlib.sha256()
    digest.update(str(array.dtype).encode())
    digest.update(str(array.shape).encode())
    digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# config (de)serialization
# ----------------------------------------------------------------------
def serialize_config(config: HTCConfig) -> Dict[str, object]:
    """JSON-safe dict of an :class:`HTCConfig`.

    Non-serialisable runtime handles degrade to their loadable defaults: a
    live cache object becomes ``"memory"``, a ``RandomState``/``Generator``
    seed becomes ``0`` (artifacts describe a *finished* run; the seed is
    informational at serve time).
    """
    payload: Dict[str, object] = {}
    for spec in dataclasses.fields(config):
        value = getattr(config, spec.name)
        if spec.name == "orbit_cache" and not isinstance(value, (bool, str)):
            value = "memory"
        if spec.name == "random_state" and not isinstance(value, (int, type(None))):
            value = 0
        if isinstance(value, tuple):
            value = list(value)
        payload[spec.name] = value
    return payload


def deserialize_config(payload: Dict[str, object]) -> HTCConfig:
    """Rebuild an :class:`HTCConfig`, ignoring unknown fields."""
    known = {spec.name for spec in dataclasses.fields(HTCConfig)}
    kwargs = {k: v for k, v in dict(payload).items() if k in known}
    for name in ("orbits", "diffusion_orders"):
        if isinstance(kwargs.get(name), list):
            kwargs[name] = tuple(kwargs[name])
    return HTCConfig(**kwargs)


# ----------------------------------------------------------------------
# save
# ----------------------------------------------------------------------
@dataclass
class ArtifactInfo:
    """Summary returned by :func:`save_artifact`."""

    artifact_id: str
    path: Path
    manifest: Dict[str, object]
    index: SparseTopKIndex

    @property
    def disk_bytes(self) -> int:
        """Total on-disk size of the artifact directory."""
        return sum(f.stat().st_size for f in self.path.iterdir() if f.is_file())


def _array_meta(arrays: Dict[str, np.ndarray]) -> Dict[str, Dict[str, object]]:
    """Per-array shape/dtype/SHA-256 records for a manifest."""
    return {
        key: {
            "shape": [int(x) for x in value.shape],
            "dtype": str(value.dtype),
            "sha256": _array_sha256(value),
        }
        for key, value in sorted(arrays.items())
    }


def _write_artifact(
    root: Path,
    manifest: Dict[str, object],
    arrays: Dict[str, np.ndarray],
    index: SparseTopKIndex,
    overwrite: bool,
) -> ArtifactInfo:
    """Shared persistence tail of the save paths.

    An existing identical-content artifact skips the array rewrite but
    still refreshes the metadata annotations (they are outside the content
    hash by design); otherwise arrays are written first and the manifest
    last via tmp+rename, so a directory with a manifest always has its
    arrays in place.
    """
    artifact_id = str(manifest["artifact_id"])
    content_hash = manifest["content_hash"]
    path = root / artifact_id
    if path.is_dir() and not overwrite:
        try:
            existing = _read_manifest(path)
        except (ArtifactNotFoundError, ArtifactIntegrityError, ArtifactSchemaError):
            existing = None  # half-written/corrupt/pre-dtype directory: rewrite
        if existing is not None and existing.get("content_hash") == content_hash:
            if existing.get("metadata") != manifest["metadata"]:
                existing["metadata"] = manifest["metadata"]
                tmp = path / (MANIFEST_FILE + ".tmp")
                tmp.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")
                os.replace(tmp, path / MANIFEST_FILE)
            return ArtifactInfo(
                artifact_id=artifact_id, path=path, manifest=existing, index=index
            )
    path.mkdir(parents=True, exist_ok=True)
    np.savez(path / ARRAYS_FILE, **arrays)
    tmp = path / (MANIFEST_FILE + ".tmp")
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path / MANIFEST_FILE)
    return ArtifactInfo(
        artifact_id=artifact_id, path=path, manifest=manifest, index=index
    )


def save_artifact(
    result: AlignmentResult,
    config: Optional[HTCConfig] = None,
    *,
    root: Union[str, Path],
    name: str = "alignment",
    index_k: int = DEFAULT_INDEX_K,
    reverse_k: Optional[int] = None,
    metadata: Optional[Dict[str, object]] = None,
    overwrite: bool = False,
) -> ArtifactInfo:
    """Persist ``result`` (+ optional ``config``) as one artifact directory.

    Parameters
    ----------
    result:
        The alignment to persist; every array field plus the derived sparse
        top-``index_k`` index is stored.
    config:
        The :class:`HTCConfig` that produced the result (stored in the
        manifest, restored by :func:`load_artifact`).
    root:
        Store root directory (created if missing).
    name:
        Human-readable prefix of the artifact id.
    index_k, reverse_k:
        Sparse-index parameters (see :func:`repro.serve.index.build_index`).
    metadata:
        Free-form JSON-safe annotations (dataset, method, suite job id ...).
    overwrite:
        Re-write the directory if the identical artifact already exists
        (by default an existing artifact is returned as-is — the store is
        content-addressed, so same id means same bytes).
    """
    root = Path(root)
    index = build_index(result.alignment_matrix, k=index_k, reverse_k=reverse_k)
    arrays = dict(result.array_payload())
    arrays.update(index.array_payload())

    array_meta = _array_meta(arrays)
    config_payload = serialize_config(config) if config is not None else None
    scalars = result.scalar_payload()
    dtype = str(index.score_dtype)
    content_hash = spec_hash(
        {
            "schema_version": SCHEMA_VERSION,
            "name": name,
            "dtype": dtype,
            "config": config_payload,
            "scalars": scalars,
            "arrays": array_meta,
            "index": index.meta_payload(),
        }
    )
    manifest: Dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "artifact_id": f"{_slug(name)}-{content_hash[:12]}",
        "name": name,
        "content_hash": content_hash,
        "created_unix": time.time(),
        "dtype": dtype,
        "config": config_payload,
        "scalars": scalars,
        "arrays": array_meta,
        "index": index.meta_payload(),
        "metadata": dict(metadata or {}),
    }
    return _write_artifact(root, manifest, arrays, index, overwrite)


def save_index_artifact(
    index: SparseTopKIndex,
    config: Optional[HTCConfig] = None,
    *,
    root: Union[str, Path],
    name: str = "stitched",
    metadata: Optional[Dict[str, object]] = None,
    overwrite: bool = False,
) -> ArtifactInfo:
    """Persist a bare sparse index as an **index-only** artifact.

    This is the export path for stitched sharded alignments
    (:mod:`repro.shard`), whose whole point is never materialising the dense
    ``(n_s, n_t)`` matrix: the artifact stores only the ``O(n·k)`` index
    arrays.  Index-only artifacts load in ``"serve"`` mode (and through
    :class:`~repro.serve.service.AlignmentService`) exactly like full ones;
    ``"full"`` mode raises :class:`ArtifactSchemaError` because there is no
    dense matrix to rebuild a result from.
    """
    root = Path(root)
    arrays = dict(index.array_payload())
    array_meta = _array_meta(arrays)
    config_payload = serialize_config(config) if config is not None else None
    dtype = str(index.score_dtype)
    content_hash = spec_hash(
        {
            "schema_version": SCHEMA_VERSION,
            "kind": "index",
            "name": name,
            "dtype": dtype,
            "config": config_payload,
            "arrays": array_meta,
            "index": index.meta_payload(),
        }
    )
    manifest: Dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "kind": "index",
        "artifact_id": f"{_slug(name)}-{content_hash[:12]}",
        "name": name,
        "content_hash": content_hash,
        "created_unix": time.time(),
        "dtype": dtype,
        "config": config_payload,
        "scalars": {},
        "arrays": array_meta,
        "index": index.meta_payload(),
        "metadata": dict(metadata or {}),
    }
    return _write_artifact(root, manifest, arrays, index, overwrite)


def export_result(
    raw_result: object,
    config: Optional[HTCConfig] = None,
    *,
    root: Union[str, Path],
    name: str = "alignment",
    index_k: int = DEFAULT_INDEX_K,
    metadata: Optional[Dict[str, object]] = None,
) -> ArtifactInfo:
    """Persist any aligner output — the shared CLI/runner export path.

    Accepts a full :class:`AlignmentResult` or a bare score matrix (what the
    paper baselines return); bare matrices are wrapped into a minimal result
    so every method's output is servable under the same artifact contract.
    """
    if not isinstance(raw_result, AlignmentResult):
        # Preserve a float32 matrix (the reduced-precision policy); promote
        # everything non-float to float64 as before.
        raw_result = AlignmentResult(alignment_matrix=as_score_matrix(raw_result))
    return save_artifact(
        raw_result,
        config,
        root=root,
        name=name,
        index_k=index_k,
        metadata=metadata,
    )


# ----------------------------------------------------------------------
# load
# ----------------------------------------------------------------------
@dataclass
class Artifact:
    """A loaded artifact: manifest + index, and (in full mode) the result."""

    artifact_id: str
    path: Path
    manifest: Dict[str, object]
    index: SparseTopKIndex
    result: Optional[AlignmentResult] = None
    config: Optional[HTCConfig] = None
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def shape(self):
        """Dense matrix shape served by this artifact."""
        return self.index.shape

    @property
    def dtype(self) -> str:
        """Score dtype recorded in the manifest (``float64``/``float32``)."""
        return str(self.manifest.get("dtype", str(self.index.score_dtype)))


def _read_manifest(path: Path, require_dtype: bool = True) -> Dict[str, object]:
    """Parse and schema-check one manifest.

    ``require_dtype=False`` (listing/discovery) accepts pre-1.1 manifests
    without the ``dtype`` field, so old artifacts stay visible in
    ``serve-stats`` — attempting to *load* one still raises the clear
    re-export error below.
    """
    manifest_path = path / MANIFEST_FILE
    if not manifest_path.is_file():
        raise ArtifactNotFoundError(f"no manifest at {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as error:
        raise ArtifactIntegrityError(
            f"corrupt manifest {manifest_path}: {error}"
        ) from error
    version = manifest.get("schema_version", [0, 0])
    if not isinstance(version, list) or not version:
        raise ArtifactSchemaError(f"malformed schema_version in {manifest_path}")
    if int(version[0]) > SCHEMA_VERSION[0]:
        raise ArtifactSchemaError(
            f"artifact {manifest_path} uses schema {version}, newer than the "
            f"supported {SCHEMA_VERSION}; upgrade repro to read it"
        )
    if require_dtype and "dtype" not in manifest:
        raise ArtifactSchemaError(
            f"artifact {manifest_path} has no 'dtype' field: it was written "
            f"by a pre-1.1 schema that predates precision policies.  "
            "Re-export the artifact (the writer now records whether scores "
            "are float64 or float32)"
        )
    return manifest


def _verify_array(
    name: str, array: np.ndarray, array_meta: Dict[str, object], path: Path
) -> None:
    recorded = array_meta.get(name)
    if recorded is None:
        return
    actual = _array_sha256(array)
    if actual != recorded.get("sha256"):
        raise ArtifactIntegrityError(
            f"array {name!r} in {path} fails its integrity check "
            f"(expected sha256 {recorded.get('sha256')}, got {actual})"
        )


def load_artifact(
    root: Union[str, Path],
    artifact_id: str,
    *,
    mode: str = "full",
    verify: bool = True,
) -> Artifact:
    """Load one artifact from the store.

    Parameters
    ----------
    root, artifact_id:
        Store root and the id returned by :func:`save_artifact`.
    mode:
        ``"full"`` rebuilds the complete :class:`AlignmentResult`;
        ``"serve"`` loads only the sparse index arrays — ``O(n·k)`` resident
        memory, the mode :class:`repro.serve.service.AlignmentService` uses.
    verify:
        Check every loaded array against its recorded SHA-256.
    """
    if mode not in ("full", "serve"):
        raise ValueError(f'mode must be "full" or "serve", got {mode!r}')
    _check_artifact_id(artifact_id)
    path = Path(root) / artifact_id
    if not path.is_dir():
        raise ArtifactNotFoundError(
            f"artifact {artifact_id!r} not found under {root}"
        )
    manifest = _read_manifest(path)
    arrays_path = path / ARRAYS_FILE
    if not arrays_path.is_file():
        raise ArtifactIntegrityError(f"artifact {artifact_id!r} lost {ARRAYS_FILE}")
    array_meta = dict(manifest.get("arrays", {}))

    with np.load(arrays_path) as archive:
        wanted = (
            [n for n in _INDEX_ARRAYS if n in archive.files]
            if mode == "serve"
            else list(archive.files)
        )
        # "serve" mode with no stored index falls back to the dense matrix.
        if mode == "serve" and len(wanted) < len(_INDEX_ARRAYS):
            wanted = list(archive.files)
        arrays = {name: archive[name] for name in wanted}
    if verify:
        for name, array in arrays.items():
            _verify_array(name, array, array_meta, path)

    index_meta = manifest.get("index")
    try:
        index = SparseTopKIndex.from_payload(arrays, index_meta or {})
    except (KeyError, ValueError, TypeError):
        # Forward compatibility: no (or unreadable) stored index — rebuild
        # from the dense matrix, which save_artifact always records.
        if "alignment_matrix" not in arrays:
            raise ArtifactIntegrityError(
                f"artifact {artifact_id!r} has neither index arrays nor a "
                "dense alignment matrix"
            ) from None
        k = int(dict(index_meta or {}).get("k", DEFAULT_INDEX_K))
        reverse_k = int(dict(index_meta or {}).get("reverse_k", k))
        index = build_index(arrays["alignment_matrix"], k=k, reverse_k=reverse_k)

    result = None
    config = None
    if mode == "full":
        result_arrays = {
            name: array
            for name, array in arrays.items()
            if name not in _INDEX_ARRAYS
        }
        if "alignment_matrix" not in result_arrays:
            raise ArtifactSchemaError(
                f"artifact {artifact_id!r} is index-only (no dense alignment "
                'matrix is stored); load it with mode="serve"'
            )
        result = AlignmentResult.from_payload(
            result_arrays, dict(manifest.get("scalars", {}))
        )
        if manifest.get("config") is not None:
            config = deserialize_config(manifest["config"])
    return Artifact(
        artifact_id=artifact_id,
        path=path,
        manifest=manifest,
        index=index,
        result=result,
        config=config,
        metadata=dict(manifest.get("metadata", {})),
    )


def list_artifacts(root: Union[str, Path]) -> List[Dict[str, object]]:
    """Manifests of every artifact under ``root``, sorted by id.

    Directories without a readable manifest are skipped (e.g. a crashed
    half-written export, which never got its manifest renamed into place).
    Pre-1.1 manifests (no ``dtype`` field) are listed — loading them is
    what raises the re-export schema error — so an upgrade never makes a
    store look silently empty.
    """
    root = Path(root)
    if not root.is_dir():
        return []
    manifests = []
    for entry in sorted(root.iterdir()):
        if not entry.is_dir():
            continue
        try:
            manifests.append(_read_manifest(entry, require_dtype=False))
        except (ArtifactNotFoundError, ArtifactIntegrityError, ArtifactSchemaError):
            continue
    return manifests


#: Equality filters accepted by :func:`find_artifacts`.
FILTER_FIELDS = (
    "name",
    "kind",
    "content_hash",
    "dataset",
    "method",
    "config_hash",
    "dtype",
)


def record_from_manifest(
    manifest: Dict[str, object], path: Optional[Union[str, Path]] = None
) -> Dict[str, object]:
    """Flatten one artifact manifest into a listing record.

    ``config_hash`` is the spec hash of the manifest's config payload (the
    same hashing the runner uses), so artifacts produced by the same config
    collapse to one queryable key even across dataset pairs.
    """
    index_meta = dict(manifest.get("index") or {})
    shape = list(index_meta.get("shape") or [None, None])
    metadata = dict(manifest.get("metadata") or {})
    config = manifest.get("config")
    version = manifest.get("schema_version")
    return {
        "artifact_id": str(manifest["artifact_id"]),
        "name": str(manifest.get("name", "")),
        "kind": str(manifest.get("kind", "alignment")),
        "content_hash": manifest.get("content_hash"),
        "dataset": metadata.get("dataset"),
        "method": metadata.get("method"),
        "config_hash": spec_hash(config) if config is not None else None,
        "dtype": manifest.get("dtype"),
        "schema_version": (
            ".".join(str(x) for x in version)
            if isinstance(version, (list, tuple))
            else (str(version) if version is not None else None)
        ),
        "n_source": shape[0],
        "n_target": shape[1],
        "index_k": index_meta.get("k"),
        "created_unix": manifest.get("created_unix"),
        "path": str(path) if path is not None else None,
        "metadata": metadata,
    }


def find_artifacts(
    root: Union[str, Path], **filters: Optional[str]
) -> List[Dict[str, object]]:
    """Records of the artifacts under ``root`` matching ``filters``.

    ``filters`` are equalities on :data:`FILTER_FIELDS` (``None`` values
    are ignored).  Records come newest first, then by artifact id, and a
    manifest without ``created_unix`` sorts last, so pages cut with
    ``limit``/``offset`` are stable.
    """
    unknown = sorted(set(filters) - set(FILTER_FIELDS))
    if unknown:
        raise ValueError(
            f"unknown artifact filter(s) {unknown}; "
            f"expected any of {list(FILTER_FIELDS)}"
        )
    wanted = {key: value for key, value in filters.items() if value is not None}
    root = Path(root)
    records = []
    for manifest in list_artifacts(root):
        record = record_from_manifest(manifest, root / str(manifest["artifact_id"]))
        if all(record[key] == value for key, value in wanted.items()):
            records.append(record)
    records.sort(
        key=lambda record: (
            record["created_unix"] is None,
            -float(record["created_unix"] or 0.0),
            record["artifact_id"],
        )
    )
    return records


def artifact_record(root: Union[str, Path], artifact_id: str) -> Dict[str, object]:
    """The listing record of one artifact, read from its manifest alone."""
    _check_artifact_id(artifact_id)
    path = Path(root) / artifact_id
    return record_from_manifest(_read_manifest(path, require_dtype=False), path)


def canonical_manifest(manifest: Dict[str, object]) -> str:
    """Stable JSON rendering of a manifest (used in tests and debugging)."""
    return canonical_json(manifest)


__all__ = [
    "SCHEMA_VERSION",
    "ArtifactInfo",
    "Artifact",
    "ArtifactNotFoundError",
    "ArtifactSchemaError",
    "ArtifactIntegrityError",
    "serialize_config",
    "deserialize_config",
    "save_artifact",
    "save_index_artifact",
    "export_result",
    "load_artifact",
    "list_artifacts",
    "FILTER_FIELDS",
    "record_from_manifest",
    "find_artifacts",
    "artifact_record",
    "canonical_manifest",
]
