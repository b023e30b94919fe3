"""Declarative experiment-suite specifications.

A suite is a small, JSON-serialisable description of a sweep::

    {
      "name": "fig9-robustness",
      "datasets": [
        {"name": "econ", "params": {"scale": 0.3}},
        {"name": "bn", "params": {"scale": 0.3, "edge_removal_ratio": 0.2}}
      ],
      "methods": ["HTC", "GAlign", "IsoRank"],
      "config": {"epochs": 40, "embedding_dim": 32},
      "grid": {"n_neighbors": [5, 10]},
      "n_runs": 1,
      "timeout": 600
    }

``SuiteSpec.jobs()`` expands the cross product datasets × methods × grid into
:class:`JobSpec` objects.  Every job has a deterministic ``job_id`` (a slug
plus a short content hash) and a full ``spec_hash``; the executor uses the
hash to decide whether an on-disk artifact is still valid when resuming, so
editing any knob of a job invalidates exactly that job's artifact.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.config import HTCConfig
from repro.utils.naming import slugify


def canonical_json(payload: object) -> str:
    """Stable JSON encoding (sorted keys, no whitespace drift)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def spec_hash(payload: object) -> str:
    """Content hash of a JSON-serialisable spec."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def _slug(text: str) -> str:
    return slugify(text, "job")


@dataclass(frozen=True)
class JobSpec:
    """One (dataset, method, config) cell of a suite."""

    dataset: str
    method: str
    dataset_params: Tuple[Tuple[str, object], ...] = ()
    config: Tuple[Tuple[str, object], ...] = ()
    n_runs: int = 1
    train_ratio: float = 0.1
    seed: int = 0

    @classmethod
    def create(
        cls,
        dataset: str,
        method: str,
        dataset_params: Optional[Dict[str, object]] = None,
        config: Optional[Dict[str, object]] = None,
        n_runs: int = 1,
        train_ratio: float = 0.1,
        seed: int = 0,
    ) -> "JobSpec":
        """Build a job from plain dicts (stored as sorted item tuples)."""
        return cls(
            dataset=dataset,
            method=method,
            dataset_params=tuple(sorted((dataset_params or {}).items())),
            config=tuple(sorted((config or {}).items())),
            n_runs=n_runs,
            train_ratio=train_ratio,
            seed=seed,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "dataset": self.dataset,
            "method": self.method,
            "dataset_params": dict(self.dataset_params),
            "config": dict(self.config),
            "n_runs": self.n_runs,
            "train_ratio": self.train_ratio,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "JobSpec":
        return cls.create(
            dataset=str(payload["dataset"]),
            method=str(payload["method"]),
            dataset_params=dict(payload.get("dataset_params", {})),
            config=dict(payload.get("config", {})),
            n_runs=int(payload.get("n_runs", 1)),
            train_ratio=float(payload.get("train_ratio", 0.1)),
            seed=int(payload.get("seed", 0)),
        )

    @property
    def hash(self) -> str:
        """Full content hash; artifacts carrying a different hash are stale."""
        return spec_hash(self.to_dict())

    @property
    def job_id(self) -> str:
        """Deterministic, filesystem-safe identifier."""
        return f"{_slug(self.dataset)}__{_slug(self.method)}__{self.hash[:10]}"


@dataclass
class SuiteSpec:
    """A sweep of dataset pairs × methods × configuration grid.

    Attributes
    ----------
    name:
        Suite name; artifacts land in ``<output_dir>/<name>/``.
    datasets:
        Dataset entries: a dataset name, or a ``{"name": ..., "params":
        {...}}`` dict forwarded to :func:`repro.datasets.load_dataset`.
    methods:
        Method names resolvable by
        :func:`repro.runner.executor.resolve_method` (HTC, its ablation
        variants, or any paper baseline).
    config:
        Shared :class:`~repro.core.config.HTCConfig` overrides.
    grid:
        Parameter grid, e.g. ``{"n_neighbors": [5, 10]}``; jobs are expanded
        for every combination, layered over ``config``.  Every ``config``
        and ``grid`` key must be an ``HTCConfig`` field: an unknown key
        raises ``ValueError`` when the suite is built, before any job runs
        (the values are checked per job, when its ``HTCConfig`` is built).
    n_runs, train_ratio, seed:
        Forwarded to :func:`repro.eval.protocol.run_method`.
    timeout:
        Per-job wall-clock limit in seconds (``None`` = unlimited).
    executor_backend:
        Job-execution strategy for the whole suite (``serial`` /
        ``process-pool`` / ``process-pool-shm`` — or ``"auto"``; see
        :mod:`repro.backend.executor`).  Deliberately *not* part of any
        :class:`JobSpec`: the executor changes how jobs run, never what
        they compute, so spec hashes and ``--resume`` artifacts stay valid
        when switching backends.
    """

    name: str
    datasets: List[object] = field(default_factory=list)
    methods: List[str] = field(default_factory=list)
    config: Dict[str, object] = field(default_factory=dict)
    grid: Dict[str, List[object]] = field(default_factory=dict)
    n_runs: int = 1
    train_ratio: float = 0.1
    seed: int = 0
    timeout: Optional[float] = None
    executor_backend: str = "auto"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("suite name must be non-empty")
        if not self.datasets:
            raise ValueError("suite needs at least one dataset")
        if not self.methods:
            raise ValueError("suite needs at least one method")
        if self.n_runs < 1:
            raise ValueError(f"n_runs must be >= 1, got {self.n_runs}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        fields = {spec.name for spec in dataclasses.fields(HTCConfig)}
        unknown = [
            f"{where} key {key!r}"
            for where, keys in (("config", self.config), ("grid", self.grid))
            for key in sorted(keys)
            if key not in fields
        ]
        if unknown:
            raise ValueError(
                f"suite {self.name!r} sets keys that are not HTCConfig "
                f"fields: {', '.join(unknown)}"
            )

    # ------------------------------------------------------------------
    # expansion
    # ------------------------------------------------------------------
    def _dataset_entries(self) -> Iterable[Tuple[str, Dict[str, object]]]:
        for entry in self.datasets:
            if isinstance(entry, str):
                yield entry, {}
            elif isinstance(entry, dict):
                yield str(entry["name"]), dict(entry.get("params", {}))
            else:
                raise TypeError(
                    f"dataset entries must be names or dicts, got {entry!r}"
                )

    def _grid_combinations(self) -> Iterable[Dict[str, object]]:
        if not self.grid:
            yield {}
            return
        keys = sorted(self.grid)
        for values in itertools.product(*(self.grid[k] for k in keys)):
            yield dict(zip(keys, values))

    def jobs(self) -> List[JobSpec]:
        """Expand the suite into its job list (deterministic order).

        Identical cells (e.g. a repeated method name or grid value) collapse
        to one job — they would share a ``job_id`` and artifact anyway.
        """
        expanded: List[JobSpec] = []
        seen = set()
        for dataset, params in self._dataset_entries():
            for method in self.methods:
                for overrides in self._grid_combinations():
                    config = dict(self.config)
                    config.update(overrides)
                    job = JobSpec.create(
                        dataset=dataset,
                        method=method,
                        dataset_params=params,
                        config=config,
                        n_runs=self.n_runs,
                        train_ratio=self.train_ratio,
                        seed=self.seed,
                    )
                    if job.job_id not in seen:
                        seen.add(job.job_id)
                        expanded.append(job)
        return expanded

    # ------------------------------------------------------------------
    # (de)serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "datasets": list(self.datasets),
            "methods": list(self.methods),
            "config": dict(self.config),
            "grid": {k: list(v) for k, v in self.grid.items()},
            "n_runs": self.n_runs,
            "train_ratio": self.train_ratio,
            "seed": self.seed,
            "timeout": self.timeout,
            "executor_backend": self.executor_backend,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SuiteSpec":
        return cls(
            name=str(payload.get("name", "")),
            datasets=list(payload.get("datasets", [])),
            methods=[str(m) for m in payload.get("methods", [])],
            config=dict(payload.get("config", {})),
            grid={
                str(k): list(v) for k, v in dict(payload.get("grid", {})).items()
            },
            n_runs=int(payload.get("n_runs", 1)),
            train_ratio=float(payload.get("train_ratio", 0.1)),
            seed=int(payload.get("seed", 0)),
            timeout=(
                None
                if payload.get("timeout") is None
                else float(payload["timeout"])
            ),
            executor_backend=str(payload.get("executor_backend", "auto")),
        )

    @classmethod
    def from_json_file(cls, path) -> "SuiteSpec":
        """Load a suite from a JSON file."""
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if not isinstance(payload, dict):
            raise ValueError(f"suite file {path} must hold a JSON object")
        return cls.from_dict(payload)


__all__ = ["JobSpec", "SuiteSpec", "spec_hash", "canonical_json"]
