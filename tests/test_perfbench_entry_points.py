"""The repo benchmark's entry points into the program still resolve.

``perfbench/`` reports a probe whose target is gone as ``absent`` instead of
failing, so a rename there would silently drop a per-layer metric.  These
tests read ``perfbench/`` without editing it: every probe target resolves
through perfbench's own ``spans._resolve``, the ``HTCConfig`` and suite its
align workloads build construct, the orbit cache it resets and reads keeps
``clear()`` and ``stats()``, and the ``serve`` command line it starts parses.
"""

import importlib
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.core import HTCConfig
from repro.orbits.cache import shared_cache

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
#: perfbench's modules import each other by bare name.
_MODULES = ("measure", "outcome", "spans", "align", "serve")


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's modules, imported from its directory and then forgotten."""
    already = {name for name in _MODULES if name in sys.modules}
    assert not already, f"module names taken: {sorted(already)}"
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield {name: importlib.import_module(name) for name in _MODULES}
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in _MODULES:
            sys.modules.pop(name, None)


def _probe_targets(perfbench):
    return [
        probe.target
        for probes in (perfbench["align"].ALIGN_PROBES, perfbench["serve"].SERVE_PROBES)
        for probe in probes
    ]


def test_every_probe_target_resolves(perfbench):
    targets = _probe_targets(perfbench)
    assert "repro.core.aligner:count_orbits_if_needed" in targets
    for target in targets:
        owner, attr, original = perfbench["spans"]._resolve(target)
        assert callable(original), target
        assert getattr(owner, attr) is original


def test_align_config_constructs(perfbench):
    align = perfbench["align"]
    config = HTCConfig(**align.HTC_PARAMS, epochs=align.ALIGN_EPOCHS, orbit_cache="off")
    assert config.epochs == align.ALIGN_EPOCHS and config.orbit_cache == "off"


def test_runner_suite_builds_valid_job_configs(perfbench):
    jobs = perfbench["align"].suite_spec(0).jobs()
    assert jobs
    for job in jobs:
        HTCConfig(**dict(job.config))


def test_shared_orbit_cache_clears_and_counts(perfbench):
    cache = perfbench["align"]._orbit_cache()
    assert cache is shared_cache()
    cache.clear()
    assert {"hits", "misses"} <= set(cache.stats())


def test_serve_command_line_parses(perfbench, monkeypatch, tmp_path):
    launched = []

    class _Recorder:
        def __init__(self, argv, **kwargs):
            launched.append(argv)

    monkeypatch.setattr(perfbench["serve"].subprocess, "Popen", _Recorder)
    perfbench["serve"].Server(str(tmp_path / "store"), "src", str(tmp_path))
    (argv,) = launched
    assert argv[1:3] == ["-m", "repro.cli"]
    args = build_parser().parse_args(argv[3:])
    assert args.command == "serve"
    assert args.server == "stdlib" and args.preload
