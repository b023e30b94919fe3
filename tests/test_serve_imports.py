"""What a serve process imports: the serve layers, never the pipeline.

Each check starts a fresh interpreter, because this test process has long
since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.utils
from repro.core import HTCConfig
from repro.serve import export_result
from repro.utils import sparse

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: Modules a serve-side entry point must not load.
PIPELINE_MODULES = (
    "scipy",
    "networkx",
    "repro.core",
    "repro.runner",
    "repro.graph",
    "repro.orbits",
    "repro.nn",
    "repro.baselines",
    "repro.datasets",
    "repro.eval",
    "repro.shard",
    "repro.utils.sparse",
)

#: The command line perfbench's serve-mixed workload starts its server with.
PERFBENCH_SERVE_ARGV = [
    "serve", "--artifact-root", "store", "--server", "stdlib", "--preload",
    "--host", "127.0.0.1", "--port", "8000",
]


def _fresh_modules(script: str) -> dict:
    """Run ``script`` in a new interpreter; its stdout's last line is JSON.

    Returns ``{"loaded": [...], "output": <what the script printed>}``,
    where ``loaded`` lists the :data:`PIPELINE_MODULES` it imported.
    """
    probe = textwrap.dedent(script) + textwrap.dedent(
        f"""
        import json as _json, sys as _sys
        print(_json.dumps([m for m in {PIPELINE_MODULES!r} if m in _sys.modules]))
        """
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    *output, loaded = done.stdout.splitlines()
    return {"loaded": json.loads(loaded), "output": "\n".join(output)}


def test_serve_entry_point_imports_no_pipeline():
    probe = _fresh_modules(
        f"""
        from repro.cli import build_parser

        args = build_parser().parse_args({PERFBENCH_SERVE_ARGV!r})
        assert args.command == "serve" and args.preload
        import repro.api.core, repro.api.http
        """
    )
    assert probe["loaded"] == []


def test_python_dash_m_repro_imports_no_pipeline():
    probe = _fresh_modules(
        """
        import runpy, sys

        sys.argv = ["repro", "serve", "--help"]
        try:
            runpy.run_module("repro", run_name="__main__")
        except SystemExit:
            pass
        """
    )
    assert probe["loaded"] == []
    assert "--preload" in probe["output"]


def test_serve_commands_and_every_endpoint_import_no_pipeline(tmp_path):
    root = tmp_path / "store"
    scores = np.random.default_rng(0).standard_normal((30, 20))
    info = export_result(scores, None, root=root, name="lean", index_k=5)
    probe = _fresh_modules(
        f"""
        import contextlib, io

        from repro.cli import main

        root, artifact_id = {str(root)!r}, {info.artifact_id!r}
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            assert main(["query", "--artifact-root", root, "--artifact",
                         artifact_id, "--op", "top-k", "--nodes", "0", "1"]) == 0
            assert main(["serve-stats", "--artifact-root", root]) == 0
            assert main(["serve-stats", "--artifact-root", root,
                         "--format", "prometheus"]) == 0

        from repro.api.core import ApiState, dispatch

        state = ApiState(root=root)
        assert state.preload() == 1
        body = {{"artifact_id": artifact_id, "nodes": [0, 1]}}
        requests = [
            ("GET", "/health", None), ("GET", "/stats", None),
            ("GET", "/metrics", None), ("GET", "/artifacts", None),
            ("GET", "/artifacts/" + artifact_id, None),
            ("POST", "/match", body), ("POST", "/top_k", dict(body, k=3)),
            ("POST", "/reverse", body), ("POST", "/query", dict(body, op="match")),
        ]
        for method, path, payload in requests:
            status, _ = dispatch(state, method, path, body=payload)
            assert status == 200, (path, status)
        """
    )
    assert probe["loaded"] == []


def test_import_repro_loads_no_pipeline():
    assert _fresh_modules("import repro, repro.utils")["loaded"] == []


def test_every_public_name_resolves():
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert set(repro.__all__) <= set(dir(repro))
    for name in repro.__all__:
        assert getattr(repro, name) is namespace[name]
    assert repro.HTCConfig is HTCConfig


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.nope
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.utils.nope


def test_every_utils_name_resolves():
    for name in repro.utils.__all__:
        assert name in dir(repro.utils)
        value = getattr(repro.utils, name)
        if hasattr(sparse, name):
            assert value is getattr(sparse, name)
