"""Tests for the benchmark regression gate (``benchmarks/check_regression.py``)."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "check_regression",
    Path(__file__).resolve().parent.parent / "benchmarks" / "check_regression.py",
)
check_regression = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_regression)


SHARD_PAYLOAD = {
    "command": "python benchmarks/bench_shard.py --quick",
    "within_tolerance": True,
    "memory_ratio": 4.0,
    "speedup": 2.0,
    "single_shot": {"wall_s": 1.5, "peak_mb": 100.0, "p_at_1": 0.87},
    "sharded": {"wall_s": 3.0},
}

RUNNER_PAYLOAD = {
    "command": "python benchmarks/bench_runner.py --quick",
    # Parallel-speedup checks only compare when both runs saw >= 2 cpus.
    "cpus": 4,
    "suite": {
        "all_done": True,
        "executors": {
            "serial": {"executor": "serial", "wall_s": 1.0},
            "process-pool": {"executor": "process-pool", "wall_s": 1.5},
            "process-pool-shm": {
                "executor": "process-pool-shm",
                "wall_s": 0.6,
            },
        },
        "scheduler_overlap": {"executor": "process-pool", "speedup": 2.5},
    },
    "shm": {
        "executor": "process-pool-shm",
        "bit_identical": True,
        "speedup_vs_serial": 1.7,
    },
    "kernel_memory": {
        "identical": True,
        "memory_ratio": 5.0,
        "chunked_s": 0.5,
    },
    "greedy_memory": {"identical": True, "memory_ratio": 50.0, "heap_s": 0.1},
}


ORBITS_PAYLOAD = {
    "command": "python benchmarks/bench_orbit_counting.py --quick",
    "results": [
        {
            "identical": True,
            "speedup_total": 25.0,
            "backends": {"numpy": {"total_s": 0.004}},
        },
        {"graph": "er_2k_edges", "identical": True},
    ],
}


def _write(directory: Path, name: str, payload: dict) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / name).write_text(json.dumps(payload))


class TestLookup:
    def test_nested_dicts_and_lists(self):
        payload = {"a": [{"b": {"c": 7}}]}
        assert check_regression.lookup(payload, "a.0.b.c") == 7

    def test_missing_key_raises(self):
        with pytest.raises(KeyError):
            check_regression.lookup({}, "nope")


class TestSameMode:
    def test_matching_quick_flags(self):
        quick = {"command": "python bench.py --quick"}
        full = {"command": "python bench.py"}
        assert check_regression.same_mode(quick, dict(quick))
        assert check_regression.same_mode(full, dict(full))
        assert not check_regression.same_mode(quick, full)


class TestBackendContext:
    def test_innermost_backend_wins(self):
        assert (
            check_regression.backend_context(
                RUNNER_PAYLOAD, "suite.scheduler_overlap.speedup"
            )
            == "process-pool"
        )
        assert (
            check_regression.backend_context(
                RUNNER_PAYLOAD, "suite.executors.serial.wall_s"
            )
            == "serial"
        )

    def test_no_backend_recorded_is_none(self):
        assert (
            check_regression.backend_context(SHARD_PAYLOAD, "sharded.wall_s")
            is None
        )

    def test_generic_backend_key_also_counts(self):
        payload = {"kernel": {"backend": "numpy", "total_s": 1.0}}
        assert (
            check_regression.backend_context(payload, "kernel.total_s")
            == "numpy"
        )

    def test_missing_path_keeps_outer_context(self):
        assert (
            check_regression.backend_context(
                RUNNER_PAYLOAD, "suite.scheduler_overlap.nope.deeper"
            )
            == "process-pool"
        )


class TestGate:
    def test_identical_runs_pass(self, tmp_path, capsys):
        _write(tmp_path / "baselines", "BENCH_shard.json", SHARD_PAYLOAD)
        _write(tmp_path / "fresh", "BENCH_shard.json", SHARD_PAYLOAD)
        code = check_regression.main(
            [
                "--baseline-dir", str(tmp_path / "baselines"),
                "--fresh-dir", str(tmp_path / "fresh"),
                "--files", "BENCH_shard.json",
            ]
        )
        assert code == 0
        assert "regression gate passed" in capsys.readouterr().out

    def test_broken_invariant_fails(self, tmp_path):
        bad = dict(SHARD_PAYLOAD, within_tolerance=False)
        _write(tmp_path / "baselines", "BENCH_shard.json", SHARD_PAYLOAD)
        _write(tmp_path / "fresh", "BENCH_shard.json", bad)
        code = check_regression.main(
            [
                "--baseline-dir", str(tmp_path / "baselines"),
                "--fresh-dir", str(tmp_path / "fresh"),
                "--files", "BENCH_shard.json",
            ]
        )
        assert code == 1

    def test_ratio_floor_always_enforced(self, tmp_path):
        bad = dict(SHARD_PAYLOAD, memory_ratio=1.0)  # below the 1.5 floor
        _write(tmp_path / "baselines", "BENCH_shard.json", SHARD_PAYLOAD)
        _write(tmp_path / "fresh", "BENCH_shard.json", bad)
        code = check_regression.main(
            [
                "--baseline-dir", str(tmp_path / "baselines"),
                "--fresh-dir", str(tmp_path / "fresh"),
                "--files", "BENCH_shard.json",
            ]
        )
        assert code == 1

    def test_single_shot_accuracy_floor_enforced(self, tmp_path, capsys):
        bad = dict(
            SHARD_PAYLOAD, single_shot=dict(SHARD_PAYLOAD["single_shot"], p_at_1=0.8)
        )
        _write(tmp_path / "baselines", "BENCH_shard.json", SHARD_PAYLOAD)
        _write(tmp_path / "fresh", "BENCH_shard.json", bad)
        code = check_regression.main(
            [
                "--baseline-dir", str(tmp_path / "baselines"),
                "--fresh-dir", str(tmp_path / "fresh"),
                "--files", "BENCH_shard.json",
            ]
        )
        assert code == 1
        assert "single_shot.p_at_1" in capsys.readouterr().out

    def test_slowdown_fails_in_same_mode(self, tmp_path, capsys):
        slow = dict(SHARD_PAYLOAD, sharded={"wall_s": 30.0})
        _write(tmp_path / "baselines", "BENCH_shard.json", SHARD_PAYLOAD)
        _write(tmp_path / "fresh", "BENCH_shard.json", slow)
        code = check_regression.main(
            [
                "--baseline-dir", str(tmp_path / "baselines"),
                "--fresh-dir", str(tmp_path / "fresh"),
                "--files", "BENCH_shard.json",
            ]
        )
        assert code == 1
        assert "slowdown" in capsys.readouterr().out

    def test_cross_mode_skips_relative_checks(self, tmp_path, capsys):
        full_baseline = dict(
            SHARD_PAYLOAD,
            command="python benchmarks/bench_shard.py",
            sharded={"wall_s": 0.001},  # would fail the 2x rule if compared
        )
        _write(tmp_path / "baselines", "BENCH_shard.json", full_baseline)
        _write(tmp_path / "fresh", "BENCH_shard.json", SHARD_PAYLOAD)
        code = check_regression.main(
            [
                "--baseline-dir", str(tmp_path / "baselines"),
                "--fresh-dir", str(tmp_path / "fresh"),
                "--files", "BENCH_shard.json",
            ]
        )
        assert code == 0
        assert "different mode" in capsys.readouterr().out

    def test_missing_fresh_results_fail_with_regen_command(
        self, tmp_path, capsys
    ):
        _write(tmp_path / "baselines", "BENCH_shard.json", SHARD_PAYLOAD)
        (tmp_path / "fresh").mkdir()
        code = check_regression.main(
            [
                "--baseline-dir", str(tmp_path / "baselines"),
                "--fresh-dir", str(tmp_path / "fresh"),
                "--files", "BENCH_shard.json",
            ]
        )
        assert code == 1
        assert "python benchmarks/bench_shard.py" in capsys.readouterr().out

    def test_missing_baseline_is_floors_only(self, tmp_path, capsys):
        (tmp_path / "baselines").mkdir()
        _write(tmp_path / "fresh", "BENCH_shard.json", SHARD_PAYLOAD)
        code = check_regression.main(
            [
                "--baseline-dir", str(tmp_path / "baselines"),
                "--fresh-dir", str(tmp_path / "fresh"),
                "--files", "BENCH_shard.json",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "no committed baseline" in out
        # The note tells the user exactly how to restore relative checks.
        assert "python benchmarks/bench_shard.py" in out

    def test_schema_stale_baseline_fails_with_regen_command(
        self, tmp_path, capsys
    ):
        # A baseline written before the single_shot measurement existed:
        # the benchmark schema moved on without regenerating it.
        stale = {
            key: value
            for key, value in SHARD_PAYLOAD.items()
            if key != "single_shot"
        }
        _write(tmp_path / "baselines", "BENCH_shard.json", stale)
        _write(tmp_path / "fresh", "BENCH_shard.json", SHARD_PAYLOAD)
        code = check_regression.main(
            [
                "--baseline-dir", str(tmp_path / "baselines"),
                "--fresh-dir", str(tmp_path / "fresh"),
                "--files", "BENCH_shard.json",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "schema-stale" in out
        assert "python benchmarks/bench_shard.py" in out

    def test_stale_fresh_payload_fails_with_regen_command(
        self, tmp_path, capsys
    ):
        # The inverse: a checked value missing from the *fresh* run means
        # the benchmark output on disk predates the current script.
        stale = {
            key: value
            for key, value in SHARD_PAYLOAD.items()
            if key != "single_shot"
        }
        _write(tmp_path / "baselines", "BENCH_shard.json", SHARD_PAYLOAD)
        _write(tmp_path / "fresh", "BENCH_shard.json", stale)
        code = check_regression.main(
            [
                "--baseline-dir", str(tmp_path / "baselines"),
                "--fresh-dir", str(tmp_path / "fresh"),
                "--files", "BENCH_shard.json",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "missing from the fresh run" in out
        assert "python benchmarks/bench_shard.py" in out

    def _run_orbits(self, tmp_path, fresh):
        _write(tmp_path / "baselines", "BENCH_orbits.json", ORBITS_PAYLOAD)
        _write(tmp_path / "fresh", "BENCH_orbits.json", fresh)
        return check_regression.main(
            [
                "--baseline-dir", str(tmp_path / "baselines"),
                "--fresh-dir", str(tmp_path / "fresh"),
                "--files", "BENCH_orbits.json",
            ]
        )

    def test_orbits_payload_passes(self, tmp_path):
        assert self._run_orbits(tmp_path, ORBITS_PAYLOAD) == 0

    def test_missing_subtree_is_schema_stale(self, tmp_path, capsys):
        # A *missing* gated subtree means the benchmark output predates the
        # script — that fails loudly.
        fresh = json.loads(json.dumps(ORBITS_PAYLOAD))
        del fresh["results"][0]["backends"]["numpy"]
        assert self._run_orbits(tmp_path, fresh) == 1
        assert "missing from the fresh run" in capsys.readouterr().out

    def test_baseline_with_delta_subtrees_still_gates(self, tmp_path):
        # Baselines recorded while delta recounting was benchmarked carry
        # ``delta`` subtrees that no check reads any more: a fresh run
        # without them passes, and the surviving checks still apply.
        baseline = json.loads(json.dumps(ORBITS_PAYLOAD))
        baseline["results"][1]["delta"] = {"identical": True, "speedup": 6.0}
        _write(tmp_path / "baselines", "BENCH_orbits.json", baseline)
        args = [
            "--baseline-dir", str(tmp_path / "baselines"),
            "--fresh-dir", str(tmp_path / "fresh"),
            "--files", "BENCH_orbits.json",
        ]
        _write(tmp_path / "fresh", "BENCH_orbits.json", ORBITS_PAYLOAD)
        assert check_regression.main(args) == 0
        slow = json.loads(json.dumps(ORBITS_PAYLOAD))
        slow["results"][0]["backends"]["numpy"]["total_s"] = 0.1  # > 2x
        _write(tmp_path / "fresh", "BENCH_orbits.json", slow)
        assert check_regression.main(args) == 1

    def test_matching_executors_compare_and_pass(self, tmp_path):
        _write(tmp_path / "baselines", "BENCH_runner.json", RUNNER_PAYLOAD)
        _write(tmp_path / "fresh", "BENCH_runner.json", RUNNER_PAYLOAD)
        code = check_regression.main(
            [
                "--baseline-dir", str(tmp_path / "baselines"),
                "--fresh-dir", str(tmp_path / "fresh"),
                "--files", "BENCH_runner.json",
            ]
        )
        assert code == 0

    def test_different_executor_skips_relative_check(self, tmp_path, capsys):
        # On a machine without process-pool support, "auto" resolves to a
        # different executor; its overlap speedup is not comparable to the
        # committed baseline and must be skipped, not failed.
        fresh = json.loads(json.dumps(RUNNER_PAYLOAD))
        fresh["suite"]["scheduler_overlap"] = {
            "executor": "serial",
            "speedup": 0.1,  # would fail the 0.5x rule if compared
        }
        _write(tmp_path / "baselines", "BENCH_runner.json", RUNNER_PAYLOAD)
        _write(tmp_path / "fresh", "BENCH_runner.json", fresh)
        code = check_regression.main(
            [
                "--baseline-dir", str(tmp_path / "baselines"),
                "--fresh-dir", str(tmp_path / "fresh"),
                "--files", "BENCH_runner.json",
            ]
        )
        assert code == 0
        assert "different backend" in capsys.readouterr().out

    def test_matching_executor_still_catches_collapse(self, tmp_path, capsys):
        fresh = json.loads(json.dumps(RUNNER_PAYLOAD))
        fresh["suite"]["scheduler_overlap"]["speedup"] = 0.1
        _write(tmp_path / "baselines", "BENCH_runner.json", RUNNER_PAYLOAD)
        _write(tmp_path / "fresh", "BENCH_runner.json", fresh)
        code = check_regression.main(
            [
                "--baseline-dir", str(tmp_path / "baselines"),
                "--fresh-dir", str(tmp_path / "fresh"),
                "--files", "BENCH_runner.json",
            ]
        )
        assert code == 1
        assert "of baseline" in capsys.readouterr().out

    def _run_runner(self, tmp_path, baseline, fresh):
        _write(tmp_path / "baselines", "BENCH_runner.json", baseline)
        _write(tmp_path / "fresh", "BENCH_runner.json", fresh)
        return check_regression.main(
            [
                "--baseline-dir", str(tmp_path / "baselines"),
                "--fresh-dir", str(tmp_path / "fresh"),
                "--files", "BENCH_runner.json",
            ]
        )

    def test_baseline_with_a_thread_pool_entry_still_gates(self, tmp_path):
        # Baselines written before the thread-pool executor was removed
        # carry its timing; the fresh run has none and must still pass.
        baseline = json.loads(json.dumps(RUNNER_PAYLOAD))
        baseline["suite"]["executors"]["thread-pool"] = {
            "executor": "thread-pool",
            "wall_s": 1.2,
        }
        assert self._run_runner(tmp_path, baseline, RUNNER_PAYLOAD) == 0

    def test_baseline_with_a_null_jit_subtree_still_gates(self, tmp_path):
        # Orbit baselines from before the numba backend was removed carry
        # a null ``jit`` record; it is no longer compared.
        baseline = json.loads(json.dumps(ORBITS_PAYLOAD))
        baseline["results"][1]["jit"] = {
            "available": False,
            "identical": None,
            "speedup_edge": None,
        }
        _write(tmp_path / "baselines", "BENCH_orbits.json", baseline)
        _write(tmp_path / "fresh", "BENCH_orbits.json", ORBITS_PAYLOAD)
        code = check_regression.main(
            [
                "--baseline-dir", str(tmp_path / "baselines"),
                "--fresh-dir", str(tmp_path / "fresh"),
                "--files", "BENCH_orbits.json",
            ]
        )
        assert code == 0

    def test_single_cpu_fresh_run_skips_parallel_checks(self, tmp_path, capsys):
        # A 1-cpu container cannot demonstrate parallel speedups: the shm
        # floor and every pooled relative check skip by name, with both
        # recorded cpu counts, instead of failing the gate.
        fresh = json.loads(json.dumps(RUNNER_PAYLOAD))
        fresh["cpus"] = 1
        fresh["shm"]["speedup_vs_serial"] = 0.7  # below the 1.3 floor
        fresh["suite"]["executors"]["process-pool"]["wall_s"] = 99.0
        assert self._run_runner(tmp_path, RUNNER_PAYLOAD, fresh) == 0
        out = capsys.readouterr().out
        assert (
            "shm.speedup_vs_serial: parallel-speedup check needs >= 2 cpus"
            in out
        )
        assert "baseline recorded 4 cpu(s), fresh 1" in out
        assert (
            "suite.executors.process-pool.wall_s: parallel-speedup check"
            in out
        )

    def test_single_cpu_baseline_skips_relative_parallel_checks(
        self, tmp_path, capsys
    ):
        # The inverse: a baseline regenerated on a 1-cpu box cannot anchor
        # relative parallel comparisons — but the shm speedup *floor* only
        # depends on the fresh run's cpus, so it still enforces.
        baseline = json.loads(json.dumps(RUNNER_PAYLOAD))
        baseline["cpus"] = 1
        fresh = json.loads(json.dumps(RUNNER_PAYLOAD))
        fresh["suite"]["executors"]["process-pool-shm"]["wall_s"] = 99.0
        assert self._run_runner(tmp_path, baseline, fresh) == 0
        out = capsys.readouterr().out
        assert "baseline recorded 1 cpu(s), fresh 4" in out

    def test_multi_cpu_shm_floor_enforced(self, tmp_path):
        fresh = json.loads(json.dumps(RUNNER_PAYLOAD))
        fresh["shm"]["speedup_vs_serial"] = 1.1  # below the 1.3 floor
        assert self._run_runner(tmp_path, RUNNER_PAYLOAD, fresh) == 1

    def test_shm_bit_identical_enforced_regardless_of_cpus(self, tmp_path):
        fresh = json.loads(json.dumps(RUNNER_PAYLOAD))
        fresh["cpus"] = 1
        fresh["shm"]["bit_identical"] = False
        assert self._run_runner(tmp_path, RUNNER_PAYLOAD, fresh) == 1

    def test_unrecorded_cpus_still_compares(self, tmp_path):
        # Payloads predating the cpus field keep the old behaviour: the
        # guard cannot prove the box was too small, so the check runs.
        baseline = json.loads(json.dumps(RUNNER_PAYLOAD))
        del baseline["cpus"]
        fresh = json.loads(json.dumps(baseline))
        fresh["shm"]["speedup_vs_serial"] = 1.1
        assert self._run_runner(tmp_path, baseline, fresh) == 1
