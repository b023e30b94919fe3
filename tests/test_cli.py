"""Tests for the command-line interface."""

import json
import shutil

import numpy as np
import pytest

from repro.api.core import ApiState, dispatch
from repro.cli import METHOD_NAMES, build_parser, main
from repro.core import HTCConfig
from repro.runner import resolve_method
from repro.runner.executor import known_method_names
from repro.serve import export_result


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_align_defaults(self):
        args = build_parser().parse_args(["align", "--dataset", "tiny"])
        assert args.method == "HTC"
        assert args.dim == 32
        assert args.epochs == 40

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["align", "--dataset", "imaginary"])

    def test_robustness_ratio_parsing(self):
        args = build_parser().parse_args(
            ["robustness", "--dataset", "bn", "--ratios", "0.1", "0.3"]
        )
        assert args.ratios == [0.1, 0.3]


class TestMethodVocabulary:
    def test_each_name_once_and_every_name_resolves(self):
        names = known_method_names()
        assert len(names) == len(set(names)) == 16
        config = HTCConfig(epochs=1, embedding_dim=4)
        for name in names:
            assert resolve_method(name, config) is not None

    def test_parser_reads_the_same_vocabulary(self):
        assert METHOD_NAMES == known_method_names()

    @pytest.mark.parametrize("command", ["align", "export-artifact", "run-suite"])
    def test_help_lists_htc_once(self, command, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        assert capsys.readouterr().out.count("'HTC'") == 1


class TestCommands:
    def test_datasets_command(self, capsys):
        assert main(["datasets"]) == 0
        output = capsys.readouterr().out
        assert "douban" in output
        assert "allmovie_imdb" in output

    def test_align_htc_on_tiny(self, capsys):
        code = main(
            [
                "align",
                "--dataset",
                "tiny",
                "--method",
                "HTC",
                "--epochs",
                "5",
                "--dim",
                "8",
                "--orbits",
                "2",
                "--neighbors",
                "5",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "p@1" in output
        assert "Orbit importance" in output

    def test_align_baseline(self, capsys):
        code = main(["align", "--dataset", "tiny", "--method", "IsoRank"])
        assert code == 0
        assert "IsoRank" in capsys.readouterr().out

    def test_align_variant(self, capsys):
        code = main(
            [
                "align",
                "--dataset",
                "tiny",
                "--method",
                "HTC-L",
                "--epochs",
                "5",
                "--dim",
                "8",
            ]
        )
        assert code == 0
        assert "HTC-L" in capsys.readouterr().out

    def test_robustness_command(self, capsys):
        code = main(
            [
                "robustness",
                "--dataset",
                "econ",
                "--methods",
                "IsoRank",
                "--ratios",
                "0.1",
                "0.3",
                "--scale",
                "0.25",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Robustness on econ" in output
        assert "0.300" in output

    def test_compare_builds_galign_at_the_model_flags(self, monkeypatch, capsys):
        import repro.eval.protocol as protocol
        from repro.baselines import PAPER_BASELINES

        methods = []

        def record(aligners, pairs, **kwargs):
            methods.extend(aligners)
            return []

        monkeypatch.setattr(protocol, "run_comparison", record)
        argv = ["compare", "--datasets", "tiny", "--epochs", "5", "--dim", "8"]
        assert main(argv + ["--seed", "3"]) == 0
        assert [method.name for method in methods] == ["HTC", *PAPER_BASELINES]
        galign = methods[1]
        assert (galign.embedding_dim, galign.epochs, galign.random_state) == (8, 5, 3)


class TestRunSuiteSpecErrors:
    """A bad ``--suite`` file is a usage error, not a traceback."""

    VALID = {"name": "x", "datasets": ["tiny"], "methods": ["Degree"]}

    @pytest.mark.parametrize(
        "content, message",
        [
            (
                json.dumps({**VALID, "config": {"orbit_backend": "auto"}}),
                "config key 'orbit_backend'",
            ),
            ('{"name": "x", "datasets": [', "Expecting value"),
            (None, "No such file or directory"),
            (json.dumps({"datasets": ["tiny"]}), "suite name must be non-empty"),
            (json.dumps(["tiny"]), "must hold a JSON object"),
        ],
        ids=["unknown-key", "malformed-json", "missing-file", "no-name", "list"],
    )
    def test_one_line_and_exit_code_2(self, tmp_path, capsys, content, message):
        spec = tmp_path / "suite.json"
        if content is not None:
            spec.write_text(content)
        output = tmp_path / "runs"
        code = main(["run-suite", "--suite", str(spec), "--output", str(output)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro run-suite: error: ")
        assert message in lines[0]
        assert not output.exists()


class TestServeCommands:
    FAST = ["--epochs", "4", "--dim", "8", "--orbits", "2", "--neighbors", "5"]

    def _export(self, tmp_path, capsys, extra=()):
        code = main(
            [
                "export-artifact",
                "--dataset",
                "tiny",
                "--method",
                "HTC",
                "--artifact-root",
                str(tmp_path / "arts"),
                "--index-k",
                "6",
                *self.FAST,
                *extra,
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        artifact_id = next(
            line.split()[-1]
            for line in output.splitlines()
            if line.startswith("artifact id:")
        )
        return artifact_id

    def test_export_and_query_roundtrip(self, tmp_path, capsys):
        artifact_id = self._export(tmp_path, capsys)
        code = main(
            [
                "query",
                "--artifact-root",
                str(tmp_path / "arts"),
                "--artifact",
                artifact_id,
                "--op",
                "top-k",
                "--k",
                "3",
                "--nodes",
                "0",
                "1",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["op"] == "top_k"
        assert payload["k"] == 3
        assert payload["artifact_id"] == artifact_id
        assert payload["schema_version"]
        assert payload["engine_version"]
        assert len(payload["results"]) == 2
        assert len(payload["results"][0]) == 3

    def test_query_match_op(self, tmp_path, capsys):
        artifact_id = self._export(tmp_path, capsys)
        code = main(
            [
                "query",
                "--artifact-root",
                str(tmp_path / "arts"),
                "--artifact",
                artifact_id,
                "--op",
                "reverse-match",
                "--nodes",
                "2",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["op"] == "reverse_match"
        assert payload["k"] is None
        assert len(payload["results"]) == 1

    def test_serve_stats_lists_artifacts(self, tmp_path, capsys):
        artifact_id = self._export(tmp_path, capsys)
        code = main(["serve-stats", "--artifact-root", str(tmp_path / "arts")])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["source"] == "store"
        assert [a["artifact_id"] for a in payload["artifacts"]] == [artifact_id]
        assert payload["artifacts"][0]["dataset"] == "tiny"

    def test_serve_stats_follows_the_directories(self, tmp_path, capsys):
        root = tmp_path / "arts"
        ids = [
            export_result(
                np.random.default_rng(seed).standard_normal((8, 6)),
                root=root,
                name=f"art{seed}",
                index_k=3,
            ).artifact_id
            for seed in range(2)
        ]
        assert main(["serve-stats", "--artifact-root", str(root)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == dispatch(ApiState(root=root), "GET", "/artifacts")[1]
        assert sorted(a["artifact_id"] for a in payload["artifacts"]) == sorted(ids)
        shutil.rmtree(root / ids[0])
        assert main(["serve-stats", "--artifact-root", str(root)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [a["artifact_id"] for a in payload["artifacts"]] == [ids[1]]
        assert payload["total"] == 1

    def test_serve_stats_empty_store(self, tmp_path, capsys):
        code = main(["serve-stats", "--artifact-root", str(tmp_path / "arts")])
        assert code == 1
        assert "no artifacts" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["query", "--artifact", "x", "--nodes", "0", "--format", "legacy"],
            ["serve", "--server", "auto"],
            ["serve-stats", "--format", "table"],
            # The compute-backend flag and the removed backend names.
            ["align", "--dataset", "tiny", "--backend", "numpy"],
            ["run-suite", "--backend", "numpy"],
            ["run-suite", "--executor", "thread-pool"],
            ["export-artifact", "--dataset", "tiny", "--executor", "thread-pool"],
            # The SQLite catalog's backfill command.
            ["catalog-sync"],
            # The score-matrix block height is the engine's, not the user's.
            ["run-suite", "--chunk-size", "64"],
            # One stitch: shards are stitched from their serve indexes.
            ["align", "--dataset", "tiny", "--stitch", "streaming"],
            ["compare", "--stitch", "memory"],
            ["robustness", "--stitch", "streaming"],
            ["run-suite", "--stitch", "streaming"],
            ["export-artifact", "--dataset", "tiny", "--stitch", "memory"],
            # One orbit counter: nothing left to select.
            ["align", "--dataset", "tiny", "--orbit-backend", "numba"],
            ["compare", "--orbit-backend", "numpy"],
            ["robustness", "--orbit-backend", "python"],
            ["run-suite", "--orbit-backend", "auto"],
            ["export-artifact", "--dataset", "tiny", "--orbit-backend", "numpy"],
        ],
    )
    def test_removed_options_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert argv[-1] in capsys.readouterr().err

    def test_export_baseline_matrix_is_wrapped(self, tmp_path, capsys):
        code = main(
            [
                "export-artifact",
                "--dataset",
                "tiny",
                "--method",
                "Degree",
                "--artifact-root",
                str(tmp_path / "arts"),
                *self.FAST,
            ]
        )
        assert code == 0
        assert "artifact id:" in capsys.readouterr().out


class TestDatasetArguments:
    def test_dir_dataset_accepted_by_parser(self):
        args = build_parser().parse_args(
            ["align", "--dataset", "dir:/some/path"]
        )
        assert args.dataset == "dir:/some/path"

    def test_align_on_dir_dataset(self, tmp_path, capsys):
        from repro.datasets import load_dataset, save_pair

        save_pair(load_dataset("tiny", random_state=0), tmp_path / "exported")
        code = main(
            [
                "align",
                "--dataset",
                f"dir:{tmp_path / 'exported'}",
                "--method",
                "Degree",
            ]
        )
        assert code == 0
        assert "p@1" in capsys.readouterr().out
