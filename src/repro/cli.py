"""Command-line interface for the HTC reproduction.

Nine sub-commands cover the typical workflows without writing Python:

``datasets``
    List the bundled dataset stand-ins and their statistics.
``align``
    Run one method (HTC, an ablation variant, or a baseline) on one dataset
    and print the paper's metrics; ``--shards N`` routes HTC through the
    partition–align–stitch subsystem for pairs beyond the single-shot
    memory/time envelope.
``compare``
    Run HTC plus the baselines on one or more datasets (the Table II layout).
``robustness``
    Sweep edge-removal noise on a robustness dataset (the Fig. 9 layout).
``run-suite``
    Execute a declarative suite (datasets × methods × config grid) on a
    process pool, with per-job JSON artifacts, a manifest and resumability;
    ``--emit-artifacts`` additionally persists every job's alignment as a
    queryable serve artifact.
``export-artifact``
    Train one method on one dataset and persist the alignment (plus its
    sparse top-k index) into an artifact store.
``query``
    Answer match / top-k / reverse-match queries from a stored artifact,
    printing the same versioned JSON payload the HTTP API returns.
``serve``
    Serve an artifact store over HTTP (:mod:`repro.api`) with the
    dependency-free stdlib server.
``serve-stats``
    Inspect an artifact store from the manifests on disk (ids, shapes,
    index sizes) — the same payload as ``GET /artifacts``.

Dataset arguments accept registered names (``douban``, ``tiny``, ...) and
prefixed names such as ``dir:/path/to/exported-pair`` (a directory written
by ``repro.datasets.save_pair``).

Each command imports the layers it runs when it runs, so ``serve``,
``query`` and ``serve-stats`` load only the serve stack
(:mod:`repro.serve`, :mod:`repro.api`, :mod:`repro.obs`), never the
alignment pipeline or scipy.

Examples
--------
::

    python -m repro.cli datasets
    python -m repro.cli align --dataset douban --method HTC --epochs 40
    python -m repro.cli compare --datasets douban allmovie_imdb --scale 0.3
    python -m repro.cli robustness --dataset econ --methods HTC GAlign IsoRank
    python -m repro.cli run-suite --datasets tiny econ bn --methods HTC \
        IsoRank Degree --jobs 4 --output runs --emit-artifacts
    python -m repro.cli export-artifact --dataset tiny --method HTC \
        --artifact-root artifacts --index-k 10
    python -m repro.cli query --artifact-root artifacts --artifact <id> \
        --op top-k --k 5 --nodes 0 1 2
    python -m repro.cli serve --artifact-root artifacts --port 8000
    python -m repro.cli serve-stats --artifact-root artifacts
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from repro.backend import PRECISIONS, available_executor_backends

#: The method vocabulary of :func:`repro.runner.executor.known_method_names`
#: by name alone, so that building the parser imports no method (a test
#: keeps the two equal).
METHOD_NAMES = (
    "HTC",
    "HTC-L",
    "HTC-H",
    "HTC-LT",
    "HTC-DT",
    "HTC-binary",
    "HTC-cosine",
    "HTC-GDV",
    "GAlign",
    "FINAL",
    "PALE",
    "CENALP",
    "IsoRank",
    "REGAL",
    "Degree",
    "Attribute",
)


def _dataset_arg(name: str) -> str:
    """argparse type validating plain or prefixed (``dir:<path>``) names."""
    from repro.datasets import available_datasets, is_known_dataset

    if not is_known_dataset(name):
        raise argparse.ArgumentTypeError(
            f"unknown dataset {name!r}; available: {available_datasets()} "
            f'or a prefixed name like "dir:<path>"'
        )
    return name


def _is_prefixed(name: str) -> bool:
    from repro.datasets import available_datasets

    return ":" in name and name not in available_datasets()


def _load_cli_dataset(name: str, args: argparse.Namespace, seed=None) -> object:
    """Load a dataset honouring the CLI conventions.

    Generated datasets take ``--scale``/``--seed``; ``tiny`` ignores scale;
    prefixed datasets (on-disk directories) take no parameters at all.
    """
    from repro.datasets import load_dataset

    if _is_prefixed(name):
        return load_dataset(name)
    random_state = args.seed if seed is None else seed
    if name == "tiny":
        return load_dataset(name, random_state=random_state)
    return load_dataset(name, scale=args.scale, random_state=random_state)


def _config_from_args(args: argparse.Namespace):
    from repro.core import HTCConfig

    orbits = range(args.orbits) if args.orbits is not None else None
    kwargs = {}
    # Only set when given so the HTCConfig default stays the single source.
    if args.shard_overlap is not None:
        kwargs["shard_overlap"] = args.shard_overlap
    return HTCConfig(
        orbits=orbits,
        executor_backend=args.executor,
        embedding_dim=args.dim,
        epochs=args.epochs,
        n_neighbors=args.neighbors,
        reinforcement_rate=args.beta,
        compute_dtype=args.dtype,
        orbit_cache=args.orbit_cache,
        shard_count=args.shards,
        random_state=args.seed,
        **kwargs,
    )


def _add_model_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=0.3, help="dataset scale factor")
    parser.add_argument("--dim", type=int, default=32, help="embedding dimension d")
    parser.add_argument("--epochs", type=int, default=40, help="training epochs")
    parser.add_argument(
        "--orbits", type=int, default=None, help="use the first K orbits (default: all 13)"
    )
    parser.add_argument("--neighbors", type=int, default=10, help="LISI neighbourhood m")
    parser.add_argument("--beta", type=float, default=1.1, help="reinforcement rate")
    parser.add_argument(
        "--dtype",
        choices=PRECISIONS,
        default="float64",
        help="precision policy for the similarity/serve hot paths: float64 "
        "(exact, bit-identical default) or float32 (about half the "
        "score-matrix memory and faster GEMMs, float64 accumulation "
        "for reductions; documented tolerances instead of bit-identity)",
    )
    parser.add_argument(
        "--orbit-cache",
        default="memory",
        metavar="SPEC",
        help='orbit-count cache: "memory" (default), "off", or a directory path',
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="partition the pair into N community shards, align each shard "
        "pair independently and stitch the results (HTC only; bounds "
        "per-shard memory/time by the shard size; default: single-shot)",
    )
    parser.add_argument(
        "--shard-overlap",
        type=int,
        default=None,
        metavar="HOPS",
        help="BFS hops of boundary overlap around every shard (default: 1)",
    )
    parser.add_argument(
        "--executor",
        choices=("auto",) + available_executor_backends(),
        default="auto",
        help="job-execution backend for suites and sharded alignment "
        "(auto = process pool when available; execution-only, results "
        "and spec hashes are identical across backends)",
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--runs", type=int, default=1, help="repetitions to average over")


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HTC: higher-order topological consistency for unsupervised "
        "network alignment (ICDE 2023 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("datasets", help="list bundled datasets and their statistics")

    align = subparsers.add_parser("align", help="run one method on one dataset")
    align.add_argument("--dataset", required=True, type=_dataset_arg)
    align.add_argument(
        "--method",
        default="HTC",
        help=f"one of {METHOD_NAMES}",
    )
    _add_model_arguments(align)

    compare = subparsers.add_parser(
        "compare", help="run HTC and all baselines on one or more datasets"
    )
    compare.add_argument(
        "--datasets", nargs="+", default=["douban"], type=_dataset_arg
    )
    _add_model_arguments(compare)

    robustness = subparsers.add_parser(
        "robustness", help="edge-removal noise sweep on a robustness dataset"
    )
    robustness.add_argument("--dataset", default="econ", choices=["econ", "bn"])
    robustness.add_argument(
        "--methods", nargs="+", default=["HTC", "GAlign", "IsoRank"]
    )
    robustness.add_argument(
        "--ratios", nargs="+", type=float, default=[0.1, 0.2, 0.3, 0.4, 0.5]
    )
    _add_model_arguments(robustness)

    suite = subparsers.add_parser(
        "run-suite",
        help="execute a dataset × method × config sweep on an executor backend",
    )
    suite.add_argument(
        "--suite",
        default=None,
        metavar="JSON",
        help="suite spec file; overrides the inline --datasets/--methods flags",
    )
    suite.add_argument("--name", default="suite", help="suite name (inline specs)")
    suite.add_argument(
        "--datasets", nargs="+", default=["tiny"], type=_dataset_arg
    )
    suite.add_argument(
        "--methods",
        nargs="+",
        default=["HTC", "IsoRank", "Degree"],
        help=f"any of {METHOD_NAMES}",
    )
    suite.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker slots for the executor backend (1 = inline under "
        "auto, 0 = CPU count)",
    )
    suite.add_argument(
        "--resume",
        action="store_true",
        help="skip jobs whose artifact already matches the spec hash",
    )
    suite.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock limit",
    )
    suite.add_argument(
        "--output", default="runs", metavar="DIR", help="artifact root directory"
    )
    suite.add_argument(
        "--emit-artifacts",
        action="store_true",
        help="persist every job's alignment as a queryable serve artifact "
        "under <output>/<suite>/serve_artifacts/",
    )
    _add_model_arguments(suite)

    export = subparsers.add_parser(
        "export-artifact",
        help="train one method on one dataset and persist the alignment "
        "(plus its sparse top-k index) as a serve artifact",
    )
    export.add_argument("--dataset", required=True, type=_dataset_arg)
    export.add_argument(
        "--method", default="HTC", help=f"one of {METHOD_NAMES}"
    )
    export.add_argument(
        "--artifact-root",
        default="artifacts",
        metavar="DIR",
        help="artifact store root directory",
    )
    export.add_argument(
        "--artifact-name",
        default=None,
        metavar="NAME",
        help="artifact id prefix (default: <dataset>-<method>)",
    )
    export.add_argument(
        "--index-k",
        type=int,
        default=10,
        metavar="K",
        help="candidates stored per source row / target column",
    )
    _add_model_arguments(export)

    query = subparsers.add_parser(
        "query", help="answer matching queries from a stored artifact"
    )
    query.add_argument(
        "--artifact-root", default="artifacts", metavar="DIR",
        help="artifact store root directory",
    )
    query.add_argument(
        "--artifact", required=True, metavar="ID", help="artifact id to query"
    )
    query.add_argument(
        "--op",
        choices=("match", "top-k", "reverse-match", "reverse-top-k"),
        default="match",
        help="query operation",
    )
    query.add_argument(
        "--nodes",
        nargs="+",
        type=int,
        required=True,
        help="node ids to query (source side; target side for reverse ops)",
    )
    query.add_argument(
        "--k", type=int, default=5, help="candidates per node (top-k ops)"
    )
    query.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the artifact integrity (hash) check on load",
    )

    serve = subparsers.add_parser(
        "serve",
        help="serve an artifact store over HTTP (health/artifacts/match/"
        "top_k/reverse endpoints)",
    )
    serve.add_argument(
        "--artifact-root", default="artifacts", metavar="DIR",
        help="artifact store root directory",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8000, help="bind port")
    serve.add_argument(
        "--server",
        choices=("stdlib",),
        default="stdlib",
        help="HTTP stack; only the dependency-free stdlib server is left, and "
        "the flag stays so existing command lines keep working",
    )
    serve.add_argument(
        "--preload",
        action="store_true",
        help="host every stored artifact at startup instead of lazily on "
        "first query",
    )

    stats = subparsers.add_parser(
        "serve-stats", help="inspect an artifact store from its manifests"
    )
    stats.add_argument(
        "--artifact-root", default="artifacts", metavar="DIR",
        help="artifact store root directory",
    )
    stats.add_argument(
        "--format",
        choices=("json", "prometheus"),
        default="json",
        help="json: the same payload as GET /artifacts (default); "
        "prometheus: the same text exposition format as GET /metrics, with "
        "store-level gauges — scrapeable without a running server",
    )

    return parser


def _cmd_datasets() -> int:
    from repro.datasets import available_datasets, load_dataset
    from repro.eval.reporting import format_table

    rows = []
    for name in available_datasets():
        pair = load_dataset(name, scale=0.3) if name != "tiny" else load_dataset(name)
        rows.append(pair.summary())
    print(format_table(rows, title="Bundled dataset stand-ins (scale=0.3)"))
    return 0


def _cmd_align(args: argparse.Namespace) -> int:
    from repro.core import HTCAligner
    from repro.eval.protocol import run_method
    from repro.eval.reporting import format_importance_ranking, format_table
    from repro.runner import resolve_method

    config = _config_from_args(args)
    pair = _load_cli_dataset(args.dataset, args)
    method = resolve_method(args.method, config)
    result = run_method(method, pair, n_runs=args.runs, random_state=args.seed)
    print(format_table([result.as_row()], title=f"{args.method} on {pair.name}"))
    if isinstance(method, HTCAligner) and method.last_result_ is not None:
        print("\nOrbit importance:")
        print(format_importance_ranking(method.last_result_.orbit_importance))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.baselines import PAPER_BASELINES
    from repro.eval.protocol import run_comparison
    from repro.eval.reporting import format_table
    from repro.runner import resolve_method

    config = _config_from_args(args)
    pairs = [
        _load_cli_dataset(name, args, seed=index)
        for index, name in enumerate(args.datasets)
    ]
    methods = [resolve_method(name, config) for name in ("HTC", *PAPER_BASELINES)]
    results = run_comparison(methods, pairs, n_runs=args.runs, random_state=args.seed)
    for pair in pairs:
        rows = [r.as_row() for r in results if r.dataset == pair.name]
        print(format_table(rows, title=f"[{pair.name}]"))
        print()
    return 0


def _cmd_robustness(args: argparse.Namespace) -> int:
    from repro.datasets.synthetic import bn, econ
    from repro.eval.reporting import format_series
    from repro.eval.robustness import run_robustness
    from repro.runner import resolve_method

    config = _config_from_args(args)
    factory = econ if args.dataset == "econ" else bn
    methods = [resolve_method(name, config) for name in args.methods]
    points = run_robustness(
        methods,
        factory,
        noise_ratios=tuple(args.ratios),
        scale=args.scale,
        random_state=args.seed,
    )
    series = {}
    for point in points:
        series.setdefault(point.method, []).append(
            (point.noise_ratio, point.metrics["p@1"])
        )
    print(
        format_series(
            series,
            x_label="removal",
            y_label="p@1",
            title=f"Robustness on {args.dataset}",
        )
    )
    return 0


def _suite_from_args(args: argparse.Namespace):
    """Build the suite spec from a JSON file or the inline flags."""
    from repro.runner import SuiteSpec

    if args.suite:
        return SuiteSpec.from_json_file(args.suite)
    datasets: List[object] = []
    for name in args.datasets:
        # Mirror the align subcommand's loading convention: the seed also
        # controls dataset generation; tiny ignores --scale; prefixed
        # (on-disk) datasets take no parameters.
        if _is_prefixed(name):
            datasets.append(name)
            continue
        params: dict = {"random_state": args.seed}
        if name != "tiny":
            params["scale"] = args.scale
        datasets.append({"name": name, "params": params})
    config = {
        "embedding_dim": args.dim,
        "epochs": args.epochs,
        "n_neighbors": args.neighbors,
        "reinforcement_rate": args.beta,
        "orbit_cache": args.orbit_cache,
    }
    if args.orbits is not None:
        config["orbits"] = tuple(range(args.orbits))
    # Non-default precision knobs only, so pre-existing suite spec hashes
    # (and --resume caches) stay stable.
    if args.dtype != "float64":
        config["compute_dtype"] = args.dtype
    if args.shards is not None:
        config["shard_count"] = args.shards
    if args.shard_overlap is not None:
        config["shard_overlap"] = args.shard_overlap
    # The executor rides on the SuiteSpec, never in the job config: spec
    # hashes (and --resume caches) are identical across executor backends.
    return SuiteSpec(
        name=args.name,
        datasets=datasets,
        methods=list(args.methods),
        config=config,
        n_runs=args.runs,
        seed=args.seed,
        timeout=args.timeout,
        executor_backend=args.executor,
    )


def _cmd_run_suite(args: argparse.Namespace) -> int:
    from repro.runner import run_suite

    try:
        suite = _suite_from_args(args)
    except (OSError, ValueError) as error:
        # A bad spec is a usage error: one line and argparse's exit code.
        print(f"repro run-suite: error: {error}", file=sys.stderr)
        return 2
    report = run_suite(
        suite,
        args.output,
        jobs=args.jobs,
        resume=args.resume,
        timeout=args.timeout,
        emit_artifacts=args.emit_artifacts,
        # A non-default --executor also overrides a suite file's choice.
        executor=args.executor if args.executor != "auto" else None,
    )
    print(report.table())
    counts = report.counts
    summary = ", ".join(f"{status}: {count}" for status, count in sorted(counts.items()))
    print(
        f"\n{len(report.artifacts)} jobs ({summary}) in "
        f"{report.wall_clock_seconds:.2f}s with {report.workers} worker(s) "
        f"[{report.executor} executor]"
    )
    print(f"[manifest written to {report.manifest_path}]")
    detail = report.executor_detail
    if detail:
        cache = detail.get("dataset_cache") or {}
        print(
            f"[shm: BLAS cap {detail.get('blas_thread_cap')} "
            f"thread(s)/worker via {detail.get('blas_cap_method')}, "
            f"{detail.get('datasets_staged')} dataset(s) staged "
            f"({detail.get('shared_bytes', 0)} bytes); worker cache: "
            f"{cache.get('hits', 0)} hit(s), {cache.get('attaches', 0)} "
            f"attach(es), {cache.get('worker_loads', 0)} load(s)]"
        )
    if args.emit_artifacts:
        emitted = [
            a["serve_artifact"]["artifact_id"]
            for a in report.artifacts
            if isinstance(a.get("serve_artifact"), dict)
        ]
        print(
            f"[{len(emitted)} serve artifact(s) under "
            f"{report.suite_dir / 'serve_artifacts'}]"
        )
    failed = counts.get("failed", 0) + counts.get("timeout", 0)
    return 1 if failed else 0


def _cmd_export_artifact(args: argparse.Namespace) -> int:
    from repro.runner import resolve_method
    from repro.serve import export_result

    if args.runs != 1:
        print(
            "warning: export-artifact persists a single alignment; "
            f"--runs {args.runs} is ignored",
            file=sys.stderr,
        )
    config = _config_from_args(args)
    pair = _load_cli_dataset(args.dataset, args)
    method = resolve_method(args.method, config)
    train_anchors = None
    if getattr(method, "requires_supervision", False):
        train_anchors, _ = pair.split_anchors(0.1, random_state=args.seed)
    raw = method.align(pair, train_anchors=train_anchors)
    name = args.artifact_name or f"{pair.name}-{args.method}"
    info = export_result(
        raw,
        config,
        root=args.artifact_root,
        name=name,
        index_k=args.index_k,
        metadata={"dataset": args.dataset, "method": args.method},
    )
    n_s, n_t = info.index.shape
    print(f"artifact id:   {info.artifact_id}")
    print(f"path:          {info.path}")
    print(f"matrix shape:  {n_s} x {n_t}")
    print(f"score dtype:   {info.index.score_dtype}")
    print(f"index k:       {info.index.k} (reverse {info.index.reverse_k})")
    print(
        f"index memory:  {info.index.nbytes / 1e6:.2f} MB "
        f"(dense {info.index.dense_nbytes / 1e6:.2f} MB, "
        f"{info.index.compression_ratio:.1f}x smaller)"
    )
    print(f"on disk:       {info.disk_bytes / 1e6:.2f} MB")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.api.models import TOP_K_OPS, make_query_request, response_payload
    from repro.serve import AlignmentService

    service = AlignmentService()
    artifact_id = service.load(
        args.artifact_root, args.artifact, verify=not args.no_verify
    )
    op = args.op.replace("-", "_")
    k = args.k if op in TOP_K_OPS else None
    # The one shared entry point: the CLI is a thin client of service.query,
    # printing exactly what the HTTP layer would have returned.
    response = service.query(make_query_request(artifact_id, op, args.nodes, k))
    print(json.dumps(response_payload(response), indent=2))
    stats = service.stats()
    print(
        f"[{stats['queries']} queries in {1000 * stats['total_latency_s']:.2f} ms]",
        file=sys.stderr,
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.api.core import ApiState
    from repro.api.http import make_server

    state = ApiState(root=args.artifact_root)
    if args.preload:
        print(f"[preloaded {state.preload()} artifact(s)]", file=sys.stderr)
    print(
        f"[serving {args.artifact_root} on http://{args.host}:{args.port} "
        f"via {args.server}]",
        file=sys.stderr,
    )
    server = make_server(state, host=args.host, port=args.port, quiet=False)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        server.server_close()
    return 0


def _cmd_serve_stats(args: argparse.Namespace) -> int:
    from repro.api.models import artifact_list_payload
    from repro.serve.artifacts import find_artifacts, list_artifacts

    manifests = list_artifacts(args.artifact_root)
    if not manifests:
        print(f"no artifacts under {args.artifact_root}")
        return 1
    if args.format == "prometheus":
        # Rendered by the exact /metrics code path (handle_metrics →
        # prometheus_text), so the exposition format is byte-compatible
        # with what a running server serves — just from a cold store.
        from repro.api.core import ApiState, handle_metrics
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry("serve-stats")
        registry.gauge("store_artifacts_total").set(len(manifests))
        for manifest in manifests:
            dtype = str(manifest.get("dtype", "unknown"))
            registry.counter("store_artifacts_by_dtype_total", dtype=dtype).inc()
            index_meta = dict(manifest.get("index", {}))
            shape = index_meta.get("shape") or [0, 0]
            registry.gauge("store_index_rows_total").inc(float(shape[0]))
        state = ApiState(root=args.artifact_root, metrics=registry)
        print(handle_metrics(state).text, end="")
        return 0
    print(
        json.dumps(
            artifact_list_payload(
                find_artifacts(args.artifact_root), source="store"
            ),
            indent=2,
        )
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "datasets":
        return _cmd_datasets()
    if args.command == "align":
        return _cmd_align(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "robustness":
        return _cmd_robustness(args)
    if args.command == "run-suite":
        return _cmd_run_suite(args)
    if args.command == "export-artifact":
        return _cmd_export_artifact(args)
    if args.command == "query":
        return _cmd_query(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "serve-stats":
        return _cmd_serve_stats(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
