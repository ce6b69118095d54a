"""Command-line interface: ``repro`` (also installed as ``disthd-repro``).

Subcommands:

- ``datasets`` — list the Table-I dataset registry;
- ``models`` — list the model registry (names, tags, hyper-parameters);
- ``train`` — fit a model on a dataset analog and print the metric suite;
- ``compare`` — run the Fig. 4-style model comparison on one dataset;
- ``grid`` — grid-search a model's hyper-parameter space (``--n-jobs``
  fans candidate fits across a process pool);
- ``robustness`` — run a Fig. 8-style bit-flip sweep for one model;
- ``bench`` — time encode/fit/predict per model and emit ``BENCH_*.json``
  (the tracked performance trajectory; ``--smoke`` for the CI-sized run);
- ``predict`` — one-shot inference from a persisted model archive
  (``save_model`` output) over a ``.npy``/``.csv`` feature file;
- ``serve`` — run a self-contained micro-batched serving session: train
  (or load) a model, front it with a :class:`~repro.serve.server.ModelServer`,
  drive it with the concurrent load generator, optionally hot-swap an
  adapted version mid-run, and print the stats JSON (SIGTERM/SIGINT
  drain and release resources before exit);
- ``chaos`` — fault-inject a multi-process serving fleet
  (:class:`~repro.serve.fleet.server.FleetServer`) under closed-loop
  load: worker SIGKILL, hang, slow-worker latency, artifact corruption,
  plus the crash-loop circuit-breaker drill; prints the drill JSON;
- ``obs`` — run a small self-contained *traced* serving session
  (sample rate 1.0 by default), scrape its own ``/metrics`` +
  ``/healthz`` exporter, validate the shutdown flight dump, and print
  the whole observability surface as JSON (or the raw Prometheus text
  with ``--format prometheus``) — the CLI entry point for
  :mod:`repro.obs` and what the CI obs-smoke job drives;
- ``lint`` — run the :mod:`repro.analysis` invariant linter over source
  trees (``repro lint src/``); exits non-zero on any unsuppressed
  violation (the CI gate — see ``docs/analysis.md``).

``serve`` and ``chaos`` accept the observability knobs
``--trace-sample-rate`` (propagated client → batcher → dispatcher →
worker spans), ``--metrics-port`` (a stdlib-http ``/metrics`` +
``/healthz`` exporter for the session's registry) and ``--flight-dir``
(crash/shutdown flight-recorder dumps land there as JSONL) — see
``docs/observability.md``.

``train`` and ``compare`` accept ``--n-jobs`` too: for sharding-capable
models it is forwarded as the ``n_jobs`` hyper-parameter, so fits run
data-parallel via :func:`repro.engine.shard.shard_fit`.

Model and dataset choices are read from the registries, so anything
registered via :func:`repro.models.register_model` or the dataset registry
is immediately drivable from the command line.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from repro.api import ExperimentSpec, compare, run_experiment
from repro.datasets.registry import DATASETS, list_datasets
from repro.models.registry import get_model_spec, list_models
from repro.pipeline.report import format_markdown_table


def _registry_epilog() -> str:
    return (
        f"registered models: {', '.join(list_models())}\n"
        f"registered datasets: {', '.join(list_datasets())}"
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset", default="ucihar", choices=sorted(DATASETS),
        help="Table-I dataset analog to generate",
    )
    parser.add_argument(
        "--scale", type=float, default=0.02,
        help="fraction of the published sample counts to generate",
    )
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    parser.add_argument(
        "--dim", type=int, default=500,
        help="capacity knob: hypervector dimensionality / hidden width / "
        "random-feature count (ignored by models without a dim parameter)",
    )
    parser.add_argument(
        "--encoder", default=None,
        help="encoder spec from the registry (rbf | fastfood-rbf | "
        "projection-{linear,sign,tanh,cos} | structured-{...}; ignored "
        "by models without an encoder parameter)",
    )


def _add_n_jobs(parser: argparse.ArgumentParser, help_text: str) -> None:
    parser.add_argument(
        "--n-jobs", type=int, default=None, dest="n_jobs",
        help=f"{help_text} (default serial; -1 = all cores)",
    )


def _add_obs_knobs(
    parser: argparse.ArgumentParser, *, default_rate: float = 0.0
) -> None:
    parser.add_argument(
        "--trace-sample-rate", type=float, default=default_rate,
        dest="trace_sample_rate",
        help="fraction of requests to trace end to end (0 disables "
        f"tracing; default {default_rate:g})",
    )
    parser.add_argument(
        "--metrics-port", type=int, default=None, dest="metrics_port",
        help="serve /metrics (Prometheus text) + /healthz on this "
        "localhost port for the session (0 = ephemeral)",
    )
    parser.add_argument(
        "--flight-dir", default=None, dest="flight_dir",
        help="directory for flight-recorder JSONL dumps (written on "
        "worker death, breaker trip, and graceful shutdown)",
    )


def _build_obs(args: argparse.Namespace, *, role: str = "server"):
    """An :class:`repro.obs.Observability` bundle from the CLI knobs, or
    ``None`` when every knob is at its disabled default (so sessions
    without observability pay nothing)."""
    from repro.obs import Observability

    if (
        args.trace_sample_rate <= 0.0
        and args.metrics_port is None
        and args.flight_dir is None
    ):
        return None
    return Observability(
        sample_rate=max(0.0, args.trace_sample_rate),
        flight_dir=args.flight_dir,
        role=role,
    )


def _obs_summary(obs, exporter) -> dict:
    """JSON-ready summary of what a session's obs bundle captured."""
    from repro.obs.recorder import find_dumps

    return {
        "sample_rate": obs.tracer.sample_rate,
        "spans_recorded": len(obs.tracer.finished()),
        "n_traces": len(obs.tracer.trace_ids()),
        "metrics_url": exporter.url if exporter is not None else None,
        "flight_dir": (
            str(obs.flight_dir) if obs.flight_dir is not None else None
        ),
        "flight_dumps": (
            [p.name for p in find_dumps(obs.flight_dir)]
            if obs.flight_dir is not None else None
        ),
    }


def _model_params(name: str, args: argparse.Namespace) -> dict:
    """CLI knobs, filtered to what the registered model declares."""
    declared = get_model_spec(name).param_names()
    params: dict = {}
    if "dim" in declared:
        params["dim"] = args.dim
    encoder = getattr(args, "encoder", None)
    if encoder is not None and "encoder" in declared:
        params["encoder"] = encoder
    return params


def _cmd_datasets(_: argparse.Namespace) -> int:
    rows = [
        {
            "name": spec.name,
            "n": spec.n_features,
            "k": spec.n_classes,
            "train": spec.train_size,
            "test": spec.test_size,
            "description": spec.description,
        }
        for spec in (DATASETS[name] for name in list_datasets())
    ]
    print(format_markdown_table(rows))
    return 0


def _cmd_models(args: argparse.Namespace) -> int:
    rows = [
        {
            "name": spec.name,
            "tags": ",".join(spec.tags),
            "hyperparams": ", ".join(spec.param_names()),
            "description": spec.description,
        }
        for spec in (
            get_model_spec(name) for name in list_models(tag=args.tag)
        )
    ]
    if not rows:
        print(f"no models registered with tag {args.tag!r}")
        return 1
    print(format_markdown_table(rows))
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    result = run_experiment(
        model=args.model,
        dataset=args.dataset,
        model_params=_model_params(args.model, args),
        scale=args.scale,
        seed=args.seed,
        n_jobs=args.n_jobs,
    )
    print(format_markdown_table([result.as_row()]))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    results = compare(
        [
            (name, name, _model_params(name, args))
            for name in args.models
        ],
        dataset=args.dataset,
        scale=args.scale,
        seed=args.seed,
        n_jobs=args.n_jobs,
    )
    columns = ["model", "test_acc", "top2_acc", "train_s", "infer_s"]
    print(format_markdown_table([r.as_row() for r in results], columns=columns))
    return 0


def _cmd_grid(args: argparse.Namespace) -> int:
    from repro.datasets.loaders import load_dataset
    from repro.models.registry import default_hyperparam_grid
    from repro.pipeline.grid import grid_search

    if args.space:
        try:
            space = json.loads(args.space)
        except json.JSONDecodeError as exc:
            print(f"--space is not valid JSON: {exc}")
            return 2
        if not isinstance(space, dict):
            print("--space must be a JSON object {param: [values...]}")
            return 2
    else:
        space = default_hyperparam_grid(args.model)
        if not space:
            print(
                f"model {args.model!r} declares no default grid; pass --space"
            )
            return 2
    data = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    result = grid_search(
        args.model,
        space,
        data.train_x,
        data.train_y,
        validation_fraction=args.validation_fraction,
        seed=args.seed,
        n_jobs=args.n_jobs,
    )
    print(format_markdown_table(result.all_results))
    print(
        f"best: {result.best_params} -> score {result.best_score:.4f} "
        f"({len(result.all_results)} candidates, n_jobs={args.n_jobs or 1})"
    )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.perf import format_bench_table, run_bench, write_bench

    payload = run_bench(
        models=tuple(args.models),
        dataset=args.dataset,
        scale=args.scale,
        dim=args.dim,
        iterations=args.iterations,
        seed=args.seed,
        repeats=args.repeats,
        dtype=args.dtype,
        smoke=args.smoke,
        include_sharded=not args.no_sharded,
        include_serving=not args.no_serving,
        include_packed=not args.no_packed,
        include_fleet=not args.no_fleet,
        include_encode=not args.no_encode,
        include_obs=not args.no_obs,
    )
    print(format_bench_table(payload))
    if args.output:
        path = write_bench(payload, args.output)
        print(f"wrote {path}")
    return 0


def _load_features(path: str):
    """Read a feature matrix from ``.npy`` or delimited text."""
    import numpy as np

    if path.endswith(".npy"):
        X = np.load(path, allow_pickle=False)
    else:
        X = np.loadtxt(path, delimiter=",", ndmin=2)
    return np.asarray(X, dtype=np.float64)


def _cmd_predict(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.api import load_model

    model = load_model(args.model_path)
    X = _load_features(args.input)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if args.scores:
        out = np.asarray(model.decision_scores(X))
        text = "\n".join(",".join(f"{v:.6g}" for v in row) for row in out)
    else:
        out = np.asarray(model.predict(X))
        text = "\n".join(str(v) for v in out)
    if args.output:
        if args.output.endswith(".npy"):
            np.save(args.output, out)
        else:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
        print(f"wrote {args.output} ({out.shape[0]} rows)")
    else:
        print(text)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import shutdown as shutdown_mod

    if args.packed and args.bits != 1:
        print(
            "serve --packed requires --bits 1 (bit-packed storage is "
            "1-bit by construction)",
            file=sys.stderr,
        )
        return 2
    # SIGTERM/SIGINT must drain the batcher and release shared resources
    # (worker processes, shared-memory segments) before the process dies —
    # not rely on interpreter teardown.
    shutdown_mod.install_signal_handlers()
    try:
        return _run_serve(args)
    finally:
        shutdown_mod.uninstall_signal_handlers()


def _run_serve(args: argparse.Namespace) -> int:
    obs = _build_obs(args)
    exporter = None
    if obs is not None and args.metrics_port is not None:
        exporter = obs.serve_metrics(port=args.metrics_port)
        print(f"metrics exporter on {exporter.url}", file=sys.stderr)
    tracer = obs.tracer if obs is not None and obs.tracer.enabled else None
    try:
        return _run_serve_session(args, obs, exporter, tracer)
    finally:
        if exporter is not None:
            exporter.close()


def _run_serve_session(
    args: argparse.Namespace, obs, exporter, tracer
) -> int:
    from repro.perf import bench_serving
    from repro.serve.loadgen import run_load
    from repro.serve.server import ModelServer

    if args.model_path:
        # Serve a persisted artifact as-is: load, front, drive.  No
        # trainable base is available, so no adaptation/hot-swap.
        if not args.input:
            print(
                "serve --model-path needs --input features to drive "
                "the load generator",
                file=sys.stderr,
            )
            return 2
        X = _load_features(args.input)
        server = ModelServer(
            args.model_path,
            max_batch_size=args.max_batch_size,
            obs=obs,
        )
        with server:
            report = run_load(
                server, X,
                n_requests=args.requests, concurrency=args.concurrency,
                tracer=tracer,
            )
            payload = {
                "config": {
                    "model_path": args.model_path,
                    "requests": args.requests,
                    "concurrency": args.concurrency,
                    "max_batch_size": args.max_batch_size,
                },
                "load": report.as_record(),
                "stats": server.stats(),
            }
    else:
        payload = {
            "config": {
                "dataset": args.dataset,
                "scale": args.scale,
                "dim": args.dim,
                "seed": args.seed,
                "requests": args.requests,
                "concurrency": args.concurrency,
                "max_batch_size": args.max_batch_size,
                "swap": not args.no_swap,
                "packed": args.packed,
            },
            "serving": bench_serving(
                dataset=args.dataset,
                scale=args.scale,
                dim=args.dim,
                iterations=args.iterations,
                bits=args.bits,
                packed=args.packed,
                n_requests=args.requests,
                concurrency=args.concurrency,
                max_batch_size=args.max_batch_size,
                seed=args.seed,
                swap=not args.no_swap,
                encoder=args.encoder or "rbf",
                obs=obs,
            ),
        }
    if obs is not None:
        payload["obs"] = _obs_summary(obs, exporter)
    text = json.dumps(payload, indent=2)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.datasets.loaders import load_dataset
    from repro.deploy.quantized import QuantizedHDCModel
    from repro.models.registry import make_model
    from repro.serve import shutdown as shutdown_mod
    from repro.serve.chaos import run_chaos_drill, run_crash_loop_drill
    from repro.serve.fleet import FleetServer

    if args.packed and args.bits != 1:
        print(
            "chaos --packed requires --bits 1 (bit-packed storage is "
            "1-bit by construction); pass --no-packed for wider bits",
            file=sys.stderr,
        )
        return 2
    shutdown_mod.install_signal_handlers()
    obs = _build_obs(args, role="supervisor")
    exporter = None
    if obs is not None and args.metrics_port is not None:
        exporter = obs.serve_metrics(port=args.metrics_port)
        print(f"metrics exporter on {exporter.url}", file=sys.stderr)
    tracer = obs.tracer if obs is not None and obs.tracer.enabled else None
    try:
        data = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
        model = make_model(
            "disthd", dim=args.dim, iterations=args.iterations,
            seed=args.seed,
        )
        model.fit(data.train_x, data.train_y)
        artifact = QuantizedHDCModel(
            model, bits=args.bits, packed=args.packed
        )
        drills: Dict[str, object] = {}
        with FleetServer(
            artifact,
            n_workers=args.workers,
            queue_depth=args.queue_depth,
            service_floor_s=args.service_floor_ms / 1e3,
            obs=obs,
        ) as fleet:
            for fault in args.faults:
                drills[fault] = run_chaos_drill(
                    fleet, data.test_x,
                    n_requests=args.requests,
                    concurrency=args.concurrency,
                    fault=fault, index=0,
                    tracer=tracer,
                )
            stats = fleet.stats()
        if not args.no_crash_loop:
            # A fresh bundle for the second fleet: its dump filenames
            # carry a distinct role, so the first fleet's shutdown dump
            # in a shared --flight-dir is never overwritten.
            loop_obs = (
                _build_obs(args, role="crashloop")
                if obs is not None else None
            )
            with FleetServer(
                artifact, n_workers=2, queue_depth=args.queue_depth,
                obs=loop_obs,
            ) as fleet:
                drills["crash_loop"] = run_crash_loop_drill(fleet, index=0)
        payload = {
            "config": {
                "dataset": args.dataset,
                "scale": args.scale,
                "dim": args.dim,
                "bits": args.bits,
                "packed": args.packed,
                "workers": args.workers,
                "queue_depth": args.queue_depth,
                "requests": args.requests,
                "concurrency": args.concurrency,
                "service_floor_ms": args.service_floor_ms,
                "faults": list(args.faults),
                "seed": args.seed,
            },
            "drills": drills,
            "stats": stats,
        }
        if obs is not None:
            payload["obs"] = _obs_summary(obs, exporter)
        text = json.dumps(payload, indent=2)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
            print(f"wrote {args.output}")
        else:
            print(text)
        return 0
    finally:
        if exporter is not None:
            exporter.close()
        shutdown_mod.uninstall_signal_handlers()


def _cmd_obs(args: argparse.Namespace) -> int:
    """A self-contained traced serving session that exercises every obs
    pillar and reports on all of them: train a small model, serve a
    traced load, scrape the session's own ``/metrics`` + ``/healthz``
    exporter, and validate the shutdown flight dump."""
    import tempfile
    import urllib.request

    from repro.datasets.loaders import load_dataset
    from repro.deploy.quantized import QuantizedHDCModel
    from repro.models.registry import make_model
    from repro.obs import Observability, find_dumps, validate_dump
    from repro.serve.loadgen import run_load
    from repro.serve.server import ModelServer

    tmp = None
    flight_dir = args.flight_dir
    if flight_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-obs-")
        flight_dir = tmp.name
    try:
        obs = Observability(
            sample_rate=args.trace_sample_rate, flight_dir=flight_dir
        )
        data = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
        model = make_model(
            "disthd", dim=args.dim, iterations=args.iterations,
            seed=args.seed,
        )
        model.fit(data.train_x, data.train_y)
        artifact = QuantizedHDCModel(model, bits=args.bits)
        with obs.serve_metrics(port=args.port) as exporter:
            with ModelServer(
                artifact,
                max_batch_size=args.max_batch_size,
                obs=obs,
            ) as server:
                report = run_load(
                    server, data.test_x,
                    n_requests=args.requests,
                    concurrency=args.concurrency,
                    tracer=obs.tracer,
                )
                with urllib.request.urlopen(
                    exporter.url + "/healthz", timeout=10
                ) as resp:
                    healthz = resp.status
                with urllib.request.urlopen(
                    exporter.url + "/metrics", timeout=10
                ) as resp:
                    metrics_text = resp.read().decode()
            # The server just closed: its shutdown flight dump must exist
            # and parse — the obs-smoke CI job asserts on this.
            dumps = find_dumps(flight_dir)
            for path in dumps:
                validate_dump(path)
        if args.format == "prometheus":
            print(metrics_text, end="")
            return 0
        payload = {
            "config": {
                "dataset": args.dataset,
                "scale": args.scale,
                "dim": args.dim,
                "iterations": args.iterations,
                "bits": args.bits,
                "seed": args.seed,
                "requests": args.requests,
                "concurrency": args.concurrency,
                "trace_sample_rate": args.trace_sample_rate,
            },
            "load": report.as_record(),
            "healthz_status": healthz,
            "metrics_url": exporter.url,
            "spans_recorded": len(obs.tracer.finished()),
            "n_traces": len(obs.tracer.trace_ids()),
            "flight_dir": str(flight_dir),
            "flight_dumps": [p.name for p in dumps],
            "metrics_json": obs.registry.render_json(),
            "metrics_prometheus": metrics_text,
        }
        text = json.dumps(payload, indent=2)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
            print(f"wrote {args.output}")
        else:
            print(text)
        return 0
    finally:
        if tmp is not None:
            tmp.cleanup()


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import all_rules, get_rules, run_analysis

    if args.list_rules:
        rows = [
            {
                "rule": rule.name,
                "scope": ", ".join(rule.paths) or "(all)",
                "description": rule.description,
            }
            for name, rule in sorted(all_rules().items())
        ]
        print(format_markdown_table(rows))
        return 0
    if not args.paths:
        print("lint needs at least one file or directory", file=sys.stderr)
        return 2
    rule_names = args.rules or None
    report = run_analysis([Path(p) for p in args.paths], rule_names)
    rules = get_rules(rule_names)
    if args.json:
        text = report.to_json(rules)
    else:
        text = report.render()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.output}")
        if not args.json:
            print(text)
    else:
        print(text)
    return 0 if report.ok else 1


def _cmd_robustness(args: argparse.Namespace) -> int:
    spec = ExperimentSpec(
        model=args.model,
        dataset=args.dataset,
        model_params=_model_params(args.model, args),
        scale=args.scale,
        seed=args.seed,
        noise_bits=args.bits,
        error_rates=(0.01, 0.02, 0.05, 0.10, 0.15),
    )
    result = run_experiment(spec)
    # clean_acc is the quantised zero-flip reference the losses are
    # measured against, not the float model's accuracy.
    rows = [
        {
            "error_rate": rate,
            "bits": args.bits,
            "clean_acc": result.extras["quantized_clean_acc"],
            "noisy_acc": result.extras[f"noisy_acc@{rate:g}"],
            "quality_loss_pct": result.extras[f"quality_loss@{rate:g}"],
        }
        for rate in spec.error_rates
    ]
    print(format_markdown_table(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DistHD (DAC 2023) reproduction toolkit",
        epilog=_registry_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the Table-I dataset registry")

    models = sub.add_parser("models", help="list the model registry")
    models.add_argument(
        "--tag", default=None,
        help="filter by capability tag (e.g. streaming, hdc, deploy)",
    )

    train = sub.add_parser("train", help="train one model, print metrics")
    _add_common(train)
    train.add_argument("--model", default="disthd", choices=list_models())
    _add_n_jobs(train, "workers for data-parallel sharded fit")

    compare_p = sub.add_parser("compare", help="compare several models")
    _add_common(compare_p)
    compare_p.add_argument(
        "--models", nargs="+", default=["disthd", "baselinehd", "neuralhd"],
        choices=list_models(),
    )
    _add_n_jobs(compare_p, "workers for data-parallel sharded fits")

    grid = sub.add_parser(
        "grid", help="grid-search a model's hyper-parameter space"
    )
    _add_common(grid)
    grid.add_argument("--model", default="disthd", choices=list_models())
    grid.add_argument(
        "--space", default=None,
        help='JSON grid, e.g. \'{"dim": [128, 256]}\' '
        "(default: the registry's declared grid for the model)",
    )
    grid.add_argument(
        "--validation-fraction", type=float, default=0.25,
        help="fraction of the training split held out for scoring",
    )
    _add_n_jobs(grid, "candidate fits to run in parallel")

    robust = sub.add_parser("robustness", help="bit-flip robustness sweep")
    _add_common(robust)
    robust.add_argument("--model", default="disthd", choices=list_models())
    robust.add_argument("--bits", type=int, default=8, choices=(1, 2, 4, 8))

    bench = sub.add_parser(
        "bench", help="time encode/fit/predict, emit BENCH_*.json"
    )
    _add_common(bench)
    bench.set_defaults(scale=0.12, dim=1024)
    bench.add_argument(
        "--models", nargs="+", default=["disthd", "onlinehd", "baselinehd"],
        choices=list_models(),
    )
    bench.add_argument("--iterations", type=int, default=10)
    bench.add_argument("--repeats", type=int, default=3)
    bench.add_argument(
        "--dtype", default=None, help="hot-path dtype (float32 | float64)"
    )
    bench.add_argument(
        "--smoke", action="store_true",
        help="tiny CI-sized run (small dim/scale, one repeat)",
    )
    bench.add_argument(
        "--no-sharded", action="store_true",
        help="skip the sharded-fit (data-parallel) scenario",
    )
    bench.add_argument(
        "--no-serving", action="store_true",
        help="skip the micro-batched serving scenario",
    )
    bench.add_argument(
        "--no-packed", action="store_true",
        help="skip the bit-packed vs int8 deploy scenario",
    )
    bench.add_argument(
        "--no-fleet", action="store_true",
        help="skip the multi-process fleet resilience scenario",
    )
    bench.add_argument(
        "--no-encode", action="store_true",
        help="skip the dense-vs-structured encode-latency scenario",
    )
    bench.add_argument(
        "--no-obs", action="store_true",
        help="skip the observability-overhead scenario",
    )
    bench.add_argument("--output", default=None, help="JSON output path")

    predict = sub.add_parser(
        "predict", help="one-shot inference from a persisted model"
    )
    predict.add_argument(
        "--model-path", required=True,
        help="save_model archive (.npz) to load",
    )
    predict.add_argument(
        "--input", required=True,
        help="feature matrix: .npy, or comma-delimited text",
    )
    predict.add_argument(
        "--output", default=None,
        help="write results here (.npy or text) instead of stdout",
    )
    predict.add_argument(
        "--scores", action="store_true",
        help="emit per-class decision scores instead of labels",
    )

    serve = sub.add_parser(
        "serve", help="micro-batched serving session + load generator"
    )
    _add_common(serve)
    serve.set_defaults(dataset="pamap2", scale=0.004, dim=256)
    serve.add_argument(
        "--model-path", default=None,
        help="serve a persisted archive instead of training in-session "
        "(disables the adaptation hot-swap; needs --input)",
    )
    serve.add_argument(
        "--input", default=None,
        help="feature file to draw load-generator requests from "
        "(--model-path mode)",
    )
    serve.add_argument("--iterations", type=int, default=3)
    serve.add_argument(
        "--bits", type=int, default=8, choices=(1, 2, 4, 8),
        help="deploy-artifact precision",
    )
    serve.add_argument(
        "--requests", type=int, default=256, help="total requests to fire"
    )
    serve.add_argument(
        "--concurrency", type=int, default=8, help="closed-loop workers"
    )
    serve.add_argument("--max-batch-size", type=int, default=64)
    serve.add_argument(
        "--packed", action="store_true",
        help="serve the bit-packed artifact (requires --bits 1); "
        "hot-swap promotions re-quantize and re-pack",
    )
    serve.add_argument(
        "--no-swap", action="store_true",
        help="skip the mid-run adaptation hot-swap",
    )
    _add_obs_knobs(serve)
    serve.add_argument("--output", default=None, help="JSON output path")

    chaos = sub.add_parser(
        "chaos",
        help="fault-inject a serving fleet under load (kill/hang/slow/"
        "corrupt + crash-loop breaker drill)",
    )
    _add_common(chaos)
    chaos.set_defaults(dataset="pamap2", scale=0.004, dim=256)
    chaos.add_argument("--iterations", type=int, default=3)
    chaos.add_argument(
        "--bits", type=int, default=1, choices=(1, 2, 4, 8),
        help="deploy-artifact precision",
    )
    chaos.add_argument(
        "--packed", action="store_true", default=True,
        help="serve the bit-packed artifact (requires --bits 1)",
    )
    chaos.add_argument(
        "--no-packed", dest="packed", action="store_false",
        help="serve the unpacked quantized artifact",
    )
    chaos.add_argument(
        "--workers", type=int, default=4, help="fleet worker processes"
    )
    chaos.add_argument(
        "--queue-depth", type=int, default=32,
        help="unanswered requests per worker (admission control)",
    )
    chaos.add_argument(
        "--requests", type=int, default=256,
        help="requests per drill",
    )
    chaos.add_argument(
        "--concurrency", type=int, default=16, help="closed-loop workers"
    )
    chaos.add_argument(
        "--service-floor-ms", type=float, default=2.0,
        help="per-request service-time floor workers enforce",
    )
    chaos.add_argument(
        "--faults", nargs="+", default=["kill"],
        choices=("kill", "hang", "slow", "corrupt"),
        help="faults to inject, one drill each",
    )
    chaos.add_argument(
        "--no-crash-loop", action="store_true",
        help="skip the crash-loop circuit-breaker drill",
    )
    _add_obs_knobs(chaos)
    chaos.add_argument("--output", default=None, help="JSON output path")

    obs = sub.add_parser(
        "obs",
        help="traced serving session: scrape own /metrics + /healthz, "
        "validate the shutdown flight dump, print the obs surface",
    )
    _add_common(obs)
    obs.set_defaults(dataset="pamap2", scale=0.004, dim=256)
    obs.add_argument("--iterations", type=int, default=3)
    obs.add_argument(
        "--bits", type=int, default=8, choices=(1, 2, 4, 8),
        help="deploy-artifact precision",
    )
    obs.add_argument(
        "--requests", type=int, default=256, help="total requests to fire"
    )
    obs.add_argument(
        "--concurrency", type=int, default=8, help="closed-loop workers"
    )
    obs.add_argument("--max-batch-size", type=int, default=64)
    obs.add_argument(
        "--trace-sample-rate", type=float, default=1.0,
        dest="trace_sample_rate",
        help="fraction of requests to trace (default 1.0: everything)",
    )
    obs.add_argument(
        "--port", type=int, default=0,
        help="exporter port to scrape (default 0: ephemeral)",
    )
    obs.add_argument(
        "--flight-dir", default=None, dest="flight_dir",
        help="keep flight dumps here (default: a temp dir, validated "
        "then discarded)",
    )
    obs.add_argument(
        "--format", choices=("json", "prometheus"), default="json",
        help="print the full JSON surface or just the scraped "
        "Prometheus text",
    )
    obs.add_argument("--output", default=None, help="JSON output path")

    lint = sub.add_parser(
        "lint", help="run the repro.analysis invariant linter"
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (e.g. src/)",
    )
    lint.add_argument(
        "--rule", action="append", dest="rules", default=None,
        metavar="NAME", help="run only this rule (repeatable)",
    )
    lint.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable JSON report",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="list the registered rules and their scopes",
    )
    lint.add_argument("--output", default=None, help="write the report here")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "datasets": _cmd_datasets,
        "models": _cmd_models,
        "train": _cmd_train,
        "compare": _cmd_compare,
        "grid": _cmd_grid,
        "robustness": _cmd_robustness,
        "bench": _cmd_bench,
        "predict": _cmd_predict,
        "serve": _cmd_serve,
        "chaos": _cmd_chaos,
        "obs": _cmd_obs,
        "lint": _cmd_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
