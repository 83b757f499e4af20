"""Command-line interface.

Subcommands:

* ``datasets`` — list the registered benchmark datasets and their sizes,
* ``sample`` — print random arch-hypers from the joint search space,
* ``train`` — train one sampled/fixed arch-hyper on a dataset and report
  test metrics,
* ``search`` — run the zero-shot AutoCTS++ search on a target dataset
  (pre-training the T-AHC first if it is not cached),
* ``autocts`` — run the fully-supervised AutoCTS+ search (per-task AHC),
* ``serve`` — run the search service: an HTTP API plus worker daemons over
  a persistent sqlite job registry (see ``docs/service.md``),
* ``submit`` — submit a job to a running service and optionally wait,
* ``trace`` — render a ``--trace`` JSONL file as a per-stage rollup, span
  tree, and per-candidate timeline.

Run ``python -m repro.cli <subcommand> --help`` for options.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .settings import Settings
from .utils.validation import ConfigError


def _settings(args: argparse.Namespace) -> Settings:
    """Defaults, then ``$REPRO_*``, then this subcommand's flags.

    Called first thing by every subcommand that has such flags, so a
    malformed variable or flag fails (exit 2) before any heavy work.
    """
    flags = vars(args)
    return Settings.from_env().override(
        workers=flags.get("workers"),
        divergence_policy=flags.get("divergence_policy"),
        max_retries=flags.get("max_retries"),
        eval_timeout=flags.get("eval_timeout"),
        eval_cache=False if flags.get("no_eval_cache") else None,
        service_db=flags.get("db"),
        fidelity_schedule=flags.get("fidelity_schedule"),
        fidelity_warm_dir=flags.get("warm_dir"),
        metrics_interval=flags.get("metrics_interval"),
        profile=True if flags.get("profile") else None,
        anomaly=True if flags.get("anomaly_mode") else None,
        trace=flags.get("trace") or None,
        service_url=flags.get("url"),
    )


def _configure_observability(
    args: argparse.Namespace, settings: Settings
) -> str | None:
    """Install the run's tracer/heartbeat/profiling; returns the trace path.

    Heartbeats are on unless ``--quiet``; ``--profile`` (or
    ``$REPRO_PROFILE``) sets the process default, which proxy evaluations
    carry to their backend.
    """
    from .obs import configure_heartbeat, configure_tracing, set_profiling_default

    configure_tracing(settings.trace)
    configure_heartbeat(enabled=not getattr(args, "quiet", False))
    if settings.profile:
        set_profiling_default(True)
    return settings.trace


def _finish_observability(args: argparse.Namespace, trace_path: str | None) -> None:
    """Close the trace file and print the consolidated metrics snapshot."""
    from .obs import configure_tracing, render_metrics

    configure_tracing(None)  # closes the active file tracer, if any
    if not getattr(args, "quiet", False):
        rendered = render_metrics()
        if rendered:
            print("== metrics ==")
            print(rendered)
    if trace_path:
        print(f"trace written to {trace_path} (render: repro trace report {trace_path})")


def _cmd_datasets(args: argparse.Namespace) -> int:
    from .data import get_spec, list_datasets
    from .data.datasets import DIRTY_DATASETS, SOURCE_DATASETS

    print(
        f"{'name':<23} {'role':<7} {'N':>4} {'T':>6}   {'paper N':>7} "
        f"{'paper T':>8}   corruption"
    )
    for name in list_datasets():
        spec = get_spec(name)
        if name in DIRTY_DATASETS:
            role = "dirty"
        elif name in SOURCE_DATASETS:
            role = "source"
        else:
            role = "target"
        dirty = (
            f"{spec.corruption}@{spec.severity:g} ({spec.imputation})"
            if spec.corruption
            else "-"
        )
        print(
            f"{name:<23} {role:<7} {spec.n_series:>4} {spec.n_steps:>6}   "
            f"{spec.paper_n_series:>7} {spec.paper_n_steps:>8}   {dirty}"
        )
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    from .space import JointSearchSpace

    space = JointSearchSpace()
    rng = np.random.default_rng(args.seed)
    for i, ah in enumerate(space.sample_batch(args.count, rng)):
        print(f"[{i}] {ah.hyper}")
        print(f"    {ah.arch}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from .core import TrainConfig, build_forecaster, evaluate_forecaster, train_forecaster
    from .data import get_dataset
    from .space import JointSearchSpace
    from .tasks import Task

    data = get_dataset(args.dataset, seed=args.seed)
    if args.corruption:
        from .data import corrupt_dataset

        data = corrupt_dataset(
            data,
            args.corruption,
            severity=args.severity,
            seed=args.seed,
            imputation=args.imputation,
        )
        observed = 1.0 if data.mask is None else float(data.mask.mean())
        print(
            f"injected {args.corruption}@{args.severity:g} "
            f"({1 - observed:.1%} of entries untrusted, imputed via "
            f"{args.imputation})"
        )
    task = Task(
        data, p=args.p, q=args.q, single_step=args.single_step,
        max_train_windows=args.max_windows,
    )
    ah = JointSearchSpace().sample(np.random.default_rng(args.seed))
    print(f"task {task.name}; arch-hyper: {ah.hyper}")
    model = build_forecaster(ah, data, task.horizon, seed=args.seed)
    result = train_forecaster(
        model, task.prepared.train, task.prepared.val,
        TrainConfig(epochs=args.epochs, batch_size=args.batch_size),
    )
    scores = evaluate_forecaster(model, task.prepared.test, inverse=task.prepared.inverse)
    print(f"best val MAE {result.best_val_mae:.4f} (epoch {result.best_epoch})")
    print(f"test MAE={scores.mae:.4f} RMSE={scores.rmse:.4f} MAPE={scores.mape:.2%}")
    if args.save:
        from .io import save_forecaster

        save_forecaster(model, args.save)
        print(f"saved model to {args.save}")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    from .autodiff import set_anomaly_default
    from .experiments import SCALES, pretrain_variant, target_task
    from .runtime import ProxyEvaluator, set_default_evaluator
    from .service import Engine

    settings = _settings(args)
    if settings.anomaly:
        set_anomaly_default(True)
    trace_path = _configure_observability(args, settings)
    scale = SCALES[args.scale]
    evaluator = ProxyEvaluator.from_settings(settings)
    set_default_evaluator(evaluator)
    # Progress checkpoints are always written (a crash costs at most one unit
    # of work); --resume controls whether existing ones are picked up.
    checkpoint_dir = settings.checkpoint_dir
    if args.resume:
        print(f"resuming from checkpoints under {checkpoint_dir} (if any)")
    artifacts = pretrain_variant(
        scale,
        "full",
        seed=args.seed,
        evaluator=evaluator,
        checkpoint_dir=checkpoint_dir,
        resume=args.resume,
        fidelity_schedule=args.fidelity_schedule,
        warm_dir=args.warm_dir,
    )
    setting = scale.setting(args.setting)
    task = target_task(scale, args.dataset, setting, seed=args.seed)
    # The same Engine facade the service daemon runs behind, so the CLI and
    # the HTTP API cannot drift apart (bitwise-identical rankings).
    engine = Engine(artifacts, scale, checkpoint_dir=checkpoint_dir)
    print(f"zero-shot search on {task.name}...")
    result = engine.search_task(task, seed=args.seed, resume=args.resume)
    print(f"searched: {result.best.hyper}")
    print(f"          {result.best.arch}")
    print(
        f"phases: embed {result.timings.embedding:.1f}s, "
        f"rank {result.timings.ranking:.1f}s, train {result.timings.training:.1f}s"
    )
    scores = result.best_scores
    print(f"test MAE={scores.mae:.4f} RMSE={scores.rmse:.4f} MAPE={scores.mape:.2%}")
    print(evaluator.stats.report())
    _finish_observability(args, trace_path)
    return 0


def _cmd_autocts(args: argparse.Namespace) -> int:
    from .experiments import SCALES, target_task
    from .runtime import ProxyEvaluator, set_default_evaluator
    from .search import AutoCTSPlusConfig, AutoCTSPlusSearch, EvolutionConfig
    from .space import JointSearchSpace
    from .tasks import ProxyConfig

    settings = _settings(args)
    trace_path = _configure_observability(args, settings)
    scale = SCALES[args.scale]
    evaluator = ProxyEvaluator.from_settings(settings)
    set_default_evaluator(evaluator)
    setting = scale.setting(args.setting)
    task = target_task(scale, args.dataset, setting, seed=args.seed)
    space = JointSearchSpace(hyper_space=scale.hyper_space)
    config = AutoCTSPlusConfig(
        n_measured_samples=args.samples,
        ahc_epochs=args.ahc_epochs,
        ahc_embed_dim=args.ahc_embed_dim,
        ahc_gin_layers=args.ahc_gin_layers,
        ahc_hidden_dim=args.ahc_hidden_dim,
        evolution=EvolutionConfig(
            initial_samples=scale.initial_samples,
            population_size=scale.population_size,
            generations=scale.generations,
            offspring_per_generation=scale.population_size,
            top_k=scale.top_k,
        ),
        final_train_epochs=scale.final_train_epochs,
        batch_size=scale.batch_size,
        seed=args.seed,
        proxy=ProxyConfig(epochs=scale.proxy_epochs, batch_size=scale.batch_size),
        fidelity_schedule=args.fidelity_schedule,
        warm_dir=args.warm_dir,
    )
    print(
        f"AutoCTS+ on {task.name} "
        f"(AHC: embed {config.ahc_embed_dim}, {config.ahc_gin_layers} GIN "
        f"layers, hidden {config.ahc_hidden_dim})..."
    )
    search = AutoCTSPlusSearch(space, config, evaluator=evaluator)
    result = search.search(task)
    print(f"measured {len(result.measured)} arch-hypers with the proxy")
    print(f"AHC loss {result.ahc_losses[0]:.3f} -> {result.ahc_losses[-1]:.3f}")
    print(f"searched: {result.best.hyper}")
    print(f"          {result.best.arch}")
    scores = result.best_scores
    print(f"test MAE={scores.mae:.4f} RMSE={scores.rmse:.4f} MAPE={scores.mape:.2%}")
    print(evaluator.stats.report())
    _finish_observability(args, trace_path)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import render_report

    print(render_report(args.path, max_depth=args.max_depth, job=args.job))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Boot the search service: HTTP API + worker daemon(s), one process."""
    import time

    from .experiments import SCALES, pretrain_variant
    from .obs import default_span_buffer
    from .service import Daemon, Engine, MetricsSampler, ServiceAPI, ServiceDB

    settings = _settings(args)
    trace_path = _configure_observability(args, settings)
    scale = SCALES[args.scale]
    print(f"pre-training '{args.variant}' artifacts at scale '{scale.name}'...")
    artifacts = pretrain_variant(scale, args.variant, seed=args.seed)
    engine = Engine(
        artifacts,
        scale,
        checkpoint_dir=settings.checkpoint_dir,
        artifact_dir=args.artifact_dir,
        cache_enabled=settings.eval_cache,
    )
    db = ServiceDB(settings.service_db)
    buffer = default_span_buffer()
    daemons = [
        Daemon(db, engine, span_buffer=buffer).start(recover=(index == 0))
        for index in range(args.daemons)
    ]
    api = ServiceAPI(
        db, engine, host=args.host, port=args.port, span_buffer=buffer
    ).start()
    sampler = MetricsSampler(
        db, interval=settings.metrics_interval, source=api.address
    )
    sampler.start()
    print(f"engine {engine.fingerprint[:16]} (registry: {db.path})")
    print(f"serving on {api.address} ({args.daemons} worker daemon(s))")
    if sampler.enabled:
        print(f"metrics history sampled every {sampler.interval:g}s (GET /metrics/history)")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("shutting down...")
    finally:
        sampler.stop()
        api.stop()
        for daemon in daemons:
            daemon.stop()
        _finish_observability(args, trace_path)
    return 0


def _http_json(url: str, payload=None, tenant: str | None = None):
    """POST (or GET when ``payload`` is None) JSON; returns (status, body)."""
    import json
    import urllib.error
    import urllib.request

    headers = {"Content-Type": "application/json"}
    if tenant:
        headers["X-Repro-Tenant"] = tenant
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(url, data=data, headers=headers)
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        try:
            return exc.code, json.loads(exc.read())
        except Exception:
            return exc.code, {"error": str(exc)}


def _cmd_submit(args: argparse.Namespace) -> int:
    """Submit one job to a running service; optionally wait for the result."""
    import json
    import time

    base = _settings(args).service_url.rstrip("/")
    if args.values_file:
        with open(args.values_file) as handle:
            task_spec = json.load(handle)
        task_spec.setdefault("name", args.dataset)
    else:
        task_spec = {"dataset": args.dataset, "seed": args.seed}
    task_spec.update(p=args.p, q=args.q)
    if args.imputation:
        # Only meaningful for inline payloads: lets the service repair
        # NaN/null entries (otherwise rejected with a 422) and record them
        # in the task's observation mask.
        task_spec["imputation"] = args.imputation
    payload = {
        "kind": args.kind,
        "task": task_spec,
        "options": json.loads(args.options) if args.options else {},
        "runtime": json.loads(args.runtime) if args.runtime else {},
    }
    if args.sync:
        if args.kind != "rank":
            print("--sync only supports kind 'rank'", file=sys.stderr)
            return 2
        status, body = _http_json(base + "/rank", payload, tenant=args.tenant)
        print(json.dumps(body, indent=2))
        return 0 if status == 200 else 1
    status, body = _http_json(base + "/jobs", payload, tenant=args.tenant)
    if status not in (200, 202):
        print(json.dumps(body, indent=2), file=sys.stderr)
        return 1
    job = body["job"]
    print(
        f"job {job['id']} [{job['status']}] "
        f"fingerprint {job['fingerprint'][:16]}"
        + (" (deduped)" if body.get("deduped") else "")
    )
    if not args.wait:
        return 0
    while True:
        status, body = _http_json(base + f"/jobs/{job['id']}")
        if status != 200:
            print(json.dumps(body, indent=2), file=sys.stderr)
            return 1
        state = body["job"]["status"]
        if state == "done":
            print(json.dumps(body.get("result"), indent=2))
            return 0
        if state == "failed":
            print(f"job failed: {body['job'].get('error')}", file=sys.stderr)
            return 1
        time.sleep(args.poll)


def _add_fidelity_args(parser: argparse.ArgumentParser) -> None:
    """The successive-halving proxy-collection flags (see docs/fidelity.md)."""
    parser.add_argument(
        "--fidelity-schedule",
        default=None,
        metavar="ETA:RUNGS:MIN",
        help="successive-halving schedule for proxy collection as "
        "'eta:rungs:min-epochs', e.g. '3:3:1' (default: "
        "$REPRO_FIDELITY_SCHEDULE or off — flat full-fidelity evaluation, "
        "bitwise-identical to not passing the flag)",
    )
    parser.add_argument(
        "--warm-dir",
        default=None,
        metavar="DIR",
        help="directory for warm-start training snapshots so promoted "
        "candidates resume instead of retraining "
        "(default: $REPRO_FIDELITY_WARM_DIR or cold restarts)",
    )


def _add_observability_args(parser: argparse.ArgumentParser) -> None:
    """The shared telemetry flags of the long-running subcommands."""
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a JSONL span trace of the run to PATH "
        "(default: $REPRO_TRACE or off); render with 'repro trace report'",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress heartbeat progress lines and the final metrics snapshot",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="enable profiling hooks: per-module forward timing and autodiff "
        "op counts in the metrics snapshot (slower; timing never changes "
        "scores)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all subcommands."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list benchmark datasets").set_defaults(
        func=_cmd_datasets
    )

    sample = sub.add_parser("sample", help="sample arch-hypers")
    sample.add_argument("--count", type=int, default=3)
    sample.add_argument("--seed", type=int, default=0)
    sample.set_defaults(func=_cmd_sample)

    train = sub.add_parser("train", help="train one arch-hyper on a dataset")
    train.add_argument("dataset")
    train.add_argument("--p", type=int, default=6)
    train.add_argument("--q", type=int, default=6)
    train.add_argument("--single-step", action="store_true")
    train.add_argument("--epochs", type=int, default=5)
    train.add_argument("--batch-size", type=int, default=64)
    train.add_argument("--max-windows", type=int, default=256)
    train.add_argument(
        "--corruption",
        default=None,
        help="inject a seeded corruption profile before training "
        "(e.g. block_missing; see repro.data.corruption)",
    )
    train.add_argument(
        "--severity",
        type=float,
        default=0.3,
        help="corruption severity in (0, 1] for --corruption",
    )
    train.add_argument(
        "--imputation",
        default="mean",
        choices=("mean", "ffill", "linear"),
        help="imputation policy repairing entries dropped by --corruption",
    )
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--save", default=None, help="directory to save the model")
    train.set_defaults(func=_cmd_train)

    search = sub.add_parser("search", help="zero-shot AutoCTS++ search")
    search.add_argument("dataset")
    search.add_argument("--setting", default="P-12/Q-12")
    search.add_argument("--scale", default="tiny", choices=("tiny", "smoke", "dirty"))
    search.add_argument("--seed", type=int, default=0)
    search.add_argument(
        "--workers",
        type=int,
        default=None,
        help="proxy-evaluation worker processes (default: $REPRO_WORKERS or 1)",
    )
    search.add_argument(
        "--no-eval-cache",
        action="store_true",
        help="disable the on-disk proxy-evaluation score cache",
    )
    search.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted run from its progress checkpoints "
        "(bitwise-identical to an uninterrupted run)",
    )
    search.add_argument(
        "--max-retries",
        type=int,
        default=None,
        help="retries per failed proxy evaluation "
        "(default: $REPRO_MAX_RETRIES or fail fast)",
    )
    search.add_argument(
        "--eval-timeout",
        type=float,
        default=None,
        help="per-evaluation timeout in seconds "
        "(default: $REPRO_EVAL_TIMEOUT or no timeout)",
    )
    search.add_argument(
        "--anomaly-mode",
        action="store_true",
        help="enable autodiff anomaly detection: the first non-finite value "
        "raises a NonFiniteError naming the originating op (slower; for "
        "debugging divergence)",
    )
    search.add_argument(
        "--divergence-policy",
        choices=("sentinel", "raise"),
        default=None,
        help="what a diverged candidate becomes: 'sentinel' (default) scores "
        "it with the deterministic worst-case sentinel and keeps searching; "
        "'raise' aborts with a DivergenceError "
        "(default: $REPRO_DIVERGENCE_POLICY or sentinel)",
    )
    _add_fidelity_args(search)
    _add_observability_args(search)
    search.set_defaults(func=_cmd_search)

    autocts = sub.add_parser(
        "autocts", help="fully-supervised AutoCTS+ search (per-task AHC)"
    )
    autocts.add_argument("dataset")
    autocts.add_argument("--setting", default="P-12/Q-12")
    autocts.add_argument("--scale", default="tiny", choices=("tiny", "smoke", "dirty"))
    autocts.add_argument("--seed", type=int, default=0)
    autocts.add_argument(
        "--samples",
        type=int,
        default=8,
        help="arch-hypers measured with the proxy to train the AHC",
    )
    autocts.add_argument("--ahc-epochs", type=int, default=40)
    autocts.add_argument(
        "--ahc-embed-dim",
        type=int,
        default=32,
        help="GIN embedding width of the per-task comparator",
    )
    autocts.add_argument(
        "--ahc-gin-layers",
        type=int,
        default=3,
        help="GIN message-passing layers of the per-task comparator",
    )
    autocts.add_argument(
        "--ahc-hidden-dim",
        type=int,
        default=32,
        help="classifier hidden width of the per-task comparator",
    )
    autocts.add_argument(
        "--workers",
        type=int,
        default=None,
        help="proxy-evaluation worker processes (default: $REPRO_WORKERS or 1)",
    )
    autocts.add_argument(
        "--no-eval-cache",
        action="store_true",
        help="disable the on-disk proxy-evaluation score cache",
    )
    _add_fidelity_args(autocts)
    _add_observability_args(autocts)
    autocts.set_defaults(func=_cmd_autocts)

    serve = sub.add_parser(
        "serve", help="run the search service (HTTP API + worker daemon)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8737,
        help="listen port (0 binds an ephemeral port)",
    )
    serve.add_argument("--scale", default="smoke", choices=("tiny", "smoke", "dirty"))
    serve.add_argument(
        "--variant", default="full", help="pre-trained T-AHC variant to serve"
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--db",
        default=None,
        help="registry sqlite path (default: $REPRO_SERVICE_DB or "
        "benchmarks/.service/registry.sqlite)",
    )
    serve.add_argument(
        "--daemons", type=int, default=1, help="worker daemon threads"
    )
    serve.add_argument(
        "--artifact-dir",
        default=None,
        help="directory for trained-forecaster artifacts from 'train' jobs",
    )
    serve.add_argument(
        "--no-eval-cache",
        action="store_true",
        help="disable the on-disk proxy-evaluation score cache",
    )
    serve.add_argument(
        "--metrics-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="seconds between persisted metrics-history snapshots "
        "(default: $REPRO_METRICS_INTERVAL or 30; 0 disables the sampler)",
    )
    _add_observability_args(serve)
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser("submit", help="submit a job to a running service")
    submit.add_argument("dataset", help="registered dataset name for the task")
    submit.add_argument(
        "--kind", default="rank", choices=("rank", "collect", "train")
    )
    submit.add_argument("--p", type=int, default=6)
    submit.add_argument("--q", type=int, default=6)
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument(
        "--values-file",
        default=None,
        metavar="JSON",
        help="ship an inline task from a JSON file with 'values' (N,T,F "
        "nested lists) and 'adjacency' instead of a registered dataset; "
        "the positional dataset argument becomes the task name",
    )
    submit.add_argument(
        "--imputation",
        default=None,
        choices=("mean", "ffill", "linear"),
        help="imputation policy for NaN/null entries in an inline payload "
        "(without it, dirty payloads are rejected with a 422)",
    )
    submit.add_argument(
        "--url",
        default=None,
        help="service base URL (default: $REPRO_SERVICE_URL or "
        "http://127.0.0.1:8737)",
    )
    submit.add_argument("--tenant", default=None, help="tenant identity header")
    submit.add_argument(
        "--options",
        default=None,
        metavar="JSON",
        help="job options as a JSON object (e.g. '{\"top_k\": 2}')",
    )
    submit.add_argument(
        "--runtime",
        default=None,
        metavar="JSON",
        help="per-job runtime overrides as a JSON object "
        "(e.g. '{\"divergence_policy\": \"raise\"}')",
    )
    submit.add_argument(
        "--sync",
        action="store_true",
        help="use the synchronous POST /rank path (kind 'rank' only)",
    )
    submit.add_argument(
        "--wait",
        action="store_true",
        help="poll the job until it finishes and print the result",
    )
    submit.add_argument(
        "--poll", type=float, default=0.5, help="poll interval for --wait"
    )
    submit.set_defaults(func=_cmd_submit)

    trace = sub.add_parser("trace", help="inspect a --trace JSONL file")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    report = trace_sub.add_parser(
        "report", help="per-stage rollup, span tree, and candidate timeline"
    )
    report.add_argument("path", help="trace file written by --trace/$REPRO_TRACE")
    report.add_argument(
        "--max-depth",
        type=int,
        default=None,
        help="truncate the span tree below this depth",
    )
    report.add_argument(
        "--job",
        default=None,
        metavar="ID",
        help="only spans stamped with this correlation id (a service job id "
        "or req-<n> request id)",
    )
    report.set_defaults(func=_cmd_trace)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        # Bad numerics, a malformed flag or $REPRO_* value: render the
        # typed message like an argparse error instead of a traceback.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
