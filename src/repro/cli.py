"""User-facing command line: audit, inspect, generate, plan, and study.

Subcommands::

    python -m repro stats <kg.tsv>                 describe a labelled KG
    python -m repro generate --dataset NELL -o f.tsv   write a profiled KG
    python -m repro audit <kg.tsv> [options]       run one accuracy audit
    python -m repro partition-audit <kg.tsv> [options]  per-predicate audit
    python -m repro plan --mu 0.9 [options]        predict the budget
    python -m repro study [options]                Monte-Carlo study grid
    python -m repro serve [--socket|--port]        audit-as-a-service daemon
    python -m repro submit [options]               send a study to a service
    python -m repro status [--connect ADDR]        list a service's requests
    python -m repro trace summarize <journal>      digest a trace journal
    python -m repro trace check <journal>          validate journal schema
    python -m repro cache info [--group PREFIX]    inspect a result store

The audit subcommand reads the labelled-TSV format of
:mod:`repro.kg.io`, treats the recorded labels as the (oracle)
annotator, and reports the estimate, interval, and modelled cost; an
optional ledger file records every judgement for suspend/resume.

The partition-audit and study subcommands run through the runtime
layer: ``--workers`` fans work out over processes with bit-identical
results, ``--cache-dir`` persists completed cells so re-runs are
served from disk and interrupted runs resume, ``--chunk-size`` shards
within cells (at most that many repetitions per shard), and
``--backend`` picks where units of work execute (``serial``,
``process[:n]``, or ``chaos[:inner]`` for fault injection).  A
partition-audit shards over the KG's predicates; a study cell shards
over its repetitions.
``--max-retries`` / ``--on-error`` control the fault model: how often a
failed unit is resubmitted, and whether an exhausted unit aborts the
run or is quarantined while the rest completes.

The serve subcommand keeps all of that resident: a long-lived asyncio
service that accepts concurrent study requests over newline-delimited
JSON (unix socket or TCP), builds an immutable per-request
:class:`~repro.runtime.settings.RunContext` for each one, and executes
them over one shared result store — so overlapping requests share
cache hits, and a grid submitted through ``submit`` renders the same
table, byte for byte, as the equivalent ``study`` run.  ``submit``
streams the request's progress events; ``status`` lists every request
the service has seen.

Observability: ``--trace FILE`` (or ``REPRO_TRACE_FILE``) makes any
runtime-routed run append its structured lifecycle events to a JSONL
journal; ``trace summarize`` digests a journal into slowest-cell,
queue-wait, cache, and fault tables (``--format json`` for machines);
``trace check`` validates that every line parses and every event type
is known; ``cache info`` prints entry counts and byte totals of a
result store.
"""

from __future__ import annotations

import argparse
import os
import sys

from .annotation.ledger import AnnotationLedger
from .evaluation.framework import EvaluationConfig, KGAccuracyEvaluator
from .evaluation.planner import SampleSizePlanner
from .exceptions import ReproError
from .intervals.ahpd import AdaptiveHPD
from .intervals.wald import WaldInterval
from .intervals.wilson import WilsonInterval
from .kg.datasets import PROFILES, load_dataset
from .kg.io import load_kg, save_kg
from .kg.stats import describe_kg
from .runtime import PartitionedAuditCell, RunContext, StudyPlan, execute
from .runtime.cells import build_method, build_strategy
from .runtime.settings import ON_ERROR_MODES

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Knowledge-graph accuracy auditing with credible intervals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    stats = sub.add_parser("stats", help="describe a labelled KG file")
    stats.add_argument("kg", help="labelled-TSV knowledge graph file")

    gen = sub.add_parser("generate", help="write a profiled dataset to TSV")
    gen.add_argument(
        "--dataset", required=True, choices=sorted(PROFILES), help="profile name"
    )
    gen.add_argument("--out", "-o", required=True, help="output TSV path")
    gen.add_argument("--seed", type=int, default=0)

    audit = sub.add_parser("audit", help="audit the accuracy of a KG file")
    audit.add_argument("kg", help="labelled-TSV knowledge graph file")
    audit.add_argument(
        "--strategy",
        default="twcs",
        choices=("srs", "twcs", "wcs", "strat"),
        help="sampling strategy (default: twcs, the paper's recommendation)",
    )
    audit.add_argument("--m", type=int, default=3, help="TWCS stage-2 cap")
    audit.add_argument(
        "--method",
        default="ahpd",
        choices=("ahpd", "wald", "wilson"),
        help="interval method (default: ahpd)",
    )
    audit.add_argument("--alpha", type=float, default=0.05)
    audit.add_argument("--epsilon", type=float, default=0.05)
    audit.add_argument("--seed", type=int, default=0)
    audit.add_argument(
        "--ledger", help="TSV file recording every judgement (suspend/resume)"
    )

    partition = sub.add_parser(
        "partition-audit",
        help="audit every predicate of a KG file (parallel, cached)",
    )
    partition.add_argument("kg", help="labelled-TSV knowledge graph file")
    partition.add_argument("--alpha", type=float, default=0.05)
    partition.add_argument(
        "--epsilon", type=float, default=0.05, help="per-partition MoE threshold"
    )
    partition.add_argument(
        "--min-per-partition",
        type=int,
        default=30,
        help="stop-rule floor per partition (default: 30)",
    )
    partition.add_argument(
        "--max-triples",
        type=int,
        default=50_000,
        help="global annotation budget (default: 50000)",
    )
    partition.add_argument("--seed", type=int, default=0)
    _add_runtime_options(partition)
    partition.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress lines"
    )

    plan = sub.add_parser("plan", help="predict the annotation budget")
    plan.add_argument("--mu", type=float, required=True, help="expected accuracy")
    plan.add_argument("--alpha", type=float, default=0.05)
    plan.add_argument("--epsilon", type=float, default=0.05)
    plan.add_argument(
        "--entities-per-triple",
        type=float,
        default=1.0,
        help="distinct-entity fraction of the sample (1.0 ~ SRS, 1/m ~ TWCS)",
    )

    study = sub.add_parser(
        "study", help="run a Monte-Carlo study grid (parallel, cached, resumable)"
    )
    study.add_argument(
        "--datasets",
        default="NELL",
        help="comma-separated profile names (default: NELL); "
        f"known: {', '.join(sorted(PROFILES))}",
    )
    study.add_argument(
        "--strategies",
        default="srs,twcs",
        help="comma-separated strategies from srs,twcs,wcs,strat (default: srs,twcs)",
    )
    study.add_argument(
        "--methods",
        default="wald,wilson,ahpd",
        help="comma-separated interval methods (default: wald,wilson,ahpd)",
    )
    study.add_argument("--reps", type=int, default=100, help="repetitions per cell")
    study.add_argument("--m", type=int, default=3, help="TWCS stage-2 cap")
    study.add_argument("--alpha", type=float, default=0.05)
    study.add_argument("--epsilon", type=float, default=0.05)
    study.add_argument("--seed", type=int, default=0)
    _add_runtime_options(study)
    study.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress lines"
    )

    serve = sub.add_parser(
        "serve",
        help="run the audit service: concurrent study requests over "
        "newline-delimited JSON, one shared result store",
    )
    endpoint = serve.add_mutually_exclusive_group()
    endpoint.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="listen on a unix socket at PATH (default: TCP)",
    )
    endpoint.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port to listen on (default: 0, pick a free port)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="TCP bind address (default: 127.0.0.1)"
    )
    serve.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="write one JSONL trace journal per request under DIR "
        "(default: journal only if --trace/$REPRO_TRACE_FILE is set)",
    )
    serve.add_argument(
        "--max-concurrent",
        type=int,
        default=8,
        metavar="N",
        help="requests executing simultaneously (default: 8)",
    )
    serve.add_argument(
        "--solve-batch-window",
        type=float,
        default=None,
        metavar="SECONDS",
        help="coalescing window for cross-request interval-solve "
        "batching; 0 disables it (default: "
        "$REPRO_SOLVE_BATCH_WINDOW or 0.005; never changes results)",
    )
    serve.add_argument(
        "--solve-batch-max",
        type=int,
        default=None,
        metavar="N",
        help="max coalesced callers per solve-batch flush "
        "(default: $REPRO_SOLVE_BATCH_MAX or 64)",
    )
    serve.add_argument(
        "--kernel",
        default=None,
        choices=("numpy",),
        help="HPD solver kernel; numpy is the only one, accepted so "
        "existing serve command lines keep working",
    )
    _add_runtime_options(serve)
    serve.add_argument(
        "--quiet", action="store_true", help="suppress per-request log lines"
    )

    submit = sub.add_parser(
        "submit",
        help="submit one study grid to a running audit service",
    )
    submit.add_argument(
        "--connect",
        default=None,
        metavar="ADDR",
        help="service endpoint: unix-socket path or host:port "
        "(default: $REPRO_SERVICE)",
    )
    for grid_arg in (
        ("--datasets", dict(default="NELL")),
        ("--strategies", dict(default="srs,twcs")),
        ("--methods", dict(default="wald,wilson,ahpd")),
        ("--reps", dict(type=int, default=100)),
        ("--m", dict(type=int, default=3)),
        ("--alpha", dict(type=float, default=0.05)),
        ("--epsilon", dict(type=float, default=0.05)),
        ("--seed", dict(type=int, default=0)),
    ):
        submit.add_argument(grid_arg[0], **grid_arg[1])
    # Per-request context overrides: the subset of runtime knobs a
    # client may set (the store is the service's, and trace journals
    # are assigned per request by the service).
    submit.add_argument("--workers", type=int, default=None)
    submit.add_argument("--backend", default=None)
    submit.add_argument("--chunk-size", type=int, default=None)
    submit.add_argument("--max-retries", type=int, default=None, metavar="N")
    submit.add_argument("--on-error", default=None, choices=ON_ERROR_MODES)
    submit.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress lines"
    )

    status = sub.add_parser(
        "status", help="list every request a running audit service has seen"
    )
    status.add_argument(
        "--connect",
        default=None,
        metavar="ADDR",
        help="service endpoint: unix-socket path or host:port "
        "(default: $REPRO_SERVICE)",
    )
    status.add_argument(
        "--ping",
        action="store_true",
        help="print the liveness summary instead of the request list",
    )
    status.add_argument(
        "--shutdown",
        action="store_true",
        help="ask the service to finish in-flight requests and exit",
    )

    trace = sub.add_parser(
        "trace", help="inspect a JSONL trace journal written via --trace"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize",
        help="digest a journal: slowest cells, queue-wait, cache/fault tables",
    )
    summarize.add_argument("journal", help="JSONL trace journal file")
    summarize.add_argument(
        "--format",
        default="text",
        choices=("text", "json"),
        help="output format (default: text)",
    )
    summarize.add_argument(
        "--run-id",
        default=None,
        help="restrict the aggregate to one run of an interleaved journal",
    )
    summarize.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="slowest units to list (default: 10)",
    )
    check = trace_sub.add_parser(
        "check",
        help="validate a journal: every line parses, every event type known",
    )
    check.add_argument("journal", help="JSONL trace journal file")

    cache = sub.add_parser(
        "cache", help="inspect a result-store cache directory"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    info = cache_sub.add_parser(
        "info", help="entry counts, byte totals, and per-group breakdown"
    )
    info.add_argument(
        "--cache-dir",
        default=None,
        help="result-store directory (default: $REPRO_CACHE_DIR)",
    )
    info.add_argument(
        "--group",
        default=None,
        metavar="PREFIX",
        help="only show shard-resume groups whose token starts with PREFIX",
    )
    return parser


def _add_runtime_options(parser: argparse.ArgumentParser) -> None:
    """The runtime-layer knobs shared by the parallel subcommands."""
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: $REPRO_WORKERS or serial)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="result-store directory for caching / resume "
        "(default: $REPRO_CACHE_DIR or no cache)",
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="within-cell sharding granularity: split each cell's work "
        "units into chunks of at most this many and fan the chunks out "
        "over the workers, merging bit-identically "
        "(default: $REPRO_CHUNK_SIZE or no sharding)",
    )
    parser.add_argument(
        "--backend",
        default=None,
        help="execution backend: serial, process[:n] (a local process "
        "pool), or chaos[:inner] for fault injection "
        "(default: $REPRO_BACKEND or automatic)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="resubmissions allowed per failed unit of work, on a "
        "deterministic backoff schedule "
        "(default: $REPRO_MAX_RETRIES or 0, fail fast)",
    )
    parser.add_argument(
        "--on-error",
        default=None,
        choices=ON_ERROR_MODES,
        help="after retries run out: 'raise' aborts the run, "
        "'continue' quarantines the failed cell and keeps going "
        "(default: $REPRO_ON_ERROR or raise)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="append structured lifecycle events (JSONL) to this journal; "
        "digest it later with 'python -m repro trace summarize' "
        "(default: $REPRO_TRACE_FILE or off)",
    )
    parser.add_argument(
        "--solve-table",
        type=int,
        default=None,
        metavar="N",
        help="serve integer-count interval solves with n <= N from an "
        "in-memory table filled on demand; "
        "0 disables (default: $REPRO_SOLVE_TABLE or 2048)",
    )


def _context_from(args: argparse.Namespace, progress: bool) -> RunContext:
    """Resolve the :class:`RunContext` a runtime-routed command asked for."""
    return RunContext(
        workers=args.workers,
        store=args.cache_dir,
        progress=progress,
        chunk_size=args.chunk_size,
        backend=args.backend,
        max_retries=args.max_retries,
        on_error=args.on_error,
        trace=args.trace,
        solve_table=args.solve_table,
    )


def _cmd_stats(args: argparse.Namespace) -> int:
    kg = load_kg(args.kg)
    stats = describe_kg(kg, name=args.kg)
    print(f"facts            : {stats.num_facts}")
    print(f"entity clusters  : {stats.num_clusters}")
    print(f"avg cluster size : {stats.avg_cluster_size:.2f}")
    print(f"max cluster size : {stats.max_cluster_size}")
    print(f"gold accuracy    : {stats.accuracy:.4f}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    kg = load_dataset(args.dataset, seed=args.seed)
    written = save_kg(kg, args.out)
    print(f"wrote {written} labelled facts to {args.out}")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    kg = load_kg(args.kg)
    ledger = AnnotationLedger() if args.ledger else None
    strategy = f"TWCS:{args.m}" if args.strategy == "twcs" else args.strategy
    evaluator = KGAccuracyEvaluator(
        kg=kg,
        strategy=build_strategy(strategy),
        method=build_method(args.method),
        config=EvaluationConfig(alpha=args.alpha, epsilon=args.epsilon),
        ledger=ledger,
    )
    result = evaluator.run(rng=args.seed)
    print(f"estimated accuracy : {result.mu_hat:.4f}")
    print(f"interval           : {result.interval}")
    print(f"margin of error    : {result.moe:.4f} (threshold {args.epsilon})")
    print(f"annotated triples  : {result.n_triples}")
    print(f"distinct entities  : {result.n_entities}")
    print(f"annotation cost    : {result.cost_hours:.2f} hours")
    if ledger is not None:
        path = ledger.to_tsv(args.ledger)
        print(f"judgement ledger   : {path} ({len(ledger)} entries)")
    return 0


def _cmd_partition_audit(args: argparse.Namespace) -> int:
    from .experiments.config import ExperimentSettings

    # The path is a cell field and so part of the cache token: made
    # absolute, the same KG file keys the same results from any working
    # directory.
    dataset = f"file:{os.path.abspath(args.kg)}"
    cell = PartitionedAuditCell(
        key=("partitioned", dataset),
        label=f"partitioned/{dataset}",
        method="aHPD",
        alpha=args.alpha,
        dataset=dataset,
        epsilon=args.epsilon,
        min_per_partition=args.min_per_partition,
        max_triples=args.max_triples,
        seed=args.seed,
    )
    settings = ExperimentSettings(seed=args.seed)
    plan = StudyPlan(settings=settings, cells=(cell,), name="partitioned-audit")
    outcome = execute(plan, _context_from(args, not args.quiet))
    for failure in outcome.failures:
        print(f"FAILED {failure.summary()}", file=sys.stderr)
    if outcome.failures:
        return 1
    result = outcome.results[cell.key]
    print(
        f"{'predicate':<20} {'share':>7} {'annotated':>9} {'estimate':>9} "
        f"{'interval':<18} {'converged':>9}"
    )
    for audit in sorted(result.partitions, key=lambda p: p.mu_hat):
        cell = f"[{audit.interval.lower:.3f}, {audit.interval.upper:.3f}]"
        print(
            f"{audit.partition:<20} {audit.weight:>7.1%} "
            f"{audit.n_annotated:>9} {audit.mu_hat:>9.3f} {cell:<18} "
            f"{'yes' if audit.converged else 'no':>9}"
        )
    print(
        f"\nglobal accuracy    : {result.global_mu_hat:.4f} "
        f"(interval {result.global_interval})"
    )
    print(f"annotated triples  : {result.cost.num_triples}")
    print(f"annotation cost    : {result.cost_hours:.2f} hours")
    worst = result.worst_partition
    print(
        f"curation priority  : '{worst.partition}' — estimated "
        f"{worst.mu_hat:.0%} accurate, {worst.weight:.0%} of the KG"
    )
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    planner = SampleSizePlanner(
        config=EvaluationConfig(alpha=args.alpha, epsilon=args.epsilon),
        entities_per_triple=args.entities_per_triple,
    )
    plans = planner.compare(
        {"Wald": WaldInterval(), "Wilson": WilsonInterval(), "aHPD": AdaptiveHPD()},
        mu=args.mu,
    )
    print(f"predicted budget for mu ~ {args.mu}, alpha={args.alpha}, eps={args.epsilon}:")
    for name in ("Wald", "Wilson", "aHPD"):
        plan = plans[name]
        print(
            f"  {name:<8} {plan.n_triples:>6} triples  "
            f"~{plan.cost_hours:6.2f} annotation hours"
        )
    return 0


def _study_request(args: argparse.Namespace) -> "StudyRequest":
    """The :class:`StudyRequest` of a ``study``/``submit`` invocation."""
    from .runtime.service import StudyRequest

    return StudyRequest(
        datasets=args.datasets,
        strategies=args.strategies,
        methods=args.methods,
        repetitions=args.reps,
        m=args.m,
        alpha=args.alpha,
        epsilon=args.epsilon,
        seed=args.seed,
    )


def _cmd_study(args: argparse.Namespace) -> int:
    # The plan and table come from the same StudyRequest code path the
    # audit service uses, so a grid run here is byte-identical to the
    # same grid submitted over `python -m repro submit`.
    from .runtime.service import render_study_table

    request = _study_request(args)
    plan = request.build_plan()
    outcome = execute(plan, _context_from(args, not args.quiet))
    print(render_study_table(plan, outcome))
    for failure in outcome.failures:
        print(f"FAILED {failure.summary()}", file=sys.stderr)
    print(outcome.summary())
    return 1 if outcome.failures else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .runtime.service import AuditService

    service = AuditService(
        defaults=_context_from(args, progress=False),
        trace_dir=args.trace_dir,
        max_concurrent=args.max_concurrent,
        solve_batch_window=args.solve_batch_window,
        solve_batch_max=args.solve_batch_max,
        quiet=args.quiet,
    )
    try:
        if args.socket is not None:
            service.run(socket_path=args.socket)
        else:
            service.run(host=args.host, port=args.port)
    except KeyboardInterrupt:
        print("serve interrupted", file=sys.stderr)
        return 130
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from .runtime.service import submit_request
    from .runtime.settings import resolve_service_address

    context = {
        key: value
        for key, value in (
            ("workers", args.workers),
            ("backend", args.backend),
            ("chunk_size", args.chunk_size),
            ("max_retries", args.max_retries),
            ("on_error", args.on_error),
        )
        if value is not None
    }

    def on_event(event: dict) -> None:
        kind = event["event"]
        if kind == "accepted" and not args.quiet:
            print(
                f"[{event['id']}] accepted: {event['cells']} cell(s)",
                file=sys.stderr,
            )
        elif kind == "progress" and not args.quiet:
            label = event.get("label") or ""
            cached = " (cached)" if event.get("cached") else ""
            print(
                f"[{event['id']}] {event['done']}/{event['total']} "
                f"{label}{cached}",
                file=sys.stderr,
            )

    event = submit_request(
        resolve_service_address(args.connect),
        request=_study_request(args).to_payload(),
        context=context,
        on_event=on_event,
    )
    if event["event"] == "failed":
        print(f"error: {event['error']}", file=sys.stderr)
        for line in event.get("failures", []):
            print(f"FAILED {line}", file=sys.stderr)
        return 1
    # Stdout carries exactly the table `python -m repro study` prints,
    # so service results diff clean against standalone runs.
    print(event["table"])
    for line in event["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    if not args.quiet:
        print(
            f"[{event['id']}] {event['cells']} cell(s), "
            f"{event['cache_hits']} cached, {event['backend']} backend, "
            f"{event['seconds']:.2f}s",
            file=sys.stderr,
        )
    return event["exit_code"]


def _cmd_status(args: argparse.Namespace) -> int:
    import json

    from .runtime.service import ping_service, service_status, shutdown_service
    from .runtime.settings import resolve_service_address

    address = resolve_service_address(args.connect)
    if args.shutdown:
        shutdown_service(address)
        print("service shutting down")
        return 0
    if args.ping:
        print(json.dumps(ping_service(address), indent=2, sort_keys=True))
        return 0
    snapshot = service_status(address)
    requests = snapshot.get("requests", [])
    if not requests:
        print("no requests yet")
        return 0
    for record in requests:
        grid = record["request"]
        spec = (
            f"{','.join(grid['datasets'])} × {','.join(grid['strategies'])} "
            f"× {','.join(grid['methods'])} reps={grid['repetitions']}"
        )
        line = f"{record['id']:<8} {record['status']:<8} {spec}"
        if record["status"] == "done":
            line += (
                f"  cells={record['cells']} cache_hits={record['cache_hits']}"
                f" seconds={record['seconds']}"
            )
        elif record["error"]:
            line += f"  error={record['error']}"
        print(line)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .runtime.telemetry import read_journal, render_summary, summarize_journal

    if args.trace_command == "check":
        records = read_journal(args.journal)
        runs = {record["run_id"] for record in records}
        print(
            f"{args.journal}: {len(records)} events across {len(runs)} "
            f"run(s), all schema-valid"
        )
        return 0
    summary = summarize_journal(
        args.journal, run_id=args.run_id, top=args.top
    )
    print(render_summary(summary, fmt=args.format))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from .runtime import ResultStore
    from .runtime.settings import resolve_cache_dir

    cache_dir = resolve_cache_dir(args.cache_dir)
    if cache_dir is None:
        raise ReproError(
            "cache info needs a store: pass --cache-dir or set REPRO_CACHE_DIR"
        )
    stats = ResultStore(cache_dir).stats(group_prefix=args.group)
    print(f"store            : {stats['root']}")
    print(f"entries          : {stats['entries']}")
    print(f"total bytes      : {stats['bytes']:,}")
    print(
        f"cell entries     : {stats['cells']['entries']} "
        f"({stats['cells']['bytes']:,} bytes)"
    )
    grouped = sum(entry["entries"] for entry in stats["groups"].values())
    print(f"shard entries    : {grouped} in {len(stats['groups'])} group(s)")
    for group, entry in stats["groups"].items():
        print(
            f"  {group[:16]}…  {entry['entries']:>5} entries  "
            f"{entry['bytes']:>12,} bytes"
        )
    return 0


_COMMANDS = {
    "stats": _cmd_stats,
    "generate": _cmd_generate,
    "audit": _cmd_audit,
    "partition-audit": _cmd_partition_audit,
    "plan": _cmd_plan,
    "study": _cmd_study,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "status": _cmd_status,
    "trace": _cmd_trace,
    "cache": _cmd_cache,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
