"""CLI for regenerating paper artifacts.

Usage::

    python -m repro.experiments                      # list experiments
    python -m repro.experiments table3               # paper protocol (1,000 reps)
    python -m repro.experiments table3 --reps 200    # faster
    python -m repro.experiments all --reps 100       # everything

Output is written to stdout; redirect to capture EXPERIMENTS.md inputs.
"""

from __future__ import annotations

import argparse
import sys
import time

from ..runtime import RunContext, configure
from . import EXPERIMENTS, ExperimentSettings


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate tables and figures from the paper.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help="experiment ids (or 'all'); omit to list available ids",
    )
    parser.add_argument("--reps", type=int, default=1_000, help="Monte-Carlo repetitions")
    parser.add_argument("--seed", type=int, default=0, help="base random seed")
    parser.add_argument(
        "--csv",
        metavar="DIR",
        help="also write each regenerated table as CSV under DIR",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for grid-shaped experiments "
        "(default: $REPRO_WORKERS or serial)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="result-store directory: completed cells are cached there, "
        "re-runs and interrupted grids resume from it "
        "(default: $REPRO_CACHE_DIR or no cache)",
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        metavar="REPS",
        help="repetition-sharding granularity: cells with more "
        "repetitions split into chunks of at most this many, executed "
        "in parallel and merged bit-identically "
        "(default: $REPRO_CHUNK_SIZE or no sharding)",
    )
    parser.add_argument(
        "--chunk-seconds",
        type=float,
        default=None,
        metavar="SECONDS",
        help="adaptive sharding: target this many wall-clock seconds "
        "per chunk, calibrated from a timed pilot shard; mutually "
        "exclusive with --chunk-size "
        "(default: $REPRO_CHUNK_SECONDS or off)",
    )
    parser.add_argument(
        "--backend",
        default=None,
        metavar="SPEC",
        help="execution backend for grid-shaped experiments: serial, "
        "process, spool[:dir] (a spool-directory work queue served "
        "by 'python -m repro worker' processes), or chaos[:inner] "
        "for fault injection (default: $REPRO_BACKEND or automatic)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="resubmissions allowed per failed unit of work "
        "(default: $REPRO_MAX_RETRIES or 0, fail fast)",
    )
    parser.add_argument(
        "--on-error",
        default=None,
        choices=("raise", "continue"),
        help="after retries run out: 'raise' aborts, 'continue' "
        "quarantines the failed cell and keeps going "
        "(default: $REPRO_ON_ERROR or raise)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="append structured lifecycle events (JSONL) of every "
        "runtime-routed experiment to this journal; digest with "
        "'python -m repro trace summarize' "
        "(default: $REPRO_TRACE_FILE or off)",
    )
    parser.add_argument(
        "--solve-table",
        type=int,
        default=None,
        metavar="N",
        help="precompute/memoise interval tables for integer-count "
        "solves with n <= N; 0 disables "
        "(default: $REPRO_SOLVE_TABLE or 2048)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print per-cell progress/timing lines to stderr",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if not args.experiments:
        print("Available experiments:")
        for name in EXPERIMENTS:
            print(f"  {name}")
        return 0
    # Route every grid-shaped experiment through the runtime layer:
    # resolve the requested parallelism / cache / fault knobs (unset
    # values fall back to the REPRO_* environment) into one immutable
    # RunContext, installed as the session default for every execute()
    # call the experiments make.
    configure(
        context=RunContext(
            workers=args.workers,
            store=args.cache_dir,
            progress=args.progress,
            chunk_size=args.chunk_size,
            chunk_seconds=args.chunk_seconds,
            backend=args.backend,
            max_retries=args.max_retries,
            on_error=args.on_error,
            trace=args.trace,
            solve_table=args.solve_table,
        )
    )
    requested = list(EXPERIMENTS) if args.experiments == ["all"] else args.experiments
    unknown = [name for name in requested if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        return 2
    settings = ExperimentSettings(repetitions=args.reps, seed=args.seed)
    for name in requested:
        start = time.perf_counter()
        report = EXPERIMENTS[name](settings)
        elapsed = time.perf_counter() - start
        print(report.render())
        if args.csv:
            path = report.to_csv(f"{args.csv}/{report.experiment_id}.csv")
            print(f"[csv written to {path}]")
        print(f"\n[{name} completed in {elapsed:.1f}s]\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
