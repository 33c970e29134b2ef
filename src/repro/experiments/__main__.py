"""CLI for regenerating paper artifacts.

Usage::

    python -m repro.experiments                      # list experiments
    python -m repro.experiments table3               # paper protocol (1,000 reps)
    python -m repro.experiments table3 --reps 200    # faster
    python -m repro.experiments all --reps 100       # everything
    python -m repro.experiments table3 --workers 2 --cache-dir .cache \\
        --trace run.jsonl                            # parallel, cached, journalled

The runtime flags are those of ``python -m repro study`` (unset ones
fall back to ``REPRO_*``); they build one run context that every
experiment in the invocation executes under.  Output is written to
stdout; redirect to capture EXPERIMENTS.md inputs.
"""

from __future__ import annotations

import argparse
import sys
import time

from ..cli import _add_runtime_options, _context_from
from ..exceptions import ReproError
from ..runtime import use_context
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
    _add_runtime_options(parser)
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
    requested = list(EXPERIMENTS) if args.experiments == ["all"] else args.experiments
    unknown = [name for name in requested if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        return 2
    try:
        context = _context_from(args, progress=args.progress)
        settings = ExperimentSettings(repetitions=args.reps, seed=args.seed)
        with use_context(context):
            for name in requested:
                start = time.perf_counter()
                report = EXPERIMENTS[name](settings)
                elapsed = time.perf_counter() - start
                print(report.render())
                if args.csv:
                    path = report.to_csv(f"{args.csv}/{report.experiment_id}.csv")
                    print(f"[csv written to {path}]")
                print(f"\n[{name} completed in {elapsed:.1f}s]\n")
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
