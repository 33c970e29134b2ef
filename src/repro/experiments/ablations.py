"""Ablation studies for design choices called out in DESIGN.md.

* **HPD solver ablation** — the paper prescribes SLSQP; we default to a
  damped Newton iteration on the optimality system for speed.  The
  ablation quantifies agreement (max bound deviation) and relative
  runtime across a posterior sweep.
* **Batch-size ablation** — the paper leaves the iteration granularity
  implicit; we calibrated "check after every unit beyond a minimum of
  30 triples".  The ablation measures how the converged sample size
  responds to coarser batch sizes (coarser batches overshoot the
  stopping point and waste annotations).
"""

from __future__ import annotations

import time

import numpy as np

from ..intervals.hpd import HPD_SOLVERS, hpd_bounds
from ..intervals.posterior import BetaPosterior
from ..intervals.priors import JEFFREYS
from ..runtime import StudyCell, StudyPlan, execute
from .config import DEFAULT_SETTINGS, ExperimentSettings
from .report import ExperimentReport

__all__ = ["run_hpd_solver_ablation", "run_batch_size_ablation", "batch_size_plan"]


def run_hpd_solver_ablation(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    n: int = 50,
) -> ExperimentReport:
    """Agreement and runtime of the three interior-mode HPD solvers.

    The per-solve timing column is marked volatile: it still prints
    with the table (and drives the benchmark's newton-vs-slsqp
    assertion) but is excluded from the persisted results file, which
    must carry only run-to-run deterministic fields.
    """
    outcomes = [(tau, n) for tau in range(1, n)]
    posteriors = [
        BetaPosterior.from_counts(JEFFREYS, float(tau), float(total))
        for tau, total in outcomes
    ]
    reference: dict[int, tuple[float, float]] = {}
    report = ExperimentReport(
        experiment_id="ablation-hpd",
        title=f"HPD solver ablation over {len(posteriors)} Jeffreys posteriors (n={n})",
        headers=("solver", "max_dev_vs_slsqp", "mean_width", "usec_per_solve"),
        volatile=("usec_per_solve",),
    )
    for solver in ("slsqp", "newton", "scalar"):
        assert solver in HPD_SOLVERS
        bounds = []
        start = time.perf_counter()
        for posterior in posteriors:
            bounds.append(hpd_bounds(posterior, settings.alpha, solver=solver))
        elapsed = time.perf_counter() - start
        if solver == "slsqp":
            reference = dict(enumerate(bounds))
            max_dev = 0.0
        else:
            max_dev = max(
                max(abs(b[0] - reference[i][0]), abs(b[1] - reference[i][1]))
                for i, b in enumerate(bounds)
            )
        widths = [b[1] - b[0] for b in bounds]
        report.add_row(
            solver=solver,
            max_dev_vs_slsqp=f"{max_dev:.2e}",
            mean_width=round(float(np.mean(widths)), 6),
            usec_per_solve=round(elapsed / len(posteriors) * 1e6, 1),
        )
    report.notes.append(
        "All solvers must agree to <1e-6 on bounds; newton is the "
        "default in Monte-Carlo loops purely for speed."
    )
    return report


def batch_size_plan(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    dataset: str = "NELL",
    batch_sizes: tuple[int, ...] = (1, 5, 10, 30),
) -> StudyPlan:
    """The batch-granularity sweep as a study grid (one cell per size)."""
    cells = tuple(
        StudyCell(
            key=(dataset, batch),
            label=f"batch={batch}",
            method="aHPD",
            dataset=dataset,
            strategy="SRS",
            seed_stream=(8_000, i),
            units_per_iteration=batch,
        )
        for i, batch in enumerate(batch_sizes)
    )
    return StudyPlan(settings=settings, cells=cells, name="ablation-batch")


def run_batch_size_ablation(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    dataset: str = "NELL",
    batch_sizes: tuple[int, ...] = (1, 5, 10, 30),
) -> ExperimentReport:
    """Sensitivity of the converged sample size to batch granularity."""
    plan = batch_size_plan(settings, dataset=dataset, batch_sizes=batch_sizes)
    studies = execute(plan).results
    report = ExperimentReport(
        experiment_id="ablation-batch",
        title=(
            f"Batch-size sensitivity on {dataset} "
            f"(SRS + aHPD, {settings.repetitions} reps)"
        ),
        headers=("batch_size", "triples", "cost_hours", "overshoot_vs_1"),
    )
    baseline_mean = None
    for batch in batch_sizes:
        study = studies[(dataset, batch)]
        mean_triples = float(study.triples.mean())
        if baseline_mean is None:
            baseline_mean = mean_triples
            overshoot = "0%"
        else:
            overshoot = f"{(mean_triples - baseline_mean) / baseline_mean:+.0%}"
        report.add_row(
            batch_size=batch,
            triples=study.triples_summary.format(0),
            cost_hours=study.cost_summary.format(2),
            overshoot_vs_1=overshoot,
        )
    report.notes.append(
        "Larger batches overshoot the MoE stopping point; per-unit "
        "checking (batch=1) is the cost-optimal convention used in all "
        "reproductions."
    )
    return report
