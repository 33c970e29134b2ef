"""Sequential-coverage experiment (extension of paper Sec. 3.3).

Measures what survives the stopping rule: the fraction of *stopped*
audits whose final interval contains the true accuracy, for each
interval method, across the accuracy regimes of the paper's datasets.
Fixed-n coverage (the ``coverage`` experiment) isolates the interval;
this experiment evaluates the procedure practitioners actually run.
"""

from __future__ import annotations

from typing import Sequence

from ..runtime import SequentialCoverageCell, StudyPlan, execute
from ..stats.rng import derive_seed
from .config import DEFAULT_SETTINGS, ExperimentSettings
from .report import ExperimentReport

__all__ = ["run_sequential_coverage", "sequential_coverage_plan", "SEQUENTIAL_MUS"]

#: Accuracy regimes mirroring the paper's datasets.
SEQUENTIAL_MUS: tuple[float, ...] = (0.99, 0.91, 0.85, 0.54)

_METHOD_SPECS = ("Wald", "Wilson", "aHPD")


def sequential_coverage_plan(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    mus: Sequence[float] = SEQUENTIAL_MUS,
) -> StudyPlan:
    """The stopped-interval coverage grid: methods x accuracy regimes."""
    cells = tuple(
        SequentialCoverageCell(
            key=(spec, mu),
            label=f"sequential/{spec}/mu={mu:g}",
            method=spec,
            mu=mu,
            seed=derive_seed(settings.seed, 10_000, mi, ui),
        )
        for mi, spec in enumerate(_METHOD_SPECS)
        for ui, mu in enumerate(mus)
    )
    return StudyPlan(settings=settings, cells=cells, name="sequential-coverage")


def run_sequential_coverage(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    mus: Sequence[float] = SEQUENTIAL_MUS,
) -> ExperimentReport:
    """Coverage of the stopped interval per method and accuracy."""
    plan = sequential_coverage_plan(settings, mus=mus)
    results = execute(plan).results
    report = ExperimentReport(
        experiment_id="sequential-coverage",
        title=(
            "Coverage of the stopped interval under the full iterative "
            f"procedure (alpha={settings.alpha}, eps={settings.epsilon}, "
            f"{settings.repetitions} reps)"
        ),
        headers=(
            "method",
            *[f"mu={mu:g}" for mu in mus],
            "mean n @0.91",
        ),
    )
    for spec in _METHOD_SPECS:
        cells: dict[str, object] = {"method": results[(spec, mus[0])].method}
        mean_n = None
        for mu in mus:
            result = results[(spec, mu)]
            cells[f"mu={mu:g}"] = f"{result.coverage:.1%}"
            if mu == 0.91:
                mean_n = result.mean_stopping_n
        cells["mean n @0.91"] = f"{mean_n:.0f}" if mean_n is not None else "-"
        report.add_row(**cells)
    report.notes.append(
        "Optional stopping erodes frequentist coverage relative to the "
        "fixed-n audit; Wald additionally collapses near the boundary "
        "(its zero-width stop is a guaranteed miss unless mu_hat is "
        "exactly right)."
    )
    return report
