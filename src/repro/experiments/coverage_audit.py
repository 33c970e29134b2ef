"""Coverage audit (extension of paper Sec. 3.3).

The paper argues that validating a CI's nominal guarantee requires
coverage-probability studies that are impractical in the field.  In
simulation they are cheap: this experiment sweeps the accuracy space
and measures the empirical coverage of every interval family at a fixed
sample size, exposing

* Wald's collapse near the boundaries (the Example 1 pathology),
* Wilson's and the credible intervals' stability,
* Clopper-Pearson's conservatism (over-coverage, wider intervals).
"""

from __future__ import annotations

from typing import Sequence

from ..runtime import CoverageCell, StudyPlan, execute
from ..stats.rng import derive_seed
from .config import DEFAULT_SETTINGS, ExperimentSettings
from .report import ExperimentReport

__all__ = ["run_coverage_audit", "coverage_audit_plan", "COVERAGE_MUS"]

#: The accuracy sweep: boundary-adjacent, skewed, and central values.
COVERAGE_MUS: tuple[float, ...] = (0.99, 0.95, 0.91, 0.85, 0.70, 0.54, 0.50)

#: Method specs in display order (display names come from the results).
_METHOD_SPECS = ("Wald", "Wilson", "CP", "Arcsine", "Logit", "ET", "HPD", "aHPD")


def coverage_audit_plan(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    mus: Sequence[float] = COVERAGE_MUS,
    n: int = 30,
) -> StudyPlan:
    """The coverage grid: every interval family x the accuracy sweep."""
    cells = tuple(
        CoverageCell(
            key=(spec, mu),
            label=f"coverage/{spec}/mu={mu:g}",
            method=spec,
            mu=mu,
            n=n,
            seed=derive_seed(settings.seed, 6_000, mi, ui),
        )
        for mi, spec in enumerate(_METHOD_SPECS)
        for ui, mu in enumerate(mus)
    )
    return StudyPlan(settings=settings, cells=cells, name="coverage")


def run_coverage_audit(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    mus: Sequence[float] = COVERAGE_MUS,
    n: int = 30,
) -> ExperimentReport:
    """Empirical coverage of each method at sample size *n*."""
    plan = coverage_audit_plan(settings, mus=mus, n=n)
    results = execute(plan).results
    report = ExperimentReport(
        experiment_id="coverage",
        title=(
            f"Empirical coverage at n={n}, alpha={settings.alpha} "
            f"({settings.repetitions} reps per cell; nominal "
            f"{1 - settings.alpha:.0%})"
        ),
        headers=("method", *[f"mu={mu:g}" for mu in mus], "mean width @0.91"),
    )
    for spec in _METHOD_SPECS:
        first = results[(spec, mus[0])]
        cells: dict[str, object] = {"method": first.method}
        width_at_091 = None
        for mu in mus:
            result = results[(spec, mu)]
            cells[f"mu={mu:g}"] = f"{result.coverage:.1%}"
            if mu == 0.91:
                width_at_091 = result.mean_width
        cells["mean width @0.91"] = (
            f"{width_at_091:.3f}" if width_at_091 is not None else "-"
        )
        report.add_row(**cells)
    report.notes.append(
        "Frequentist coverage of a credible interval is not its design "
        "guarantee (it promises posterior mass), but calibration under "
        "uninformative priors is expected and observed."
    )
    return report
