"""Budget-feasibility analysis (paper Sec. 6.5, quantified).

The paper notes that "depending on the available annotation budget, the
cost reduction introduced by aHPD can make the difference between an
evaluation process that concludes successfully (due to convergence) and
one that terminates prematurely (due to budget exhaustion)".  This
experiment quantifies that: for a grid of budgets (hours), it reports
each method's *completion probability* — the fraction of audits whose
realised cost fits the budget — from the Monte-Carlo cost
distributions, on the dataset and precision level where the methods
differ most (YAGO at alpha = 0.01, the Figure 4 peak).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..evaluation.runner import StudyResult
from ..runtime import StudyCell, StudyPlan, execute
from .config import DEFAULT_SETTINGS, ExperimentSettings
from .report import ExperimentReport

__all__ = ["run_budget_analysis", "budget_plan", "completion_probability"]


def completion_probability(study: StudyResult, budget_hours: float) -> float:
    """Fraction of audits whose realised cost fits *budget_hours*."""
    return float(np.mean(study.cost_hours <= budget_hours))


def budget_plan(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    dataset: str = "YAGO",
    alpha: float = 0.01,
) -> StudyPlan:
    """The budget-feasibility grid: three methods, paired seeds."""
    cells = tuple(
        StudyCell(
            key=(name,),
            label=f"{dataset}/budget/{name}",
            method=name,
            alpha=alpha,
            dataset=dataset,
            strategy="SRS",
            seed_stream=(12_000,),  # paired across methods
        )
        for name in ("Wald", "Wilson", "aHPD")
    )
    return StudyPlan(settings=settings, cells=cells, name="budget")


def run_budget_analysis(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    dataset: str = "YAGO",
    alpha: float = 0.01,
    budgets: Sequence[float] | None = None,
) -> ExperimentReport:
    """Completion probability per budget for Wald / Wilson / aHPD.

    Parameters
    ----------
    dataset / alpha:
        Default to YAGO at the high-precision level, where the paper's
        Figure 4 peak (-47%) makes the feasibility gap widest.
    budgets:
        Budget grid in hours; defaults to quantiles spanning the two
        methods' cost ranges.
    """
    plan = budget_plan(settings, dataset=dataset, alpha=alpha)
    by_key = execute(plan).results
    methods = ("Wald", "Wilson", "aHPD")
    studies = {name: by_key[(name,)] for name in methods}
    if budgets is None:
        pooled = np.concatenate([s.cost_hours for s in studies.values()])
        budgets = [round(float(q), 2) for q in np.quantile(pooled, (0.1, 0.25, 0.5, 0.75, 0.9))]
        budgets = sorted(set(budgets))

    report = ExperimentReport(
        experiment_id="budget",
        title=(
            f"Audit completion probability vs budget on {dataset} "
            f"(SRS, alpha={alpha}, eps={settings.epsilon}, "
            f"{settings.repetitions} reps)"
        ),
        headers=("budget_hours", *methods),
    )
    for budget in budgets:
        cells: dict[str, object] = {"budget_hours": budget}
        for name in methods:
            cells[name] = f"{completion_probability(studies[name], budget):.0%}"
        report.add_row(**cells)
    gap_budget = float(np.median(studies["Wilson"].cost_hours))
    gap = completion_probability(studies["aHPD"], gap_budget) - completion_probability(
        studies["Wilson"], gap_budget
    )
    report.notes.append(
        f"At Wilson's median cost ({gap_budget:.2f}h) aHPD completes "
        f"{gap:+.0%} more audits — the Sec. 6.5 budget-exhaustion gap."
    )
    return report
