"""Figure 4 reproduction: aHPD vs Wilson across precision levels.

Annotation costs of aHPD and Wilson at significance levels
``alpha in {0.10, 0.05, 0.01}`` under SRS and TWCS on the four real
profiles, together with aHPD's reduction ratio over Wilson — the
paper's robustness result, peaking at a 47% (SRS) / 39% (TWCS) cost
reduction on YAGO at alpha = 0.01, and ~0% on the quasi-symmetric
FACTBENCH at every level.
"""

from __future__ import annotations

from ..evaluation.metrics import cost_reduction
from ..evaluation.runner import StudyResult
from ..runtime import StudyCell, StudyPlan, execute
from .config import DEFAULT_SETTINGS, ExperimentSettings
from ._studies import strategy_spec
from .report import ExperimentReport

__all__ = ["run_figure4", "figure4_plan", "figure4_studies", "FIGURE4_ALPHAS"]

#: The precision levels swept by the paper.
FIGURE4_ALPHAS: tuple[float, ...] = (0.10, 0.05, 0.01)


def figure4_plan(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    alphas: tuple[float, ...] = FIGURE4_ALPHAS,
    strategies: tuple[str, ...] = ("SRS", "TWCS"),
) -> StudyPlan:
    """The Figure 4 grid: datasets x strategies x alphas x {Wilson, aHPD}."""
    cells: list[StudyCell] = []
    for dataset_index, dataset in enumerate(settings.datasets):
        for strategy_index, strategy_name in enumerate(strategies):
            for alpha_index, alpha in enumerate(alphas):
                # Paired seeds per (dataset, strategy, alpha) cell so the
                # Wilson-vs-aHPD reduction ratio is a within-path
                # comparison (see table3).
                stream = 3_000 + 100 * dataset_index + 10 * strategy_index + alpha_index
                for method_name in ("Wilson", "aHPD"):
                    cells.append(
                        StudyCell(
                            key=(dataset, strategy_name, alpha, method_name),
                            label=(
                                f"{dataset}/{strategy_name}/alpha={alpha:g}/"
                                f"{method_name}"
                            ),
                            method=method_name,
                            alpha=alpha,
                            dataset=dataset,
                            strategy=strategy_spec(strategy_name, dataset),
                            seed_stream=(stream,),
                        )
                    )
    return StudyPlan(settings=settings, cells=tuple(cells), name="figure4")


def figure4_studies(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    alphas: tuple[float, ...] = FIGURE4_ALPHAS,
    strategies: tuple[str, ...] = ("SRS", "TWCS"),
) -> dict[tuple[str, str, float, str], StudyResult]:
    """Studies keyed by ``(dataset, strategy, alpha, method)``."""
    plan = figure4_plan(settings, alphas=alphas, strategies=strategies)
    return execute(plan).results


def run_figure4(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    alphas: tuple[float, ...] = FIGURE4_ALPHAS,
    strategies: tuple[str, ...] = ("SRS", "TWCS"),
) -> ExperimentReport:
    """Regenerate Figure 4 as a cost table with reduction ratios."""
    studies = figure4_studies(settings, alphas=alphas, strategies=strategies)
    report = ExperimentReport(
        experiment_id="figure4",
        title=(
            "aHPD vs Wilson annotation cost across precision levels "
            f"(eps={settings.epsilon}, {settings.repetitions} reps)"
        ),
        headers=(
            "sampling",
            "dataset",
            "alpha",
            "wilson_cost",
            "ahpd_cost",
            "reduction",
        ),
    )
    for strategy_name in strategies:
        for dataset in settings.datasets:
            for alpha in alphas:
                wilson = studies[(dataset, strategy_name, alpha, "Wilson")]
                ahpd = studies[(dataset, strategy_name, alpha, "aHPD")]
                report.add_row(
                    sampling=strategy_name,
                    dataset=dataset,
                    alpha=f"{alpha:g}",
                    wilson_cost=wilson.cost_summary.format(2),
                    ahpd_cost=ahpd.cost_summary.format(2),
                    reduction=f"{cost_reduction(wilson, ahpd):+.0%}",
                )
    report.notes.append(
        "reduction: aHPD mean cost relative to Wilson (negative = cheaper); "
        "paper peaks at -47% (YAGO, SRS, alpha=0.01)."
    )
    return report
