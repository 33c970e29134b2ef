"""Online-appendix experiment: additional sampling strategies.

The paper's online repository evaluates sampling strategies beyond the
SRS / TWCS pair of the main text and reports results "consistent with
those given in the main text".  This experiment runs the full strategy
family — SRS, TWCS (m=3), one-stage WCS, and stratified-by-predicate
sampling — under aHPD on the real-profile datasets, reporting annotated
triples and cost so the designs' cost/precision trade-offs are visible:

* TWCS trades a mild triple-count penalty for large entity-
  identification savings (cheapest overall);
* WCS saves even more per entity but over-annotates large clusters;
* stratification helps when labels correlate with predicates and is
  otherwise SRS-equivalent.
"""

from __future__ import annotations

from ..evaluation.runner import StudyResult
from ..runtime import StudyCell, StudyPlan, execute
from .config import DEFAULT_SETTINGS, ExperimentSettings
from .report import ExperimentReport

__all__ = ["run_appendix_sampling", "appendix_sampling_plan", "appendix_sampling_studies"]

_STRATEGY_ORDER = ("SRS", "TWCS", "WCS", "STRAT")
#: The appendix fixes m=3 for TWCS on every real profile.
_STRATEGY_SPECS = {"SRS": "SRS", "TWCS": "TWCS:3", "WCS": "WCS", "STRAT": "STRAT"}


def appendix_sampling_plan(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
) -> StudyPlan:
    """The appendix grid: the full strategy family under aHPD."""
    cells: list[StudyCell] = []
    for dataset_index, dataset in enumerate(settings.datasets):
        for strategy_name in _STRATEGY_ORDER:
            cells.append(
                StudyCell(
                    key=(dataset, strategy_name),
                    label=f"{dataset}/{strategy_name}/aHPD",
                    method="aHPD",
                    dataset=dataset,
                    strategy=_STRATEGY_SPECS[strategy_name],
                    seed_stream=(9_000 + dataset_index,),
                )
            )
    return StudyPlan(settings=settings, cells=tuple(cells), name="appendix-sampling")


def appendix_sampling_studies(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
) -> dict[tuple[str, str], StudyResult]:
    """Studies keyed by ``(dataset, strategy)`` under aHPD."""
    plan = appendix_sampling_plan(settings)
    return execute(plan).results


def run_appendix_sampling(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
) -> ExperimentReport:
    """Regenerate the online-appendix strategy comparison."""
    studies = appendix_sampling_studies(settings)
    headers: list[str] = ["sampling"]
    for dataset in settings.datasets:
        headers.append(f"{dataset} triples")
        headers.append(f"{dataset} cost")
    report = ExperimentReport(
        experiment_id="appendix-sampling",
        title=(
            "Sampling-strategy family under aHPD "
            f"(alpha={settings.alpha}, eps={settings.epsilon}, "
            f"{settings.repetitions} reps)"
        ),
        headers=tuple(headers),
    )
    for strategy_name in _STRATEGY_ORDER:
        cells: dict[str, object] = {"sampling": strategy_name}
        for dataset in settings.datasets:
            study = studies[(dataset, strategy_name)]
            cells[f"{dataset} triples"] = study.triples_summary.format(0)
            cells[f"{dataset} cost"] = study.cost_summary.format(2)
        report.add_row(**cells)
    report.notes.append(
        "Paper (online appendix): additional strategies behave "
        "consistently with the main-text SRS/TWCS results."
    )
    return report
