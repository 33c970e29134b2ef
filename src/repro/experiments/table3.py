"""Table 3 reproduction: aHPD vs Wald and Wilson on the real profiles.

The paper's headline efficiency table: annotated triples and annotation
cost (hours) for Wald, Wilson, and aHPD under both SRS and TWCS (m = 3)
on YAGO, NELL, DBPEDIA, and FACTBENCH — with independent t-tests
(p < 0.01) between aHPD and each baseline.

Findings to reproduce: aHPD statistically beats both baselines on the
skewed datasets (YAGO, NELL, DBPEDIA) and ties Wilson on the
quasi-symmetric FACTBENCH.
"""

from __future__ import annotations

from ..evaluation.runner import StudyResult
from ..evaluation.significance import significance_markers
from ..runtime import StudyCell, StudyPlan, execute
from .config import DEFAULT_SETTINGS, ExperimentSettings
from ._studies import strategy_spec
from .report import ExperimentReport

__all__ = ["run_table3", "table3_plan", "table3_studies"]

_METHOD_ORDER = ("Wald", "Wilson", "aHPD")


def table3_plan(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    strategies: tuple[str, ...] = ("SRS", "TWCS"),
) -> StudyPlan:
    """The Table 3 grid: datasets x strategies x {Wald, Wilson, aHPD}."""
    cells: list[StudyCell] = []
    for dataset_index, dataset in enumerate(settings.datasets):
        for strategy_index, strategy_name in enumerate(strategies):
            # Paired seeds per (dataset, strategy) cell: all three
            # interval methods replay the same sample paths, which makes
            # the efficiency comparison a within-path one (and leaves
            # the independent t-test conservative).
            stream = 1_000 + 10 * dataset_index + strategy_index
            for method_name in _METHOD_ORDER:
                cells.append(
                    StudyCell(
                        key=(dataset, strategy_name, method_name),
                        label=f"{dataset}/{strategy_name}/{method_name}",
                        method=method_name,
                        dataset=dataset,
                        strategy=strategy_spec(strategy_name, dataset),
                        seed_stream=(stream,),
                    )
                )
    return StudyPlan(settings=settings, cells=tuple(cells), name="table3")


def table3_studies(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    strategies: tuple[str, ...] = ("SRS", "TWCS"),
) -> dict[tuple[str, str, str], StudyResult]:
    """All Table 3 studies keyed by ``(dataset, strategy, method)``."""
    plan = table3_plan(settings, strategies=strategies)
    return execute(plan).results


def run_table3(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    strategies: tuple[str, ...] = ("SRS", "TWCS"),
) -> ExperimentReport:
    """Regenerate Table 3 (triples and cost, with dagger markers)."""
    studies = table3_studies(settings, strategies=strategies)
    headers: list[str] = ["sampling", "interval"]
    for dataset in settings.datasets:
        headers.append(f"{dataset} triples")
        headers.append(f"{dataset} cost")
    report = ExperimentReport(
        experiment_id="table3",
        title=(
            "Wald / Wilson / aHPD efficiency "
            f"(alpha={settings.alpha}, eps={settings.epsilon}, "
            f"{settings.repetitions} reps)"
        ),
        headers=tuple(headers),
    )
    for strategy_name in strategies:
        for method_name in _METHOD_ORDER:
            cells: dict[str, object] = {
                "sampling": strategy_name,
                "interval": method_name,
            }
            for dataset in settings.datasets:
                study = studies[(dataset, strategy_name, method_name)]
                markers = ""
                if method_name == "aHPD":
                    markers = significance_markers(
                        study,
                        versus_wald=studies[(dataset, strategy_name, "Wald")],
                        versus_wilson=studies[(dataset, strategy_name, "Wilson")],
                    )
                cells[f"{dataset} triples"] = study.triples_summary.format(0)
                cells[f"{dataset} cost"] = study.cost_summary.format(2) + markers
            report.add_row(**cells)
    report.notes.append(
        "† = aHPD vs Wald significant, ‡ = aHPD vs Wilson significant "
        "(independent t-tests on cost, p < 0.01)."
    )
    return report
