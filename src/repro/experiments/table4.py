"""Table 4 reproduction: scalability on SYN 100M.

Wald / Wilson / aHPD on the 101M-triple synthetic KG at ground-truth
accuracies 0.9 / 0.5 / 0.1, under SRS and TWCS (m = 5).  The paper's
point: dataset size does not affect convergence — the methods behave as
on the small datasets, with aHPD best where the accuracy is skewed and
tied with Wilson at mu = 0.5 — and the symmetric pair (0.9, 0.1) costs
the same.
"""

from __future__ import annotations

from ..evaluation.runner import StudyResult
from ..evaluation.significance import significance_markers
from ..kg.datasets import SYN100M_ACCURACIES
from ..runtime import StudyCell, StudyPlan, execute
from .config import DEFAULT_SETTINGS, TWCS_M, ExperimentSettings
from .report import ExperimentReport

__all__ = ["run_table4", "table4_plan", "table4_studies"]

_METHOD_ORDER = ("Wald", "Wilson", "aHPD")


def table4_plan(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    accuracies: tuple[float, ...] = SYN100M_ACCURACIES,
    strategies: tuple[str, ...] = ("SRS", "TWCS"),
) -> StudyPlan:
    """The Table 4 grid on SYN 100M: accuracies x strategies x methods."""
    cells: list[StudyCell] = []
    for mu_index, mu in enumerate(accuracies):
        for strategy_index, strategy_name in enumerate(strategies):
            strategy = (
                "SRS" if strategy_name == "SRS" else f"TWCS:{TWCS_M['SYN100M']}"
            )
            # Paired seeds per (mu, strategy) cell (see table3).
            stream = 2_000 + 10 * mu_index + strategy_index
            for method_name in _METHOD_ORDER:
                cells.append(
                    StudyCell(
                        key=(mu, strategy_name, method_name),
                        label=f"SYN100M(mu={mu})/{strategy_name}/{method_name}",
                        method=method_name,
                        dataset=f"SYN100M:{mu}",
                        strategy=strategy,
                        seed_stream=(stream,),
                    )
                )
    return StudyPlan(settings=settings, cells=tuple(cells), name="table4")


def table4_studies(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    accuracies: tuple[float, ...] = SYN100M_ACCURACIES,
    strategies: tuple[str, ...] = ("SRS", "TWCS"),
) -> dict[tuple[float, str, str], StudyResult]:
    """All Table 4 studies keyed by ``(mu, strategy, method)``."""
    plan = table4_plan(settings, accuracies=accuracies, strategies=strategies)
    return execute(plan).results


def run_table4(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    accuracies: tuple[float, ...] = SYN100M_ACCURACIES,
    strategies: tuple[str, ...] = ("SRS", "TWCS"),
) -> ExperimentReport:
    """Regenerate Table 4 (triples and cost on SYN 100M)."""
    studies = table4_studies(settings, accuracies=accuracies, strategies=strategies)
    headers: list[str] = ["sampling", "interval"]
    for mu in accuracies:
        headers.append(f"mu={mu:g} triples")
        headers.append(f"mu={mu:g} cost")
    report = ExperimentReport(
        experiment_id="table4",
        title=(
            "SYN 100M scalability (TWCS m=5, "
            f"alpha={settings.alpha}, eps={settings.epsilon}, "
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
            for mu in accuracies:
                study = studies[(mu, strategy_name, method_name)]
                markers = ""
                if method_name == "aHPD":
                    markers = significance_markers(
                        study,
                        versus_wald=studies[(mu, strategy_name, "Wald")],
                        versus_wilson=studies[(mu, strategy_name, "Wilson")],
                    )
                cells[f"mu={mu:g} triples"] = study.triples_summary.format(0)
                cells[f"mu={mu:g} cost"] = study.cost_summary.format(2) + markers
            report.add_row(**cells)
    report.notes.append(
        "† = aHPD vs Wald significant, ‡ = aHPD vs Wilson significant "
        "(independent t-tests on cost, p < 0.01)."
    )
    return report
