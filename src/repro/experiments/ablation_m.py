"""Ablation: the TWCS second-stage size ``m``.

The paper follows Gao et al.'s recommendation of ``m in {3, 5}``
(Sec. 5: 3 for the small-cluster datasets, 5 for SYN 100M) without
re-deriving it.  This ablation sweeps ``m`` on a real profile and shows
the trade-off that produces the recommendation:

* small ``m`` spreads annotations over many entities — better
  statistical efficiency per triple (less intra-cluster redundancy) but
  more entity-identification cost;
* large ``m`` amortises entity identification but wastes annotations on
  correlated triples from the same cluster.

The cost-optimal region sits exactly around the recommended 3-5 for
positively-correlated KGs.
"""

from __future__ import annotations

from ..runtime import StudyCell, StudyPlan, execute
from .config import DEFAULT_SETTINGS, ExperimentSettings
from .report import ExperimentReport

__all__ = ["run_m_ablation", "m_ablation_plan"]


def m_ablation_plan(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    dataset: str = "DBPEDIA",
    ms: tuple[int, ...] = (1, 2, 3, 5, 8, 12),
) -> StudyPlan:
    """The stage-2 cap sweep as a study grid (one cell per m)."""
    cells = tuple(
        StudyCell(
            key=(dataset, m),
            label=f"{dataset}/TWCS(m={m})/aHPD",
            method="aHPD",
            dataset=dataset,
            strategy=f"TWCS:{m}",
            seed_stream=(11_000 + i,),
        )
        for i, m in enumerate(ms)
    )
    return StudyPlan(settings=settings, cells=cells, name="ablation-m")


def run_m_ablation(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    dataset: str = "DBPEDIA",
    ms: tuple[int, ...] = (1, 2, 3, 5, 8, 12),
) -> ExperimentReport:
    """Sweep the TWCS stage-2 cap on one dataset under aHPD."""
    plan = m_ablation_plan(settings, dataset=dataset, ms=ms)
    studies = execute(plan).results
    report = ExperimentReport(
        experiment_id="ablation-m",
        title=(
            f"TWCS second-stage size sweep on {dataset} "
            f"(aHPD, alpha={settings.alpha}, {settings.repetitions} reps)"
        ),
        headers=("m", "triples", "entities", "cost_hours"),
    )
    best_cost = None
    best_m = None
    for m in ms:
        study = studies[(dataset, m)]
        mean_cost = float(study.cost_hours.mean())
        if best_cost is None or mean_cost < best_cost:
            best_cost, best_m = mean_cost, m
        report.add_row(
            m=m,
            triples=study.triples_summary.format(0),
            entities=f"{study.entities.mean():.0f}",
            cost_hours=study.cost_summary.format(2),
        )
    report.notes.append(
        f"cost-optimal m on this run: {best_m} "
        "(paper adopts Gao et al.'s m in {3, 5})."
    )
    return report
