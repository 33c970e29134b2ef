"""Example 2 reproduction: informative priors on DBPEDIA.

An analyst auditing DBPEDIA (mu = 0.85) under TWCS already knows two
similar KGs with accuracies 0.80 and 0.90 and encodes them as
informative priors Beta(80, 20) and Beta(90, 10).  The paper reports
63 ± 36 triples / 0.72 ± 0.41 hours with those priors, versus 222 ± 83
triples / 2.55 ± 0.95 hours with the uninformative trio.
"""

from __future__ import annotations

from ..intervals.priors import BetaPrior
from ..runtime import StudyCell, StudyPlan, execute
from .config import DEFAULT_SETTINGS, ExperimentSettings
from ._studies import strategy_spec
from .report import ExperimentReport

__all__ = ["run_example2", "example2_plan", "EXAMPLE2_INFORMATIVE_PRIORS"]

#: The analyst's two similar-KG priors from the paper's Example 2.
EXAMPLE2_INFORMATIVE_PRIORS: tuple[BetaPrior, ...] = (
    BetaPrior(80.0, 20.0, name="Similar KG (0.80)"),
    BetaPrior(90.0, 10.0, name="Similar KG (0.90)"),
)


def example2_plan(settings: ExperimentSettings = DEFAULT_SETTINGS) -> StudyPlan:
    """The Example 2 pair: informative vs uninformative aHPD."""
    informative = tuple(
        (prior.a, prior.b, prior.name) for prior in EXAMPLE2_INFORMATIVE_PRIORS
    )
    twcs = strategy_spec("TWCS", "DBPEDIA")
    cells = (
        # Paired seeds: both configurations audit the same sample paths.
        StudyCell(
            key=("aHPD informative",),
            label="aHPD informative",
            method="aHPD",
            dataset="DBPEDIA",
            strategy=twcs,
            seed_stream=(5_000,),
            priors=informative,
        ),
        StudyCell(
            key=("aHPD uninformative",),
            label="aHPD uninformative",
            method="aHPD",
            dataset="DBPEDIA",
            strategy=twcs,
            seed_stream=(5_000,),
        ),
    )
    return StudyPlan(settings=settings, cells=cells, name="example2")


def run_example2(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
) -> ExperimentReport:
    """Compare informative-prior aHPD with uninformative aHPD on DBPEDIA."""
    plan = example2_plan(settings)
    studies = execute(plan).results
    report = ExperimentReport(
        experiment_id="example2",
        title=(
            "Informative vs uninformative aHPD on DBPEDIA under TWCS "
            f"(m=3, alpha={settings.alpha}, {settings.repetitions} reps)"
        ),
        headers=("configuration", "triples", "cost_hours"),
    )
    for label in ("aHPD informative", "aHPD uninformative"):
        study = studies[(label,)]
        report.add_row(
            configuration=label,
            triples=study.triples_summary.format(0),
            cost_hours=study.cost_summary.format(2),
        )
    report.notes.append(
        "Paper reports 63±36 triples / 0.72±0.41h (informative) vs "
        "222±83 / 2.55±0.95h (uninformative)."
    )
    return report
