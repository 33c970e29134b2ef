"""Table 2 reproduction: prior selection under SRS.

ET and HPD credible intervals under the Kerman, Jeffreys, and Uniform
priors — plus aHPD equipped with all three — on the four real-profile
datasets, sampled with SRS.  The paper's findings to reproduce:

* Kerman is best in the extreme accuracy regions (YAGO, NELL, DBPEDIA),
  Uniform in the central one (FACTBENCH), Jeffreys never;
* HPD dominates ET wherever the accuracy is skewed and ties on the
  quasi-symmetric FACTBENCH;
* aHPD matches the best fixed-prior HPD everywhere.
"""

from __future__ import annotations

from ..evaluation.runner import StudyResult
from ..intervals.priors import UNINFORMATIVE_PRIORS
from ..runtime import StudyCell, StudyPlan, execute
from .config import DEFAULT_SETTINGS, ExperimentSettings
from .report import ExperimentReport

__all__ = ["run_table2", "table2_plan", "table2_studies"]


def table2_plan(settings: ExperimentSettings = DEFAULT_SETTINGS) -> StudyPlan:
    """The Table 2 grid: 7 interval methods x the real-profile datasets."""
    methods = [("ET", prior.name, f"ET:{prior.name}") for prior in UNINFORMATIVE_PRIORS]
    methods += [
        ("HPD", prior.name, f"HPD:{prior.name}") for prior in UNINFORMATIVE_PRIORS
    ]
    methods.append(("aHPD", "{K, J, U}", "aHPD"))

    cells: list[StudyCell] = []
    for dataset_index, dataset in enumerate(settings.datasets):
        for family, prior_name, method_spec in methods:
            label = f"{family}[{prior_name}]"
            # Paired seeds: every method replays the same sample paths,
            # so the theorem-backed orderings (HPD <= ET per prior, aHPD
            # <= every HPD) hold run by run, not just in expectation.
            cells.append(
                StudyCell(
                    key=(dataset, label),
                    label=f"{dataset}/{label}",
                    method=method_spec,
                    dataset=dataset,
                    strategy="SRS",
                    seed_stream=(dataset_index,),
                )
            )
    return StudyPlan(settings=settings, cells=tuple(cells), name="table2")


def table2_studies(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
) -> dict[tuple[str, str], StudyResult]:
    """All Table 2 studies keyed by ``(dataset, method-label)``."""
    plan = table2_plan(settings)
    return execute(plan).results


def run_table2(settings: ExperimentSettings = DEFAULT_SETTINGS) -> ExperimentReport:
    """Regenerate Table 2 (annotated triples, mean ± std)."""
    studies = table2_studies(settings)
    method_labels = [
        "ET[Kerman]",
        "ET[Jeffreys]",
        "ET[Uniform]",
        "HPD[Kerman]",
        "HPD[Jeffreys]",
        "HPD[Uniform]",
        "aHPD[{K, J, U}]",
    ]
    report = ExperimentReport(
        experiment_id="table2",
        title=(
            "ET / HPD / aHPD triples to convergence under SRS "
            f"(alpha={settings.alpha}, eps={settings.epsilon}, "
            f"{settings.repetitions} reps)"
        ),
        headers=("interval", *settings.datasets),
    )
    for label in method_labels:
        cells: dict[str, object] = {"interval": label}
        for dataset in settings.datasets:
            cells[dataset] = studies[(dataset, label)].triples_summary.format(0)
        report.add_row(**cells)
    # Annotate per-dataset winners within each family.
    for dataset in settings.datasets:
        for family in ("ET", "HPD"):
            family_labels = [l for l in method_labels if l.startswith(f"{family}[")]
            best = min(
                family_labels,
                key=lambda l: studies[(dataset, l)].triples.mean(),
            )
            report.notes.append(f"{dataset}: best {family} prior = {best}")
    return report
