"""Per-predicate audit experiment (library extension).

One global accuracy number says whether a KG is usable; the partitioned
audit says *where* it is broken.  This experiment audits every predicate
of the profiled NELL dataset under a shared annotation budget and
reports the per-predicate intervals plus the stratified global
estimate, routed through the runtime layer: the per-partition
trajectory stage shards over worker processes (``--workers`` /
``--chunk-size``) and caches like any other cell, bit-identically to
the serial loop.
"""

from __future__ import annotations

from ..runtime import PartitionedAuditCell, StudyPlan, execute
from ..stats.rng import derive_seed
from .config import DEFAULT_SETTINGS, ExperimentSettings
from .report import ExperimentReport

__all__ = ["run_partitioned_audit", "partitioned_audit_plan"]

_DATASET = "NELL"


def partitioned_audit_plan(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    dataset: str = _DATASET,
) -> StudyPlan:
    """A single partitioned-audit cell, sharded over the KG's predicates."""
    cell = PartitionedAuditCell(
        key=("partitions", dataset),
        label=f"partitions/{dataset}",
        method="aHPD",
        dataset=dataset,
        epsilon=settings.epsilon,
        seed=derive_seed(settings.seed, 7_500),
    )
    return StudyPlan(settings=settings, cells=(cell,), name="partitions")


def run_partitioned_audit(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
) -> ExperimentReport:
    """Audit every predicate of the NELL profile under a shared budget."""
    plan = partitioned_audit_plan(settings)
    result = execute(plan).results[("partitions", _DATASET)]
    report = ExperimentReport(
        experiment_id="partitions",
        title=(
            f"Per-predicate audit of {_DATASET} "
            f"(aHPD, alpha={settings.alpha}, MoE <= {settings.epsilon})"
        ),
        headers=(
            "predicate",
            "share",
            "annotated",
            "estimate",
            "interval",
            "converged",
        ),
    )
    for audit in sorted(result.partitions, key=lambda p: p.mu_hat):
        report.add_row(
            predicate=audit.partition,
            share=f"{audit.weight:.1%}",
            annotated=audit.n_annotated,
            estimate=f"{audit.mu_hat:.3f}",
            interval=(
                f"[{audit.interval.lower:.3f}, {audit.interval.upper:.3f}]"
            ),
            converged="yes" if audit.converged else "no",
        )
    worst = result.worst_partition
    report.notes.append(
        f"global accuracy {result.global_mu_hat:.3f} "
        f"(interval [{result.global_interval.lower:.3f}, "
        f"{result.global_interval.upper:.3f}]), "
        f"{result.cost.num_triples} annotations / "
        f"{result.cost_hours:.2f} modelled hours; curation priority: "
        f"'{worst.partition}' ({worst.mu_hat:.0%} accurate, "
        f"{worst.weight:.0%} of the KG)."
    )
    return report
