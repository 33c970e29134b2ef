"""Evolving-KG audit experiment (paper Sec. 8, future work).

Scenario: a DBPEDIA-like KG is audited once, then receives content
batches over time and is re-audited after each batch.  The Bayesian
framing lets each audit's posterior seed the next audit's prior.  Two
regimes are measured:

* **stable** — new content has the same accuracy as the base KG; the
  carried prior is reliable and re-audits converge dramatically faster;
* **drift** — a massive update halves the accuracy; the carried prior
  is deceptive.  Because aHPD races the carried prior *against* the
  uninformative trio, the audit still converges correctly (the paper's
  noted limitation, mitigated by the competing-priors design).

The experiment is Monte-Carlo: every (regime, mode) cell replays its
full audit stream several times (``audit_study``'s multi-replication
arrays, sharded by the runtime like any repetition dimension), and the
report aggregates the replications as mean ± sd per regime and round.
Replication 0 reproduces the pre-runtime single-stream numbers exactly
— ``DynamicAuditor.audit_stream`` on the cell's audit seed — so the
original single-replication columns stay bit-identical alongside the
new aggregates.
"""

from __future__ import annotations

import numpy as np

from ..kg.evolution import UpdateBatchSpec, build_evolving_kg
from ..kg.graph import KnowledgeGraph
from ..runtime import DynamicAuditCell, StudyPlan, execute
from ..stats.rng import derive_seed
from .config import DEFAULT_SETTINGS, ExperimentSettings
from .report import ExperimentReport

__all__ = ["run_dynamic_audit", "dynamic_audit_plan", "build_snapshot_stream"]

#: The two Sec.-8 regimes: (name, base accuracy, update accuracies).
SCENARIOS: tuple[tuple[str, float, tuple[float, ...]], ...] = (
    ("stable", 0.85, (0.85, 0.85)),
    ("drift", 0.85, (0.85, 0.45)),
)

_BASE_FACTS = 6_000
_UPDATE_FACTS = 3_000

#: Stream replications per cell, capped so the experiment's cost stays
#: bounded by the scenario (each replication is a full multi-round
#: audit of a ~10k-fact KG) rather than scaling with the protocol's
#: 1,000 Monte-Carlo repetitions.  Small settings lower it further so
#: smoke tests stay fast; the sd needs at least 2.
_MAX_REPLICATIONS = 5


def _replications(settings: ExperimentSettings) -> int:
    return max(2, min(_MAX_REPLICATIONS, settings.repetitions))


def build_snapshot_stream(
    base_accuracy: float,
    update_accuracies: tuple[float, ...],
    seed: int,
    base_facts: int = 6_000,
    update_facts: int = 3_000,
) -> list[KnowledgeGraph]:
    """A growing KG: a base snapshot plus cumulative update batches."""
    updates = [
        UpdateBatchSpec(num_facts=update_facts, accuracy=accuracy)
        for accuracy in update_accuracies
    ]
    return build_evolving_kg(
        base_facts=base_facts,
        base_accuracy=base_accuracy,
        updates=updates,
        seed=seed,
    )


def dynamic_audit_plan(settings: ExperimentSettings = DEFAULT_SETTINGS) -> StudyPlan:
    """The dynamic-audit grid: (regime) x (carried, independent).

    Each cell replays its full audit stream :func:`_replications` times
    (``audit_study``'s multi-replication arrays; the runtime shards the
    replications like any repetition dimension).  Replication 0 of a
    :class:`~repro.runtime.spec.DynamicAuditCell` is exactly the
    pre-runtime ``DynamicAuditor.audit_stream`` run, so the routed
    experiment reproduces its original single-stream numbers bit for
    bit while adding the Monte-Carlo aggregate — and keeps worker
    fan-out, disk caching, and resume.
    """
    stream_seed = derive_seed(settings.seed, 7_000)
    cells = tuple(
        DynamicAuditCell(
            key=(regime, mode),
            label=f"dynamic/{regime}/{mode}",
            method="aHPD",
            base_facts=_BASE_FACTS,
            base_accuracy=base_mu,
            updates=tuple((_UPDATE_FACTS, accuracy, 0.3) for accuracy in updates),
            stream_seed=stream_seed,
            strategy="TWCS:3",
            carryover=carryover,
            seed=settings.seed,
            repetitions=_replications(settings),
        )
        for regime, base_mu, updates in SCENARIOS
        for mode, carryover in (("carried", 1.0), ("independent", 0.0))
    )
    return StudyPlan(settings=settings, cells=cells, name="dynamic")


def _mean_sd(values: np.ndarray) -> str:
    """``mean ± sd`` (sample sd) of one round's replication values."""
    mean = float(np.mean(values))
    sd = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return f"{mean:.1f} ± {sd:.1f}"


def run_dynamic_audit(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
) -> ExperimentReport:
    """Compare carried-prior audits against independent re-audits.

    The single-replication columns (``estimate``, ``triples``) report
    replication 0 — the pre-runtime single-stream numbers, unchanged —
    while the ``mc`` columns aggregate every stream replication of the
    cell as mean ± sample sd of the annotated-triples cost per round.
    """
    plan = dynamic_audit_plan(settings)
    results = execute(plan).results
    replications = _replications(settings)
    report = ExperimentReport(
        experiment_id="dynamic",
        title=(
            "Evolving-KG audits with posterior carry-over "
            f"(TWCS m=3, alpha={settings.alpha}, "
            f"{replications} stream replications)"
        ),
        headers=(
            "regime",
            "round",
            "true_mu",
            "estimate",
            "triples (carried)",
            "triples (independent)",
            "mc carried (mean±sd)",
            "mc independent (mean±sd)",
        ),
    )
    for regime, base_mu, updates in SCENARIOS:
        snapshots = build_snapshot_stream(
            base_mu, updates, seed=derive_seed(settings.seed, 7_000)
        )
        carried_study = results[(regime, "carried")]
        independent_study = results[(regime, "independent")]
        carried = carried_study.streams[0]
        independent = independent_study.streams[0]
        carried_triples = carried_study.triples
        independent_triples = independent_study.triples
        for rec_c, rec_i, kg in zip(carried, independent, snapshots):
            rnd = rec_c.round_index
            report.add_row(
                regime=regime,
                round=rnd,
                true_mu=round(kg.accuracy, 3),
                estimate=round(rec_c.result.mu_hat, 3),
                **{
                    "triples (carried)": rec_c.result.n_triples,
                    "triples (independent)": rec_i.result.n_triples,
                    "mc carried (mean±sd)": _mean_sd(carried_triples[:, rnd]),
                    "mc independent (mean±sd)": _mean_sd(
                        independent_triples[:, rnd]
                    ),
                },
            )
    report.notes.append(
        "Carried priors compete inside aHPD alongside the uninformative "
        "trio, so a deceptive prior (drift regime) slows but cannot "
        "corrupt the audit."
    )
    report.notes.append(
        f"mc columns aggregate {replications} independent stream "
        "replications (mean ± sample sd of annotated triples per round); "
        "estimate/triples columns report replication 0, the original "
        "single-stream numbers."
    )
    return report
