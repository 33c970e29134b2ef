"""Evolving-KG evaluation (paper Sec. 8, future work).

KG content arrives in batches; once enough new content accumulates, the
accuracy is re-audited.  The Bayesian framing makes the previous audit
reusable: its posterior becomes an *informative prior* for the next
round, which — when the accuracy has not drifted much — converges far
faster than uninformative priors (paper Example 2 quantifies the gain).

The paper also warns about the failure mode: a massive update with a
very different accuracy makes the carried prior deceptive.  Two guards
are provided here:

* ``carryover`` down-weights the carried pseudo-counts, limiting how
  much history one audit can impose on the next;
* the carried prior always competes *alongside* the uninformative trio
  inside aHPD, so a deceptive prior can lose the width race instead of
  dictating the outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .._validation import (
    check_in_unit_interval,
    check_positive,
    check_positive_int,
    check_rep_range,
)
from ..annotation.annotator import Annotator, OracleAnnotator
from ..annotation.cost import DEFAULT_COST_MODEL, CostModel
from ..intervals.ahpd import AdaptiveHPD
from ..intervals.priors import UNINFORMATIVE_PRIORS, BetaPrior
from ..kg.base import TripleStore
from ..sampling.base import SamplingStrategy
from ..stats.rng import RandomSource, spawn_rng
from .framework import EvaluationConfig, EvaluationResult, KGAccuracyEvaluator

__all__ = ["DynamicAuditRecord", "DynamicAuditStudy", "DynamicAuditor"]


@dataclass(frozen=True)
class DynamicAuditRecord:
    """Outcome of one audit round over an evolving KG.

    Attributes
    ----------
    round_index:
        0-based audit round.
    result:
        The evaluation outcome for this round's KG snapshot.
    carried_prior:
        The informative prior carried *into* this round (``None`` for
        the first round).
    posterior_prior:
        The prior distilled from this round's outcome, to be carried
        into the next round.
    """

    round_index: int
    result: EvaluationResult
    carried_prior: BetaPrior | None
    posterior_prior: BetaPrior


@dataclass(frozen=True)
class DynamicAuditStudy:
    """Monte-Carlo replications of a full evolving-KG audit stream.

    ``streams[r]`` holds repetition *r*'s per-round records in round
    order, with the carried prior threaded through the rounds exactly
    as in a single :meth:`DynamicAuditor.audit_stream` run.  The raw
    records are retained (rather than summary arrays only) so the
    runtime layer can merge repetition shards losslessly and tests can
    check the carried-prior round boundary on the merged value.
    """

    label: str
    streams: tuple[tuple[DynamicAuditRecord, ...], ...]

    @property
    def repetitions(self) -> int:
        """Number of independent stream replays aggregated."""
        return len(self.streams)

    @property
    def rounds(self) -> int:
        """Audit rounds per stream (snapshots in the evolving KG)."""
        return len(self.streams[0]) if self.streams else 0

    def _field(self, getter, dtype) -> np.ndarray:
        return np.array(
            [[getter(rec) for rec in stream] for stream in self.streams],
            dtype=dtype,
        )

    @property
    def triples(self) -> np.ndarray:
        """``(repetitions, rounds)`` annotated-triples counts."""
        return self._field(lambda rec: rec.result.n_triples, np.int64)

    @property
    def cost_hours(self) -> np.ndarray:
        """``(repetitions, rounds)`` priced annotation effort."""
        return self._field(lambda rec: rec.result.cost_hours, float)

    @property
    def estimates(self) -> np.ndarray:
        """``(repetitions, rounds)`` accuracy estimates."""
        return self._field(lambda rec: rec.result.mu_hat, float)

    @property
    def converged(self) -> np.ndarray:
        """``(repetitions, rounds)`` convergence flags."""
        return self._field(lambda rec: rec.result.converged, bool)

    def __str__(self) -> str:
        return (
            f"{self.label}: {self.repetitions} reps x {self.rounds} rounds, "
            f"mean triples/round={self.triples.mean():.1f}"
        )


class DynamicAuditor:
    """Audits a stream of KG snapshots with posterior carry-over.

    Parameters
    ----------
    strategy:
        Sampling design used in every round.
    config:
        Evaluation loop parameters (alpha, epsilon, ...).
    carryover:
        Fraction of the previous round's posterior pseudo-counts kept
        as the next round's informative prior (1.0 = full carry-over;
        0.0 disables carrying and reduces to independent audits).
    max_prior_strength:
        Cap on the carried prior's pseudo-annotation count, bounding the
        damage a stale prior can do after massive updates.
    annotator / cost_model:
        As in :class:`~repro.evaluation.framework.KGAccuracyEvaluator`.
    """

    def __init__(
        self,
        strategy: SamplingStrategy,
        config: EvaluationConfig = EvaluationConfig(),
        carryover: float = 1.0,
        max_prior_strength: float = 200.0,
        annotator: Annotator | None = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ):
        check_in_unit_interval(carryover, "carryover")
        check_positive(max_prior_strength, "max_prior_strength")
        self.strategy = strategy
        self.config = config
        self.carryover = carryover
        self.max_prior_strength = max_prior_strength
        self.annotator = annotator if annotator is not None else OracleAnnotator()
        self.cost_model = cost_model

    def audit_round(
        self,
        kg: TripleStore,
        round_index: int = 0,
        carried_prior: BetaPrior | None = None,
        rng: RandomSource = None,
    ) -> DynamicAuditRecord:
        """Run one audit, optionally informed by a carried prior."""
        priors: tuple[BetaPrior, ...] = UNINFORMATIVE_PRIORS
        if carried_prior is not None:
            priors = priors + (carried_prior,)
        method = AdaptiveHPD(priors=priors)
        evaluator = KGAccuracyEvaluator(
            kg=kg,
            strategy=self.strategy,
            method=method,
            annotator=self.annotator,
            cost_model=self.cost_model,
            config=self.config,
        )
        result = evaluator.run(rng=rng)
        posterior_prior = self._distill_prior(result, round_index)
        return DynamicAuditRecord(
            round_index=round_index,
            result=result,
            carried_prior=carried_prior,
            posterior_prior=posterior_prior,
        )

    def audit_stream(
        self,
        snapshots: Iterable[TripleStore] | Sequence[TripleStore],
        seed: int = 0,
    ) -> list[DynamicAuditRecord]:
        """Audit every snapshot, carrying the posterior forward."""
        records: list[DynamicAuditRecord] = []
        carried: BetaPrior | None = None
        for i, kg in enumerate(snapshots):
            record = self.audit_round(
                kg, round_index=i, carried_prior=carried, rng=spawn_rng(seed + i)
            )
            records.append(record)
            carried = record.posterior_prior if self.carryover > 0.0 else None
        return records

    def audit_study(
        self,
        snapshots: Sequence[TripleStore],
        repetitions: int = 1,
        seed: int = 0,
        label: str = "",
        rep_range: tuple[int, int] | None = None,
    ) -> DynamicAuditStudy:
        """Monte-Carlo replications of :meth:`audit_stream`.

        Repetition ``r`` replays the whole stream on the seed window
        ``seed + r * len(snapshots)`` — round ``i`` of repetition ``r``
        audits under ``seed + r * len(snapshots) + i``, so the per-round
        seed windows of distinct repetitions never overlap and
        repetition 0 reproduces ``audit_stream(snapshots, seed)``
        exactly.

        *rep_range* executes a half-open window of the repetitions with
        seeds still keyed on the *global* repetition index, so the
        windows of any partition of ``[0, repetitions)`` concatenate to
        exactly the full study — the contract repetition sharding
        builds on.  The carried prior threads through the rounds
        *within* each repetition, so no window depends on another.
        """
        snapshots = list(snapshots)
        repetitions = check_positive_int(repetitions, "repetitions")
        start, stop = check_rep_range(rep_range, repetitions)
        stride = len(snapshots)
        streams = tuple(
            tuple(self.audit_stream(snapshots, seed=seed + rep * stride))
            for rep in range(start, stop)
        )
        return DynamicAuditStudy(label=label or "dynamic-audit", streams=streams)

    def _distill_prior(self, result: EvaluationResult, round_index: int) -> BetaPrior:
        """Turn an audit outcome into next round's informative prior.

        The observed ``(tau, n)`` are scaled by ``carryover`` and capped
        at ``max_prior_strength`` pseudo-annotations.
        """
        n = result.n_annotated * self.carryover
        strength = min(max(n, 2.0), self.max_prior_strength)
        mu = min(max(result.mu_hat, 1e-3), 1.0 - 1e-3)
        return BetaPrior.from_accuracy(
            mu, strength, name=f"Carried[r{round_index}]"
        )
