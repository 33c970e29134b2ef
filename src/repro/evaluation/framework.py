"""The iterative KG accuracy evaluation framework (paper Fig. 1).

One evaluation run loops through the paper's four phases:

1. **sample** a batch of units via the chosen sampling strategy;
2. **annotate** the batch (oracle or noisy annotators);
3. **estimate** the accuracy and build the ``1 - alpha`` interval;
4. **quality-control**: stop as soon as ``MoE <= epsilon``.

Conventions the paper leaves implicit (calibrated against its Example 1,
where a Wald evaluation of NELL halts at exactly ``n = 30``):

* a minimum of 30 annotated triples before the stop rule is consulted
  (and at least ``strategy.min_units`` units, so the TWCS variance is
  defined);
* one unit per iteration afterwards — a triple for SRS, a cluster for
  TWCS — so halting sizes like 32 are representable.

:meth:`KGAccuracyEvaluator.run` is the one copy of this loop (the
paper's Algorithm 1): variants such as the inference-assisted evaluator
override its annotation step (``_ingest``) and result record
(``_result``), never the loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .._validation import check_alpha, check_positive, check_positive_int
from ..annotation.annotator import Annotator, OracleAnnotator
from ..annotation.cost import DEFAULT_COST_MODEL, AnnotationCost, CostModel
from ..annotation.ledger import AnnotationLedger
from ..exceptions import ConvergenceError, ValidationError
from ..intervals.base import Interval, IntervalMethod
from ..kg.base import TripleStore
from ..sampling.base import SamplingStrategy
from ..stats.rng import RandomSource, spawn_rng

__all__ = [
    "EvaluationConfig",
    "IterationRecord",
    "EvaluationResult",
    "KGAccuracyEvaluator",
    "LOOKAHEAD_ROUNDS",
]

#: Rounds an interval-memo miss solves ahead when each round adds one
#: unit.  Under SRS the next ``R`` rounds reach ``R (R + 3) / 2`` new
#: ``(n, tau)`` states (14 at ``R = 4``), solved with the current one in
#: a single batch.
LOOKAHEAD_ROUNDS = 4


@dataclass(frozen=True)
class EvaluationConfig:
    """Knobs of the iterative evaluation loop.

    Attributes
    ----------
    alpha:
        Significance level of the interval (paper default 0.05).
    epsilon:
        Upper bound for the MoE — the convergence threshold (0.05).
    min_triples:
        Annotated triples required before the stop rule is consulted.
    units_per_iteration:
        Sampling units added per loop iteration after the minimum.
    max_triples:
        Annotation budget; exceeding it raises
        :class:`~repro.exceptions.ConvergenceError` (or returns a
        non-converged result when ``raise_on_budget`` is off).
    raise_on_budget:
        Whether budget exhaustion raises (default) or returns.
    """

    alpha: float = 0.05
    epsilon: float = 0.05
    min_triples: int = 30
    units_per_iteration: int = 1
    max_triples: int = 100_000
    raise_on_budget: bool = True

    def __post_init__(self) -> None:
        check_alpha(self.alpha)
        check_positive(self.epsilon, "epsilon")
        check_positive_int(self.min_triples, "min_triples")
        check_positive_int(self.units_per_iteration, "units_per_iteration")
        check_positive_int(self.max_triples, "max_triples")
        if self.max_triples < self.min_triples:
            raise ValidationError(
                "max_triples must be >= min_triples "
                f"({self.max_triples} < {self.min_triples})"
            )


@dataclass(frozen=True)
class IterationRecord:
    """Snapshot of one stop-rule consultation (for traces/plots)."""

    n_annotated: int
    mu_hat: float
    lower: float
    upper: float

    @property
    def moe(self) -> float:
        """Margin of error at this iteration."""
        return (self.upper - self.lower) / 2.0


@dataclass(frozen=True)
class EvaluationResult:
    """Outcome of one evaluation run.

    Attributes
    ----------
    mu_hat:
        Final accuracy estimate.
    interval:
        The ``1 - alpha`` interval that met (or last missed) the MoE
        threshold.
    n_annotated:
        Statistical sample size (annotation draws; re-draws of an
        already-annotated fact under with-replacement cluster sampling
        count here but not in the cost).
    n_triples:
        Distinct annotated triples ``|T_S|`` — the paper's "Triples"
        metric and the cost driver.
    n_entities:
        Distinct entities identified ``|E_S|``.
    n_units:
        Sampling units consumed (triples for SRS, clusters for TWCS).
    cost:
        Priced annotation effort.
    iterations:
        Stop-rule consultations performed.
    converged:
        Whether ``MoE <= epsilon`` was reached within budget.
    trace:
        Optional per-iteration records (``keep_trace=True``).
    """

    mu_hat: float
    interval: Interval
    n_annotated: int
    n_triples: int
    n_entities: int
    n_units: int
    cost: AnnotationCost
    iterations: int
    converged: bool
    trace: tuple[IterationRecord, ...] = field(default_factory=tuple)

    @property
    def moe(self) -> float:
        """Final margin of error."""
        return self.interval.moe

    @property
    def cost_hours(self) -> float:
        """Annotation cost in hours — the paper's "Cost" metric."""
        return self.cost.hours


class KGAccuracyEvaluator:
    """Runs the paper's iterative evaluation on one KG.

    Parameters
    ----------
    kg:
        The knowledge graph to audit.
    strategy:
        Sampling design (SRS, TWCS, ...).
    method:
        Interval method deciding convergence (Wald, Wilson, aHPD, ...).
    annotator:
        Label source; defaults to the gold-replaying oracle.
    cost_model:
        Pricing of the annotation effort; defaults to the paper's
        (45s + 25s) model.
    config:
        Loop parameters; defaults to the paper's (alpha=0.05,
        epsilon=0.05).

    Interval solves are memoised across :meth:`run` calls, keyed on the
    method instance plus everything methods read (effective tau and n,
    design variance, alpha): the stop rule and its Monte-Carlo replays
    revisit the same evidence states constantly.  Reassigning
    ``self.method`` is safe; mutating a method in place (e.g. its
    ``prior``) requires :meth:`clear_interval_cache`.

    A memo miss with one unit per round solves ahead: the states the
    strategy lists through
    :meth:`~repro.sampling.base.SamplingStrategy.evidence_ahead` for the
    next :data:`LOOKAHEAD_ROUNDS` rounds go into the same
    ``solve_batch`` as the current evidence, and all are memoised.
    ``cache_misses`` therefore counts look-ahead solves, and
    ``cache_hits`` includes the rounds they answered.  Every batch
    kernel is row-independent, so results do not change.
    """

    #: Entries kept before the interval memo resets (a full reset is
    #: cheaper and simpler than LRU bookkeeping at this hit rate).
    _CACHE_LIMIT = 100_000

    def __init__(
        self,
        kg: TripleStore,
        strategy: SamplingStrategy,
        method: IntervalMethod,
        annotator: Optional[Annotator] = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        config: EvaluationConfig = EvaluationConfig(),
        ledger: Optional[AnnotationLedger] = None,
    ):
        self.kg = kg
        self.strategy = strategy
        self.method = method
        self.annotator = annotator if annotator is not None else OracleAnnotator()
        self.cost_model = cost_model
        self.config = config
        #: Optional durable judgement record; every annotated batch is
        #: appended, enabling suspend/resume of real audits.
        self.ledger = ledger
        self._interval_cache: dict[tuple, Interval] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    def run(self, rng: RandomSource = None, keep_trace: bool = False) -> EvaluationResult:
        """Execute one full evaluation (phases 1-4 until convergence)."""
        rng = spawn_rng(rng)
        cfg = self.config
        strategy = self.strategy
        state = strategy.new_state()
        trace: list[IterationRecord] = []

        # Initial fill: reach the minimum sample before consulting the
        # stop rule (one unit at a time — units have variable triple
        # counts under cluster designs).
        while state.n_annotated < cfg.min_triples or state.n_units < strategy.min_units:
            self._ingest(state, cfg.units_per_iteration, rng)

        iterations = 0
        while True:
            iterations += 1
            evidence = strategy.evidence(state)
            interval = self._compute_interval(evidence, cfg.alpha, state)
            if keep_trace:
                trace.append(
                    IterationRecord(
                        n_annotated=state.n_annotated,
                        mu_hat=evidence.mu_hat,
                        lower=interval.lower,
                        upper=interval.upper,
                    )
                )
            if interval.moe <= cfg.epsilon:
                return self._result(state, evidence.mu_hat, interval, iterations, True, trace)
            if state.n_annotated >= cfg.max_triples:
                if cfg.raise_on_budget:
                    raise ConvergenceError(
                        f"annotation budget exhausted: {state.n_annotated} triples "
                        f"annotated, MoE={interval.moe:.4f} > epsilon={cfg.epsilon}"
                    )
                return self._result(state, evidence.mu_hat, interval, iterations, False, trace)
            self._ingest(state, cfg.units_per_iteration, rng)

    def _memo_key(self, evidence, alpha: float) -> tuple:
        """The interval memo's key: the method plus everything it reads."""
        return (
            self.method,
            evidence.tau_effective,
            evidence.n_effective,
            evidence.variance,
            alpha,
        )

    def _compute_interval(self, evidence, alpha: float, state) -> Interval:
        """Memoised ``method.solve_batch`` over already-seen evidence states.

        Misses go through the batch engine rather than the scalar path
        so that cached intervals are bit-identical to batch-solved ones
        everywhere — including when an ambient solve pool coalesces this
        miss with other callers' work.  A miss also solves the states
        the run's next rounds can reach from *state* (see
        :meth:`_solve_ahead`).
        """
        key = self._memo_key(evidence, alpha)
        interval = self._interval_cache.get(key)
        if interval is not None:
            self.cache_hits += 1
            return interval
        self.cache_misses += 1
        if len(self._interval_cache) >= self._CACHE_LIMIT:
            self._interval_cache.clear()
        interval = self._solve_ahead(evidence, alpha, state)
        if interval is None:
            interval = self.method.solve_batch((evidence,), alpha)[0]
        self._interval_cache[key] = interval
        return interval

    def _solve_ahead(self, evidence, alpha: float, state) -> Optional[Interval]:
        """Solve *evidence* with the unmemoised states of the next rounds.

        Returns ``None`` when there is nothing to solve ahead, or when
        the joint batch raises: the caller then solves *evidence* alone,
        so an error surfaces at the round that reaches its state, as it
        would without look-ahead.
        """
        cfg = self.config
        if cfg.units_per_iteration != 1:
            return None
        # The run stops at the budget, so states past it are never reached.
        rounds = min(LOOKAHEAD_ROUNDS, cfg.max_triples - state.n_annotated)
        if rounds <= 0:
            return None
        cache = self._interval_cache
        keys, batch = [], [evidence]
        for ahead in self.strategy.evidence_ahead(state, rounds):
            key = self._memo_key(ahead, alpha)
            if key not in cache:
                keys.append(key)
                batch.append(ahead)
        if not keys:
            return None
        try:
            intervals = self.method.solve_batch(batch, alpha).to_intervals()
        except Exception:
            # Whatever failed, the caller's one-row solve raises it again
            # if it concerns the current state; a failing future state
            # raises when the walk reaches it.
            return None
        cache.update(zip(keys, intervals[1:]))
        return intervals[0]

    def clear_interval_cache(self) -> None:
        """Drop memoised solves (e.g. after mutating ``method``)."""
        self._interval_cache.clear()
        self.cache_hits = 0
        self.cache_misses = 0

    def _ingest(self, state, units: int, rng) -> None:
        batch = self.strategy.draw(self.kg, state, units, rng)
        labels = self.annotator.annotate(self.kg, batch.indices, rng=rng)
        if self.ledger is not None:
            self.ledger.record_batch(batch.indices, batch.subjects, labels)
        self.strategy.update(state, batch, labels)

    def _result(
        self,
        state,
        mu_hat: float,
        interval: Interval,
        iterations: int,
        converged: bool,
        trace: list[IterationRecord],
    ) -> EvaluationResult:
        cost = state.cost(self.cost_model)
        return EvaluationResult(
            mu_hat=mu_hat,
            interval=interval,
            n_annotated=state.n_annotated,
            n_triples=len(state.seen_triples),
            n_entities=len(state.seen_entities),
            n_units=state.n_units,
            cost=cost,
            iterations=iterations,
            converged=converged,
            trace=tuple(trace),
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(strategy={self.strategy.name}, "
            f"method={self.method.name}, alpha={self.config.alpha}, "
            f"epsilon={self.config.epsilon})"
        )
