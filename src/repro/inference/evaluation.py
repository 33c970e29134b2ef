"""Inference-assisted accuracy evaluation.

The human-machine loop: sampled facts whose labels are already known —
verified earlier, or *derived by the inference engine* — cost nothing;
only genuinely unknown facts go to the human annotator, and every
manual verification is propagated through the rules, potentially
labelling further facts for free.

Statistically nothing changes: the labels entering the estimator are
correct regardless of their source (rules are sound), so the point
estimate stays unbiased and the interval machinery applies unchanged.
Only the *cost accounting* differs — which is precisely the efficiency
mechanism of Qi et al. [46] that the paper suggests aHPD slots into.

The evaluator is therefore the framework's Algorithm 1 loop with two
steps replaced: annotation (rule-engine short-circuit) and the result
record (manual-only cost).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..annotation.annotator import Annotator
from ..annotation.cost import DEFAULT_COST_MODEL, AnnotationCost, CostModel
from ..evaluation.framework import EvaluationConfig, KGAccuracyEvaluator
from ..intervals.base import Interval, IntervalMethod
from ..kg.graph import KnowledgeGraph
from ..sampling.base import SamplingStrategy
from .engine import InferenceEngine

__all__ = ["AssistedEvaluationResult", "InferenceAssistedEvaluator"]


@dataclass(frozen=True)
class AssistedEvaluationResult:
    """Outcome of one inference-assisted evaluation run.

    The statistical fields mirror
    :class:`~repro.evaluation.framework.EvaluationResult`; the cost
    fields split effort into manual and inferred shares.
    """

    mu_hat: float
    interval: Interval
    n_annotated: int
    n_manual: int
    n_inferred_used: int
    n_entities_manual: int
    cost: AnnotationCost
    iterations: int
    converged: bool

    @property
    def moe(self) -> float:
        """Final margin of error."""
        return self.interval.moe

    @property
    def cost_hours(self) -> float:
        """Manual annotation cost in hours (inference is free)."""
        return self.cost.hours

    @property
    def inference_share(self) -> float:
        """Fraction of sampled labels that came from inference."""
        if self.n_annotated == 0:
            return 0.0
        return self.n_inferred_used / self.n_annotated


class InferenceAssistedEvaluator(KGAccuracyEvaluator):
    """The Fig. 1 loop with a rule engine short-circuiting annotations.

    Parameters
    ----------
    kg / strategy / method / annotator / cost_model / config:
        As in :class:`~repro.evaluation.framework.KGAccuracyEvaluator`.
    engine_factory:
        Zero-argument callable building the inference engine (rules
        prepared over *kg*).  A fresh engine is built per :meth:`run`.

    :meth:`run` returns an :class:`AssistedEvaluationResult`;
    ``keep_trace`` has no effect, as that record carries no trace.
    """

    def __init__(
        self,
        kg: KnowledgeGraph,
        strategy: SamplingStrategy,
        method: IntervalMethod,
        engine_factory,
        annotator: Annotator | None = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        config: EvaluationConfig = EvaluationConfig(),
    ):
        super().__init__(kg, strategy, method, annotator, cost_model, config)
        self.engine_factory = engine_factory

    def _ingest(self, state, units: int, rng) -> None:
        if state.n_units == 0:
            # Every ingest adds at least one unit, so an empty state is
            # the first ingest of a run: start its engine and tallies.
            self._engine: InferenceEngine = self.engine_factory()
            self._manual_triples: set[int] = set()
            self._manual_entities: set[int] = set()
            self._inferred_used = 0
        batch = self.strategy.draw(self.kg, state, units, rng)
        labels = np.empty(batch.indices.size, dtype=bool)
        # Sequential processing: a manual verification may infer the
        # labels of later facts in the *same* batch (e.g. verifying the
        # correct candidate of a functional group frees its siblings
        # drawn by the same cluster unit).
        for pos, idx in enumerate(batch.indices):
            idx = int(idx)
            known = self._engine.label_of(idx)
            if known is not None:
                labels[pos] = known
                self._inferred_used += 1
                continue
            judged = bool(
                self.annotator.annotate(self.kg, np.asarray([idx]), rng=rng)[0]
            )
            labels[pos] = judged
            self._engine.add_verification(idx, judged)
            self._manual_triples.add(idx)
            self._manual_entities.add(int(batch.subjects[pos]))
        self.strategy.update(state, batch, labels)

    def _result(
        self, state, mu_hat, interval, iterations, converged, trace
    ) -> AssistedEvaluationResult:
        manual_entities = len(self._manual_entities)
        manual_triples = len(self._manual_triples)
        return AssistedEvaluationResult(
            mu_hat=mu_hat,
            interval=interval,
            n_annotated=state.n_annotated,
            n_manual=manual_triples,
            n_inferred_used=self._inferred_used,
            n_entities_manual=manual_entities,
            cost=self.cost_model.price(manual_entities, manual_triples),
            iterations=iterations,
            converged=converged,
        )
