"""Unit tests for the human-machine inference subsystem."""

from __future__ import annotations

import numpy as np
import pytest

from repro.evaluation.framework import EvaluationConfig
from repro.exceptions import ConvergenceError, ValidationError
from repro.inference.engine import InferenceEngine
from repro.inference.evaluation import (
    AssistedEvaluationResult,
    InferenceAssistedEvaluator,
)
from repro.inference.generators import default_rules, generate_inferable_kg
from repro.inference.rules import FunctionalPredicateRule, InversePredicateRule
from repro.intervals.ahpd import AdaptiveHPD
from repro.sampling.twcs import TwoStageWeightedClusterSampling
from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple


@pytest.fixture
def small_kg() -> KnowledgeGraph:
    """Hand-built KG with one functional group and one inverse pair."""
    triples = [
        Triple("p:amy", "bornIn", "c:rome"),      # correct
        Triple("p:amy", "bornIn", "c:paris"),     # distractor
        Triple("p:amy", "bornIn", "c:oslo"),      # distractor
        Triple("s:a", "marriedTo", "s:b"),        # pair, correct
        Triple("s:b", "marriedTo", "s:a"),
        Triple("d:x", "mentions", "t:1"),         # filler
    ]
    labels = [True, False, False, True, True, False]
    return KnowledgeGraph(triples, labels)


def _index_of(kg: KnowledgeGraph, subject: str, obj: str) -> int:
    for i, t in enumerate(kg.triples):
        if t.subject == subject and t.object == obj:
            return i
    raise AssertionError("triple not found")


class TestFunctionalRule:
    def test_correct_fact_labels_siblings_incorrect(self, small_kg):
        engine = InferenceEngine(small_kg, [FunctionalPredicateRule("bornIn")])
        correct = _index_of(small_kg, "p:amy", "c:rome")
        inferences = engine.add_verification(correct, True)
        assert len(inferences) == 2
        for inference in inferences:
            assert inference.label is False
            assert inference.source_index == correct
        assert engine.num_inferred == 2

    def test_incorrect_fact_infers_nothing(self, small_kg):
        engine = InferenceEngine(small_kg, [FunctionalPredicateRule("bornIn")])
        wrong = _index_of(small_kg, "p:amy", "c:paris")
        assert engine.add_verification(wrong, False) == []

    def test_singleton_groups_skip_indexing(self, small_kg):
        rule = FunctionalPredicateRule("mentions")
        rule.prepare(small_kg)
        filler = _index_of(small_kg, "d:x", "t:1")
        assert list(rule.infer(filler, True, {})) == []

    def test_rejects_empty_predicate(self):
        with pytest.raises(ValidationError):
            FunctionalPredicateRule("")


class TestInverseRule:
    def test_label_transfers_both_polarities(self, small_kg):
        for polarity in (True, False):
            engine = InferenceEngine(
                small_kg, [InversePredicateRule("marriedTo", "marriedTo")]
            )
            forward = _index_of(small_kg, "s:a", "s:b")
            backward = _index_of(small_kg, "s:b", "s:a")
            inferences = engine.add_verification(forward, polarity)
            assert [i.triple_index for i in inferences] == [backward]
            assert engine.label_of(backward) is polarity


class TestEngine:
    def test_manual_overrides_nothing_and_counts(self, small_kg):
        engine = InferenceEngine(small_kg, default_rules())
        engine.add_verification(0, small_kg.labels(np.array([0]))[0])
        assert engine.num_manual == 1
        assert engine.label_of(99) is None

    def test_contradicting_verification_raises(self, small_kg):
        engine = InferenceEngine(small_kg, default_rules())
        engine.add_verification(0, True)
        with pytest.raises(ValidationError):
            engine.add_verification(0, False)

    def test_provenance(self, small_kg):
        engine = InferenceEngine(small_kg, [FunctionalPredicateRule("bornIn")])
        correct = _index_of(small_kg, "p:amy", "c:rome")
        engine.add_verification(correct, True)
        distractor = _index_of(small_kg, "p:amy", "c:paris")
        provenance = engine.provenance(distractor)
        assert provenance is not None
        assert provenance.rule.startswith("functional")
        assert engine.provenance(correct) is None  # manual

    def test_soundness_check_on_oracle_labels(self, small_kg):
        engine = InferenceEngine(small_kg, default_rules())
        for idx in range(small_kg.num_triples):
            if engine.label_of(idx) is None:
                engine.add_verification(idx, bool(small_kg.labels(np.array([idx]))[0]))
        assert engine.check_soundness() == engine.num_inferred

    def test_requires_materialised_kg(self):
        from repro.kg.synthetic import SyntheticKG

        with pytest.raises(ValidationError):
            InferenceEngine(SyntheticKG(100, 10, accuracy=0.9, seed=0), default_rules())


class TestGenerator:
    def test_exact_accuracy(self):
        kg = generate_inferable_kg(accuracy=0.8, seed=0)
        assert kg.accuracy == pytest.approx(
            round(0.8 * kg.num_triples) / kg.num_triples
        )

    def test_labels_satisfy_rules(self):
        # Full-oracle propagation must never contradict gold labels.
        kg = generate_inferable_kg(distractor_rate=0.5, accuracy=0.8, seed=1)
        engine = InferenceEngine(kg, default_rules())
        rng = np.random.default_rng(0)
        for idx in rng.permutation(kg.num_triples)[:800]:
            if engine.label_of(int(idx)) is None:
                engine.add_verification(
                    int(idx), bool(kg.labels(np.array([idx]))[0])
                )
        assert engine.check_soundness() > 0

    def test_unreachable_accuracy_raises(self):
        with pytest.raises(ValidationError):
            generate_inferable_kg(num_filler=10, accuracy=0.99, seed=0)

    def test_deterministic(self):
        a = generate_inferable_kg(seed=3)
        b = generate_inferable_kg(seed=3)
        assert a.triples == b.triples


class TestAssistedEvaluator:
    @pytest.fixture(scope="class")
    def setup(self):
        from repro.intervals.ahpd import AdaptiveHPD
        from repro.sampling.twcs import TwoStageWeightedClusterSampling

        kg = generate_inferable_kg(distractor_rate=0.5, accuracy=0.8, seed=42)
        evaluator = InferenceAssistedEvaluator(
            kg=kg,
            strategy=TwoStageWeightedClusterSampling(m=3),
            method=AdaptiveHPD(),
            engine_factory=lambda: InferenceEngine(kg, default_rules()),
        )
        return kg, evaluator

    def test_converges_with_inference(self, setup):
        kg, evaluator = setup
        result = evaluator.run(rng=0)
        assert result.converged
        assert result.moe <= 0.05
        assert result.n_inferred_used > 0
        assert result.n_manual + result.n_inferred_used >= result.n_annotated

    def test_cost_counts_manual_only(self, setup):
        kg, evaluator = setup
        result = evaluator.run(rng=1)
        expected = result.n_entities_manual * 45 + result.n_manual * 25
        assert result.cost.seconds == pytest.approx(expected)

    def test_estimate_unbiased(self, setup):
        kg, evaluator = setup
        estimates = [evaluator.run(rng=seed).mu_hat for seed in range(25)]
        assert np.mean(estimates) == pytest.approx(kg.accuracy, abs=0.03)

    def test_saves_manual_effort(self, setup):
        from repro.evaluation.framework import KGAccuracyEvaluator
        from repro.intervals.ahpd import AdaptiveHPD
        from repro.sampling.twcs import TwoStageWeightedClusterSampling

        kg, evaluator = setup
        baseline = KGAccuracyEvaluator(
            kg, TwoStageWeightedClusterSampling(m=3), AdaptiveHPD()
        )
        manual = np.mean([evaluator.run(rng=s).n_manual for s in range(15)])
        full = np.mean([baseline.run(rng=s).n_triples for s in range(15)])
        assert manual < full

    def test_inference_share_reported(self, setup):
        kg, evaluator = setup
        result = evaluator.run(rng=2)
        assert 0.0 <= result.inference_share <= 1.0

    def _budgeted(self, kg, raise_on_budget):
        return InferenceAssistedEvaluator(
            kg=kg,
            strategy=TwoStageWeightedClusterSampling(m=3),
            method=AdaptiveHPD(),
            engine_factory=lambda: InferenceEngine(kg, default_rules()),
            config=EvaluationConfig(max_triples=40, raise_on_budget=raise_on_budget),
        )

    def test_budget_returns_non_converged_result(self, setup):
        kg, _ = setup
        result = self._budgeted(kg, raise_on_budget=False).run(rng=0)
        assert isinstance(result, AssistedEvaluationResult)
        assert not result.converged
        assert result.moe > 0.05
        assert (result.n_annotated, result.n_manual, result.n_inferred_used) == (
            42,
            28,
            14,
        )

    def test_budget_raises_by_default(self, setup):
        kg, _ = setup
        with pytest.raises(ConvergenceError, match="budget exhausted"):
            self._budgeted(kg, raise_on_budget=True).run(rng=0)

    def test_repr_names_the_subclass(self, setup):
        _, evaluator = setup
        assert repr(evaluator).startswith("InferenceAssistedEvaluator(")


class TestIntervalMemoisation:
    def _evaluator(self, kg):
        return InferenceAssistedEvaluator(
            kg=kg,
            strategy=TwoStageWeightedClusterSampling(m=3),
            method=AdaptiveHPD(),
            engine_factory=lambda: InferenceEngine(kg, default_rules()),
        )

    def test_replays_hit_the_cache(self):
        kg = generate_inferable_kg(accuracy=0.8, seed=0)
        evaluator = self._evaluator(kg)
        evaluator.run(rng=1)
        misses_after_first = evaluator.cache_misses
        assert misses_after_first > 0
        evaluator.run(rng=1)  # same path: every stop-rule solve memoised
        assert evaluator.cache_misses == misses_after_first
        assert evaluator.cache_hits >= misses_after_first

    def test_memoised_result_identical(self):
        kg = generate_inferable_kg(accuracy=0.8, seed=0)
        cold = self._evaluator(kg).run(rng=5)
        warm_evaluator = self._evaluator(kg)
        warm_evaluator.run(rng=5)
        warm = warm_evaluator.run(rng=5)  # second run replays via cache
        assert warm.mu_hat == cold.mu_hat
        assert warm.interval == cold.interval
        assert warm.cost_hours == cold.cost_hours

    def test_clear_resets_counters(self):
        kg = generate_inferable_kg(accuracy=0.8, seed=0)
        evaluator = self._evaluator(kg)
        evaluator.run(rng=2)
        evaluator.clear_interval_cache()
        assert evaluator.cache_hits == 0
        assert evaluator.cache_misses == 0
