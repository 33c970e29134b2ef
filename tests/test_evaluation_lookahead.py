"""Look-ahead solves on the SRS lattice (Algorithm 1's interval memo).

Under SRS with one unit per round, an interval-memo miss solves the
current evidence together with every ``(n + j, tau + i)`` state the next
``LOOKAHEAD_ROUNDS`` rounds can reach.  These tests pin that this
changes how often the solver runs, never what a run returns: every
result field, the trace and the error a failing solve raises are the
same as in a run that solves one state per miss.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.estimators.base import Evidence
from repro.evaluation.framework import (
    LOOKAHEAD_ROUNDS,
    EvaluationConfig,
    KGAccuracyEvaluator,
)
from repro.exceptions import IntervalError
from repro.inference.engine import InferenceEngine
from repro.inference.evaluation import InferenceAssistedEvaluator
from repro.inference.generators import default_rules, generate_inferable_kg
from repro.intervals import (
    AdaptiveHPD,
    AgrestiCoullInterval,
    ArcsineInterval,
    ClopperPearsonInterval,
    ETCredibleInterval,
    HPDCredibleInterval,
    IntervalMethod,
    LogitInterval,
    SolveTable,
    WaldInterval,
    WilsonInterval,
    use_solve_pool,
    use_solve_table,
)
from repro.kg.synthetic import SyntheticKG
from repro.runtime.solvebatch import SolveBroker
from repro.sampling.srs import SimpleRandomSampling, SRSState
from repro.sampling.stratified import StratifiedPredicateSampling
from repro.sampling.twcs import TwoStageWeightedClusterSampling
from repro.sampling.wcs import WeightedClusterSampling

BUILT_IN_METHODS = (
    WaldInterval,
    WilsonInterval,
    AgrestiCoullInterval,
    ClopperPearsonInterval,
    ArcsineInterval,
    LogitInterval,
    ETCredibleInterval,
    HPDCredibleInterval,
    AdaptiveHPD,
)


class NoLookAheadSRS(SimpleRandomSampling):
    """SRS that lists no future states: every miss solves one row."""

    def evidence_ahead(self, state, rounds):
        return ()


def _bits(result) -> tuple:
    """Every field of a result, floats as ``float.hex``."""

    def exact(value):
        if isinstance(value, float):
            return value.hex()
        if dataclasses.is_dataclass(value):
            return tuple(
                exact(getattr(value, field.name)) for field in dataclasses.fields(value)
            )
        if isinstance(value, tuple):
            return tuple(exact(item) for item in value)
        return value

    return exact(result)


def _runs(evaluator, seeds) -> list[tuple]:
    return [_bits(evaluator.run(rng=seed, keep_trace=True)) for seed in seeds]


class _SolveSpy:
    """Records the row count of every ``solve_batch`` on one method."""

    def __init__(self, method: IntervalMethod) -> None:
        self.rows: list[int] = []
        solve = method.solve_batch

        def spied(evidences, alpha):
            self.rows.append(len(evidences))
            return solve(evidences, alpha)

        method.solve_batch = spied


@contextmanager
def _routing(mode: str):
    """Install the solve routing named by *mode* for the block."""
    if mode == "table":
        with use_solve_table(SolveTable(cap=2048)):
            yield
    elif mode == "pool":
        broker = SolveBroker(window=0.001, max_batch=8)
        channel = broker.channel(None)
        with channel, use_solve_pool(channel):
            yield
        broker.close()
    else:
        yield


class TestSameResults:
    @pytest.mark.parametrize("mode", ["direct", "table", "pool"])
    @pytest.mark.parametrize(
        "method_class", BUILT_IN_METHODS, ids=lambda cls: cls.__name__
    )
    @given(
        alpha=st.sampled_from([0.01, 0.05, 0.1, 0.2]),
        mu=st.floats(0.55, 0.99),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=4, deadline=None)
    def test_srs_run_equals_a_run_without_look_ahead(
        self, mode, method_class, alpha, mu, seed
    ):
        kg = SyntheticKG(num_triples=20_000, num_clusters=1_000, accuracy=mu, seed=seed)
        config = EvaluationConfig(
            alpha=alpha, epsilon=0.06, max_triples=400, raise_on_budget=False
        )
        method = method_class()
        seeds = [seed, seed + 1, seed]  # the repeat replays through the memo

        def results(strategy):
            with _routing(mode):
                evaluator = KGAccuracyEvaluator(kg, strategy, method, config=config)
                return _runs(evaluator, seeds)

        assert results(SimpleRandomSampling()) == results(NoLookAheadSRS())

    @given(mu=st.sampled_from([0.75, 0.8, 0.85, 0.9]), seed=st.integers(0, 2**20))
    @settings(max_examples=6, deadline=None)
    def test_inference_assisted_srs_run_equals_a_run_without_look_ahead(self, mu, seed):
        kg = generate_inferable_kg(accuracy=mu, seed=seed % 7)

        def results(strategy):
            evaluator = InferenceAssistedEvaluator(
                kg=kg,
                strategy=strategy,
                method=AdaptiveHPD(),
                engine_factory=lambda: InferenceEngine(kg, default_rules()),
                config=EvaluationConfig(raise_on_budget=False, max_triples=300),
            )
            return [_bits(evaluator.run(rng=rng)) for rng in (seed, seed + 1, seed)]

        assert results(SimpleRandomSampling()) == results(NoLookAheadSRS())


class FailingPastN(WilsonInterval):
    """Wilson, except that any batch holding a row past *limit* raises."""

    def __init__(self, limit: int) -> None:
        self.limit = limit

    def compute_batch(self, evidences, alpha):
        if any(evidence.n_annotated > self.limit for evidence in evidences):
            raise IntervalError(f"no interval past n = {self.limit}")
        return super().compute_batch(evidences, alpha)


class TestFallback:
    def _run(self, strategy, method, seed=3):
        kg = SyntheticKG(num_triples=20_000, num_clusters=1_000, accuracy=0.9, seed=1)
        return KGAccuracyEvaluator(kg, strategy, method).run(rng=seed, keep_trace=True)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_a_raising_look_ahead_batch_falls_back_to_the_current_row(self, seed):
        expected = self._run(NoLookAheadSRS(), WilsonInterval(), seed)
        method = FailingPastN(limit=expected.n_annotated)
        spy = _SolveSpy(method)
        result = self._run(SimpleRandomSampling(), method, seed)
        assert _bits(result) == _bits(expected)
        # The look-ahead batch that reached past the stopping n raised
        # and was followed by a one-row solve of the current evidence.
        assert spy.rows[0] > 1 and spy.rows[-2:] == [spy.rows[0], 1]

    def test_an_error_surfaces_at_the_round_that_reaches_its_state(self):
        stop = self._run(NoLookAheadSRS(), WilsonInterval()).n_annotated
        limit = stop - 3
        with pytest.raises(IntervalError, match=f"n = {limit}") as alone:
            self._run(NoLookAheadSRS(), FailingPastN(limit))
        method = FailingPastN(limit)
        spy = _SolveSpy(method)
        with pytest.raises(IntervalError, match=f"n = {limit}") as ahead:
            self._run(SimpleRandomSampling(), method)
        assert str(ahead.value) == str(alone.value)
        # The last solve was the failing round's own, one row.
        assert spy.rows[-1] == 1


class TestWhoLooksAhead:
    @pytest.mark.parametrize(
        "strategy, units",
        [
            (TwoStageWeightedClusterSampling(m=3), 1),
            (WeightedClusterSampling(), 1),
            (StratifiedPredicateSampling(), 1),
            (SimpleRandomSampling(), 2),
        ],
        ids=["twcs", "wcs", "stratified", "srs-2-units"],
    )
    def test_other_designs_and_multi_unit_rounds_solve_one_row(
        self, nell_kg, strategy, units
    ):
        method = AdaptiveHPD()
        spy = _SolveSpy(method)
        config = EvaluationConfig(units_per_iteration=units)
        evaluator = KGAccuracyEvaluator(nell_kg, strategy, method, config=config)
        result = evaluator.run(rng=0)
        assert spy.rows and set(spy.rows) == {1}
        assert len(spy.rows) == evaluator.cache_misses <= result.iterations

    def test_srs_ahpd_solves_less_often_than_it_checks_the_stop_rule(self, nell_kg):
        method = AdaptiveHPD()
        spy = _SolveSpy(method)
        evaluator = KGAccuracyEvaluator(nell_kg, SimpleRandomSampling(), method)
        result = evaluator.run(rng=0)
        assert len(spy.rows) == evaluator.cache_misses < result.iterations
        full = 1 + LOOKAHEAD_ROUNDS * (LOOKAHEAD_ROUNDS + 3) // 2
        assert max(spy.rows) == full

    def test_look_ahead_stops_at_the_annotation_budget(self, nell_kg):
        method = AdaptiveHPD()
        spy = _SolveSpy(method)
        config = EvaluationConfig(epsilon=0.001, max_triples=32, raise_on_budget=False)
        result = KGAccuracyEvaluator(
            nell_kg, SimpleRandomSampling(), method, config=config
        ).run(rng=0)
        assert result.n_annotated == 32 and not result.converged
        # Budget 32 from n = 30: the states n = 31 and 32, no further.
        assert spy.rows[0] == 1 + 2 + 3


class RecordingSRS(SimpleRandomSampling):
    """SRS that records every state it lists ahead and every state reached."""

    def __init__(self) -> None:
        self.listed: dict[tuple[int, float], Evidence] = {}
        self.reached: list[Evidence] = []

    def evidence(self, state):
        evidence = super().evidence(state)
        self.reached.append(evidence)
        return evidence

    def evidence_ahead(self, state, rounds):
        ahead = super().evidence_ahead(state, rounds)
        for evidence in ahead:
            self.listed[(evidence.n_annotated, evidence.tau_effective)] = evidence
        return ahead


def _memo_key(evidence: Evidence) -> tuple:
    return tuple(
        value.hex()
        for value in (evidence.tau_effective, evidence.n_effective, evidence.variance)
    )


class TestStatesAhead:
    def test_each_listed_state_keys_like_the_state_the_walk_reaches(self, nell_kg):
        strategy = RecordingSRS()
        evaluator = KGAccuracyEvaluator(nell_kg, strategy, AdaptiveHPD())
        evaluator.run(rng=4)
        matched = 0
        for evidence in strategy.reached:
            listed = strategy.listed.get((evidence.n_annotated, evidence.tau_effective))
            if listed is None:
                continue
            matched += 1
            assert _memo_key(listed) == _memo_key(evidence)
            assert _bits(listed) == _bits(evidence)
        # Most rounds were answered by an earlier round's look-ahead.
        assert matched > len(strategy.reached) // 2
        assert evaluator.cache_hits >= matched

    @given(n=st.integers(1, 5_000), data=st.data(), rounds=st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_listed_states_equal_what_evidence_returns_there(self, n, data, rounds):
        tau = data.draw(st.integers(0, n))
        strategy = SimpleRandomSampling()
        ahead = strategy.evidence_ahead(SRSState(n_annotated=n, n_correct=tau), rounds)
        expected = [
            strategy.evidence(SRSState(n_annotated=n + j, n_correct=tau + i))
            for j in range(1, rounds + 1)
            for i in range(j + 1)
        ]
        assert [_bits(e) for e in ahead] == [_bits(e) for e in expected]
        assert len(ahead) == rounds * (rounds + 3) // 2

    def test_designs_without_a_lattice_list_nothing(self):
        strategy = TwoStageWeightedClusterSampling(m=3)
        assert strategy.evidence_ahead(strategy.new_state(), LOOKAHEAD_ROUNDS) == ()

