"""Unit tests for the empirical coverage audit."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import binom

from repro.estimators.base import Evidence
from repro.evaluation.coverage import coverage_profile, empirical_coverage
from repro.exceptions import ValidationError
from repro.intervals.ahpd import AdaptiveHPD
from repro.intervals.wald import WaldInterval
from repro.intervals.wilson import WilsonInterval
from repro.runtime.cells import build_method
from repro.stats.rng import spawn_rng

#: Every interval method, as runtime method specs.
METHOD_SPECS = ("Wald", "Wilson", "AC", "CP", "Arcsine", "Logit", "ET", "HPD", "aHPD")


def exact_coverage(spec: str, n: int, mu: float, alpha: float = 0.05) -> float:
    """P(mu in interval) for tau ~ Bin(n, mu): a finite sum over the pmf.

    Built from the scalar ``compute`` path, independent of the batch
    engine ``empirical_coverage`` solves through.
    """
    method = build_method(spec)
    return sum(
        binom.pmf(tau, n, mu)
        * method.compute(Evidence.from_counts(tau, n), alpha).contains(mu)
        for tau in range(n + 1)
    )


class TestExactCoverageOracle:
    """Monte-Carlo coverage agrees with the exact coverage in distribution.

    The hit count of ``repetitions`` draws is ``Bin(repetitions, p)``
    for the exact coverage ``p``, so it must fall in that binomial's
    ``1 - 1e-6`` central interval: no tolerance to guess.
    """

    REPETITIONS = 2_000

    @pytest.mark.parametrize("mu", (0.05, 0.5, 0.9, 0.99))
    @pytest.mark.parametrize("n", (10, 30, 100))
    @pytest.mark.parametrize("spec", METHOD_SPECS)
    def test_hit_count_within_binomial_interval(self, spec, n, mu):
        p = exact_coverage(spec, n, mu)
        low, high = binom.interval(1 - 1e-6, self.REPETITIONS, p)
        for seed in range(3):
            result = empirical_coverage(
                build_method(spec), mu, n, repetitions=self.REPETITIONS, rng=seed
            )
            hits = round(result.coverage * self.REPETITIONS)
            assert low <= hits <= high, f"seed {seed}: {hits} hits, exact p = {p:.4f}"


class TestEmpiricalCoverage:
    def test_wilson_near_nominal(self):
        assert exact_coverage("Wilson", n=60, mu=0.85) == pytest.approx(0.95, abs=0.03)

    def test_wald_undercover_near_boundary(self):
        # The Example 1 pathology: at mu = 0.99 and n = 30 the unanimous
        # outcome (zero-width interval missing mu) dominates.
        wald = empirical_coverage(WaldInterval(), mu=0.99, n=30, repetitions=3_000, rng=0)
        wilson = empirical_coverage(WilsonInterval(), mu=0.99, n=30, repetitions=3_000, rng=0)
        assert wald.coverage < 0.85
        assert wilson.coverage > wald.coverage

    def test_hpd_calibrated_mid_range(self):
        assert exact_coverage("HPD", n=100, mu=0.7) == pytest.approx(0.95, abs=0.03)

    def test_shortfall_sign(self):
        result = empirical_coverage(WaldInterval(), mu=0.99, n=30, repetitions=500, rng=0)
        assert result.shortfall > 0

    def test_nominal_property(self):
        result = empirical_coverage(WilsonInterval(), mu=0.5, n=30, repetitions=100, rng=0)
        assert result.nominal == pytest.approx(0.95)

    def test_deterministic(self):
        a = empirical_coverage(WilsonInterval(), mu=0.8, n=30, repetitions=200, rng=5)
        b = empirical_coverage(WilsonInterval(), mu=0.8, n=30, repetitions=200, rng=5)
        assert a.coverage == b.coverage

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            empirical_coverage(WilsonInterval(), mu=1.5, n=30)
        with pytest.raises(ValidationError):
            empirical_coverage(WilsonInterval(), mu=0.5, n=0)


    def test_unique_outcome_solve_budget(self):
        # The acceptance bar of the batch engine: 2,000 repetitions at
        # n = 30 must trigger at most 31 interval solves (one per
        # distinct binomial outcome), routed through compute_batch.
        method = AdaptiveHPD()
        solved = []
        original = method.compute_batch

        def counting(evidences, alpha):
            solved.append(len(evidences))
            return original(evidences, alpha)

        method.compute_batch = counting
        empirical_coverage(method, mu=0.9, n=30, repetitions=2_000, rng=0)
        assert len(solved) == 1
        assert solved[0] <= 31

    def test_matches_per_repetition_loop(self):
        # The unique-outcome aggregation must reproduce the naive
        # per-repetition loop exactly (same draws, same statistics).
        method = WilsonInterval()
        result = empirical_coverage(method, mu=0.9, n=30, repetitions=1_000, rng=3)
        taus = spawn_rng(3).binomial(30, 0.9, size=1_000)
        hits = 0
        widths = []
        for tau in taus:
            interval = method.compute(Evidence.from_counts(int(tau), 30), 0.05)
            hits += interval.contains(0.9)
            widths.append(interval.width)
        assert result.coverage == hits / 1_000
        assert result.mean_width == pytest.approx(float(np.mean(widths)), abs=1e-12)


class TestCoverageProfile:
    def test_one_result_per_mu(self):
        results = coverage_profile(
            WilsonInterval(), mus=[0.5, 0.9, 0.99], n=30, repetitions=200
        )
        assert [r.mu for r in results] == [0.5, 0.9, 0.99]
        assert all(0.0 <= r.coverage <= 1.0 for r in results)


class TestTauCountsAndRepRange:
    def test_partition_histograms_sum_to_full(self):
        from repro.evaluation.coverage import tau_counts

        full = tau_counts(0.8, 25, 100, rng=7)
        parts = [
            tau_counts(0.8, 25, 100, rng=7, rep_range=window)
            for window in ((0, 33), (33, 66), (66, 100))
        ]
        assert np.array_equal(np.sum(parts, axis=0), full)
        assert full.sum() == 100

    def test_coverage_from_counts_matches_empirical(self):
        from repro.evaluation.coverage import coverage_from_counts, tau_counts

        method = WilsonInterval()
        counts = tau_counts(0.9, 30, 500, rng=3)
        rebuilt = coverage_from_counts(method, 0.9, 30, 0.05, counts)
        direct = empirical_coverage(method, mu=0.9, n=30, repetitions=500, rng=3)
        assert rebuilt == direct

    def test_rep_range_window_consumes_stream_identically(self):
        # The window's histogram is the full stream's slice, so merging
        # the windows of any partition reproduces the full measurement.
        from repro.evaluation.coverage import coverage_from_counts, tau_counts

        method = WilsonInterval()
        full = empirical_coverage(method, mu=0.85, n=20, repetitions=60, rng=5)
        parts = [
            tau_counts(0.85, 20, 60, rng=5, rep_range=window)
            for window in ((0, 7), (7, 14), (14, 60))
        ]
        merged = coverage_from_counts(
            method, 0.85, 20, 0.05, np.sum(parts, axis=0), repetitions=60
        )
        assert merged == full

    def test_windowed_empirical_coverage_repetitions(self):
        result = empirical_coverage(
            WilsonInterval(), mu=0.85, n=20, repetitions=60, rng=5, rep_range=(10, 25)
        )
        assert result.repetitions == 15

    def test_invalid_window_rejected(self):
        with pytest.raises(ValidationError):
            empirical_coverage(
                WilsonInterval(), mu=0.85, n=20, repetitions=60, rep_range=(25, 10)
            )
