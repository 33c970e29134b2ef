"""Unit tests for evidence and the SRS / TWCS estimators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.estimators.base import Evidence
from repro.estimators.cluster import (
    kish_design_effect,
    twcs_evidence,
    twcs_point_estimate,
)
from repro.estimators.proportion import srs_evidence, srs_evidence_from_labels
from repro.exceptions import InsufficientSampleError, ValidationError


class TestEvidence:
    def test_from_counts(self):
        ev = Evidence.from_counts(27, 30)
        assert ev.mu_hat == pytest.approx(0.9)
        assert ev.variance == pytest.approx(0.9 * 0.1 / 30)
        assert ev.n_effective == 30.0
        assert ev.tau_effective == 27.0
        assert ev.n_annotated == 30

    def test_all_correct_flags(self):
        assert Evidence.from_counts(30, 30).all_correct
        assert Evidence.from_counts(0, 30).all_incorrect
        ev = Evidence.from_counts(15, 30)
        assert not ev.all_correct and not ev.all_incorrect

    def test_rejects_bad_counts(self):
        with pytest.raises(ValidationError):
            Evidence.from_counts(31, 30)
        with pytest.raises(ValidationError):
            Evidence.from_counts(0, 0)

    def test_rejects_inconsistent_fields(self):
        with pytest.raises(ValidationError):
            Evidence(mu_hat=0.5, variance=0.1, n_effective=10, tau_effective=11, n_annotated=10)
        with pytest.raises(ValidationError):
            Evidence(mu_hat=0.5, variance=-0.1, n_effective=10, tau_effective=5, n_annotated=10)
        with pytest.raises(ValidationError):
            Evidence(mu_hat=0.5, variance=0.1, n_effective=0, tau_effective=0, n_annotated=0)


class TestSRSEstimator:
    def test_point_estimate_eq2(self):
        ev = srs_evidence(91, 100)
        assert ev.mu_hat == pytest.approx(0.91)
        assert ev.variance == pytest.approx(0.91 * 0.09 / 100)

    def test_from_labels(self):
        ev = srs_evidence_from_labels([True, True, False, True])
        assert ev.mu_hat == pytest.approx(0.75)
        assert ev.n_annotated == 4

    def test_from_int_labels(self):
        ev = srs_evidence_from_labels(np.array([1, 0, 1, 1]))
        assert ev.mu_hat == pytest.approx(0.75)

    def test_rejects_non_binary(self):
        with pytest.raises(ValidationError):
            srs_evidence_from_labels([0.5, 1.0])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            srs_evidence_from_labels([])

    def test_unbiasedness_monte_carlo(self, rng):
        # E[mu_hat] over repeated SRS should match the population mean.
        population = rng.random(5_000) < 0.83
        estimates = []
        for _ in range(300):
            sample = rng.choice(population, size=60, replace=False)
            estimates.append(srs_evidence_from_labels(sample).mu_hat)
        assert np.mean(estimates) == pytest.approx(population.mean(), abs=0.01)


class TestTWCSEstimator:
    def test_point_estimate_eq3(self):
        means = [1.0, 0.5, 0.75, 0.75]
        mu_hat, variance = twcs_point_estimate(means)
        assert mu_hat == pytest.approx(0.75)
        expected_var = np.sum((np.array(means) - 0.75) ** 2) / (4 * 3)
        assert variance == pytest.approx(expected_var)

    def test_requires_two_clusters(self):
        with pytest.raises(InsufficientSampleError):
            twcs_point_estimate([0.9])
        with pytest.raises(InsufficientSampleError):
            twcs_evidence([0.9], n_annotated=3)

    @pytest.mark.parametrize(
        "means",
        [[0.5, 1.2], [-0.25, 0.5], [0.5, np.inf], [0.5, np.nan], [np.nan, 0.5]],
    )
    def test_rejects_out_of_range_means(self, means):
        # twcs_evidence builds its Evidence without re-checking it, so
        # this check is all that keeps an invalid one out.
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            twcs_point_estimate(means)
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            twcs_evidence(means, n_annotated=10)

    def test_evidence_consistency(self):
        ev = twcs_evidence([0.8, 0.9, 1.0, 0.7], n_annotated=12)
        assert ev.mu_hat == pytest.approx(0.85)
        assert ev.n_annotated == 12
        assert ev.tau_effective == pytest.approx(ev.mu_hat * ev.n_effective)

    def test_identical_means_give_large_n_effective(self):
        ev = twcs_evidence([0.8, 0.8, 0.8], n_annotated=9)
        # Zero between-cluster variance: deff floors, n_eff inflates.
        assert ev.n_effective > 9

    def test_rejects_zero_annotations(self):
        with pytest.raises(ValidationError):
            twcs_evidence([0.5, 0.6], n_annotated=0)


class TestKishDesignEffect:
    def test_matches_definition(self):
        mu, var, n = 0.8, 0.005, 40
        expected = var / (mu * (1 - mu) / n)
        assert kish_design_effect(mu, var, n) == pytest.approx(expected)

    def test_boundary_mu_returns_one(self):
        assert kish_design_effect(1.0, 0.0, 30) == 1.0
        assert kish_design_effect(0.0, 0.0, 30) == 1.0

    def test_zero_variance_floors(self):
        deff = kish_design_effect(0.5, 0.0, 30)
        assert 0 < deff < 1e-2

    def test_clipping(self):
        assert kish_design_effect(0.5, 1e9, 30) <= 1e3

    def test_rejects_zero_n(self):
        with pytest.raises(ValidationError):
            kish_design_effect(0.5, 0.01, 0)
