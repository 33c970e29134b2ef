"""Unit tests for ET and HPD credible intervals (paper Sec. 4.2-4.3)."""

from __future__ import annotations

import pytest

from repro.estimators.base import Evidence
from repro.exceptions import IntervalError, ValidationError
from repro.intervals.et import ETCredibleInterval, et_bounds
from repro.intervals.hpd import HPD_SOLVERS, HPDCredibleInterval, hpd_bounds
from repro.intervals.posterior import BetaPosterior
from repro.intervals.priors import JEFFREYS, KERMAN, UNIFORM, BetaPrior


class TestETBounds:
    def test_equal_tail_mass(self):
        post = BetaPosterior.from_counts(JEFFREYS, 25, 30)
        lower, upper = et_bounds(post, 0.05)
        assert post.cdf(lower) == pytest.approx(0.025, abs=1e-9)
        assert post.cdf(upper) == pytest.approx(0.975, abs=1e-9)

    def test_interval_mass_is_nominal(self):
        post = BetaPosterior.from_counts(KERMAN, 10, 40)
        lower, upper = et_bounds(post, 0.10)
        assert post.interval_mass(lower, upper) == pytest.approx(0.90, abs=1e-9)

    def test_method_object(self):
        ev = Evidence.from_counts(25, 30)
        interval = ETCredibleInterval(prior=UNIFORM).compute(ev, 0.05)
        assert interval.method == "ET[Uniform]"
        assert 0.0 <= interval.lower < interval.upper <= 1.0


class TestHPDStandardCase:
    @pytest.mark.parametrize("solver", sorted(HPD_SOLVERS))
    def test_mass_constraint(self, solver):
        post = BetaPosterior.from_counts(JEFFREYS, 27, 30)
        lower, upper = hpd_bounds(post, 0.05, solver=solver)
        assert post.interval_mass(lower, upper) == pytest.approx(0.95, abs=1e-6)

    @pytest.mark.parametrize("solver", sorted(HPD_SOLVERS))
    def test_equal_density_at_bounds(self, solver):
        post = BetaPosterior.from_counts(JEFFREYS, 27, 30)
        lower, upper = hpd_bounds(post, 0.05, solver=solver)
        assert float(post.pdf(lower)) == pytest.approx(float(post.pdf(upper)), rel=1e-4)

    def test_solvers_agree(self):
        post = BetaPosterior.from_counts(KERMAN, 22, 30)
        reference = hpd_bounds(post, 0.05, solver="slsqp")
        for solver in ("newton", "scalar"):
            bounds = hpd_bounds(post, 0.05, solver=solver)
            assert bounds[0] == pytest.approx(reference[0], abs=1e-6)
            assert bounds[1] == pytest.approx(reference[1], abs=1e-6)

    def test_theorem1_shortest(self):
        # Theorem 1: HPD is never wider than ET (the canonical
        # alternative satisfying the same mass constraint).
        for tau in (1, 5, 15, 27, 29):
            post = BetaPosterior.from_counts(JEFFREYS, tau, 30)
            l_et, u_et = et_bounds(post, 0.05)
            l_h, u_h = hpd_bounds(post, 0.05)
            assert (u_h - l_h) <= (u_et - l_et) + 1e-9

    def test_theorem3_symmetric_equivalence(self):
        # Theorem 3: symmetric posterior -> HPD == ET.
        post = BetaPosterior.from_counts(UNIFORM, 15, 30)
        assert post.is_symmetric
        l_et, u_et = et_bounds(post, 0.05)
        l_h, u_h = hpd_bounds(post, 0.05)
        assert l_h == pytest.approx(l_et, abs=1e-7)
        assert u_h == pytest.approx(u_et, abs=1e-7)

    def test_contains_mode(self):
        post = BetaPosterior.from_counts(JEFFREYS, 27, 30)
        lower, upper = hpd_bounds(post, 0.05)
        assert lower < post.mode < upper

    def test_skewed_hpd_shifts_toward_mode(self):
        # Left-skewed posterior: HPD sits right of ET (paper Fig. 2).
        post = BetaPosterior.from_counts(JEFFREYS, 27, 30)
        l_et, u_et = et_bounds(post, 0.05)
        l_h, u_h = hpd_bounds(post, 0.05)
        assert l_h > l_et
        assert u_h > u_et


class TestHPDLimitingCases:
    def test_all_correct_eq10(self):
        # tau = n, uninformative prior: l = qBeta(alpha), u = 1.
        post = BetaPosterior.from_counts(JEFFREYS, 30, 30)
        lower, upper = hpd_bounds(post, 0.05)
        assert upper == 1.0
        assert post.cdf(lower) == pytest.approx(0.05, abs=1e-9)

    def test_all_incorrect_eq11(self):
        post = BetaPosterior.from_counts(JEFFREYS, 0, 30)
        lower, upper = hpd_bounds(post, 0.05)
        assert lower == 0.0
        assert post.cdf(upper) == pytest.approx(0.95, abs=1e-9)

    def test_corollary1_shortest(self):
        # The limiting-case interval is shorter than the ET alternative.
        post = BetaPosterior.from_counts(JEFFREYS, 30, 30)
        l_et, u_et = et_bounds(post, 0.05)
        l_h, u_h = hpd_bounds(post, 0.05)
        assert (u_h - l_h) <= (u_et - l_et) + 1e-12

    def test_flat_posterior_central(self):
        post = BetaPosterior.from_counts(UNIFORM, 0, 0)
        lower, upper = hpd_bounds(post, 0.05)
        assert lower == pytest.approx(0.025)
        assert upper == pytest.approx(0.975)

    def test_bathtub_raises(self):
        post = BetaPosterior.from_counts(KERMAN, 0, 0)
        with pytest.raises(IntervalError):
            hpd_bounds(post, 0.05)


class TestHPDMethodObject:
    def test_compute(self):
        ev = Evidence.from_counts(27, 30)
        interval = HPDCredibleInterval(prior=KERMAN).compute(ev, 0.05)
        assert interval.method == "HPD[Kerman]"
        assert 0.0 <= interval.lower < interval.upper <= 1.0

    def test_informative_prior_all_correct_is_standard_case(self):
        # Informative prior keeps an interior mode even when tau = n.
        ev = Evidence.from_counts(30, 30)
        interval = HPDCredibleInterval(prior=BetaPrior(80, 20)).compute(ev, 0.05)
        assert interval.upper < 1.0

    def test_rejects_unknown_solver(self):
        # The method always runs the Newton solver; only hpd_bounds
        # takes a solver name (the ablation and the test oracles).
        with pytest.raises(TypeError):
            HPDCredibleInterval(solver="gradient-descent")
        with pytest.raises(TypeError):
            HPDCredibleInterval(solver="slsqp")

    def test_hpd_bounds_rejects_unknown_solver(self):
        post = BetaPosterior.from_counts(JEFFREYS, 10, 30)
        with pytest.raises(ValidationError):
            hpd_bounds(post, 0.05, solver="nope")

    def test_boundary_mode_falls_back_to_scalar(self):
        # Extreme design-effect posteriors push the mode within 1e-12 of
        # a boundary; Newton defers to the scalar solver transparently.
        post = BetaPosterior(a=1e8, b=1.000001, prior=JEFFREYS)
        lower, upper = hpd_bounds(post, 0.05, solver="newton")
        assert 0.0 < lower < upper <= 1.0
        assert post.interval_mass(lower, upper) == pytest.approx(0.95, abs=1e-6)

    def test_fractional_effective_counts(self):
        # Design-effect corrected evidence produces fractional counts.
        ev = Evidence(
            mu_hat=0.9, variance=0.002, n_effective=45.5, tau_effective=40.95, n_annotated=60
        )
        interval = HPDCredibleInterval().compute(ev, 0.05)
        assert 0.0 < interval.lower < interval.upper <= 1.0
