"""Property-based tests of the paper's theorems (hypothesis).

The HPD theorems hold for *every* annotation outcome and prior; these
properties let hypothesis explore the space:

* Theorem 1 — minimality: no same-mass interval is shorter; in
  particular HPD width <= ET width.
* Theorem 2 — density dominance: every point inside the HPD interval
  has density >= any point outside (checked on a grid).
* Theorem 3 — symmetric equivalence with ET.
* Corollaries 1-2 — limiting cases are minimal.

Every property runs on both HPD paths: the scalar :func:`hpd_bounds`
and rows of the vectorised :func:`hpd_bounds_batch` that the interval
methods use.  The last group pins both paths to the paper's defining
conditions directly: equal end-point density at interior rows, the
exact Eq. 10-11 bounds at ``tau = n`` / ``tau = 0``, the mass tolerance
at huge ``n`` and extreme ``alpha``, and a loud error for U-shaped
posteriors.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from repro.exceptions import IntervalError
from repro.intervals.batch import (
    _MASS_TOL,
    hpd_bounds_batch,
    posterior_shapes_batch,
)
from repro.intervals.et import et_bounds
from repro.intervals.hpd import hpd_bounds
from repro.intervals.posterior import BetaPosterior
from repro.intervals.priors import JEFFREYS, KERMAN, UNIFORM, BetaPrior
from repro.stats.beta import beta_cdf_batch, beta_pdf_batch

PRIORS = (KERMAN, JEFFREYS, UNIFORM)


def batch_row(post: BetaPosterior, alpha: float) -> tuple[float, float]:
    """*post*'s HPD bounds solved as a row of :func:`hpd_bounds_batch`."""
    lower, upper = hpd_bounds_batch([post.a], [post.b], alpha)
    return float(lower[0]), float(upper[0])


#: The scalar solver and the batch engine; every property holds for both.
SOLVES = (hpd_bounds, batch_row)

outcomes = st.tuples(
    st.integers(min_value=0, max_value=200),  # tau
    st.integers(min_value=1, max_value=200),  # n
).filter(lambda pair: pair[0] <= pair[1])

alphas = st.sampled_from([0.10, 0.05, 0.01])
prior_strategy = st.sampled_from(PRIORS)


@given(outcome=outcomes, alpha=alphas, prior=prior_strategy)
@settings(max_examples=150, deadline=None)
def test_hpd_mass_is_nominal(outcome, alpha, prior):
    tau, n = outcome
    post = BetaPosterior.from_counts(prior, tau, n)
    for solve in SOLVES:
        lower, upper = solve(post, alpha)
        assert post.interval_mass(lower, upper) == pytest.approx(1 - alpha, abs=1e-6)


@given(outcome=outcomes, alpha=alphas, prior=prior_strategy)
@settings(max_examples=150, deadline=None)
def test_theorem1_hpd_never_wider_than_et(outcome, alpha, prior):
    tau, n = outcome
    post = BetaPosterior.from_counts(prior, tau, n)
    l_et, u_et = et_bounds(post, alpha)
    for solve in SOLVES:
        l_h, u_h = solve(post, alpha)
        assert (u_h - l_h) <= (u_et - l_et) + 1e-7


@given(outcome=outcomes, alpha=alphas, prior=prior_strategy)
@settings(max_examples=100, deadline=None)
def test_theorem2_density_dominance(outcome, alpha, prior):
    tau, n = outcome
    post = BetaPosterior.from_counts(prior, tau, n)
    for solve in SOLVES:
        lower, upper = solve(post, alpha)
        inside = np.linspace(lower + 1e-9, upper - 1e-9, 25)
        min_inside = float(np.min(post.pdf(inside)))
        outside_points = [
            x for x in np.linspace(0.001, 0.999, 41) if not lower <= x <= upper
        ]
        if outside_points:
            max_outside = float(np.max(post.pdf(np.asarray(outside_points))))
            assert min_inside >= max_outside - 1e-6 * max(max_outside, 1.0)


@given(n=st.integers(1, 200), alpha=alphas)
@settings(max_examples=60, deadline=None)
def test_theorem3_symmetric_posterior_equals_et(n, alpha):
    # Uniform prior and a balanced outcome give a symmetric posterior.
    if n % 2 == 1:
        n += 1
    post = BetaPosterior.from_counts(UNIFORM, n // 2, n)
    assert post.is_symmetric
    l_et, u_et = et_bounds(post, alpha)
    for solve in SOLVES:
        l_h, u_h = solve(post, alpha)
        assert l_h == pytest.approx(l_et, abs=1e-6)
        assert u_h == pytest.approx(u_et, abs=1e-6)


@given(n=st.integers(1, 300), alpha=alphas, prior=prior_strategy)
@settings(max_examples=80, deadline=None)
def test_corollary1_limiting_cases_minimal(n, alpha, prior):
    for tau in (0, n):
        post = BetaPosterior.from_counts(prior, tau, n)
        l_et, u_et = et_bounds(post, alpha)
        for solve in SOLVES:
            l_h, u_h = solve(post, alpha)
            assert (u_h - l_h) <= (u_et - l_et) + 1e-9
            # Limiting-case bounds anchor at the boundary with the mass.
            if tau == 0:
                assert l_h == 0.0
            else:
                assert u_h == 1.0


@given(outcome=outcomes, prior=prior_strategy)
@settings(max_examples=100, deadline=None)
def test_nesting_in_alpha(outcome, prior):
    # Lower alpha (higher confidence) must give a wider HPD interval.
    tau, n = outcome
    post = BetaPosterior.from_counts(prior, tau, n)
    for solve in SOLVES:
        w_90 = np.diff(solve(post, 0.10))[0]
        w_95 = np.diff(solve(post, 0.05))[0]
        w_99 = np.diff(solve(post, 0.01))[0]
        assert w_90 <= w_95 + 1e-9 <= w_99 + 2e-9


@given(
    outcome=outcomes,
    alpha=alphas,
    accuracy=st.floats(0.05, 0.95),
    strength=st.floats(2.0, 150.0),
)
@settings(max_examples=100, deadline=None)
def test_informative_priors_also_satisfy_theorems(outcome, alpha, accuracy, strength):
    tau, n = outcome
    prior = BetaPrior.from_accuracy(accuracy, strength)
    post = BetaPosterior.from_counts(prior, tau, n)
    l_et, u_et = et_bounds(post, alpha)
    for solve in SOLVES:
        lower, upper = solve(post, alpha)
        assert 0.0 <= lower < upper <= 1.0
        assert post.interval_mass(lower, upper) == pytest.approx(1 - alpha, abs=1e-6)
        assert (upper - lower) <= (u_et - l_et) + 1e-7


@given(n=st.integers(2, 400))
@settings(max_examples=60, deadline=None)
def test_width_shrinks_with_sample_size(n):
    small = BetaPosterior.from_counts(JEFFREYS, round(0.9 * n), n)
    large = BetaPosterior.from_counts(JEFFREYS, round(0.9 * 4 * n), 4 * n)
    for solve in SOLVES:
        w_small = np.diff(solve(small, 0.05))[0]
        w_large = np.diff(solve(large, 0.05))[0]
        assert w_large < w_small + 1e-9


@given(
    outcome_a=outcomes,
    outcome_b=outcomes,
    prior=prior_strategy,
)
@settings(max_examples=80, deadline=None)
def test_conjugate_update_composes(outcome_a, outcome_b, prior):
    # Bayesian updating is associative: two annotation rounds equal one
    # combined round — the property the evolving-KG workflow relies on.
    tau_a, n_a = outcome_a
    tau_b, n_b = outcome_b
    step1 = BetaPosterior.from_counts(prior, tau_a, n_a)
    intermediate_prior = type(prior)(a=step1.a, b=step1.b, name="carried")
    step2 = BetaPosterior.from_counts(intermediate_prior, tau_b, n_b)
    combined = BetaPosterior.from_counts(prior, tau_a + tau_b, n_a + n_b)
    assert step2.a == pytest.approx(combined.a)
    assert step2.b == pytest.approx(combined.b)


# ----------------------------------------------------------------------
# The defining conditions, on both paths
# ----------------------------------------------------------------------


@given(n=st.integers(2, 400), alpha=alphas, prior=prior_strategy)
@settings(max_examples=60, deadline=None)
def test_equal_density_at_interior_bounds(n, alpha, prior):
    # Theorem 1's first-order condition, f(l) = f(u), at every
    # interior-mode row of one whole-outcome batch.
    taus = np.arange(n + 1, dtype=float)
    a, b = posterior_shapes_batch(prior, taus, np.full(n + 1, float(n)))
    lower, upper = hpd_bounds_batch(a, b, alpha)
    interior = np.flatnonzero((a > 1.0) & (b > 1.0))
    f_l = beta_pdf_batch(lower[interior], a[interior], b[interior])
    f_u = beta_pdf_batch(upper[interior], a[interior], b[interior])
    np.testing.assert_allclose(f_l, f_u, rtol=1e-6)
    for tau in interior[:: max(1, n // 8)]:
        post = BetaPosterior.from_counts(prior, float(tau), float(n))
        l_h, u_h = hpd_bounds(post, alpha)
        assert float(post.pdf(l_h)) == pytest.approx(float(post.pdf(u_h)), rel=1e-6)


@given(
    n=st.integers(1, 10**7),
    alpha=st.sampled_from([1e-4, 0.01, 0.05, 0.5]),
    prior=prior_strategy,
)
@settings(max_examples=80, deadline=None)
def test_eq10_eq11_limiting_bounds_are_exact(n, alpha, prior):
    # tau = n gives [qBeta(alpha), 1] (Eq. 10); tau = 0 gives
    # [0, qBeta(1 - alpha)] (Eq. 11) — closed forms, not solves.
    all_correct = BetaPosterior.from_counts(prior, n, n)
    all_wrong = BetaPosterior.from_counts(prior, 0, n)
    eq10 = (float(special.betaincinv(all_correct.a, all_correct.b, alpha)), 1.0)
    eq11 = (0.0, float(special.betaincinv(all_wrong.a, all_wrong.b, 1.0 - alpha)))
    assert hpd_bounds(all_correct, alpha) == eq10
    assert hpd_bounds(all_wrong, alpha) == eq11
    lower, upper = hpd_bounds_batch(
        [all_correct.a, all_wrong.a], [all_correct.b, all_wrong.b], alpha
    )
    assert (lower[0], upper[0]) == eq10
    assert (lower[1], upper[1]) == eq11


@pytest.mark.parametrize("n", [10**6, 10**7])
@pytest.mark.parametrize("alpha", [1e-4, 0.5])
def test_huge_n_and_extreme_alpha_meet_the_mass_tolerance(n, alpha):
    # SYN-100M-scale audits: each row either converges in the Newton
    # kernel or falls back to the scalar solver, and meets _MASS_TOL
    # either way — on both paths.
    taus = np.array(
        [0, 1, 2, n // 1000, n // 2, n - n // 1000, n - 2, n - 1, n], dtype=float
    )
    for prior in PRIORS:
        a, b = posterior_shapes_batch(prior, taus, np.full(taus.size, float(n)))
        lower, upper = hpd_bounds_batch(a, b, alpha)
        assert np.all((0.0 <= lower) & (lower < upper) & (upper <= 1.0))
        mass = beta_cdf_batch(upper, a, b) - beta_cdf_batch(lower, a, b)
        assert np.all(np.abs(mass - (1.0 - alpha)) <= _MASS_TOL)
        for tau in taus:
            post = BetaPosterior.from_counts(prior, tau, float(n))
            l_h, u_h = hpd_bounds(post, alpha)
            assert 0.0 <= l_h < u_h <= 1.0
            assert abs(post.interval_mass(l_h, u_h) - (1.0 - alpha)) <= _MASS_TOL


@given(
    a=st.floats(0.01, 0.99),
    b=st.floats(0.01, 0.99),
    alpha=alphas,
)
@settings(max_examples=60, deadline=None)
def test_u_shaped_posteriors_raise_interval_error(a, b, alpha):
    # Both shape parameters below 1: the HPD region is two disjoint
    # tails, not an interval.  Both paths refuse loudly, and one such
    # row fails the whole batch.
    post = BetaPosterior(a=a, b=b, prior=JEFFREYS)
    with pytest.raises(IntervalError, match="U-shaped"):
        hpd_bounds(post, alpha)
    with pytest.raises(IntervalError, match="1 batch row"):
        hpd_bounds_batch([12.0, a, 3.0], [4.0, b, 30.0], alpha)
