"""Unit tests for the adaptive HPD algorithm (paper Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.estimators.base import Evidence
from repro.exceptions import IntervalError, ValidationError
from repro.experiments.example2 import EXAMPLE2_INFORMATIVE_PRIORS
from repro.intervals.ahpd import AdaptiveHPD
from repro.intervals.batch import (
    BatchIntervals,
    evidence_arrays,
    hpd_bounds_batch,
    posterior_counts_batch,
    posterior_shapes_batch,
)
from repro.intervals.hpd import HPDCredibleInterval
from repro.intervals.kernels import SolverKernel
from repro.intervals.priors import JEFFREYS, KERMAN, UNIFORM, BetaPrior


class TestCompute:
    def test_picks_shortest_across_priors(self):
        ahpd = AdaptiveHPD()
        ev = Evidence.from_counts(27, 30)
        chosen = ahpd.compute(ev, 0.05)
        for prior in (KERMAN, JEFFREYS, UNIFORM):
            single = HPDCredibleInterval(prior=prior).compute(ev, 0.05)
            assert chosen.width <= single.width + 1e-12

    def test_method_label_carries_prior(self):
        ahpd = AdaptiveHPD()
        interval = ahpd.compute(Evidence.from_counts(27, 30), 0.05)
        assert interval.method.startswith("aHPD[")

    def test_compute_all_has_every_prior(self):
        ahpd = AdaptiveHPD()
        intervals = ahpd.compute_all(Evidence.from_counts(20, 30), 0.05)
        assert set(intervals) == {"Kerman", "Jeffreys", "Uniform"}

    def test_kerman_wins_extreme_region(self):
        # Fig. 3: Kerman is optimal near the accuracy boundaries.
        ahpd = AdaptiveHPD()
        winner = ahpd.winning_prior(Evidence.from_counts(30, 30), 0.05)
        assert winner.name == "Kerman"

    def test_uniform_wins_central_region(self):
        # Fig. 3: Uniform is optimal in the centre.
        ahpd = AdaptiveHPD()
        winner = ahpd.winning_prior(Evidence.from_counts(15, 30), 0.05)
        assert winner.name == "Uniform"

    def test_jeffreys_never_wins_sweep(self):
        # Sec. 4.4: Jeffreys is never the most efficient choice.
        ahpd = AdaptiveHPD()
        for tau in range(0, 31):
            winner = ahpd.winning_prior(Evidence.from_counts(tau, 30), 0.05)
            assert winner.name != "Jeffreys", f"Jeffreys won at tau={tau}"


class TestPriorSets:
    def test_informative_priors_accepted(self):
        priors = (BetaPrior(80, 20, name="A"), BetaPrior(90, 10, name="B"))
        ahpd = AdaptiveHPD(priors=priors)
        interval = ahpd.compute(Evidence.from_counts(27, 30), 0.05)
        assert interval.method in ("aHPD[A]", "aHPD[B]")

    def test_informative_prior_shortens_interval(self):
        # Example 2's premise: a good informative prior beats the trio.
        ev = Evidence.from_counts(26, 30)
        uninformative = AdaptiveHPD().compute(ev, 0.05)
        informed = AdaptiveHPD(
            priors=(KERMAN, JEFFREYS, UNIFORM, BetaPrior(85, 15, name="I"))
        ).compute(ev, 0.05)
        assert informed.width <= uninformative.width

    def test_single_prior_allowed(self):
        ahpd = AdaptiveHPD(priors=(JEFFREYS,))
        single = HPDCredibleInterval(prior=JEFFREYS).compute(
            Evidence.from_counts(20, 30), 0.05
        )
        adaptive = ahpd.compute(Evidence.from_counts(20, 30), 0.05)
        assert adaptive.lower == pytest.approx(single.lower)
        assert adaptive.upper == pytest.approx(single.upper)

    def test_rejects_empty_priors(self):
        with pytest.raises(ValidationError):
            AdaptiveHPD(priors=())

    def test_rejects_non_prior(self):
        with pytest.raises(ValidationError):
            AdaptiveHPD(priors=("Jeffreys",))  # type: ignore[arg-type]

    def test_rejects_unknown_solver(self):
        # aHPD always runs the Newton solver; there is no knob to pass.
        with pytest.raises(TypeError):
            AdaptiveHPD(solver="bogus")
        with pytest.raises(TypeError):
            AdaptiveHPD(solver="newton")

    def test_repr_lists_priors(self):
        text = repr(AdaptiveHPD())
        assert "Kerman" in text and "Uniform" in text


class TestLimitingCases:
    def test_all_correct_uses_limiting_case(self):
        interval = AdaptiveHPD().compute(Evidence.from_counts(30, 30), 0.05)
        assert interval.upper == 1.0

    def test_all_incorrect_uses_limiting_case(self):
        interval = AdaptiveHPD().compute(Evidence.from_counts(0, 30), 0.05)
        assert interval.lower == 0.0


def per_prior_oracle(method: AdaptiveHPD, evidences, alpha: float) -> BatchIntervals:
    """aHPD's batch selection as one ``hpd_bounds_batch`` per prior,
    keeping the earlier prior unless a later one is strictly shorter."""
    _, _, n_eff, tau_eff = evidence_arrays(evidences)
    best_lower = best_upper = best_width = winner = None
    for prior_index, prior in enumerate(method.priors):
        a, b = posterior_shapes_batch(prior, tau_eff, n_eff)
        lower, upper = hpd_bounds_batch(a, b, alpha)
        width = upper - lower
        if best_width is None:
            best_lower, best_upper, best_width = lower, upper, width
            winner = np.zeros(len(lower), dtype=int)
        else:
            shorter = width < best_width
            best_lower = np.where(shorter, lower, best_lower)
            best_upper = np.where(shorter, upper, best_upper)
            best_width = np.where(shorter, width, best_width)
            winner = np.where(shorter, prior_index, winner)
    return BatchIntervals(
        lower=best_lower,
        upper=best_upper,
        alpha=alpha,
        method=method.name,
        labels=tuple(f"aHPD[{method.priors[i].name}]" for i in winner),
    )


def integer_evidence():
    return [
        Evidence.from_counts(tau, n) for n in (1, 2, 7, 30, 120) for tau in range(n + 1)
    ]


def twcs_like_evidence():
    # Fractional effective counts, as cluster designs produce them.
    rng = np.random.default_rng(7)
    n_eff = rng.uniform(2.0, 400.0, 300)
    tau_eff = n_eff * rng.uniform(0.0, 1.0, 300)
    return [
        Evidence(
            mu_hat=t / n, variance=0.01, n_effective=n, tau_effective=t,
            n_annotated=int(n),
        )
        for n, t in zip(n_eff, tau_eff)
    ]


class TestOneNewtonBatch:
    @pytest.mark.parametrize(
        "priors",
        [None, EXAMPLE2_INFORMATIVE_PRIORS],
        ids=["uninformative", "example2-informative"],
    )
    @pytest.mark.parametrize(
        "evidence", [integer_evidence, twcs_like_evidence], ids=["integer", "twcs-like"]
    )
    @pytest.mark.parametrize("alpha", [0.05, 0.2])
    def test_equals_per_prior_oracle_bit_for_bit(self, priors, evidence, alpha):
        method = AdaptiveHPD() if priors is None else AdaptiveHPD(priors=priors)
        evidences = evidence()
        got = method.compute_batch(evidences, alpha)
        want = per_prior_oracle(method, evidences, alpha)
        assert got.lower.tobytes() == want.lower.tobytes()
        assert got.upper.tobytes() == want.upper.tobytes()
        assert got.labels == want.labels
        assert (got.alpha, got.method) == (want.alpha, want.method)

    def test_exact_ties_go_to_the_earliest_prior(self):
        twin = BetaPrior(1.0, 1.0, name="Flat")
        method = AdaptiveHPD(priors=(UNIFORM, twin, KERMAN))
        evidences = integer_evidence()
        got = method.compute_batch(evidences, 0.05)
        want = per_prior_oracle(method, evidences, 0.05)
        assert got.lower.tobytes() == want.lower.tobytes()
        assert got.upper.tobytes() == want.upper.tobytes()
        assert got.labels == want.labels
        assert "aHPD[Flat]" not in got.labels
        assert "aHPD[Uniform]" in got.labels

    def test_one_newton_call_per_solve(self, monkeypatch):
        calls = []
        newton = SolverKernel.newton_interior

        def counting(self, a, b, alpha):
            calls.append(len(a))
            return newton(self, a, b, alpha)

        monkeypatch.setattr(SolverKernel, "newton_interior", counting)
        evidences = [Evidence.from_counts(tau, 30) for tau in range(1, 30)]
        AdaptiveHPD().compute_batch(evidences, 0.05)
        assert calls == [3 * len(evidences)]

    def test_u_shaped_row_still_raises(self):
        # n_effective 0.5: the Kerman and Jeffreys posteriors are U-shaped.
        bathtub = Evidence(
            mu_hat=0.5, variance=0.25, n_effective=0.5, tau_effective=0.25,
            n_annotated=1,
        )
        evidences = [Evidence.from_counts(3, 10), bathtub]
        with pytest.raises(IntervalError, match="U-shaped"):
            AdaptiveHPD().compute_batch(evidences, 0.05)


#: Prior sets for the float pick: the paper's trio, Example 2's pair,
#: the trio plus an informative prior, and a set with an exact tie
#: (``Flat`` is ``Uniform`` under another name).
PRIOR_SETS = [
    (KERMAN, JEFFREYS, UNIFORM),
    EXAMPLE2_INFORMATIVE_PRIORS,
    (KERMAN, JEFFREYS, UNIFORM, BetaPrior(85.0, 15.0, name="Informed")),
    (UNIFORM, BetaPrior(1.0, 1.0, name="Flat"), KERMAN),
]


def outcome(solve, method: AdaptiveHPD, evidences, alpha: float) -> tuple:
    """What *solve* makes of the call: its bytes and labels, or its
    error type and text."""
    try:
        batch = solve(method, evidences, alpha)
    except (ValidationError, IntervalError) as exc:
        return type(exc), str(exc)
    return (
        batch.lower.dtype,
        batch.lower.tobytes(),
        batch.upper.tobytes(),
        batch.labels,
        batch.alpha,
        batch.method,
    )


def compute_batch(method: AdaptiveHPD, evidences, alpha: float) -> BatchIntervals:
    return method.compute_batch(evidences, alpha)


def stacked_oracle(method: AdaptiveHPD, evidences, alpha: float) -> BatchIntervals:
    """aHPD's batch selection in arrays, every prior's rows stacked into
    one ``hpd_bounds_batch`` call as ``compute_batch`` stacks them, so a
    rejected call names the same rows."""
    _, _, n_eff, tau_eff = evidence_arrays(evidences)
    tau, failures = posterior_counts_batch(tau_eff, n_eff)
    lowers, uppers = hpd_bounds_batch(
        np.add.outer([prior.a for prior in method.priors], tau).ravel(),
        np.add.outer([prior.b for prior in method.priors], failures).ravel(),
        alpha,
    )
    lowers = lowers.reshape(len(method.priors), -1)
    uppers = uppers.reshape(len(method.priors), -1)
    widths = uppers - lowers
    columns = np.arange(widths.shape[1])
    winner = np.zeros(widths.shape[1], dtype=int)
    for prior_index in range(1, len(method.priors)):
        shorter = widths[prior_index] < widths[winner, columns]
        winner[shorter] = prior_index
    return BatchIntervals(
        lower=lowers[winner, columns],
        upper=uppers[winner, columns],
        alpha=alpha,
        method=method.name,
        labels=tuple(f"aHPD[{method.priors[i].name}]" for i in winner),
    )


def integer_counts():
    """SRS outcomes, with tau at 0 and at n drawn often."""
    return st.integers(1, 400).flatmap(
        lambda n: st.one_of(st.just(0), st.just(n), st.integers(0, n)).map(
            lambda tau: Evidence.from_counts(tau, n)
        )
    )


def fractional_counts():
    """TWCS-like effective counts; below n = 1 some posteriors are U-shaped."""
    return st.tuples(st.floats(0.25, 2000.0), st.floats(0.0, 1.0)).map(
        lambda pair: Evidence(
            mu_hat=pair[1],
            variance=0.01,
            n_effective=pair[0],
            tau_effective=pair[1] * pair[0],
            n_annotated=max(1, int(pair[0])),
        )
    )


def invalid_counts():
    """Counts the batch check rejects (or lets through as NaN shapes)."""
    return st.sampled_from(
        [(31.0, 30.0), (-1.0, 30.0), (3.0, -2.0), (float("nan"), 30.0),
         (5.0, float("nan")), (30.0 + 2e-9, 30.0), (30.0 + 5e-10, 30.0)]
    ).map(lambda pair: Evidence._unchecked(0.5, 0.01, pair[1], pair[0], 30))


class TestFloatPick:
    """The counts, the stacking and the winners are handled in Python
    floats, with the array formulas' bytes, labels and errors, from a
    one-evidence round to a look-ahead batch."""

    @settings(max_examples=300, deadline=None)
    @given(
        priors=st.sampled_from(PRIOR_SETS),
        evidences=st.lists(
            st.one_of(integer_counts(), fractional_counts()), min_size=1, max_size=16
        ),
        alpha=st.floats(1e-4, 0.5),
    )
    def test_gives_the_oracle_bytes(self, priors, evidences, alpha):
        method = AdaptiveHPD(priors=priors)
        assert outcome(compute_batch, method, evidences, alpha) == outcome(
            stacked_oracle, method, evidences, alpha
        )

    @settings(max_examples=80, deadline=None)
    @given(
        valid=st.lists(integer_counts(), max_size=7),
        invalid=invalid_counts(),
        position=st.integers(0, 7),
    )
    def test_raises_the_oracle_errors(self, valid, invalid, position):
        evidences = valid[:position] + [invalid] + valid[position:]
        method = AdaptiveHPD()
        assert outcome(compute_batch, method, evidences, 0.05) == outcome(
            stacked_oracle, method, evidences, 0.05
        )

    def test_rows_out_of_order_still_raise(self, monkeypatch):
        # The picked rows get BatchIntervals' own check and text.
        from repro.intervals import ahpd

        solve = ahpd.hpd_bounds_batch
        monkeypatch.setattr(
            ahpd, "hpd_bounds_batch", lambda a, b, alpha: solve(a, b, alpha)[::-1]
        )
        with pytest.raises(ValidationError, match="out of order"):
            AdaptiveHPD().compute_batch([Evidence.from_counts(20, 30)], 0.05)
