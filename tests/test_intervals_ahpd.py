"""Unit tests for the adaptive HPD algorithm (paper Algorithm 1)."""

from __future__ import annotations

import pytest

from repro.estimators.base import Evidence
from repro.exceptions import ValidationError
from repro.intervals.ahpd import AdaptiveHPD
from repro.intervals.hpd import HPDCredibleInterval
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
