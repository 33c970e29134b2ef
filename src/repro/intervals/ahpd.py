"""The adaptive HPD (aHPD) algorithm (paper Sec. 4.5, Algorithm 1).

Choosing the right uninformative prior is impossible a priori: Kerman is
optimal in the extreme accuracy regions, Uniform in the central one, and
Jeffreys never wins (Sec. 4.4 / Fig. 3).  aHPD sidesteps the choice by
running *all* candidate priors concurrently: at every round of the
iterative evaluation it builds one HPD interval per prior and keeps the
shortest.  The first interval to meet the MoE threshold halts the
evaluation, so the most efficient competitor always decides convergence.

This module implements the per-round interval selection; the loop around
it (sampling, annotation, the MoE stop rule) is
:class:`repro.evaluation.framework.KGAccuracyEvaluator` — together they
are Algorithm 1.  Informative priors (Example 2) are supported simply by
passing them in the prior set.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .._validation import check_alpha, check_not_empty
from ..estimators.base import Evidence
from ..exceptions import ValidationError
from .base import Interval, IntervalMethod
from .batch import (
    BatchIntervals,
    evidence_arrays,
    hpd_bounds_batch,
    posterior_shapes_batch,
)
from .hpd import hpd_bounds
from .posterior import BetaPosterior
from .priors import UNINFORMATIVE_PRIORS, BetaPrior

__all__ = ["AdaptiveHPD"]


class AdaptiveHPD(IntervalMethod):
    """Shortest-HPD-across-priors interval selector.

    Parameters
    ----------
    priors:
        Candidate Beta priors; defaults to the paper's trio (Kerman,
        Jeffreys, Uniform).  There is no limit on how many priors can
        compete; informative priors are allowed.
    """

    def __init__(self, priors: Sequence[BetaPrior] = UNINFORMATIVE_PRIORS):
        priors = tuple(check_not_empty(list(priors), "priors"))
        for prior in priors:
            if not isinstance(prior, BetaPrior):
                raise ValidationError(f"expected BetaPrior instances, got {type(prior)!r}")
        self.priors = priors
        self.name = "aHPD"

    def compute_all(self, evidence: Evidence, alpha: float) -> Mapping[str, Interval]:
        """One HPD interval per candidate prior (Algorithm 1, l. 14-22)."""
        intervals: dict[str, Interval] = {}
        for prior in self.priors:
            posterior = BetaPosterior.from_evidence(prior, evidence)
            lower, upper = hpd_bounds(posterior, alpha)
            intervals[prior.name] = Interval(
                lower=lower,
                upper=upper,
                alpha=alpha,
                method=f"aHPD[{prior.name}]",
            )
        return intervals

    def compute(self, evidence: Evidence, alpha: float) -> Interval:
        """The smallest competing HPD interval (Algorithm 1, l. 23)."""
        intervals = self.compute_all(evidence, alpha)
        return min(intervals.values(), key=lambda interval: interval.width)

    def compute_batch(
        self, evidences: Sequence[Evidence], alpha: float
    ) -> BatchIntervals:
        """Element-wise shortest interval across the candidate priors.

        One vectorised HPD solve per prior; ties resolve to the earliest
        prior, matching the scalar ``min`` over insertion order.  The
        winning prior of each element is preserved as its label, like
        the scalar path's ``aHPD[<prior>]`` annotation.
        """
        alpha = check_alpha(alpha)
        _, _, n_eff, tau_eff = evidence_arrays(evidences)
        best_lower = best_upper = best_width = winner = None
        for prior_index, prior in enumerate(self.priors):
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
            method=self.name,
            labels=tuple(f"aHPD[{self.priors[i].name}]" for i in winner),
        )

    def winning_prior(self, evidence: Evidence, alpha: float) -> BetaPrior:
        """Which prior produced the shortest interval for *evidence*."""
        intervals = self.compute_all(evidence, alpha)
        best_name = min(intervals, key=lambda name: intervals[name].width)
        for prior in self.priors:
            if prior.name == best_name:
                return prior
        raise AssertionError("winning prior not found")  # pragma: no cover

    def __repr__(self) -> str:
        names = ", ".join(prior.name for prior in self.priors)
        return f"AdaptiveHPD(priors=[{names}])"
