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
    posterior_counts_batch,
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

        One vectorised HPD solve over every prior's posteriors stacked
        (``P * N`` rows); the kernel is row-independent, so each row
        equals a per-prior solve bit for bit.  Ties resolve to the
        earliest prior, matching the scalar ``min`` over insertion
        order.  The winning prior of each element is preserved as its
        label, like the scalar path's ``aHPD[<prior>]`` annotation.
        """
        alpha = check_alpha(alpha)
        _, _, n_eff, tau_eff = evidence_arrays(evidences)
        tau, failures = posterior_counts_batch(tau_eff, n_eff)
        # Row p * N + i is prior p's posterior for evidence i: the same
        # additions as one posterior_shapes_batch per prior, stacked.
        lowers, uppers = hpd_bounds_batch(
            np.add.outer([prior.a for prior in self.priors], tau).ravel(),
            np.add.outer([prior.b for prior in self.priors], failures).ravel(),
            alpha,
        )
        lowers = lowers.reshape(len(self.priors), -1)
        uppers = uppers.reshape(len(self.priors), -1)
        widths = uppers - lowers
        best_width = widths[0]
        winner = np.zeros(widths.shape[1], dtype=int)
        for prior_index in range(1, len(self.priors)):
            shorter = widths[prior_index] < best_width
            best_width = np.where(shorter, widths[prior_index], best_width)
            winner[shorter] = prior_index
        columns = np.arange(widths.shape[1])
        return BatchIntervals(
            lower=lowers[winner, columns],
            upper=uppers[winner, columns],
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
