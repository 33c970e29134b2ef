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
from .batch import _COUNTS_ERROR, _ORDER_ERROR, BatchIntervals, hpd_bounds_batch
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

        One HPD solve over every prior's posteriors stacked (``P * N``
        rows; row ``p * N + i`` is prior ``p``'s posterior for evidence
        ``i``); the kernel is row-independent, so each row equals a
        per-prior solve bit for bit.  Ties resolve to the earliest
        prior, matching the scalar ``min`` over insertion order.  The
        winning prior of each element is preserved as its label, like
        the scalar path's ``aHPD[<prior>]`` annotation.

        The work around the solve runs in Python floats: one round of
        Algorithm 1 is one evidence, and a look-ahead batch at most 15,
        where one NumPy call per step costs more than the step.  Float
        additions, subtractions and compares are the array ones, so the
        bytes are those of one
        :func:`~repro.intervals.batch.posterior_shapes_batch` and one
        ``hpd_bounds_batch`` per prior, picked with a strict ``<``.
        """
        alpha = check_alpha(alpha)
        counts = []
        for evidence in evidences:
            n, tau = float(evidence.n_effective), float(evidence.tau_effective)
            if n < 0.0 or tau < 0.0 or tau > n + 1e-9:
                raise ValidationError(_COUNTS_ERROR)
            # np.clip(tau, 0, n) past the check.  It would turn a NaN n
            # into a NaN tau; here only the failures are NaN, and
            # hpd_bounds_batch rejects either shape with one text.
            tau = min(tau, n)
            counts.append((tau, n - tau))
        shapes = [(float(prior.a), float(prior.b)) for prior in self.priors]
        lowers, uppers = hpd_bounds_batch(
            np.array([a + tau for a, _ in shapes for tau, _ in counts]),
            np.array([b + failures for _, b in shapes for _, failures in counts]),
            alpha,
        )
        lowers, uppers = lowers.tolist(), uppers.tolist()
        names = [f"aHPD[{prior.name}]" for prior in self.priors]
        size = len(counts)
        lower, upper, labels = [], [], []
        for column in range(size):
            best = column
            best_width = uppers[column] - lowers[column]
            for row in range(column + size, len(lowers), size):
                width = uppers[row] - lowers[row]
                if width < best_width:
                    best, best_width = row, width
            # BatchIntervals' own verdict and text, on the picked rows.
            if not lowers[best] <= uppers[best]:
                raise ValidationError(_ORDER_ERROR)
            lower.append(lowers[best])
            upper.append(uppers[best])
            labels.append(names[best // size])
        return BatchIntervals._of_validated_rows(
            np.array(lower, dtype=float),
            np.array(upper, dtype=float),
            alpha,
            self.name,
            tuple(labels),
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
