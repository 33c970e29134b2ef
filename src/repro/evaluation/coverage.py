"""Empirical coverage audit of interval methods.

The paper (Sec. 3.3) notes that the long-run properties of CIs require
*coverage probability* checks — repeated re-runs of the whole evaluation
— to validate their nominal guarantees, which is impractical in the
field but perfectly practical in simulation.  This module measures, for
a true accuracy ``mu`` and sample size ``n``, how often each method's
``1 - alpha`` interval actually contains ``mu``.

Wald's under-coverage near the accuracy boundaries and the credible
intervals' calibration are both visible here, complementing the
efficiency story of the main tables.

A measurement is two stages, :func:`tau_counts` (draw) and
:func:`coverage_from_counts` (solve); the runtime's ``CoverageCell``
calls down into them, its windows drawing and its merge solving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .._validation import (
    check_alpha,
    check_positive_int,
    check_probability,
    check_rep_range,
)
from ..estimators.base import Evidence
from ..intervals.base import IntervalMethod
from ..stats.rng import RandomSource, spawn_rng

__all__ = [
    "CoverageResult",
    "empirical_coverage",
    "coverage_profile",
    "tau_counts",
    "coverage_from_counts",
]


@dataclass(frozen=True)
class CoverageResult:
    """Coverage measurement for one (method, mu, n, alpha) cell."""

    method: str
    mu: float
    n: int
    alpha: float
    coverage: float
    mean_width: float
    repetitions: int

    @property
    def nominal(self) -> float:
        """The advertised coverage ``1 - alpha``."""
        return 1.0 - self.alpha

    @property
    def shortfall(self) -> float:
        """Nominal minus empirical coverage (positive = under-coverage)."""
        return self.nominal - self.coverage


def tau_counts(
    mu: float,
    n: int,
    repetitions: int,
    rng: RandomSource = None,
    rep_range: tuple[int, int] | None = None,
) -> np.ndarray:
    """Outcome histogram of ``tau ~ Bin(n, mu)`` over a repetition window.

    Always consumes the generator exactly as the full *repetitions*-draw
    run would (one ``binomial`` call of the full size) and then restricts
    to the ``rep_range`` window, so the histograms of any partition of
    ``[0, repetitions)`` sum — integer-exactly — to the full histogram.
    That property is what lets repetition shards of a coverage cell
    merge bit-identically.
    """
    mu = check_probability(mu, "mu")
    n = check_positive_int(n, "n")
    repetitions = check_positive_int(repetitions, "repetitions")
    start, stop = check_rep_range(rep_range, repetitions)
    generator = spawn_rng(rng)
    taus = generator.binomial(n, mu, size=repetitions)
    return np.bincount(taus[start:stop], minlength=n + 1)


def coverage_from_counts(
    method: IntervalMethod,
    mu: float,
    n: int,
    alpha: float,
    counts: np.ndarray,
    repetitions: int | None = None,
) -> CoverageResult:
    """Coverage result from an outcome histogram (the solve stage).

    Each observed outcome is solved exactly once through the method's
    batch engine and weighted by its count.  *repetitions* defaults to
    ``counts.sum()``; pass it explicitly when the histogram covers only
    part of a larger design.
    """
    mu = check_probability(mu, "mu")
    n = check_positive_int(n, "n")
    alpha = check_alpha(alpha)
    counts = np.asarray(counts, dtype=np.int64)
    if repetitions is None:
        repetitions = int(counts.sum())
    observed = np.flatnonzero(counts)
    weights = counts[observed]
    evidences = [Evidence.from_counts_fast(int(tau), n) for tau in observed]
    batch = method.solve_batch(evidences, alpha)
    hits = int(weights @ batch.contains(mu))
    total_width = float(weights @ batch.width)
    return CoverageResult(
        method=method.name,
        mu=mu,
        n=n,
        alpha=alpha,
        coverage=hits / repetitions,
        mean_width=total_width / repetitions,
        repetitions=repetitions,
    )


def empirical_coverage(
    method: IntervalMethod,
    mu: float,
    n: int,
    alpha: float = 0.05,
    repetitions: int = 2_000,
    rng: RandomSource = None,
    rep_range: tuple[int, int] | None = None,
) -> CoverageResult:
    """Monte-Carlo coverage of *method* under binomial sampling.

    Draws ``tau ~ Bin(n, mu)`` *repetitions* times and reports the
    fraction of intervals containing the true ``mu`` together with the
    mean interval width.

    A ``Bin(n, mu)`` draw has only ``n + 1`` distinct outcomes, so the
    repetitions are aggregated by unique ``tau`` (:func:`tau_counts`)
    and each observed outcome is solved exactly once through the
    method's batch engine (:func:`coverage_from_counts`) — at the
    paper's settings (n=30, 2,000 repetitions) that is at most 31
    interval solves per cell instead of 2,000, with bit-identical
    coverage counts.

    *rep_range* measures coverage over a half-open window of the same
    draw stream (the generator is consumed identically either way), as
    used by repetition sharding.
    """
    mu = check_probability(mu, "mu")
    n = check_positive_int(n, "n")
    alpha = check_alpha(alpha)
    repetitions = check_positive_int(repetitions, "repetitions")
    start, stop = check_rep_range(rep_range, repetitions)
    counts = tau_counts(mu, n, repetitions, rng=rng, rep_range=(start, stop))
    return coverage_from_counts(
        method, mu, n, alpha, counts, repetitions=stop - start
    )


def coverage_profile(
    method: IntervalMethod,
    mus: Sequence[float],
    n: int,
    alpha: float = 0.05,
    repetitions: int = 2_000,
    seed: int = 0,
) -> list[CoverageResult]:
    """Coverage of *method* across an accuracy sweep (one seed per mu).

    Mu ``i`` runs :func:`empirical_coverage` on seed ``seed + i``; to
    fan a sweep out over workers, run one ``CoverageCell`` per mu (with
    those seeds) as a runtime plan — each cell equals its call here.
    """
    return [
        empirical_coverage(
            method,
            mu,
            n,
            alpha=alpha,
            repetitions=repetitions,
            rng=spawn_rng(seed + i),
        )
        for i, mu in enumerate(mus)
    ]
