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
    executor=None,
) -> list[CoverageResult]:
    """Coverage of *method* across an accuracy sweep (one seed per mu).

    With *executor* (a :class:`repro.runtime.ParallelExecutor`), the
    per-mu cells fan out over its workers and result store; the seeds
    are identical either way, so the two paths agree bit for bit.  The
    cells carry the method's *full* picklable payload (class and priors
    — see :func:`repro.runtime.cells.method_payload`), so ad-hoc
    configurations such as informative-prior aHPD take the executor
    path too.  Only a method object the payload encoder does not know
    (e.g. a user-defined subclass) stays serial, and then with an
    explicit :class:`RuntimeWarning` — never silently.
    """
    if executor is not None:
        # Imported lazily: the runtime layer sits above the evaluators,
        # so a top-level import here would be circular.
        from ..runtime import method_payload

        payload = method_payload(method)
        if payload is None:
            import warnings

            warnings.warn(
                f"coverage_profile: method {method.name!r} has no picklable "
                "runtime payload; falling back to the serial loop",
                RuntimeWarning,
                stacklevel=2,
            )
        else:
            return _coverage_profile_cells(
                method, payload, mus, n, alpha, repetitions, seed, executor
            )
    results = []
    for i, mu in enumerate(mus):
        results.append(
            empirical_coverage(
                method,
                mu,
                n,
                alpha=alpha,
                repetitions=repetitions,
                rng=spawn_rng(seed + i),
            )
        )
    return results


def _coverage_profile_cells(
    method, payload, mus, n, alpha, repetitions, seed, executor
) -> list[CoverageResult]:
    from ..runtime import CoverageCell, StudyPlan

    name = method.name
    cells = tuple(
        CoverageCell(
            key=(name, float(mu)),
            label=f"coverage-profile/{name}/mu={mu:g}",
            method=name,
            method_payload=payload,
            alpha=alpha,
            mu=float(mu),
            n=n,
            seed=seed + i,
            repetitions=repetitions,
        )
        for i, mu in enumerate(mus)
    )
    from ..experiments.config import ExperimentSettings

    settings = ExperimentSettings(repetitions=repetitions, seed=seed)
    plan = StudyPlan(settings=settings, cells=cells, name="coverage-profile")
    results = executor.run(plan).results
    return [results[(name, float(mu))] for mu in mus]
