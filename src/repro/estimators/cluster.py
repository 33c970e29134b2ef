"""The TWCS estimator (paper Eq. 3) and its design-effect adjustment.

Under Two-stage Weighted Cluster Sampling the estimator of the KG
accuracy is the unweighted mean of the per-cluster accuracies (clusters
are drawn with probability proportional to size, which makes the plain
mean unbiased), with between-cluster estimation variance

.. math::

    V(\\hat\\mu_{TWCS}) = \\frac{1}{n_C (n_C - 1)}
        \\sum_{i=1}^{n_C} (\\hat\\mu_i - \\hat\\mu_{TWCS})^2

Interval methods that assume binomial sampling (Wilson, and the Beta
posterior behind every credible interval) receive a *design-effect
corrected* effective sample size instead of the raw annotation count
(paper Algorithm 1 lines 11-13, following Kish [25, 26] and [31]).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..exceptions import InsufficientSampleError, ValidationError
from .base import Evidence

__all__ = [
    "twcs_point_estimate",
    "twcs_evidence",
    "kish_design_effect",
]

#: Guard rails for the estimated design effect.  The estimator
#: ``deff = V_cluster / (mu (1 - mu) / n)`` is noisy for small cluster
#: counts; values outside this band are numerically meaningless and are
#: clipped rather than propagated into the Beta posterior.
_DEFF_MIN = 1e-3
_DEFF_MAX = 1e3


def twcs_point_estimate(cluster_means: Sequence[float] | np.ndarray) -> tuple[float, float]:
    """Point estimate and variance from per-cluster accuracies.

    Returns ``(mu_hat, variance)``.  Requires at least two clusters —
    the between-cluster variance is undefined otherwise.
    """
    means = np.asarray(cluster_means, dtype=float)
    if means.ndim != 1:
        raise ValidationError("cluster_means must be one-dimensional")
    if means.size < 2:
        raise InsufficientSampleError(
            "TWCS variance needs at least 2 sampled clusters, got "
            f"{means.size}"
        )
    # Two reductions, not four array passes; a NaN mean fails both
    # comparisons, so it is rejected too.
    if not (np.minimum.reduce(means) >= 0.0 and np.maximum.reduce(means) <= 1.0):
        raise ValidationError("cluster means must lie in [0, 1]")
    n_c = means.size
    # NumPy's pairwise add.reduce, the sum inside mean() and sum(),
    # without their dispatch; a running Python sum would change the
    # last bits.
    mu_hat = float(np.add.reduce(means) / n_c)
    variance = float(np.add.reduce((means - mu_hat) ** 2) / (n_c * (n_c - 1)))
    return mu_hat, variance


def kish_design_effect(mu_hat: float, variance: float, n_annotated: int) -> float:
    """Kish design effect of a clustered sample.

    ``deff = V_design / V_SRS`` where ``V_SRS = mu (1 - mu) / n`` is the
    variance an SRS sample of the same size would have.  Degenerate
    outcomes (``mu_hat`` at a boundary, or zero estimated variance)
    return 1.0 — the limiting-case interval formulas take over there.
    The result is clipped to a wide sanity band to keep downstream
    posterior parameters finite.
    """
    if n_annotated <= 0:
        raise ValidationError(f"n_annotated must be > 0, got {n_annotated}")
    if mu_hat <= 0.0 or mu_hat >= 1.0:
        return 1.0
    srs_variance = mu_hat * (1.0 - mu_hat) / n_annotated
    if variance <= 0.0:
        # All cluster means identical: the estimated deff collapses to 0.
        # Return the floor rather than 0 so n_eff stays finite.
        return _DEFF_MIN
    # np.clip on one float, NaN kept.
    return float(min(max(variance / srs_variance, _DEFF_MIN), _DEFF_MAX))


def twcs_evidence(
    cluster_means: Sequence[float] | np.ndarray,
    n_annotated: int,
) -> Evidence:
    """Design-effect adjusted :class:`~repro.estimators.base.Evidence`.

    Parameters
    ----------
    cluster_means:
        Estimated accuracy of each sampled cluster (stage-2 SRS means).
    n_annotated:
        Total number of annotated triples across all clusters.
    """
    if n_annotated <= 0:
        raise ValidationError(f"n_annotated must be > 0, got {n_annotated}")
    mu_hat, variance = twcs_point_estimate(cluster_means)
    deff = kish_design_effect(mu_hat, variance, n_annotated)
    n_effective = n_annotated / deff
    # Keep the corrected posterior parameters consistent: the effective
    # "correct" count preserves the unbiased point estimate.
    tau_effective = mu_hat * n_effective
    # Means in [0, 1] and a positive count make every field valid, so
    # the evidence is not checked again.
    return Evidence._unchecked(
        mu_hat,
        variance,
        float(n_effective),
        float(tau_effective),
        int(n_annotated),
    )
