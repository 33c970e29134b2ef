"""Beta distribution helpers built on :mod:`scipy.special` primitives.

The interval-estimation code needs the Beta pdf / cdf / quantile plus a
handful of shape diagnostics (mode, skewness).  We implement them here on
top of the regularised incomplete beta function and its inverse rather
than going through ``scipy.stats.beta`` object construction, which is an
order of magnitude slower in the tight loops used by the iterative
evaluation framework.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .._validation import check_positive, check_probability
from ..exceptions import ValidationError

__all__ = [
    "BetaParameters",
    "beta_pdf",
    "beta_cdf",
    "beta_ppf",
    "beta_pdf_batch",
    "beta_cdf_batch",
    "beta_ppf_batch",
    "beta_mean",
    "beta_mode",
    "beta_variance",
    "beta_std",
    "beta_skewness",
    "beta_interval_mass",
]


@dataclass(frozen=True)
class BetaParameters:
    """A validated ``Beta(a, b)`` parameter pair.

    Attributes
    ----------
    a:
        The "successes" shape parameter; strictly positive.
    b:
        The "failures" shape parameter; strictly positive.
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        check_positive(self.a, "a")
        check_positive(self.b, "b")

    @property
    def mean(self) -> float:
        """Distribution mean ``a / (a + b)``."""
        return beta_mean(self.a, self.b)

    @property
    def variance(self) -> float:
        """Distribution variance."""
        return beta_variance(self.a, self.b)

    @property
    def mode(self) -> float:
        """Distribution mode (see :func:`beta_mode` for edge cases)."""
        return beta_mode(self.a, self.b)

    @property
    def skewness(self) -> float:
        """Distribution skewness (see :func:`beta_skewness`)."""
        return beta_skewness(self.a, self.b)

    @property
    def is_symmetric(self) -> bool:
        """Whether the density is symmetric about 1/2 (``a == b``)."""
        return self.a == self.b

    @property
    def is_unimodal_interior(self) -> bool:
        """Whether the density has a single interior mode (``a, b > 1``)."""
        return self.a > 1.0 and self.b > 1.0


def beta_pdf(x, a: float, b: float):
    """Beta probability density, vectorised over *x*.

    Computed in log space to stay finite for the large posterior shape
    parameters produced by long annotation runs.
    """
    a = check_positive(a, "a")
    b = check_positive(b, "b")
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x, dtype=float)
    inside = (x >= 0.0) & (x <= 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_density = (
            special.xlogy(a - 1.0, x)
            + special.xlog1py(b - 1.0, -x)
            - special.betaln(a, b)
        )
    out = np.where(inside, np.exp(log_density), 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def beta_cdf(x, a: float, b: float):
    """Beta cumulative distribution function, vectorised over *x*."""
    a = check_positive(a, "a")
    b = check_positive(b, "b")
    x = np.asarray(x, dtype=float)
    clipped = np.clip(x, 0.0, 1.0)
    out = special.betainc(a, b, clipped)
    if out.ndim == 0:
        return float(out)
    return out


def beta_ppf(q, a: float, b: float):
    """Beta quantile function (inverse CDF), vectorised over *q*."""
    a = check_positive(a, "a")
    b = check_positive(b, "b")
    q_arr = np.asarray(q, dtype=float)
    if np.any((q_arr < 0.0) | (q_arr > 1.0)):
        raise ValidationError(f"quantile levels must be in [0, 1], got {q!r}")
    out = special.betaincinv(a, b, q_arr)
    if out.ndim == 0:
        return float(out)
    return out


def _check_positive_array(values, name: str) -> np.ndarray:
    """Validate an array of strictly positive, finite shape parameters."""
    arr = np.asarray(values, dtype=float)
    if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr <= 0.0)):
        raise ValidationError(f"{name} must be finite and > 0, got {values!r}")
    return arr


def _beta_pdf_raw(x: np.ndarray, am1, bm1, lnb) -> np.ndarray:
    """Beta densities at *x* from ``a - 1``, ``b - 1`` and ``betaln(a, b)``.

    :func:`beta_pdf_batch` arithmetic without argument validation, on
    shape constants the caller computes: the HPD Newton kernel holds
    them fixed for a whole solve and evaluates two densities per step.
    Callers must have validated ``(a, b)`` already and hold an
    ``np.errstate`` guard for the log-space corner cases.
    """
    inside = (x >= 0.0) & (x <= 1.0)
    log_density = special.xlogy(am1, x) + special.xlog1py(bm1, -x) - lnb
    return np.where(inside, np.exp(log_density), 0.0)


def beta_pdf_batch(x, a, b) -> np.ndarray:
    """Beta density, vectorised over *x* **and** the shape parameters.

    The scalar-parameter :func:`beta_pdf` serves one posterior at a time;
    this variant broadcasts ``(x, a, b)`` together so the batch interval
    engine can evaluate one density per posterior in a single call.
    """
    a = _check_positive_array(a, "a")
    b = _check_positive_array(b, "b")
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _beta_pdf_raw(x, a - 1.0, b - 1.0, special.betaln(a, b))


def _beta_cdf_raw(x, a, b) -> np.ndarray:
    """:func:`beta_cdf_batch` arithmetic without argument validation."""
    # minimum(maximum(x)) is np.clip's own definition, minus the
    # dispatch wrapper — bit-identical, measurably cheaper on the tiny
    # arrays the memoised solve path produces.
    clipped = np.minimum(np.maximum(np.asarray(x, dtype=float), 0.0), 1.0)
    return np.asarray(special.betainc(a, b, clipped), dtype=float)


def beta_cdf_batch(x, a, b) -> np.ndarray:
    """Beta CDF, vectorised over *x* **and** the shape parameters."""
    a = _check_positive_array(a, "a")
    b = _check_positive_array(b, "b")
    return _beta_cdf_raw(x, a, b)


def _beta_ppf_raw(q, a, b) -> np.ndarray:
    """:func:`beta_ppf_batch` arithmetic without argument validation."""
    return np.asarray(
        special.betaincinv(a, b, np.asarray(q, dtype=float)), dtype=float
    )


def beta_ppf_batch(q, a, b) -> np.ndarray:
    """Beta quantile function, vectorised over *q* **and** the shapes."""
    a = _check_positive_array(a, "a")
    b = _check_positive_array(b, "b")
    q_arr = np.asarray(q, dtype=float)
    if np.any((q_arr < 0.0) | (q_arr > 1.0)):
        raise ValidationError(f"quantile levels must be in [0, 1], got {q!r}")
    # Route through the raw primitive so validated and raw callers run
    # the *same* arithmetic — the batch/scalar agreement relies on it.
    return _beta_ppf_raw(q_arr, a, b)


def beta_mean(a: float, b: float) -> float:
    """Mean of ``Beta(a, b)``."""
    a = check_positive(a, "a")
    b = check_positive(b, "b")
    return a / (a + b)


def beta_variance(a: float, b: float) -> float:
    """Variance of ``Beta(a, b)``."""
    a = check_positive(a, "a")
    b = check_positive(b, "b")
    total = a + b
    return (a * b) / (total * total * (total + 1.0))


def beta_std(a: float, b: float) -> float:
    """Standard deviation of ``Beta(a, b)``."""
    return math.sqrt(beta_variance(a, b))


def beta_mode(a: float, b: float) -> float:
    """Mode of ``Beta(a, b)``.

    For ``a, b > 1`` the interior mode ``(a - 1) / (a + b - 2)`` is
    returned.  Monotone shapes return the corresponding boundary, and the
    symmetric boundary-bimodal / flat cases return 0.5 as the natural
    centre of mass.
    """
    a = check_positive(a, "a")
    b = check_positive(b, "b")
    if a > 1.0 and b > 1.0:
        return (a - 1.0) / (a + b - 2.0)
    if a <= 1.0 < b:
        return 0.0
    if b <= 1.0 < a:
        return 1.0
    if a == b:
        # Uniform (a == b == 1) or U-shaped: no unique mode; use centre.
        return 0.5
    return 0.0 if a < b else 1.0


def beta_skewness(a: float, b: float) -> float:
    """Skewness of ``Beta(a, b)``.

    Positive values indicate a right tail (mass near 0), negative values
    a left tail (mass near 1) — the common case for accurate KGs.
    """
    a = check_positive(a, "a")
    b = check_positive(b, "b")
    total = a + b
    return 2.0 * (b - a) * math.sqrt(total + 1.0) / ((total + 2.0) * math.sqrt(a * b))


def beta_interval_mass(lower: float, upper: float, a: float, b: float) -> float:
    """Posterior mass ``F(upper) - F(lower)`` of ``Beta(a, b)``."""
    lower = check_probability(lower, "lower")
    upper = check_probability(upper, "upper")
    if lower > upper:
        raise ValidationError(
            f"lower ({lower}) cannot exceed upper ({upper})"
        )
    return float(beta_cdf(upper, a, b) - beta_cdf(lower, a, b))
