"""Vectorised batch interval engine.

The paper's headline experiments are Monte-Carlo loops that call an
interval solver thousands of times per cell — yet a ``Bin(n, mu)`` draw
has only ``n + 1`` distinct outcomes, and every interval family here is
either a closed form or a two-equation root-find.  This module moves
both observations to array level:

* :class:`BatchIntervals` — a struct-of-arrays interval container that
  mirrors :class:`~repro.intervals.base.Interval` element-wise;
* closed-form batch bounds for Wald, Wilson, Agresti-Coull,
  Clopper-Pearson, arcsine, logit, and ET;
* :func:`hpd_bounds_batch` — a vectorised damped-Newton HPD solver over
  arrays of ``(a, b)`` posterior shape parameters, with the same shape
  dispatch as the scalar :func:`~repro.intervals.hpd.hpd_bounds`
  (interior / increasing / decreasing / flat masks, bathtub rejection)
  and a per-row scalar fallback for the rare non-converged posterior.

Small HPD calls run row by row.  A call of at most
:data:`~repro.intervals.kernels.ROW_PATH_MAX` rows (one aHPD round of
Algorithm 1 is 3 rows) does its shape dispatch, closed forms and
posterior-mass check one row at a time in Python floats, and the Newton
kernel iterates its interior rows the same way; a larger call does all
of it with masks over arrays.  The size of the call selects the path,
nothing else does, and the two give the same bytes: the row code calls
the same special functions through :mod:`scipy.special.cython_special`
(the ufuncs' element functions, without the per-call ufunc dispatch
that made a one-row call cost as much as a 30-row one) and keeps every
check in the array code's order.  :mod:`repro.intervals.kernels` lists
the equivalences this rests on.

Every concrete :class:`~repro.intervals.base.IntervalMethod` overrides
``compute_batch`` to land here; the abstract default falls back to a
per-element ``compute`` loop, so third-party methods stay correct
without opting in.  Batch and scalar paths agree to ~1e-8 (the property
tests in ``tests/test_intervals_batch.py`` enforce this), so consumers
may freely choose whichever shape fits their loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np
from scipy import special
from scipy.special import cython_special

from .._validation import check_alpha
from ..exceptions import IntervalError, ValidationError
from ..stats.beta import (
    _beta_cdf_raw,
    _beta_ppf_raw,
    beta_ppf_batch,
)
from .base import Interval, critical_value
from . import kernels
from .kernels import KERNEL
from .posterior import BetaPosterior
from .priors import BetaPrior

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..estimators.base import Evidence

__all__ = [
    "BatchIntervals",
    "compute_batch_pooled",
    "evidence_arrays",
    "posterior_counts_batch",
    "posterior_shapes_batch",
    "wald_bounds_batch",
    "wilson_bounds_batch",
    "agresti_coull_bounds_batch",
    "clopper_pearson_bounds_batch",
    "arcsine_bounds_batch",
    "logit_bounds_batch",
    "et_bounds_batch",
    "hpd_bounds_batch",
]

#: Acceptable posterior-mass error for a solved HPD interval — shared
#: with the scalar solver in hpd.py (single source of truth; the
#: batch/scalar equivalence depends on the two validations agreeing).
#: The iteration cap lives with the kernel
#: (:data:`repro.intervals.kernels.NEWTON_MAX_ITER`).
_MASS_TOL = 1e-6
#: Display prior attached to posteriors rebuilt for the scalar fallback.
_FALLBACK_PRIOR = BetaPrior(1.0, 1.0, name="batch-fallback")
#: The two ways a batch of shapes is rejected, shared by the array and
#: row paths of :func:`hpd_bounds_batch` so both fail with one text.
_SHAPES_ERROR = "posterior shapes must be positive"
_BATHTUB_ERROR = (
    "the HPD region of a U-shaped posterior is not an interval; "
    "{rows} batch row(s) have a, b < 1"
)
#: The count and bound-order rejections, shared with
#: :meth:`repro.intervals.ahpd.AdaptiveHPD.compute_batch`, which checks
#: its counts and picked rows in Python floats.
_COUNTS_ERROR = "invalid annotation outcome in batch (tau, n) arrays"
_ORDER_ERROR = "interval bounds out of order (or NaN) in batch"


@dataclass(frozen=True)
class BatchIntervals:
    """A struct-of-arrays batch of ``1 - alpha`` intervals.

    Element ``i`` corresponds to the ``i``-th evidence (or posterior)
    passed to the producing batch call; ``batch[i]`` materialises it as
    a scalar :class:`~repro.intervals.base.Interval`.  ``labels``
    optionally carries per-element method labels for selectors whose
    scalar path annotates each result (e.g. aHPD's winning prior);
    when absent every element is labelled ``method``.
    """

    lower: np.ndarray
    upper: np.ndarray
    alpha: float
    method: str = ""
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        check_alpha(self.alpha)
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lower.shape != upper.shape:
            raise ValidationError(
                f"bound arrays must share a shape, got {lower.shape} vs {upper.shape}"
            )
        # ~(l <= u) also catches NaN rows, matching the scalar Interval.
        if np.any(~(lower <= upper)):
            raise ValidationError(_ORDER_ERROR)
        if self.labels is not None and len(self.labels) != lower.shape[0]:
            raise ValidationError(
                f"labels length {len(self.labels)} does not match "
                f"batch size {lower.shape[0]}"
            )
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @classmethod
    def _of_validated_rows(
        cls,
        lower: np.ndarray,
        upper: np.ndarray,
        alpha: float,
        method: str,
        labels: tuple[str, ...] | None,
    ) -> "BatchIntervals":
        """A batch of rows already known to pass ``__post_init__``.

        For :meth:`~repro.intervals.table.SolveTable.serve`, whose rows
        are ``compute_batch`` outputs validated on the way in (checking
        them again was about half the cost of a one-row hit), and for
        :meth:`~repro.intervals.ahpd.AdaptiveHPD.compute_batch`, which
        checks its picked rows with ``__post_init__``'s verdict and
        text.
        *alpha* must be checked, *lower* and *upper* 1-D float64 arrays
        and *labels*, if given, one per row.
        """
        batch = object.__new__(cls)
        object.__setattr__(batch, "lower", lower)
        object.__setattr__(batch, "upper", upper)
        object.__setattr__(batch, "alpha", alpha)
        object.__setattr__(batch, "method", method)
        object.__setattr__(batch, "labels", labels)
        return batch

    @classmethod
    def from_intervals(
        cls, intervals: Iterable[Interval], alpha: float, method: str = ""
    ) -> "BatchIntervals":
        """Pack scalar intervals into a batch (the loop-fallback path).

        Per-interval method labels are preserved whenever any of them
        differs from *method*, so round-tripping through the batch
        container never loses scalar-path provenance.
        """
        intervals = list(intervals)
        pairs = [(interval.lower, interval.upper) for interval in intervals]
        arr = np.asarray(pairs, dtype=float).reshape(len(pairs), 2)
        labels = tuple(interval.method for interval in intervals)
        return cls(
            lower=arr[:, 0],
            upper=arr[:, 1],
            alpha=alpha,
            method=method,
            labels=None if all(label == method for label in labels) else labels,
        )

    def __len__(self) -> int:
        return int(self.lower.shape[0])

    def __getitem__(self, index: int) -> Interval:
        return Interval(
            lower=float(self.lower[index]),
            upper=float(self.upper[index]),
            alpha=self.alpha,
            method=self.labels[index] if self.labels is not None else self.method,
        )

    def to_intervals(self) -> list[Interval]:
        """Materialise the batch as scalar :class:`Interval` values."""
        labels = self.labels if self.labels is not None else (self.method,) * len(self)
        return [
            Interval(lower=lower, upper=upper, alpha=self.alpha, method=label)
            for lower, upper, label in zip(
                self.lower.tolist(), self.upper.tolist(), labels
            )
        ]

    @property
    def width(self) -> np.ndarray:
        """Element-wise interval widths ``upper - lower``."""
        return self.upper - self.lower

    @property
    def moe(self) -> np.ndarray:
        """Element-wise margins of error (half widths)."""
        return self.width / 2.0

    @property
    def midpoint(self) -> np.ndarray:
        """Element-wise interval midpoints."""
        return (self.lower + self.upper) / 2.0

    @property
    def confidence(self) -> float:
        """The nominal level ``1 - alpha``."""
        return 1.0 - self.alpha

    def contains(self, value: float) -> np.ndarray:
        """Boolean mask of intervals containing *value* (closed ends)."""
        return (self.lower <= value) & (value <= self.upper)

    def clipped(self) -> "BatchIntervals":
        """The batch intersected with ``[0, 1]`` (presentation only)."""
        return BatchIntervals(
            lower=np.maximum(self.lower, 0.0),
            upper=np.minimum(self.upper, 1.0),
            alpha=self.alpha,
            method=self.method,
            labels=self.labels,
        )


def compute_batch_pooled(
    method, segments: Sequence[Sequence["Evidence"]], alpha: float
) -> list[BatchIntervals]:
    """One vectorised solve over externally pooled evidence segments.

    Flattens *segments* (one per caller), runs a single
    ``method.compute_batch`` over the concatenation, and slices the
    result back into one :class:`BatchIntervals` per segment.  Because
    every batch kernel in this module is row-independent — each row's
    bounds depend only on that row's evidence — the slice a caller gets
    back is bit-identical to the ``compute_batch`` it would have run
    alone.  This is the solving end of the cross-request solve broker
    (:mod:`repro.runtime.solvebatch`): N overlapping requests pay one
    vectorised solve instead of N.
    """
    segments = [tuple(segment) for segment in segments]
    flat = [evidence for segment in segments for evidence in segment]
    batch = method.compute_batch(flat, alpha)
    slices: list[BatchIntervals] = []
    offset = 0
    for segment in segments:
        stop = offset + len(segment)
        labels = None if batch.labels is None else batch.labels[offset:stop]
        if labels and all(label == batch.method for label in labels):
            # Normalise all-default label runs to None, matching what a
            # standalone compute_batch of just this segment produces.
            labels = None
        slices.append(
            BatchIntervals(
                lower=batch.lower[offset:stop].copy(),
                upper=batch.upper[offset:stop].copy(),
                alpha=batch.alpha,
                method=batch.method,
                labels=labels,
            )
        )
        offset = stop
    return slices


def posterior_shapes_batch(
    prior: BetaPrior, tau_eff: np.ndarray, n_eff: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Conjugate-update arithmetic at array level.

    The single batch-side counterpart of
    :meth:`~repro.intervals.posterior.BetaPosterior.from_counts`: the
    same validation (so invalid counts fail identically on both paths)
    followed by the same float-noise clamp of ``tau`` into ``[0, n]``.
    """
    tau, failures = posterior_counts_batch(tau_eff, n_eff)
    return prior.a + tau, prior.b + failures


def posterior_counts_batch(
    tau_eff: np.ndarray, n_eff: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The validated ``(tau, n - tau)`` every prior's update adds to.

    :func:`posterior_shapes_batch` minus the prior, so a selector over
    several priors (aHPD) validates and clamps its counts once.
    """
    n = np.asarray(n_eff, dtype=float)
    tau = np.asarray(tau_eff, dtype=float)
    if ((n < 0.0) | (tau < 0.0) | (tau > n + 1e-9)).any():
        raise ValidationError(_COUNTS_ERROR)
    # Past the check tau >= 0 (or NaN), so np.clip(tau, 0.0, n) reduces
    # to its upper clamp; a -0.0 it would turn into 0.0 adds the same.
    tau = np.minimum(tau, n)
    return tau, n - tau


def evidence_arrays(
    evidences: Sequence["Evidence"],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Columns ``(mu_hat, variance, n_effective, tau_effective)``.

    The shared evidence-to-arrays gather used by every batch override.
    """
    count = len(evidences)
    mu = np.empty(count, dtype=float)
    variance = np.empty(count, dtype=float)
    n_eff = np.empty(count, dtype=float)
    tau_eff = np.empty(count, dtype=float)
    for i, evidence in enumerate(evidences):
        mu[i] = evidence.mu_hat
        variance[i] = evidence.variance
        n_eff[i] = evidence.n_effective
        tau_eff[i] = evidence.tau_effective
    return mu, variance, n_eff, tau_eff


# ----------------------------------------------------------------------
# Closed-form frequentist families
# ----------------------------------------------------------------------


def wald_bounds_batch(
    mu: np.ndarray, variance: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised Wald bounds ``mu ± z sqrt(V)``."""
    z = critical_value(alpha)
    half = z * np.sqrt(np.asarray(variance, dtype=float))
    mu = np.asarray(mu, dtype=float)
    return mu - half, mu + half


def wilson_bounds_batch(
    mu: np.ndarray, n_eff: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised Wilson score bounds on the (effective) sample."""
    z = critical_value(alpha)
    mu = np.asarray(mu, dtype=float)
    n = np.asarray(n_eff, dtype=float)
    z2_over_n = z * z / n
    denom = 1.0 + z2_over_n
    centre = (mu + z2_over_n / 2.0) / denom
    spread = (z / denom) * np.sqrt(mu * (1.0 - mu) / n + z * z / (4.0 * n * n))
    return np.maximum(centre - spread, 0.0), np.minimum(centre + spread, 1.0)


def agresti_coull_bounds_batch(
    tau_eff: np.ndarray, n_eff: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised Agresti-Coull (adjusted-Wald) bounds."""
    z = critical_value(alpha)
    n_adj = np.asarray(n_eff, dtype=float) + z * z
    centre = (np.asarray(tau_eff, dtype=float) + z * z / 2.0) / n_adj
    half = z * np.sqrt(centre * (1.0 - centre) / n_adj)
    return centre - half, centre + half


def clopper_pearson_bounds_batch(
    tau_eff: np.ndarray, n_eff: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised Clopper-Pearson tail-inversion bounds."""
    alpha = check_alpha(alpha)
    tau = np.asarray(tau_eff, dtype=float)
    n = np.asarray(n_eff, dtype=float)
    failures = n - tau
    # Guard each bound's Beta shape only where that bound is pinned at
    # the boundary and the betaincinv output is discarded.
    tau_safe = np.where(tau > 0.0, tau, 1.0)
    fail_safe = np.where(failures > 0.0, failures, 1.0)
    lower = np.where(
        tau > 0.0,
        special.betaincinv(tau_safe, failures + 1.0, alpha / 2.0),
        0.0,
    )
    upper = np.where(
        failures > 0.0,
        special.betaincinv(tau + 1.0, fail_safe, 1.0 - alpha / 2.0),
        1.0,
    )
    return np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)


def arcsine_bounds_batch(
    mu: np.ndarray, n_eff: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised arcsine-square-root transformed bounds."""
    z = critical_value(alpha)
    mu = np.asarray(mu, dtype=float)
    n = np.asarray(n_eff, dtype=float)
    centre = np.arcsin(np.sqrt(mu))
    half = z / (2.0 * np.sqrt(n))
    lower = np.sin(np.maximum(centre - half, 0.0)) ** 2
    upper = np.sin(np.minimum(centre + half, np.pi / 2.0)) ** 2
    return lower, upper


def logit_bounds_batch(
    tau_eff: np.ndarray, n_eff: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised logit-scale Wald bounds with Anscombe correction."""
    z = critical_value(alpha)
    tau = np.asarray(tau_eff, dtype=float)
    n = np.asarray(n_eff, dtype=float)
    failures = n - tau
    unanimous = (tau <= 0.0) | (failures <= 0.0)
    tau = np.where(unanimous, tau + 0.5, tau)
    failures = np.where(unanimous, failures + 0.5, failures)
    n = np.where(unanimous, tau + failures, n)
    centre = np.log(tau / failures)
    spread = z * np.sqrt(n / (tau * failures))
    lower = special.expit(centre - spread)
    upper = special.expit(centre + spread)
    return np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)


# ----------------------------------------------------------------------
# Credible families over arrays of Beta posteriors
# ----------------------------------------------------------------------


def et_bounds_batch(
    a: np.ndarray, b: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised equal-tailed bounds of ``Beta(a, b)`` posteriors."""
    alpha = check_alpha(alpha)
    lower = beta_ppf_batch(alpha / 2.0, a, b)
    upper = beta_ppf_batch(1.0 - alpha / 2.0, a, b)
    return lower, upper


def hpd_bounds_batch(
    a: np.ndarray, b: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised ``1 - alpha`` HPD bounds of ``Beta(a, b)`` posteriors.

    Shape dispatch follows the scalar solver exactly: monotone and flat
    posteriors use their closed forms (Eqs. 10-11), U-shaped posteriors
    raise :class:`~repro.exceptions.IntervalError`, and interior-mode
    rows run a damped-Newton iteration on the optimality system
    ``f(l) = f(u)``, ``F(u) - F(l) = 1 - alpha`` — each row with its
    own feasibility-limited damping.  Rows that fail to converge (or
    fail the posterior-mass validation) are re-solved one at a time
    with the robust scalar solver, so the batch result is never worse
    than the scalar path.

    A call of at most :data:`~repro.intervals.kernels.ROW_PATH_MAX`
    rows does its dispatch and validation row by row in Python floats
    (:func:`_hpd_rows`); larger calls use masks over arrays.  Both give
    the same bytes.
    """
    alpha = check_alpha(alpha)
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    if a.ndim != 1:
        raise ValidationError(f"expected 1-D shape arrays, got shape {a.shape}")
    if a.size <= kernels.ROW_PATH_MAX:
        return _hpd_rows(a, b, alpha)
    # Validate once here; the Newton loop below runs on the raw
    # (unvalidated) beta primitives, so this check is its only gate.
    if a.size and (
        not np.all(np.isfinite(a))
        or not np.all(np.isfinite(b))
        or np.any(a <= 0.0)
        or np.any(b <= 0.0)
    ):
        raise ValidationError(_SHAPES_ERROR)

    a_gt1, b_gt1 = a > 1.0, b > 1.0
    interior = a_gt1 & b_gt1
    increasing = a_gt1 & ~b_gt1
    decreasing = b_gt1 & ~a_gt1
    flat = (a == 1.0) & (b == 1.0)
    bathtub = ~(interior | increasing | decreasing | flat)
    if bathtub.any():
        raise IntervalError(_BATHTUB_ERROR.format(rows=int(bathtub.sum())))

    lower = np.zeros_like(a)
    upper = np.ones_like(a)
    if increasing.any():
        lower[increasing] = _beta_ppf_raw(alpha, a[increasing], b[increasing])
    if decreasing.any():
        upper[decreasing] = _beta_ppf_raw(1.0 - alpha, a[decreasing], b[decreasing])
    if flat.any():
        lower[flat] = alpha / 2.0
        upper[flat] = 1.0 - alpha / 2.0
    if interior.any():
        idx = np.flatnonzero(interior)
        lo, hi = _newton_batch(a[idx], b[idx], alpha)
        lower[idx] = lo
        upper[idx] = hi
    return lower, upper


def _hpd_rows(
    a: np.ndarray, b: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`hpd_bounds_batch`'s validation and dispatch, row by row.

    The same checks with the same verdicts and texts (every shape is
    validated before any row is dispatched, and U-shaped rows are
    counted over the whole call), the same closed forms as scalar calls
    of the same special functions, and the interior rows still go to
    :func:`_newton_batch` together.
    """
    a_rows, b_rows = a.tolist(), b.tolist()
    for value in a_rows + b_rows:
        if not (math.isfinite(value) and value > 0.0):
            raise ValidationError(_SHAPES_ERROR)
    lower = [0.0] * len(a_rows)
    upper = [1.0] * len(a_rows)
    interior, bathtub = [], 0
    for i, (a_i, b_i) in enumerate(zip(a_rows, b_rows)):
        if a_i > 1.0 and b_i > 1.0:
            interior.append(i)
        elif a_i > 1.0:  # increasing
            lower[i] = cython_special.betaincinv(a_i, b_i, alpha)
        elif b_i > 1.0:  # decreasing
            upper[i] = cython_special.betaincinv(a_i, b_i, 1.0 - alpha)
        elif a_i == 1.0 and b_i == 1.0:  # flat
            lower[i] = alpha / 2.0
            upper[i] = 1.0 - alpha / 2.0
        else:
            bathtub += 1
    if bathtub:
        raise IntervalError(_BATHTUB_ERROR.format(rows=bathtub))
    if interior:
        lo, hi = _newton_batch(a[interior], b[interior], alpha)
        for i, lo_i, hi_i in zip(interior, lo.tolist(), hi.tolist()):
            lower[i] = lo_i
            upper[i] = hi_i
    return np.array(lower, dtype=float), np.array(upper, dtype=float)


def _newton_batch(
    a: np.ndarray, b: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """Damped-Newton HPD solve over interior-mode posterior rows.

    :data:`~repro.intervals.kernels.KERNEL` iterates the interior rows
    to ``(lower, upper, failed)``; the posterior-mass validation and
    the per-row scalar fallback below keep the batch result never worse
    than the scalar path.  The kernel runs on the raw (validation-free)
    beta primitives: ``hpd_bounds_batch`` validated the shapes already,
    and re-validating four times per iteration was the dominant cost of
    the small batches the memoised evaluator path produces.  A call of
    at most :data:`~repro.intervals.kernels.ROW_PATH_MAX` rows checks
    the mass row by row, with the same verdicts.
    """
    target = 1.0 - alpha
    lower, upper, failed = KERNEL.newton_interior(a, b, alpha)

    # Validate every row exactly as the scalar path does; anything that
    # missed the mass tolerance joins the scalar-fallback set.
    if len(a) <= kernels.ROW_PATH_MAX:
        rows = zip(
            a.tolist(), b.tolist(), lower.tolist(), upper.tolist(), failed.tolist()
        )
        bad = [
            i
            for i, (a_i, b_i, lo, hi, row_failed) in enumerate(rows)
            if row_failed
            or not (math.isfinite(lo) and math.isfinite(hi))
            or lo < 0.0
            or hi > 1.0
            or lo >= hi
            # Bounds in [0, 1] here, so the array path's clip is a no-op.
            or abs(
                cython_special.betainc(a_i, b_i, hi)
                - cython_special.betainc(a_i, b_i, lo)
                - target
            )
            > _MASS_TOL
        ]
    else:
        mass = _beta_cdf_raw(upper, a, b) - _beta_cdf_raw(lower, a, b)
        bad = np.flatnonzero(
            failed
            | ~np.isfinite(lower)
            | ~np.isfinite(upper)
            | (lower < 0.0)
            | (upper > 1.0)
            | (lower >= upper)
            | (np.abs(mass - target) > _MASS_TOL)
        )
    if len(bad):
        # Deferred import: hpd.py overrides its compute_batch through
        # this module, so the dependency must stay one-way at load time.
        from .hpd import hpd_bounds

        for i in bad:
            posterior = BetaPosterior(
                a=float(a[i]), b=float(b[i]), prior=_FALLBACK_PRIOR
            )
            lower[i], upper[i] = hpd_bounds(posterior, alpha, solver="scalar")
    return lower, upper
