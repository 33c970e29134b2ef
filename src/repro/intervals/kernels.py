"""The damped-Newton HPD kernel: the inner loop of every HPD solve.

Every Monte-Carlo cell bottoms out in the same loop: the damped-Newton
HPD iteration over interior-mode Beta posteriors.  :class:`SolverKernel`
holds it, and :data:`KERNEL` is the one instance
:func:`repro.intervals.batch.hpd_bounds_batch` runs.  The shape
dispatch, the posterior-mass validation, and the per-row scalar fallback
around the loop stay in :mod:`repro.intervals.batch`.

The iteration has two paths, chosen by the call's row count alone:

* a call of at most :data:`ROW_PATH_MAX` rows iterates each row on its
  own in Python floats (the *row path*).  A NumPy call costs about the
  same whatever its length, and one Newton step makes ~90 of them, so
  on the one- and two-evidence aHPD rounds of Algorithm 1 (3 and 6
  rows) dispatch, not arithmetic, was the cost;
* a larger call steps its rows together over NumPy arrays (the *array
  path*), compacting the active set as rows finish.

The two paths are bit-identical: for every row they run the same IEEE
operations in the same order on the same special functions, and both
compute a row's constants (``a - 1``, ``b - 1``, ``betaln(a, b)``)
once per call.  The row path relies on these equivalences with the
array code:

* ``np.exp`` on a float is NumPy's array ``exp`` (``math.exp`` is not);
* :mod:`scipy.special.cython_special` holds the element functions of
  the ``betainc``, ``betaincinv``, ``betaln``, ``xlogy`` and
  ``xlog1py`` ufuncs, callable on floats without ufunc dispatch; a
  scalar call equals the array call element for element (``math.log1p``
  is not ``xlog1py``'s ``log1p``);
* ``xlogy(c, x)`` is ``c * math.log(x)`` for ``x > 0``;
* a division by zero, where Python raises, is redone in NumPy scalars,
  which return the array path's IEEE ``inf``/``nan``;
* ``np.minimum``/``np.maximum`` propagate NaN, and the row path's
  :func:`_minimum`/:func:`_maximum` do too (Python's ``min``/``max`` do
  not).

``tests/test_intervals_kernels.py`` forces each path on the same rows
and compares the bytes.

The method is looked up on :data:`KERNEL` at call time, so a profiler or
tracer that wraps ``SolverKernel.newton_interior`` sees every Newton
solve in the process, on either path.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special
from scipy.special import cython_special

from ..stats.beta import _beta_cdf_raw, _beta_pdf_raw, _beta_ppf_raw

__all__ = ["KERNEL", "NEWTON_MAX_ITER", "ROW_PATH_MAX", "SolverKernel"]

#: Maximum damped-Newton iterations per row — shared with the scalar
#: Newton solver in :mod:`repro.intervals.hpd`.  A row leaves the loop
#: earlier once it converges or a step leaves it unchanged; a row that
#: uses up the cap keeps its last iterate.  Reaching the cap does not
#: send a row to the scalar fallback: only the posterior-mass check in
#: :func:`repro.intervals.batch._newton_batch` does.
NEWTON_MAX_ITER = 60

#: Largest call, in rows, that takes the row path.  Set from a sweep of
#: per-call ``hpd_bounds_batch`` time over 1-48 interior aHPD rows on a
#: 2-core x86 host (recorded in CHANGES.md): the row path costs ~19 µs
#: a row, the array path ~0.33 ms a call plus ~6 µs a row, and they
#: cross at 25-26 rows.  A 45-row aHPD look-ahead batch stays on the
#: array path.  Read at call time, here and in
#: :mod:`repro.intervals.batch`, so a test can force either path by
#: patching it.
ROW_PATH_MAX = 24

#: Bracketing margin kept between the bounds, the mode and ``[0, 1]``.
_EPS = 1e-12


class SolverKernel:
    """The damped-Newton HPD iteration.

    ``newton_interior`` receives 1-D float arrays of positive, finite,
    interior-mode ``(a, b)`` (``a > 1``, ``b > 1``) and returns
    ``(lower, upper, failed)``: the iterated bounds plus a boolean mask
    of rows the caller must re-solve with the robust scalar solver.
    Rows are independent — row ``i``'s output depends only on
    ``(a[i], b[i], alpha)`` — which is what lets batches be pooled,
    sliced, and tabled bit-identically, and lets a call of at most
    :data:`ROW_PATH_MAX` rows iterate them one at a time.
    """

    def newton_interior(
        self, a: np.ndarray, b: np.ndarray, alpha: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if len(a) <= ROW_PATH_MAX:
            return _newton_rows(a, b, alpha)
        return _newton_arrays(a, b, alpha)


def _newton_arrays(
    a: np.ndarray, b: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The array path: every row stepped together."""
    target = 1.0 - alpha
    mode = (a - 1.0) / (a + b - 2.0)
    # Rows whose mode sits numerically on a boundary degenerate the
    # two-sided bracketing; send them straight to the scalar fallback.
    failed = (mode <= 2.0 * _EPS) | (mode >= 1.0 - 2.0 * _EPS)

    with np.errstate(divide="ignore", invalid="ignore"):
        lower = _beta_ppf_raw(alpha / 2.0, a, b)
        upper = _beta_ppf_raw(1.0 - alpha / 2.0, a, b)
        lower = np.minimum(np.maximum(lower, _EPS), mode - _EPS)
        upper = np.minimum(
            np.maximum(np.minimum(upper, 1.0 - _EPS), mode + _EPS), 1.0 - _EPS
        )

        active = np.flatnonzero(~failed)
        # Gather the active-row views once; the loop maintains them
        # in lock-step with ``active`` instead of re-slicing the full
        # arrays every iteration (pure bookkeeping — same values).
        a_i, b_i = a[active], b[active]
        am1_i, bm1_i = a_i - 1.0, b_i - 1.0
        lnb_i = special.betaln(a_i, b_i)
        l_i, u_i = lower[active], upper[active]
        m_i = mode[active]
        for _ in range(NEWTON_MAX_ITER):
            if active.size == 0:
                break
            f_l = _beta_pdf_raw(l_i, am1_i, bm1_i, lnb_i)
            f_u = _beta_pdf_raw(u_i, am1_i, bm1_i, lnb_i)
            mass = _beta_cdf_raw(u_i, a_i, b_i) - _beta_cdf_raw(l_i, a_i, b_i)
            r1 = f_l - f_u
            r2 = mass - target
            converged = (
                np.abs(r1) <= 1e-12 * np.maximum(np.maximum(f_l, f_u), 1.0)
            ) & (np.abs(r2) <= 1e-12)
            if converged.all():
                break
            if converged.any():
                keep = ~converged
                active = active[keep]
                a_i, b_i = a_i[keep], b_i[keep]
                am1_i, bm1_i, lnb_i = am1_i[keep], bm1_i[keep], lnb_i[keep]
                l_i, u_i = l_i[keep], u_i[keep]
                f_l, f_u = f_l[keep], f_u[keep]
                r1, r2 = r1[keep], r2[keep]
                m_i = m_i[keep]

            # Analytic 2x2 Jacobian of the optimality system.  Rows
            # whose iterate grazes a boundary produce non-finite entries
            # here and are routed to the scalar fallback below.
            j11 = f_l * (am1_i / l_i - bm1_i / (1.0 - l_i))
            j12 = -f_u * (am1_i / u_i - bm1_i / (1.0 - u_i))
            j21 = -f_l
            j22 = f_u
            det = j11 * j22 - j12 * j21
            singular = (det == 0.0) | ~np.isfinite(det)
            det = np.where(singular, 1.0, det)
            step_l = (r1 * j22 - r2 * j12) / det
            step_u = (r2 * j11 - r1 * j21) / det

            # Feasibility-limited damping: the largest per-row scale
            # that keeps ``l in (0, mode)`` and ``u in (mode, 1)``,
            # backed off to 90% so iterates stay strictly interior.
            s_l = np.where(
                step_l > 0.0,
                l_i / step_l,
                np.where(step_l < 0.0, (m_i - l_i) / -step_l, np.inf),
            )
            s_u = np.where(
                step_u < 0.0,
                (1.0 - u_i) / -step_u,
                np.where(step_u > 0.0, (u_i - m_i) / step_u, np.inf),
            )
            scale = np.minimum(1.0, 0.9 * np.minimum(s_l, s_u))
            stuck = (
                singular
                | ~np.isfinite(step_l)
                | ~np.isfinite(step_u)
                | (scale <= 1e-6)
            )
            new_l = l_i - scale * step_l
            new_u = u_i - scale * step_u
            # A row this step leaves bit-for-bit unchanged sits at a
            # fixed point: every later iteration would repeat this
            # one exactly, so its bounds are final.  (Float noise can
            # keep such a row from ever meeting the tolerance above.)
            settled = (new_l == l_i) & (new_u == u_i) & ~stuck
            if stuck.any() or settled.any():
                failed[active[stuck]] = True
                ok = ~(stuck | settled)
                active = active[ok]
                a_i, b_i = a_i[ok], b_i[ok]
                am1_i, bm1_i, lnb_i = am1_i[ok], bm1_i[ok], lnb_i[ok]
                m_i = m_i[ok]
                l_i, u_i = new_l[ok], new_u[ok]
            else:
                l_i, u_i = new_l, new_u
            lower[active] = l_i
            upper[active] = u_i
    return lower, upper, failed


# ----------------------------------------------------------------------
# The row path: the same iteration, one row at a time in Python floats
# ----------------------------------------------------------------------


def _maximum(x: float, y: float) -> float:
    """``np.maximum`` on two floats: a NaN on either side propagates."""
    return x if x >= y or x != x else y


def _minimum(x: float, y: float) -> float:
    """``np.minimum`` on two floats: a NaN on either side propagates."""
    return x if x <= y or x != x else y


def _density(x: float, am1: float, bm1: float, lnb: float) -> float:
    """:func:`repro.stats.beta._beta_pdf_raw` for one float."""
    if not 0.0 <= x <= 1.0:  # NaN lands here too, as outside the mask
        return 0.0
    log_x = am1 * math.log(x) if x > 0.0 else cython_special.xlogy(am1, x)
    return float(np.exp(log_x + cython_special.xlog1py(bm1, -x) - lnb))


def _newton_rows(
    a: np.ndarray, b: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The row path: :func:`_newton_arrays` one row at a time."""
    with np.errstate(divide="ignore", invalid="ignore"):
        rows = [
            _newton_row(a_row, b_row, alpha)
            for a_row, b_row in zip(a.tolist(), b.tolist())
        ]
    lower, upper, failed = zip(*rows) if rows else ((), (), ())
    return (
        np.array(lower, dtype=float),
        np.array(upper, dtype=float),
        np.array(failed, dtype=bool),
    )


def _newton_row(a: float, b: float, alpha: float) -> tuple[float, float, bool]:
    """One row of :func:`_newton_arrays`, operation for operation.

    The caller holds an ``np.errstate`` guard for the NumPy scalars a
    zero divisor is redone in.
    """
    target = 1.0 - alpha
    mode = (a - 1.0) / (a + b - 2.0)
    lower = cython_special.betaincinv(a, b, alpha / 2.0)
    upper = cython_special.betaincinv(a, b, 1.0 - alpha / 2.0)
    lower = _minimum(_maximum(lower, _EPS), mode - _EPS)
    upper = _minimum(
        _maximum(_minimum(upper, 1.0 - _EPS), mode + _EPS), 1.0 - _EPS
    )
    if mode <= 2.0 * _EPS or mode >= 1.0 - 2.0 * _EPS:
        return lower, upper, True

    am1, bm1 = a - 1.0, b - 1.0
    lnb = cython_special.betaln(a, b)
    betainc = cython_special.betainc
    for _ in range(NEWTON_MAX_ITER):
        f_l = _density(lower, am1, bm1, lnb)
        f_u = _density(upper, am1, bm1, lnb)
        # ``_beta_cdf_raw`` clips into [0, 1] first: a no-op here, where
        # the bounds stay in [eps, 1] (a NaN passes through either way).
        mass = betainc(a, b, upper) - betainc(a, b, lower)
        r1 = f_l - f_u
        r2 = mass - target
        if abs(r1) <= 1e-12 * _maximum(_maximum(f_l, f_u), 1.0) and abs(r2) <= 1e-12:
            break

        try:
            j11 = f_l * (am1 / lower - bm1 / (1.0 - lower))
            j12 = -f_u * (am1 / upper - bm1 / (1.0 - upper))
        except ZeroDivisionError:
            # A bound on 0 or 1 (``u`` can round up to 1.0): NumPy
            # scalars return the array path's IEEE inf/nan here.
            l64, u64 = np.float64(lower), np.float64(upper)
            j11 = float(f_l * (am1 / l64 - bm1 / (1.0 - l64)))
            j12 = float(-f_u * (am1 / u64 - bm1 / (1.0 - u64)))
        j21 = -f_l
        j22 = f_u
        det = j11 * j22 - j12 * j21
        singular = det == 0.0 or not math.isfinite(det)
        if singular:
            det = 1.0
        step_l = (r1 * j22 - r2 * j12) / det
        step_u = (r2 * j11 - r1 * j21) / det

        if step_l > 0.0:
            s_l = lower / step_l
        elif step_l < 0.0:
            s_l = (mode - lower) / -step_l
        else:
            s_l = math.inf
        if step_u < 0.0:
            s_u = (1.0 - upper) / -step_u
        elif step_u > 0.0:
            s_u = (upper - mode) / step_u
        else:
            s_u = math.inf
        scale = _minimum(1.0, 0.9 * _minimum(s_l, s_u))
        if (
            singular
            or not math.isfinite(step_l)
            or not math.isfinite(step_u)
            or scale <= 1e-6
        ):
            return lower, upper, True
        new_l = lower - scale * step_l
        new_u = upper - scale * step_u
        if new_l == lower and new_u == upper:
            break
        lower, upper = new_l, new_u
    return lower, upper, False


#: The process's one kernel instance.
KERNEL = SolverKernel()
