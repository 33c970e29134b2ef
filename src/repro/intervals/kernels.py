"""The damped-Newton HPD kernel: the inner loop of every HPD solve.

Every Monte-Carlo cell bottoms out in the same loop: the damped-Newton
HPD iteration over interior-mode Beta posteriors.  :class:`SolverKernel`
holds it, vectorised over rows with NumPy, and :data:`KERNEL` is the one
instance :func:`repro.intervals.batch.hpd_bounds_batch` runs.  The shape
dispatch, the posterior-mass validation, and the per-row scalar fallback
around the loop stay in :mod:`repro.intervals.batch`.

The method is looked up on :data:`KERNEL` at call time, so a profiler or
tracer that wraps ``SolverKernel.newton_interior`` sees every Newton
solve in the process.
"""

from __future__ import annotations

import numpy as np

from ..stats.beta import _beta_cdf_raw, _beta_pdf_raw, _beta_ppf_raw

__all__ = ["KERNEL", "NEWTON_MAX_ITER", "SolverKernel"]

#: Maximum damped-Newton iterations per row — shared with the scalar
#: Newton solver in :mod:`repro.intervals.hpd`.  A row leaves the loop
#: earlier once it converges or a step leaves it unchanged; a row that
#: uses up the cap keeps its last iterate.  Reaching the cap does not
#: send a row to the scalar fallback: only the posterior-mass check in
#: :func:`repro.intervals.batch._newton_batch` does.
NEWTON_MAX_ITER = 60


class SolverKernel:
    """The vectorised damped-Newton HPD iteration.

    ``newton_interior`` receives positive, finite, interior-mode
    ``(a, b)`` arrays (``a > 1``, ``b > 1``) and returns
    ``(lower, upper, failed)``: the iterated bounds plus a boolean mask
    of rows the caller must re-solve with the robust scalar solver.
    Rows are independent — row ``i``'s output depends only on
    ``(a[i], b[i], alpha)`` — which is what lets batches be pooled,
    sliced, and tabled bit-identically.
    """

    def newton_interior(
        self, a: np.ndarray, b: np.ndarray, alpha: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        target = 1.0 - alpha
        eps = 1e-12
        mode = (a - 1.0) / (a + b - 2.0)
        # Rows whose mode sits numerically on a boundary degenerate the
        # two-sided bracketing; send them straight to the scalar fallback.
        failed = (mode <= 2.0 * eps) | (mode >= 1.0 - 2.0 * eps)

        with np.errstate(divide="ignore", invalid="ignore"):
            lower = _beta_ppf_raw(alpha / 2.0, a, b)
            upper = _beta_ppf_raw(1.0 - alpha / 2.0, a, b)
            lower = np.minimum(np.maximum(lower, eps), mode - eps)
            upper = np.minimum(
                np.maximum(np.minimum(upper, 1.0 - eps), mode + eps), 1.0 - eps
            )

            active = np.flatnonzero(~failed)
            # Gather the active-row views once; the loop maintains them
            # in lock-step with ``active`` instead of re-slicing the full
            # arrays every iteration (pure bookkeeping — same values).
            a_i, b_i = a[active], b[active]
            l_i, u_i = lower[active], upper[active]
            m_i = mode[active]
            for _ in range(NEWTON_MAX_ITER):
                if active.size == 0:
                    break
                f_l = _beta_pdf_raw(l_i, a_i, b_i)
                f_u = _beta_pdf_raw(u_i, a_i, b_i)
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
                    l_i, u_i = l_i[keep], u_i[keep]
                    f_l, f_u = f_l[keep], f_u[keep]
                    r1, r2 = r1[keep], r2[keep]
                    m_i = m_i[keep]

                # Analytic 2x2 Jacobian of the optimality system.  Rows
                # whose iterate grazes a boundary produce non-finite entries
                # here and are routed to the scalar fallback below.
                j11 = f_l * ((a_i - 1.0) / l_i - (b_i - 1.0) / (1.0 - l_i))
                j12 = -f_u * ((a_i - 1.0) / u_i - (b_i - 1.0) / (1.0 - u_i))
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
                    m_i = m_i[ok]
                    l_i, u_i = new_l[ok], new_u[ok]
                else:
                    l_i, u_i = new_l, new_u
                lower[active] = l_i
                upper[active] = u_i
        return lower, upper, failed


#: The process's one kernel instance.
KERNEL = SolverKernel()
