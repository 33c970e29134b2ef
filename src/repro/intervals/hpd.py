"""Highest Posterior Density credible intervals (paper Sec. 4.3).

The ``1 - alpha`` HPD interval is the *shortest* interval carrying
``1 - alpha`` posterior mass, and every point inside it has higher
density than any point outside (Theorems 1-2: minimal and unique for
unimodal posteriors; Corollaries 1-2 extend both properties to the
monotone limiting cases).

Shape dispatch
--------------

* **interior** (``a, b > 1``): constrained optimisation.  The paper uses
  SLSQP on the Lagrangian ``(u - l) + lambda (F(u) - F(l) - (1-alpha))``
  with the ET interval as the initial guess; that solver is implemented
  here verbatim (``solver="slsqp"``).  Two alternatives are provided:
  a damped Newton iteration on the optimality system ``f(l) = f(u)``,
  ``F(u) - F(l) = 1 - alpha`` (``solver="newton"``, ~10x faster, the
  default) and a bounded scalar minimisation of
  ``w(l) = F^{-1}(F(l) + 1 - alpha) - l`` (``solver="scalar"``, the
  robust fallback of both Newton paths).  The ablation experiment
  confirms all three agree to ~1e-8.  The interval *methods* below
  always run Newton — vectorised in
  :func:`~repro.intervals.batch.hpd_bounds_batch` on the batch path —
  so the solver choice lives only here, for the ablation and the test
  oracles.
* **increasing** (``tau = n`` under an uninformative prior — Eq. 10):
  ``[qBeta(alpha), 1]``.
* **decreasing** (``tau = 0`` — Eq. 11): ``[0, qBeta(1 - alpha)]``.
* **flat** (uniform posterior): every width-``(1-alpha)`` interval is
  an HPD; the central one is returned as the canonical choice.
* **bathtub** (no data, U-shaped prior): the HPD *region* is not an
  interval; an :class:`~repro.exceptions.IntervalError` is raised.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .._validation import check_alpha
from ..estimators.base import Evidence
from ..exceptions import IntervalError, OptimizationError, ValidationError
from .base import Interval, IntervalMethod
from .batch import (
    _MASS_TOL,
    BatchIntervals,
    evidence_arrays,
    hpd_bounds_batch,
    posterior_shapes_batch,
)
from .et import et_bounds
from .kernels import NEWTON_MAX_ITER as _NEWTON_MAX_ITER
from .posterior import BetaPosterior, PosteriorShape
from .priors import BetaPrior, JEFFREYS

__all__ = ["hpd_bounds", "HPDCredibleInterval", "HPD_SOLVERS"]


def hpd_bounds(
    posterior: BetaPosterior,
    alpha: float,
    solver: str = "newton",
) -> tuple[float, float]:
    """Compute the ``1 - alpha`` HPD bounds of a Beta posterior.

    Parameters
    ----------
    posterior:
        The Beta posterior to summarise.
    alpha:
        Significance level in ``(0, 1)``.
    solver:
        ``"slsqp"`` (the paper's optimizer), ``"newton"`` (fast
        optimality-system iteration; default), or ``"scalar"``
        (bounded width minimisation; most robust).  All agree to within
        ~1e-8 on interior posteriors; monotone/flat shapes are closed
        form and ignore the solver choice.
    """
    alpha = check_alpha(alpha)
    if solver not in HPD_SOLVERS:
        known = ", ".join(sorted(HPD_SOLVERS))
        raise ValidationError(f"unknown HPD solver {solver!r}; expected one of: {known}")

    shape = posterior.shape
    if shape is PosteriorShape.INCREASING:
        # Limiting case Eq. (10): exponentially increasing posterior.
        return float(posterior.ppf(alpha)), 1.0
    if shape is PosteriorShape.DECREASING:
        # Limiting case Eq. (11): exponentially decreasing posterior.
        return 0.0, float(posterior.ppf(1.0 - alpha))
    if shape is PosteriorShape.FLAT:
        # Uniform posterior: all width-(1-alpha) intervals are HPD; the
        # central one is canonical (and coincides with ET).
        return alpha / 2.0, 1.0 - alpha / 2.0
    if shape is PosteriorShape.BATHTUB:
        raise IntervalError(
            "the HPD region of a U-shaped posterior is not an interval; "
            "this arises only with no data and a U-shaped prior"
        )

    try:
        lower, upper = HPD_SOLVERS[solver](posterior, alpha)
    except OptimizationError:
        if solver == "scalar":
            raise
        lower, upper = _solve_scalar(posterior, alpha)
        solver = "scalar"
    return _validate_bounds(posterior, alpha, lower, upper, solver)


def _validate_bounds(
    posterior: BetaPosterior,
    alpha: float,
    lower: float,
    upper: float,
    solver: str,
) -> tuple[float, float]:
    """Validate a solver's output, falling back to the scalar solver."""
    ok = (
        0.0 <= lower < upper <= 1.0
        and abs(posterior.interval_mass(lower, upper) - (1.0 - alpha)) <= _MASS_TOL
    )
    if ok:
        return lower, upper
    if solver == "scalar":
        raise OptimizationError(
            f"HPD solve failed for {posterior}: bounds=({lower}, {upper})"
        )
    lower, upper = _solve_scalar(posterior, alpha)
    return _validate_bounds(posterior, alpha, lower, upper, "scalar")


# ----------------------------------------------------------------------
# Solvers (interior-mode posteriors only)
# ----------------------------------------------------------------------


def _solve_slsqp(posterior: BetaPosterior, alpha: float) -> tuple[float, float]:
    """The paper's solver: SLSQP on width with an equality constraint.

    Objective ``u - l``; constraint ``F(u) - F(l) = 1 - alpha``; bounds
    ``[0, 1]`` for both variables; the ET interval as the initial guess
    (Sec. 4.3).  Analytic gradients are supplied for both the objective
    and the constraint (the constraint gradient is the posterior pdf).
    """
    # Imported here: only the scalar solvers need scipy.optimize, and
    # importing it would cost every process ~0.2 s and ~24 MB.
    from scipy import optimize

    target = 1.0 - alpha
    x0 = np.asarray(et_bounds(posterior, alpha), dtype=float)

    def objective(x: np.ndarray) -> float:
        return x[1] - x[0]

    def objective_jac(x: np.ndarray) -> np.ndarray:
        return np.array([-1.0, 1.0])

    def constraint(x: np.ndarray) -> float:
        return float(posterior.cdf(x[1]) - posterior.cdf(x[0]) - target)

    def constraint_jac(x: np.ndarray) -> np.ndarray:
        return np.array([-float(posterior.pdf(x[0])), float(posterior.pdf(x[1]))])

    result = optimize.minimize(
        objective,
        x0,
        jac=objective_jac,
        method="SLSQP",
        bounds=[(0.0, 1.0), (0.0, 1.0)],
        constraints=[{"type": "eq", "fun": constraint, "jac": constraint_jac}],
        options={"maxiter": 200, "ftol": 1e-12},
    )
    return float(result.x[0]), float(result.x[1])


def _solve_newton(posterior: BetaPosterior, alpha: float) -> tuple[float, float]:
    """Damped Newton iteration on the HPD optimality system.

    Theorem 1's first-order conditions give ``f(l) = f(u)`` together
    with the mass constraint; the 2x2 Jacobian is analytic, so each
    iteration costs four special-function evaluations.  Iterates are
    clamped to ``(0, mode)`` x ``(mode, 1)`` where the system is well
    conditioned.
    """
    target = 1.0 - alpha
    mode = posterior.mode
    a, b = posterior.a, posterior.b
    eps = 1e-12
    if mode <= 2 * eps or mode >= 1.0 - 2 * eps:
        # Mode numerically at a boundary: the two-sided bracketing
        # degenerates; let the scalar fallback handle it.
        raise OptimizationError("posterior mode too close to the boundary for Newton")
    lo, hi = et_bounds(posterior, alpha)
    # Keep iterates strictly on the correct side of the mode and
    # strictly inside (0, 1).
    lower = min(max(lo, eps), mode - eps)
    upper = min(max(min(hi, 1.0 - eps), mode + eps), 1.0 - eps)

    def pdf_derivative(x: float, fx: float) -> float:
        return fx * ((a - 1.0) / x - (b - 1.0) / (1.0 - x))

    for _ in range(_NEWTON_MAX_ITER):
        f_l = float(posterior.pdf(lower))
        f_u = float(posterior.pdf(upper))
        mass = posterior.interval_mass(lower, upper)
        r1 = f_l - f_u
        r2 = mass - target
        if abs(r1) <= 1e-12 * max(f_l, f_u, 1.0) and abs(r2) <= 1e-12:
            break
        j11 = pdf_derivative(lower, f_l)
        j12 = -pdf_derivative(upper, f_u)
        j21 = -f_l
        j22 = f_u
        det = j11 * j22 - j12 * j21
        if det == 0.0 or not math.isfinite(det):
            raise OptimizationError("singular Jacobian in HPD Newton solve")
        step_l = (r1 * j22 - r2 * j12) / det
        step_u = (r2 * j11 - r1 * j21) / det
        # Damp steps so iterates stay on their side of the mode.
        scale = 1.0
        new_l = lower - scale * step_l
        new_u = upper - scale * step_u
        while (new_l <= 0.0 or new_l >= mode or new_u <= mode or new_u >= 1.0) and scale > 1e-6:
            scale *= 0.5
            new_l = lower - scale * step_l
            new_u = upper - scale * step_u
        if scale <= 1e-6:
            raise OptimizationError("HPD Newton solve failed to stay in domain")
        lower, upper = new_l, new_u
    return lower, upper


def _solve_scalar(posterior: BetaPosterior, alpha: float) -> tuple[float, float]:
    """Bounded scalar minimisation of the interval width.

    For a fixed lower bound ``l`` the mass constraint pins the upper
    bound at ``u(l) = F^{-1}(F(l) + 1 - alpha)``; the width ``u(l) - l``
    is unimodal in ``l`` for interior-mode posteriors, so a bounded
    Brent search over ``l in [0, F^{-1}(alpha)]`` finds the optimum.
    """
    from scipy import optimize  # deferred: see _solve_slsqp

    target = 1.0 - alpha

    def width(lower: float) -> float:
        mass_low = float(posterior.cdf(lower))
        return float(posterior.ppf(mass_low + target)) - lower

    max_lower = float(posterior.ppf(alpha))
    if max_lower <= 0.0:
        return 0.0, float(posterior.ppf(target))
    result = optimize.minimize_scalar(
        width,
        bounds=(0.0, max_lower),
        method="bounded",
        options={"xatol": 1e-12},
    )
    lower = float(result.x)
    upper = float(posterior.ppf(float(posterior.cdf(lower)) + target))
    return lower, upper


#: Registered interior-mode solvers, keyed by name.
HPD_SOLVERS: dict[str, Callable[[BetaPosterior, float], tuple[float, float]]] = {
    "slsqp": _solve_slsqp,
    "newton": _solve_newton,
    "scalar": _solve_scalar,
}


class HPDCredibleInterval(IntervalMethod):
    """HPD credible interval under a fixed Beta prior.

    Parameters
    ----------
    prior:
        The Beta prior to update; defaults to Jeffreys.
    """

    def __init__(self, prior: BetaPrior = JEFFREYS):
        self.prior = prior
        self.name = f"HPD[{prior.name}]"

    def posterior(self, evidence: Evidence) -> BetaPosterior:
        """The posterior this method would build for *evidence*."""
        return BetaPosterior.from_evidence(self.prior, evidence)

    def compute(self, evidence: Evidence, alpha: float) -> Interval:
        posterior = self.posterior(evidence)
        lower, upper = hpd_bounds(posterior, alpha)
        return Interval(lower=lower, upper=upper, alpha=alpha, method=self.name)

    def compute_batch(
        self, evidences: Sequence[Evidence], alpha: float
    ) -> BatchIntervals:
        """Vectorised HPD solve over all evidences at once.

        The batch damped-Newton engine agrees with the scalar path to
        ~1e-8 and falls back to the robust scalar solver row-wise.
        """
        alpha = check_alpha(alpha)
        _, _, n_eff, tau_eff = evidence_arrays(evidences)
        a, b = posterior_shapes_batch(self.prior, tau_eff, n_eff)
        lower, upper = hpd_bounds_batch(a, b, alpha)
        return BatchIntervals(lower=lower, upper=upper, alpha=alpha, method=self.name)
