"""Interval estimation: frequentist CIs and Bayesian CrIs.

The paper's cast:

* :class:`WaldInterval` — efficient but unreliable baseline (Sec. 3.1);
* :class:`WilsonInterval` — the frequentist state of the art (Sec. 3.2);
* :class:`ETCredibleInterval` — equal-tailed credible interval (Sec. 4.2);
* :class:`HPDCredibleInterval` — highest posterior density (Sec. 4.3);
* :class:`AdaptiveHPD` — the paper's aHPD contribution (Sec. 4.5).

Plus two extra CI baselines (Agresti-Coull, Clopper-Pearson) from the
binomial-interval literature the paper builds on [8].

Every method also implements ``compute_batch``, backed by the
vectorised batch engine in :mod:`repro.intervals.batch`, which solves
whole arrays of evidences (or Beta posteriors) in one call — the hot
path of the Monte-Carlo experiments.  Every batch HPD solve runs the
one damped-Newton kernel in :mod:`repro.intervals.kernels`; the scalar
solvers in :data:`HPD_SOLVERS` remain as its fallback and as reference
oracles.  A small-n solve table filled on demand
(:mod:`repro.intervals.table`) turns repeat integer-count solves into
lookups without touching results.
"""

from .agresti_coull import AgrestiCoullInterval
from .ahpd import AdaptiveHPD
from .base import (
    Interval,
    IntervalMethod,
    active_solve_pool,
    active_solve_table,
    critical_value,
    use_solve_pool,
    use_solve_table,
)
from .batch import (
    BatchIntervals,
    compute_batch_pooled,
    et_bounds_batch,
    hpd_bounds_batch,
)
from .payloads import build_method_from_payload, method_payload
from .table import SolveTable, shared_table
from .clopper_pearson import ClopperPearsonInterval
from .et import ETCredibleInterval, et_bounds
from .transforms import ArcsineInterval, LogitInterval
from .hpd import HPD_SOLVERS, HPDCredibleInterval, hpd_bounds
from .posterior import BetaPosterior, PosteriorShape
from .priors import JEFFREYS, KERMAN, UNIFORM, UNINFORMATIVE_PRIORS, BetaPrior
from .wald import WaldInterval
from .wilson import WilsonInterval

__all__ = [
    "Interval",
    "IntervalMethod",
    "BatchIntervals",
    "SolveTable",
    "active_solve_pool",
    "active_solve_table",
    "build_method_from_payload",
    "compute_batch_pooled",
    "critical_value",
    "method_payload",
    "shared_table",
    "use_solve_pool",
    "use_solve_table",
    "WaldInterval",
    "WilsonInterval",
    "AgrestiCoullInterval",
    "ClopperPearsonInterval",
    "ArcsineInterval",
    "LogitInterval",
    "BetaPrior",
    "KERMAN",
    "JEFFREYS",
    "UNIFORM",
    "UNINFORMATIVE_PRIORS",
    "BetaPosterior",
    "PosteriorShape",
    "ETCredibleInterval",
    "et_bounds",
    "et_bounds_batch",
    "HPDCredibleInterval",
    "hpd_bounds",
    "hpd_bounds_batch",
    "HPD_SOLVERS",
    "AdaptiveHPD",
]
