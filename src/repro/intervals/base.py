"""Interval value type and the method interface.

All six interval families (Wald, Wilson, Agresti-Coull,
Clopper-Pearson, ET, HPD — plus the adaptive aHPD selector) implement
:class:`IntervalMethod`: given the design-aware
:class:`~repro.estimators.base.Evidence` of an annotated sample and a
significance level ``alpha``, produce a ``1 - alpha``
:class:`Interval`.  The evaluation framework only ever talks to this
interface, which is what lets credible and confidence intervals compete
inside the same minimisation loop.
"""

from __future__ import annotations

import contextvars
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from scipy import special

from .._validation import check_alpha
from ..estimators.base import Evidence
from ..exceptions import ValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .batch import BatchIntervals

__all__ = [
    "Interval",
    "IntervalMethod",
    "active_solve_pool",
    "active_solve_table",
    "critical_value",
    "use_solve_pool",
    "use_solve_table",
]

#: The ambient solve pool, if any.  A pool is an object with a
#: ``solve(method, evidences, alpha) -> BatchIntervals`` method that may
#: coalesce solves from several callers into one vectorised
#: ``compute_batch`` call (see :mod:`repro.runtime.solvebatch`).  Kept
#: as a context variable so concurrently-executing requests (service
#: threads) each control their own routing without touching the others.
_SOLVE_POOL: contextvars.ContextVar[Any] = contextvars.ContextVar(
    "repro-solve-pool", default=None
)


def active_solve_pool() -> Any | None:
    """The solve pool :meth:`IntervalMethod.solve_batch` routes through,
    or ``None`` when solves run directly."""
    return _SOLVE_POOL.get()


@contextmanager
def use_solve_pool(pool: Any) -> Iterator[Any]:
    """Install *pool* as the ambient solve pool for the calling context.

    Everything under the ``with`` block that solves intervals through
    :meth:`IntervalMethod.solve_batch` hands its work to *pool* instead
    of computing directly.  ``None`` is allowed and is a no-op install
    (useful for unconditional ``with`` statements).  Pools never change
    results — only who executes the vectorised solve.
    """
    token = _SOLVE_POOL.set(pool)
    try:
        yield pool
    finally:
        _SOLVE_POOL.reset(token)


#: The ambient small-n solve table, if any.  A table is an object with
#: a ``serve(method, evidences, alpha, build=...) -> BatchIntervals |
#: None`` method that short-circuits solves over integer-count
#: evidences by looking up their (method, alpha, n, tau) interval rows,
#: each solved on first demand (see :mod:`repro.intervals.table`).  Like the
#: solve pool, it lives in a context variable so concurrent requests
#: route independently — and like the pool, it changes wall-clock,
#: never numbers.
_SOLVE_TABLE: contextvars.ContextVar[Any] = contextvars.ContextVar(
    "repro-solve-table", default=None
)


def active_solve_table() -> Any | None:
    """The solve table :meth:`IntervalMethod.solve_batch` consults,
    or ``None`` when every solve computes."""
    return _SOLVE_TABLE.get()


@contextmanager
def use_solve_table(table: Any) -> Iterator[Any]:
    """Install *table* as the ambient solve table for the context.

    Everything under the ``with`` block that solves through
    :meth:`IntervalMethod.solve_batch` consults *table* first; solves
    the table cannot serve (non-integer counts, ``n`` above its cap, an
    unencodable method) proceed exactly as before.  ``None`` is a
    no-op install.  Tables are memoisation — served rows are
    bit-identical to freshly solved ones.
    """
    token = _SOLVE_TABLE.set(table)
    try:
        yield table
    finally:
        _SOLVE_TABLE.reset(token)


def critical_value(alpha: float) -> float:
    """Two-sided standard-normal critical value ``z_{alpha/2}``."""
    alpha = check_alpha(alpha)
    return float(special.ndtri(1.0 - alpha / 2.0))


@dataclass(frozen=True)
class Interval:
    """A ``1 - alpha`` interval estimate for the KG accuracy.

    Attributes
    ----------
    lower / upper:
        Interval bounds.  Frequentist intervals may overshoot ``[0, 1]``
        (a documented Wald pathology the paper discusses); use
        :meth:`clipped` for a presentation-safe version.
    alpha:
        The significance level the interval was built for.
    method:
        Human-readable method label (e.g. ``"HPD[Jeffreys]"``).
    """

    lower: float
    upper: float
    alpha: float
    method: str = ""

    def __post_init__(self) -> None:
        check_alpha(self.alpha)
        if not self.lower <= self.upper:
            raise ValidationError(
                f"interval bounds out of order: ({self.lower}, {self.upper})"
            )

    @property
    def width(self) -> float:
        """Interval width ``upper - lower``."""
        return self.upper - self.lower

    @property
    def moe(self) -> float:
        """Margin of Error — half the interval width (paper Sec. 2.2)."""
        return self.width / 2.0

    @property
    def midpoint(self) -> float:
        """Interval midpoint."""
        return (self.lower + self.upper) / 2.0

    @property
    def confidence(self) -> float:
        """The nominal level ``1 - alpha``."""
        return 1.0 - self.alpha

    def contains(self, value: float) -> bool:
        """Whether *value* lies inside the closed interval."""
        return self.lower <= value <= self.upper

    def clipped(self) -> "Interval":
        """The interval intersected with ``[0, 1]``.

        Wald intervals can overshoot the probability domain; clipping is
        presentation-only and never feeds back into the MoE stop rule,
        which must see the raw width to reproduce the paper's behaviour.
        """
        return Interval(
            lower=max(self.lower, 0.0),
            upper=min(self.upper, 1.0),
            alpha=self.alpha,
            method=self.method,
        )

    def __str__(self) -> str:
        label = f"{self.method} " if self.method else ""
        return f"{label}[{self.lower:.4f}, {self.upper:.4f}] (1-alpha={self.confidence:.2f})"


class IntervalMethod(ABC):
    """Builds ``1 - alpha`` intervals from sample evidence."""

    #: Method label used in reports and on produced intervals.
    name: str = "abstract"

    @abstractmethod
    def compute(self, evidence: Evidence, alpha: float) -> Interval:
        """Build the ``1 - alpha`` interval for *evidence*."""

    def compute_batch(
        self, evidences: Sequence[Evidence], alpha: float
    ) -> "BatchIntervals":
        """Build one interval per evidence, as a struct-of-arrays batch.

        The default is a per-element :meth:`compute` loop, so any
        subclass is batch-correct for free; every built-in method
        overrides it with the vectorised engine in
        :mod:`repro.intervals.batch`.  Results agree with the scalar
        path to ~1e-8 element-wise.
        """
        from .batch import BatchIntervals

        alpha = check_alpha(alpha)
        return BatchIntervals.from_intervals(
            (self.compute(evidence, alpha) for evidence in evidences),
            alpha=alpha,
            method=self.name,
        )

    def solve_batch(
        self, evidences: Sequence[Evidence], alpha: float
    ) -> "BatchIntervals":
        """The canonical batch-solve entry point for evaluation loops.

        Identical to :meth:`compute_batch` when no solve pool or table
        is installed; under :func:`use_solve_pool` the work is handed to
        the ambient pool, which may pool it with other callers' pending
        solves and flush them as one vectorised call.  Under
        :func:`use_solve_table` the ambient table is consulted first —
        integer-count evidences below the table's ``n`` cap are served
        from its (method, alpha, n, tau) rows, and it solves only the
        rows it does not hold yet.
        Because every built-in batch kernel is row-independent, a
        pooled slice or a table slice is bit-identical to a direct
        :meth:`compute_batch` — routing changes wall-clock, never
        numbers.
        """
        pool = _SOLVE_POOL.get()
        table = _SOLVE_TABLE.get()
        if table is not None:
            # With a pool installed, only rows the table already holds
            # may short-circuit here (build=False): a fill would
            # serialise callers behind it, whereas the broker's flush
            # fills once for every pooled caller.
            served = table.serve(self, evidences, alpha, build=pool is None)
            if served is not None:
                return served
        if pool is None:
            return self.compute_batch(evidences, alpha)
        return pool.solve(self, evidences, alpha)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
