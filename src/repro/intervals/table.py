"""Small-n interval rows, solved on demand: the memoised solve hot path.

The paper's Monte-Carlo loops draw ``tau ~ Bin(n, mu)`` and solve an
interval per draw — but a ``Bin(n, mu)`` outcome has only ``n + 1``
distinct values, so for any fixed ``(method, alpha, n)`` there are only
``n + 1`` distinct intervals *ever*.  A :class:`SolveTable` memoises
them one row at a time, in one dict keyed by ``(method payload, alpha,
n, tau)`` and holding the row's ``(lower, upper, label)``.  A serve
solves exactly the rows it needs that the table does not hold yet — one
vectorised ``compute_batch`` over them — and every later solve of a held
row is a dict probe.  Algorithm 1 under SRS solves a memo miss together
with the states its next rounds can reach (up to 15 rows, see
:class:`~repro.evaluation.framework.KGAccuracyEvaluator`), so serves
carry several rows, and one code path serves every batch size: on a
2-core x86 host a one-row hit costs ~6-9 µs, below a one-row Wilson
``compute_batch`` (~20-35 µs) and ~10x below an aHPD one (~0.06-0.1
ms).  A hit's rows were validated when they were solved, so its batch
is built without checking them again.

Because the rows *are* ``compute_batch`` outputs — solved by the very
method instance being served, stored at full float64, and every batch
kernel is row-independent — a served batch is bit-identical to a
freshly solved one.  Tables therefore sit on the same side of the
determinism line as the solve pool: they change wall-clock, never
numbers, and never participate in cache identity.

Serving is strict full-hit-or-``None``: a batch is served only when
*every* evidence row is table-eligible (an exact integer-count SRS
outcome with ``1 <= n <= cap`` whose derived columns match
:meth:`~repro.estimators.base.Evidence.from_counts` arithmetic
exactly).  Anything else — effective-sample designs, fractional
counts, out-of-cap ``n``, an unencodable method — falls through to the
normal solve path untouched.

Tables live in process memory only.  A process keeps one table per
cap (:func:`shared_table`), shared by every run and service request it
executes whatever their result store, and forked workers inherit the
rows their parent held.  Nothing is written to disk: a re-run of a
plan is answered whole by the result store, so a fresh process simply
starts with empty tables.

The runtime resolves the cap (``REPRO_SOLVE_TABLE``) and installs a
:func:`shared_table` per run; each unit of work serves it through its
own :class:`TableTally`, and the run sums its units' counts.  This
module reads no environment.
"""

from __future__ import annotations

import os
import threading
import time
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .batch import BatchIntervals
from .payloads import method_payload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..estimators.base import Evidence
    from .base import IntervalMethod

__all__ = [
    "DEFAULT_TABLE_CAP",
    "SolveTable",
    "TableTally",
    "peek_tables",
    "reset_shared_tables",
    "shared_table",
]

#: Default ``n`` cap — mirrors ``REPRO_SOLVE_TABLE``'s default.  A row
#: is held only once asked for, at ~350 bytes (its key and value
#: tuples), so the ~13,000 rows a sequential-coverage plan solves take
#: ~4.5 MB.
DEFAULT_TABLE_CAP = 2048


def _zero_counts() -> dict:
    """Fresh serve counters (see :meth:`SolveTable.serve`)."""
    return {
        "hits": 0,
        "misses": 0,
        "ineligible": 0,
        "builds": 0,
        "rows_solved": 0,
        "build_seconds": 0.0,
        "rows_served": 0,
    }


class SolveTable:
    """Process-wide memo of solved (method, alpha, n, tau) interval rows.

    Parameters
    ----------
    cap:
        Largest ``n`` rows are kept for.  ``0`` disables serving
        entirely (every :meth:`serve` returns ``None``).

    Thread-safe: lookups, fills and counters run under an internal lock
    that is recreated when the table crosses a ``fork`` (a worker
    forked while another thread held the lock must not inherit it
    locked).
    """

    def __init__(self, cap: int = DEFAULT_TABLE_CAP) -> None:
        self.cap = int(cap)
        self._rows: dict[tuple, tuple[float, float, str | None]] = {}
        self._tables: set[tuple] = set()  # the (payload, alpha, n) held
        self._lock = threading.Lock()
        self._pid = os.getpid()
        self._counts = _zero_counts()

    # -- fork safety ---------------------------------------------------

    def _checked_lock(self) -> threading.Lock:
        if os.getpid() != self._pid:
            # Forked child: the inherited lock may be held by a thread
            # that does not exist here.  Rows are plain tuples and
            # survive the fork; only the lock needs recreating.
            self._lock = threading.Lock()
            self._pid = os.getpid()
        return self._lock

    def _count(self, tally: dict | None, **amounts: float) -> None:
        """Add *amounts* to the lifetime counters and to *tally* (if any).

        Callers hold the table lock.
        """
        for name, amount in amounts.items():
            self._counts[name] += amount
            if tally is not None:
                tally[name] += amount

    # -- eligibility ---------------------------------------------------

    def _row_counts(
        self, evidences: Sequence["Evidence"]
    ) -> list[tuple[int, int]] | None:
        """Per-row ``(n, tau)``, or ``None`` if any row is not an exact
        integer-count SRS outcome within the cap.

        Eligibility is *exact float equality* of all four evidence
        columns against :meth:`Evidence.from_counts` arithmetic — the
        table stores ``compute_batch`` outputs for from_counts rows, so
        serving anything else (even a row differing in the last ulp of
        ``variance``) could change bits downstream.
        """
        if not evidences:
            return None
        cap = self.cap
        counts = []
        for evidence in evidences:
            n = float(evidence.n_effective)
            tau = float(evidence.tau_effective)
            if not (1.0 <= n <= cap and 0.0 <= tau <= n):
                return None
            n_int, tau_int = int(n), int(tau)
            mu = tau_int / n_int
            if (
                n_int != n
                or tau_int != tau
                or float(evidence.mu_hat) != mu
                or float(evidence.variance) != mu * (1.0 - mu) / n_int
            ):
                return None
            counts.append((n_int, tau_int))
        return counts

    # -- filling -------------------------------------------------------

    def _fill(
        self,
        method: "IntervalMethod",
        alpha: float,
        missing: list[tuple],
        tally: dict | None,
    ) -> None:
        """Solve the *missing* row keys in one direct ``compute_batch``
        and store them.

        Never routes back through ``solve_batch`` — a fill must not
        consult the table it is populating nor enqueue on a broker.
        """
        from ..estimators.base import Evidence

        start = time.perf_counter()
        grid = [Evidence.from_counts_fast(tau, n) for _, _, n, tau in missing]
        batch = method.compute_batch(grid, alpha)
        self._count(
            tally,
            builds=1,
            rows_solved=len(grid),
            build_seconds=time.perf_counter() - start,
        )
        labels = batch.labels if batch.labels is not None else [None] * len(grid)
        rows = zip(batch.lower.tolist(), batch.upper.tolist(), labels)
        for key, row in zip(missing, rows):
            self._rows[key] = row
            self._tables.add(key[:3])

    # -- the serving API ----------------------------------------------

    def serve(
        self,
        method: "IntervalMethod",
        evidences: Sequence["Evidence"],
        alpha: float,
        build: bool = True,
        tally: dict | None = None,
    ) -> BatchIntervals | None:
        """The table's answer for this solve, or ``None`` to fall through.

        ``None`` means "solve normally" — either the batch is not
        table-eligible, or (with ``build=False``) a needed row is not
        held yet and solving here would serialise pooled callers behind
        the fill; the broker's flush fills it instead.  With ``build``
        the rows not held yet are solved (only those) and stored.

        A non-``None`` return is bit-identical to
        ``method.compute_batch(evidences, alpha)``.

        Every eligible call counts once in :meth:`stats`: a *hit* when
        it solved nothing, a *miss* when it solved rows or (with
        ``build=False``) found a row missing; ineligible calls count as
        ``ineligible``.  The same counts also go to *tally* (a
        :class:`TableTally`'s counters) when one is given.
        """
        if self.cap <= 0:
            return None
        # Eligibility first: the payload (a tuple of prior tuples for
        # aHPD) costs more than rejecting a row, and most rejected calls
        # are effective-sample (TWCS) rounds.
        counts = self._row_counts(evidences)
        payload = None if counts is None else method_payload(method)
        if payload is None:
            with self._checked_lock():
                self._count(tally, ineligible=1)
            return None
        alpha = float(alpha)
        keys = [(payload, alpha, n, tau) for n, tau in counts]
        with self._checked_lock():
            held = self._rows
            rows = [held.get(key) for key in keys]
            missing = [key for key, row in zip(keys, rows) if row is None]
            if missing:
                if not build:
                    self._count(tally, misses=1)
                    return None
                self._fill(method, alpha, list(dict.fromkeys(missing)), tally)
                rows = [held[key] for key in keys]
                self._count(tally, misses=1, rows_served=len(keys))
            else:
                self._count(tally, hits=1, rows_served=len(keys))
        lower, upper, labels = zip(*rows)
        # Every row passed BatchIntervals validation when it was solved.
        return BatchIntervals._of_validated_rows(
            np.array(lower),
            np.array(upper),
            alpha,
            method.name,
            # The rows share one payload, hence one method, which labels
            # every row it solves or none.
            None if labels[0] is None else labels,
        )

    # -- introspection -------------------------------------------------

    def stats(self) -> dict:
        """Lifetime counter snapshot for service pings and benchmarks.

        ``entries`` counts the distinct ``(method, alpha, n)`` with a
        solved row, ``builds`` fill solves (one ``compute_batch`` each)
        and ``rows_solved`` the rows they solved.
        """
        return {"cap": self.cap, "entries": len(self._tables), **self._counts}

    def __repr__(self) -> str:
        return f"SolveTable(cap={self.cap})"


class TableTally:
    """One unit's (or run's) handle on a shared :class:`SolveTable`.

    Every :meth:`serve` forwards to the table exactly once and counts
    into this tally as well as the table's lifetime counters, so runs
    that overlap in one process each report only their own serves.
    The runtime opens one tally per unit of work
    (:func:`repro.runtime.backends.run_task`), in whichever process
    runs it, and sums the units' :meth:`counts` into the run's.
    Install it wherever the table itself would be installed (the broker
    captures it with each entry, so pooled fills count for the run that
    asked for them).
    """

    def __init__(self, table: SolveTable) -> None:
        self.table = table
        self._counts = _zero_counts()

    def serve(
        self,
        method: "IntervalMethod",
        evidences: Sequence["Evidence"],
        alpha: float,
        build: bool = True,
    ) -> BatchIntervals | None:
        """:meth:`SolveTable.serve`, counted for this run."""
        return self.table.serve(
            method, evidences, alpha, build=build, tally=self._counts
        )

    def counts(self) -> dict:
        """A copy of this tally's serve counters alone."""
        return dict(self._counts)

    def add(self, counts: dict) -> None:
        """Add another tally's :meth:`counts` to this one's."""
        for name, amount in counts.items():
            self._counts[name] += amount

    def stats(self) -> dict:
        """This tally's counters, plus the table's cap and entry count."""
        table = self.table.stats()
        return {"cap": table["cap"], "entries": table["entries"], **self._counts}


# ----------------------------------------------------------------------
# Process-wide registry
# ----------------------------------------------------------------------

_REGISTRY: dict[int, SolveTable] = {}
_REGISTRY_LOCK = threading.Lock()
_REGISTRY_PID = os.getpid()


def _registry_lock() -> threading.Lock:
    global _REGISTRY_LOCK, _REGISTRY_PID
    if os.getpid() != _REGISTRY_PID:
        _REGISTRY_LOCK = threading.Lock()
        _REGISTRY_PID = os.getpid()
    return _REGISTRY_LOCK


def shared_table(cap: int = DEFAULT_TABLE_CAP) -> SolveTable:
    """The process-wide :class:`SolveTable` for *cap*.

    Every run and service request with the same cap shares one table,
    so rows solved for one serve every later one in the process.
    """
    cap = int(cap)
    with _registry_lock():
        table = _REGISTRY.get(cap)
        if table is None:
            table = _REGISTRY[cap] = SolveTable(cap=cap)
        return table


def peek_tables() -> list[dict]:
    """Stats of every registered table (service ping; never creates)."""
    with _registry_lock():
        tables = list(_REGISTRY.values())
    return [table.stats() for table in tables]


def reset_shared_tables() -> None:
    """Forget every registered table (test isolation hook)."""
    with _registry_lock():
        _REGISTRY.clear()
