"""Small-n interval tables, filled on demand: the memoised solve hot path.

The paper's Monte-Carlo loops draw ``tau ~ Bin(n, mu)`` and solve an
interval per draw — but a ``Bin(n, mu)`` outcome has only ``n + 1``
distinct values, so for any fixed ``(method, alpha, n)`` there are only
``n + 1`` distinct intervals *ever*.  A :class:`SolveTable` keeps one
``n + 1``-row table per ``(method, alpha, n)``.  Rows start unsolved
(NaN); a serve solves exactly the rows it needs that the table does not
hold yet — one vectorised ``compute_batch`` over those ``tau`` — and
every later solve of a held row is a gather.  A Monte-Carlo cell
touches a few rows of many ``n``, so solving whole tables up front
would mostly compute rows nobody asks for.

Because the table rows *are* ``compute_batch`` outputs — solved by the
very method instance being served, stored at full float64, and every
batch kernel is row-independent — a served batch is bit-identical to a
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
:func:`shared_table` per run — behind a :class:`TableTally` that counts
the run's own serves — and per unit of work; this module reads no
environment.
"""

from __future__ import annotations

import os
import threading
import time
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .batch import BatchIntervals, evidence_arrays
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

#: Default ``n`` cap — mirrors ``REPRO_SOLVE_TABLE``'s default.  A full
#: table at the cap is two float64 rows of ``n + 1`` entries (~32 KiB),
#: so even hundreds of (method, alpha, n) combinations stay tiny.
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


class _Entry:
    """One (payload, alpha, n) table: ``n + 1`` rows, NaN where unsolved.

    ``labels`` is ``None`` while the method has labelled no row, else a
    per-row list with ``None`` where unset.
    """

    __slots__ = ("lower", "upper", "labels")

    def __init__(self, n: int) -> None:
        self.lower = np.full(n + 1, np.nan)
        self.upper = np.full(n + 1, np.nan)
        self.labels: list | None = None

    def unsolved(self, taus: np.ndarray) -> np.ndarray:
        """The rows of *taus* this table does not hold yet."""
        return taus[np.isnan(self.lower[taus]) | np.isnan(self.upper[taus])]


class SolveTable:
    """Process-wide memo of (method, alpha, n) interval tables.

    Parameters
    ----------
    cap:
        Largest ``n`` tables are kept for.  ``0`` disables serving
        entirely (every :meth:`serve` returns ``None``).

    Thread-safe: lookups, fills and counters run under an internal lock
    that is recreated when the table crosses a ``fork`` (a worker
    forked while another thread held the lock must not inherit it
    locked).
    """

    def __init__(self, cap: int = DEFAULT_TABLE_CAP) -> None:
        self.cap = int(cap)
        self._entries: dict[tuple, _Entry] = {}
        self._lock = threading.Lock()
        self._pid = os.getpid()
        self._counts = _zero_counts()

    # -- fork safety ---------------------------------------------------

    def _checked_lock(self) -> threading.Lock:
        if os.getpid() != self._pid:
            # Forked child: the inherited lock may be held by a thread
            # that does not exist here.  Entries are plain arrays and
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

    def _eligible_taus(self, evidences: Sequence["Evidence"]) -> np.ndarray | None:
        """Per-row ``(tau, n)`` index pairs, or ``None`` if any row is not
        an exact integer-count SRS outcome within the cap.

        Eligibility is *exact float equality* of all four evidence
        columns against :meth:`Evidence.from_counts` arithmetic — the
        table stores ``compute_batch`` outputs for from_counts rows, so
        serving anything else (even a row differing in the last ulp of
        ``variance``) could change bits downstream.
        """
        if not evidences:
            return None
        mu, variance, n_eff, tau_eff = evidence_arrays(evidences)
        n_int = np.rint(n_eff)
        tau_int = np.rint(tau_eff)
        ok = (
            (n_eff == n_int)
            & (tau_eff == tau_int)
            & (n_eff >= 1.0)
            & (n_eff <= float(self.cap))
            & (tau_eff >= 0.0)
            & (tau_eff <= n_eff)
        )
        if not ok.all():
            return None
        # Derived columns must match from_counts bit-for-bit.
        n_i = n_int.astype(np.int64)
        tau_i = tau_int.astype(np.int64)
        expected_mu = tau_i / n_i
        if not (
            np.array_equal(mu, expected_mu)
            and np.array_equal(variance, expected_mu * (1.0 - expected_mu) / n_i)
        ):
            return None
        return np.stack([tau_i, n_i], axis=1)

    # -- filling -------------------------------------------------------

    def _fill(
        self,
        method: "IntervalMethod",
        alpha: float,
        missing: list[tuple[tuple, _Entry, np.ndarray]],
        tally: dict | None,
    ) -> None:
        """Solve the *missing* ``(key, entry, taus)`` rows in one direct
        ``compute_batch`` and store them.

        Never routes back through ``solve_batch`` — a fill must not
        consult the table it is populating nor enqueue on a broker.
        """
        from ..estimators.base import Evidence

        start = time.perf_counter()
        grid = [
            Evidence.from_counts_fast(tau, key[2])
            for key, _, taus in missing
            for tau in taus.tolist()
        ]
        batch = method.compute_batch(grid, alpha)
        self._count(
            tally,
            builds=1,
            rows_solved=len(grid),
            build_seconds=time.perf_counter() - start,
        )
        offset = 0
        for key, entry, taus in missing:
            rows = slice(offset, offset + len(taus))
            offset += len(taus)
            entry.lower[taus] = batch.lower[rows]
            entry.upper[taus] = batch.upper[rows]
            if batch.labels is not None:
                if entry.labels is None:
                    entry.labels = [None] * len(entry.lower)
                for tau, label in zip(taus.tolist(), batch.labels[rows]):
                    entry.labels[tau] = label
            self._entries[key] = entry

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
        payload = method_payload(method)
        pairs = None if payload is None else self._eligible_taus(evidences)
        if pairs is None:
            with self._checked_lock():
                self._count(tally, ineligible=1)
            return None
        alpha = float(alpha)
        with self._checked_lock():
            groups: list[tuple[np.ndarray, np.ndarray, _Entry]] = []
            missing: list[tuple[tuple, _Entry, np.ndarray]] = []
            for n in np.unique(pairs[:, 1]).tolist():
                key = (payload, alpha, n)
                entry = self._entries.get(key)
                if entry is None:
                    entry = _Entry(n)
                rows = np.flatnonzero(pairs[:, 1] == n)
                taus = pairs[rows, 0]
                groups.append((rows, taus, entry))
                unsolved = entry.unsolved(np.unique(taus))
                if unsolved.size:
                    missing.append((key, entry, unsolved))
            if missing:
                if not build:
                    self._count(tally, misses=1)
                    return None
                self._fill(method, alpha, missing, tally)
            count = pairs.shape[0]
            lower = np.empty(count, dtype=float)
            upper = np.empty(count, dtype=float)
            labelled = any(entry.labels is not None for _, _, entry in groups)
            labels: list[str] | None = [""] * count if labelled else None
            for rows, taus, entry in groups:
                lower[rows] = entry.lower[taus]
                upper[rows] = entry.upper[taus]
                if labels is not None:
                    for row, tau in zip(rows.tolist(), taus.tolist()):
                        labels[row] = (
                            entry.labels[tau]
                            if entry.labels is not None
                            else method.name
                        )
            if missing:
                self._count(tally, misses=1, rows_served=count)
            else:
                self._count(tally, hits=1, rows_served=count)
        return BatchIntervals(
            lower=lower,
            upper=upper,
            alpha=alpha,
            method=method.name,
            labels=tuple(labels) if labels is not None else None,
        )

    # -- introspection -------------------------------------------------

    def stats(self) -> dict:
        """Lifetime counter snapshot for service pings and benchmarks.

        ``builds`` counts fill solves (one ``compute_batch`` each) and
        ``rows_solved`` the rows they solved.
        """
        return {"cap": self.cap, "entries": len(self._entries), **self._counts}

    def __repr__(self) -> str:
        return f"SolveTable(cap={self.cap})"


class TableTally:
    """One run's handle on a shared :class:`SolveTable`.

    Every :meth:`serve` forwards to the table exactly once and counts
    into this tally as well as the table's lifetime counters, so runs
    that overlap in one process each report only their own serves.
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

    def stats(self) -> dict:
        """This run's counters, plus the table's cap and entry count."""
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
