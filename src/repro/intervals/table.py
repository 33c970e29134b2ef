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

Tables persist under ``<store root>/solvetable/`` as sidecars named
``v<schema>-<digest>``: an ``.npy`` of the bounds (NaN rows unsolved,
memory-mapped on load) plus, for label-carrying selectors like aHPD, a
``.labels.json`` twin holding each row's label (``null`` where unset).
A warm store thus serves even the first solve of a new process without
solving.  Fills only mark a table dirty; :meth:`SolveTable.flush`
writes each dirty table once, and the runtime calls it when a unit of
work or a run ends.  Each file is written atomically (tmp +
``os.replace``); the labels land first and the ``.npy`` replace
commits the pair, so an interrupted write can leave labels for rows the
``.npy`` does not hold (they are solved again) but never a held row
without its label.  The schema version is part of the
file name: sidecars of an older layout are never read again, ``python
-m repro cache info`` reports them as stale, and deleting them — or
the whole directory — is always safe.  The result store never sees the
sidecars; it only walks ``.pkl`` entries.

The runtime resolves the cap and store root (``REPRO_SOLVE_TABLE``,
``REPRO_CACHE_DIR``) and installs a :func:`shared_table` per run and
per unit of work; this module reads no environment.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from pathlib import Path
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
    "TABLE_SCHEMA_VERSION",
    "peek_tables",
    "reset_shared_tables",
    "shared_table",
    "sidecar_summary",
]

#: Bump when the sidecar layout or the digest recipe changes; the
#: version prefixes every sidecar name, so old sidecars are simply never
#: looked up again.  2: rows fill on demand (NaN until solved, per-row
#: ``null`` labels) and the labels file is written before the ``.npy``.
TABLE_SCHEMA_VERSION = 2

#: Default ``n`` cap — mirrors ``REPRO_SOLVE_TABLE``'s default.  A full
#: table at the cap is two float64 rows of ``n + 1`` entries (~32 KiB),
#: so even hundreds of (method, alpha, n) combinations stay tiny.
DEFAULT_TABLE_CAP = 2048

#: Subdirectory of the store root holding the sidecars.
_SIDECAR_DIR = "solvetable"
_SIDECAR_PREFIX = f"v{TABLE_SCHEMA_VERSION}-"
_SIDECAR_SUFFIXES = (".npy", ".labels.json")


def _sidecar_name(payload: tuple, alpha: float, n: int) -> str:
    """Stable sidecar name (without suffix) for one (payload, alpha, n) table.

    ``repr`` over a primitives-only tuple is stable across processes
    (payloads are part of the cache contract; floats repr losslessly).
    """
    key = repr((payload, float(alpha), int(n)))
    return _SIDECAR_PREFIX + hashlib.sha256(key.encode("utf-8")).hexdigest()


class _Entry:
    """One (payload, alpha, n) table: ``n + 1`` rows, NaN where unsolved.

    ``labels`` is ``None`` while the method has labelled no row, else a
    per-row list with ``None`` where unset.
    """

    __slots__ = ("lower", "upper", "labels")

    def __init__(
        self, lower: np.ndarray, upper: np.ndarray, labels: list | None = None
    ) -> None:
        self.lower = lower
        self.upper = upper
        self.labels = labels

    def unsolved(self, taus: np.ndarray) -> np.ndarray:
        """The rows of *taus* this table does not hold yet."""
        return taus[np.isnan(self.lower[taus]) | np.isnan(self.upper[taus])]


class SolveTable:
    """Process-wide memo of (method, alpha, n) interval tables.

    Parameters
    ----------
    root:
        Store root to persist sidecars under (``<root>/solvetable/``),
        or ``None`` for a memory-only table.
    cap:
        Largest ``n`` tables are kept for.  ``0`` disables serving
        entirely (every :meth:`serve` returns ``None``).

    Thread-safe: lookups and fills run under an internal lock that is
    recreated when the table crosses a ``fork`` (a worker forked while
    another thread held the lock must not inherit it locked).
    """

    def __init__(
        self, root: str | Path | None = None, cap: int = DEFAULT_TABLE_CAP
    ) -> None:
        self.root = Path(root) if root is not None else None
        self.cap = int(cap)
        self._entries: dict[tuple, _Entry] = {}
        self._dirty: set[tuple] = set()
        self._lock = threading.Lock()
        self._flush_lock = threading.Lock()
        self._pid = os.getpid()
        self._hits = 0
        self._misses = 0
        self._ineligible = 0
        self._builds = 0
        self._rows_solved = 0
        self._loads = 0
        self._build_seconds = 0.0
        self._rows_served = 0

    # -- fork safety ---------------------------------------------------

    def _checked_lock(self) -> threading.Lock:
        if os.getpid() != self._pid:
            # Forked child: the inherited locks may be held by a thread
            # that does not exist here.  Entries are plain arrays and
            # survive the fork; only the locks need recreating.
            self._lock = threading.Lock()
            self._flush_lock = threading.Lock()
            self._pid = os.getpid()
        return self._lock

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

    # -- persistence ---------------------------------------------------

    def _sidecar_stem(self, key: tuple) -> str | None:
        if self.root is None:
            return None
        return os.path.join(self.root, _SIDECAR_DIR, _sidecar_name(*key))

    def _load_sidecar(self, key: tuple) -> _Entry | None:
        stem = self._sidecar_stem(key)
        if stem is None:
            return None
        n = key[2]
        try:
            # Copy-on-write map: fills write private pages, never the file.
            bounds = np.load(stem + ".npy", mmap_mode="c")
        except (OSError, ValueError):
            return None  # absent, unreadable, or not an .npy: solve afresh
        if bounds.dtype != np.float64 or bounds.shape != (2, n + 1):
            return None  # foreign or truncated sidecar: solve over it
        entry = _Entry(bounds[0], bounds[1])
        try:
            with open(stem + ".labels.json", encoding="utf-8") as handle:
                labels = json.load(handle)
        except FileNotFoundError:
            return entry  # the method labels no row
        except (OSError, ValueError):
            return None
        if not (
            isinstance(labels, list)
            and len(labels) == n + 1
            and all(label is None or isinstance(label, str) for label in labels)
        ):
            return None
        # A held row without its label (two processes' pairs crossed on
        # disk) is solved again rather than served unlabelled.
        unlabelled = np.array([label is None for label in labels])
        entry.lower[unlabelled] = np.nan
        entry.upper[unlabelled] = np.nan
        entry.labels = labels
        return entry

    def _write_sidecar(
        self, key: tuple, bounds: np.ndarray, labels: list | None
    ) -> None:
        stem = self._sidecar_stem(key)
        tag = f".tmp-{os.getpid()}-{threading.get_ident()}"
        if labels is not None:
            # Labels first; the .npy replace below commits the pair.
            with open(stem + ".labels.json" + tag, "w", encoding="utf-8") as handle:
                json.dump(labels, handle)
            os.replace(stem + ".labels.json" + tag, stem + ".labels.json")
        with open(stem + ".npy" + tag, "wb") as handle:
            np.save(handle, bounds)
        os.replace(stem + ".npy" + tag, stem + ".npy")

    def flush(self) -> int:
        """Write every table filled since its last write; returns how many.

        Each dirty table is snapshotted under the table lock and written
        outside it, so solves never wait on the disk.  Flushes run one
        at a time, so a later snapshot never lands before an earlier
        one.  A memory-only table never has anything to write.
        """
        lock = self._checked_lock()
        with self._flush_lock:
            with lock:
                snapshots = []
                for key in self._dirty:
                    entry = self._entries[key]
                    bounds = np.stack([entry.lower, entry.upper])
                    labels = None if entry.labels is None else list(entry.labels)
                    snapshots.append((key, bounds, labels))
                self._dirty.clear()
            if not snapshots:
                return 0
            written = 0
            try:
                os.makedirs(os.path.join(self.root, _SIDECAR_DIR), exist_ok=True)
                for snapshot in snapshots:
                    self._write_sidecar(*snapshot)
                    written += 1
            except OSError:
                # Persistence is an optimisation; a read-only or full
                # disk must not fail the unit that filled the table.
                pass
            return written

    # -- filling -------------------------------------------------------

    def _fill(
        self,
        method: "IntervalMethod",
        alpha: float,
        missing: list[tuple[tuple, _Entry, np.ndarray]],
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
        self._build_seconds += time.perf_counter() - start
        self._builds += 1
        self._rows_solved += len(grid)
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
            if self.root is not None:
                self._dirty.add(key)

    # -- the serving API ----------------------------------------------

    def serve(
        self,
        method: "IntervalMethod",
        evidences: Sequence["Evidence"],
        alpha: float,
        build: bool = True,
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
        it neither solved nor loaded anything, a *miss* when it had to
        load a sidecar, solve rows, or (with ``build=False``) found a
        row missing; ineligible calls count as ``ineligible``.
        """
        if self.cap <= 0:
            return None
        payload = method_payload(method)
        if payload is None:
            self._ineligible += 1
            return None
        pairs = self._eligible_taus(evidences)
        if pairs is None:
            self._ineligible += 1
            return None
        alpha = float(alpha)
        with self._checked_lock():
            groups: list[tuple[np.ndarray, np.ndarray, _Entry]] = []
            missing: list[tuple[tuple, _Entry, np.ndarray]] = []
            loaded = False
            for n in np.unique(pairs[:, 1]).tolist():
                key = (payload, alpha, n)
                entry = self._entries.get(key)
                if entry is None:
                    entry = self._load_sidecar(key)
                    if entry is not None:
                        self._loads += 1
                        self._entries[key] = entry
                        loaded = True
                    else:
                        entry = _Entry(np.full(n + 1, np.nan), np.full(n + 1, np.nan))
                rows = np.flatnonzero(pairs[:, 1] == n)
                taus = pairs[rows, 0]
                groups.append((rows, taus, entry))
                unsolved = entry.unsolved(np.unique(taus))
                if unsolved.size:
                    missing.append((key, entry, unsolved))
            if missing:
                if not build:
                    self._misses += 1
                    return None
                self._fill(method, alpha, missing)
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
            if loaded or missing:
                self._misses += 1
            else:
                self._hits += 1
            self._rows_served += count
        return BatchIntervals(
            lower=lower,
            upper=upper,
            alpha=alpha,
            method=method.name,
            labels=tuple(labels) if labels is not None else None,
        )

    # -- introspection -------------------------------------------------

    def stats(self) -> dict:
        """Counter snapshot for telemetry and service pings.

        ``builds`` counts fill solves (one ``compute_batch`` each) and
        ``rows_solved`` the rows they solved.
        """
        return {
            "cap": self.cap,
            "root": str(self.root) if self.root is not None else None,
            "entries": len(self._entries),
            "hits": self._hits,
            "misses": self._misses,
            "ineligible": self._ineligible,
            "builds": self._builds,
            "rows_solved": self._rows_solved,
            "sidecar_loads": self._loads,
            "build_seconds": self._build_seconds,
            "rows_served": self._rows_served,
        }

    def __repr__(self) -> str:
        root = str(self.root) if self.root is not None else None
        return f"SolveTable(root={root!r}, cap={self.cap})"


# ----------------------------------------------------------------------
# Process-wide registry
# ----------------------------------------------------------------------

_REGISTRY: dict[tuple[str | None, int], SolveTable] = {}
_REGISTRY_LOCK = threading.Lock()
_REGISTRY_PID = os.getpid()


def _registry_lock() -> threading.Lock:
    global _REGISTRY_LOCK, _REGISTRY_PID
    if os.getpid() != _REGISTRY_PID:
        _REGISTRY_LOCK = threading.Lock()
        _REGISTRY_PID = os.getpid()
    return _REGISTRY_LOCK


def shared_table(
    root: str | Path | None = None, cap: int = DEFAULT_TABLE_CAP
) -> SolveTable:
    """The process-wide :class:`SolveTable` for (*root*, *cap*).

    Runs and service requests sharing a store root share one table, so
    rows solved for one run serve every later run in the process.
    """
    key = (str(Path(root).resolve()) if root is not None else None, int(cap))
    with _registry_lock():
        table = _REGISTRY.get(key)
        if table is None:
            table = SolveTable(root=root, cap=cap)
            _REGISTRY[key] = table
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


def sidecar_summary(root: str | Path) -> dict:
    """Sidecar inventory under *root* for ``cache info``.

    Returns ``{"path", "entries", "bytes", "rows_solved", "stale_files",
    "stale_bytes"}``: ``entries`` counts current-schema tables,
    ``bytes`` their files (``.npy`` plus labels), and ``rows_solved``
    the rows they hold (read through memory-mapped loads, so this stays
    cheap even for large inventories).  Every other file in the
    directory — an older schema's sidecars, a write's leftover tmp
    file — is stale: counted apart and never read by a table.
    """
    base = Path(root) / _SIDECAR_DIR
    summary = {
        "path": str(base),
        "entries": 0,
        "bytes": 0,
        "rows_solved": 0,
        "stale_files": 0,
        "stale_bytes": 0,
    }
    if not base.is_dir():
        return summary
    for path in sorted(base.iterdir()):
        try:
            size = path.stat().st_size
        except OSError:  # pragma: no cover - raced a sweep
            continue
        name = path.name
        if not (name.startswith(_SIDECAR_PREFIX) and name.endswith(_SIDECAR_SUFFIXES)):
            summary["stale_files"] += 1
            summary["stale_bytes"] += size
            continue
        summary["bytes"] += size
        if not name.endswith(".npy"):
            continue
        summary["entries"] += 1
        try:
            bounds = np.load(path, mmap_mode="r")
            held = ~np.isnan(bounds).any(axis=0)
            summary["rows_solved"] += int(np.count_nonzero(held))
        except (OSError, ValueError):
            continue
    return summary
