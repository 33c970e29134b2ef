"""Precomputed small-n interval tables: the memoised solve hot path.

The paper's Monte-Carlo loops draw ``tau ~ Bin(n, mu)`` and solve an
interval per draw — but a ``Bin(n, mu)`` outcome has only ``n + 1``
distinct values, so for any fixed ``(method, alpha, n)`` there are only
``n + 1`` distinct intervals *ever*.  A :class:`SolveTable` computes
that full ``n + 1``-row table once (one vectorised ``compute_batch``
over ``tau = 0 .. n``) and thereafter serves every solve against it by
indexing, which turns the dominant per-rep root-find into a gather.

Because the table rows *are* ``compute_batch`` outputs — built by the
very method instance being served, stored at full float64 — a served
batch is bit-identical to a freshly solved one.  Tables therefore sit
on the same side of the determinism line as the solve pool: they
change wall-clock, never numbers, and never participate in cache
identity.

Serving is strict full-hit-or-``None``: a batch is served only when
*every* evidence row is table-eligible (an exact integer-count SRS
outcome with ``1 <= n <= cap`` whose derived columns match
:meth:`~repro.estimators.base.Evidence.from_counts` arithmetic
exactly).  Anything else — effective-sample designs, fractional
counts, out-of-cap ``n``, an unencodable method — falls through to the
normal solve path untouched.

Tables persist as memory-mapped ``.npy`` sidecars under
``<store root>/solvetable/`` (plus a ``.labels.json`` twin for
label-carrying selectors like aHPD), so a warm store serves even the
first solve of a new process without rebuilding.  Sidecars are written
atomically (tmp + ``os.replace``) and are invisible to the result
store itself, which only ever walks ``.pkl`` entries.

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
#: version participates in the digest, so old sidecars are simply
#: never looked up again (and a ``cache vacuum`` sweeps them).
TABLE_SCHEMA_VERSION = 1

#: Default ``n`` cap — mirrors ``REPRO_SOLVE_TABLE``'s default.  A full
#: table at the cap is two float64 rows of ``n + 1`` entries (~32 KiB),
#: so even hundreds of (method, alpha, n) combinations stay tiny.
DEFAULT_TABLE_CAP = 2048

#: Subdirectory of the store root holding the ``.npy`` sidecars.
_SIDECAR_DIR = "solvetable"


def _entry_digest(payload: tuple, alpha: float, n: int) -> str:
    """Stable sidecar name for one (payload, alpha, n) table.

    ``repr`` over a primitives-only tuple is stable across processes
    (payloads are part of the cache contract; floats repr losslessly),
    and the schema version inside the tuple retires old layouts.
    """
    key = repr((TABLE_SCHEMA_VERSION, payload, float(alpha), int(n)))
    return hashlib.sha256(key.encode("utf-8")).hexdigest()


class SolveTable:
    """Process-wide memo of full (method, alpha, n) interval tables.

    Parameters
    ----------
    root:
        Store root to persist sidecars under (``<root>/solvetable/``),
        or ``None`` for a memory-only table.
    cap:
        Largest ``n`` tables are built for.  ``0`` disables serving
        entirely (every :meth:`serve` returns ``None``).

    Thread-safe: entry lookup/build runs under an internal lock that is
    recreated when the table crosses a ``fork`` (a worker forked while
    another thread held the lock must not inherit it locked).
    """

    def __init__(
        self, root: str | Path | None = None, cap: int = DEFAULT_TABLE_CAP
    ) -> None:
        self.root = Path(root) if root is not None else None
        self.cap = int(cap)
        self._entries: dict[tuple, tuple] = {}
        self._lock = threading.Lock()
        self._pid = os.getpid()
        self._hits = 0
        self._misses = 0
        self._ineligible = 0
        self._builds = 0
        self._loads = 0
        self._build_seconds = 0.0
        self._rows_served = 0

    # -- fork safety ---------------------------------------------------

    def _checked_lock(self) -> threading.Lock:
        if os.getpid() != self._pid:
            # Forked child: the inherited lock may be held by a thread
            # that does not exist here.  Entries are plain arrays and
            # survive the fork; only the lock needs recreating.
            self._lock = threading.Lock()
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

    def _sidecar_paths(self, digest: str) -> tuple[Path, Path] | None:
        if self.root is None:
            return None
        base = self.root / _SIDECAR_DIR
        return base / f"{digest}.npy", base / f"{digest}.labels.json"

    def _load_sidecar(self, payload: tuple, alpha: float, n: int) -> tuple | None:
        paths = self._sidecar_paths(_entry_digest(payload, alpha, n))
        if paths is None:
            return None
        npy_path, labels_path = paths
        try:
            bounds = np.load(npy_path, mmap_mode="r")
        except (OSError, ValueError):
            return None  # absent, unreadable, or not an .npy — rebuild
        if bounds.ndim != 2 or bounds.shape != (2, n + 1):
            return None  # foreign or truncated sidecar: rebuild over it
        labels: tuple[str, ...] | None = None
        if labels_path.exists():
            try:
                raw = json.loads(labels_path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                return None
            if not isinstance(raw, list) or len(raw) != n + 1:
                return None
            labels = tuple(str(label) for label in raw)
        return bounds[0], bounds[1], labels

    def _store_sidecar(
        self,
        payload: tuple,
        alpha: float,
        n: int,
        lower: np.ndarray,
        upper: np.ndarray,
        labels: tuple[str, ...] | None,
    ) -> None:
        paths = self._sidecar_paths(_entry_digest(payload, alpha, n))
        if paths is None:
            return
        npy_path, labels_path = paths
        try:
            npy_path.parent.mkdir(parents=True, exist_ok=True)
            tmp = npy_path.with_suffix(f".tmp-{os.getpid()}")
            with open(tmp, "wb") as handle:
                np.save(handle, np.stack([lower, upper]))
            os.replace(tmp, npy_path)
            if labels is not None:
                tmp = labels_path.with_suffix(f".tmp-{os.getpid()}")
                tmp.write_text(json.dumps(list(labels)), encoding="utf-8")
                os.replace(tmp, labels_path)
        except OSError:
            # Persistence is an optimisation; a read-only or full disk
            # must not fail the solve that triggered the build.
            pass

    # -- build / lookup ------------------------------------------------

    def _build_entry(self, method: "IntervalMethod", alpha: float, n: int) -> tuple:
        """Compute the full n+1-row table via a direct ``compute_batch``.

        Never routes back through ``solve_batch`` — a build must not
        consult the table it is populating nor enqueue on a broker.
        """
        from ..estimators.base import Evidence

        start = time.perf_counter()
        grid = [Evidence.from_counts_fast(tau, n) for tau in range(n + 1)]
        batch = method.compute_batch(grid, alpha)
        elapsed = time.perf_counter() - start
        lower = np.ascontiguousarray(batch.lower, dtype=float)
        upper = np.ascontiguousarray(batch.upper, dtype=float)
        labels = batch.labels
        self._builds += 1
        self._build_seconds += elapsed
        return lower, upper, labels

    def _entry_for(
        self,
        payload: tuple,
        method: "IntervalMethod",
        alpha: float,
        n: int,
        build: bool,
    ) -> tuple[tuple | None, bool]:
        """``(entry, in_memory)``: the table (``None`` if absent and not
        built) and whether it was already in memory before this call."""
        key = (payload, float(alpha), int(n))
        with self._checked_lock():
            entry = self._entries.get(key)
            if entry is not None:
                return entry, True
            entry = self._load_sidecar(payload, alpha, n)
            if entry is not None:
                self._loads += 1
                self._entries[key] = entry
                return entry, False
            if not build:
                return None, False
            lower, upper, labels = self._build_entry(method, alpha, n)
            self._store_sidecar(payload, alpha, n, lower, upper, labels)
            entry = (lower, upper, labels)
            self._entries[key] = entry
            return entry, False

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
        table-eligible, or (with ``build=False``) a needed table does
        not exist yet and building here would serialise pooled callers
        behind construction; the broker's flush builds it instead.

        A non-``None`` return is bit-identical to
        ``method.compute_batch(evidences, alpha)``.

        Every eligible call counts once in :meth:`stats`: a *hit* when
        every needed ``(payload, alpha, n)`` table was already in
        memory, a *miss* when one had to be loaded, built, or (with
        ``build=False``) was absent; ineligible calls count as
        ``ineligible``.
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
        entries: dict[int, tuple] = {}
        in_memory = True
        for n in sorted({int(n) for n in pairs[:, 1]}):
            entry, cached = self._entry_for(payload, method, alpha, n, build)
            if entry is None:
                self._misses += 1
                return None
            entries[n] = entry
            in_memory &= cached
        count = pairs.shape[0]
        lower = np.empty(count, dtype=float)
        upper = np.empty(count, dtype=float)
        labelled = any(entry[2] is not None for entry in entries.values())
        labels: list[str] | None = [""] * count if labelled else None
        for n, entry in entries.items():
            rows = np.flatnonzero(pairs[:, 1] == n)
            taus = pairs[rows, 0]
            lower[rows] = np.asarray(entry[0])[taus]
            upper[rows] = np.asarray(entry[1])[taus]
            if labels is not None:
                entry_labels = entry[2]
                for row, tau in zip(rows, taus):
                    labels[row] = (
                        entry_labels[tau] if entry_labels is not None else method.name
                    )
        if in_memory:
            self._hits += 1
        else:
            self._misses += 1
        self._rows_served += count
        return BatchIntervals(
            lower=lower,
            upper=upper,
            alpha=float(alpha),
            method=method.name,
            labels=tuple(labels) if labels is not None else None,
        )

    # -- introspection -------------------------------------------------

    def stats(self) -> dict:
        """Counter snapshot for telemetry and service pings."""
        return {
            "cap": self.cap,
            "root": str(self.root) if self.root is not None else None,
            "entries": len(self._entries),
            "hits": self._hits,
            "misses": self._misses,
            "ineligible": self._ineligible,
            "builds": self._builds,
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
    tables built for one run serve every later run in the process.
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

    Returns ``{"path", "entries", "bytes", "rows"}`` where ``entries``
    counts ``.npy`` tables and ``rows`` their summed row counts (read
    from the headers via memory-mapped loads, so this stays cheap even
    for large inventories).
    """
    base = Path(root) / _SIDECAR_DIR
    entries = 0
    total_bytes = 0
    rows = 0
    if base.is_dir():
        for path in sorted(base.iterdir()):
            try:
                size = path.stat().st_size
            except OSError:  # pragma: no cover - raced a sweep
                continue
            total_bytes += size
            if path.suffix != ".npy":
                continue
            entries += 1
            try:
                rows += int(np.load(path, mmap_mode="r").shape[1])
            except (OSError, ValueError, IndexError):
                continue
    return {
        "path": str(base),
        "entries": entries,
        "bytes": total_bytes,
        "rows": rows,
    }
