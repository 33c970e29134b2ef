"""Content-addressed disk cache for computed study cells.

Each cell result is stored in its own file named by the cell's
:func:`~repro.runtime.spec.cache_token` — a hash of the cell spec, the
settings it ran under, and the cache version.  That gives three
properties the execution layer relies on:

* **re-run skipping** — an unchanged grid is served entirely from disk;
* **resume after interruption** — cells are persisted one by one as
  they complete, so a killed grid continues where it stopped;
* **safety** — any input change (seed, repetitions, alpha, code
  version) changes the token, so stale payloads are unreachable rather
  than wrong.

Sharded cells additionally persist *per-shard* partial payloads.  Those
are transient scaffolding for resume, so they live in a **group** — a
subtree keyed by the parent cell's token — that the executor drops
wholesale once the merged result is durable.  Grouping by the
chunking-independent parent token means a resume under a *different*
chunk size still sweeps the stale windows of the old chunking away at
merge time instead of stranding them on disk.

Writes are atomic (temp file + ``os.replace``), so a crash mid-write
leaves no corrupt entry; unreadable entries are treated as misses.

The store is additionally safe for **concurrent same-process writers**:
the service front end (:mod:`repro.runtime.service`) shares one store
across many simultaneously-executing requests, so any number of
:class:`ResultStore` instances rooted at the same directory — in any
number of threads — may save, discard, consolidate, and scan at once.
A process-wide lock per resolved root serialises the mutating paths
(temp-file names are also thread-distinct, so two threads persisting
the same token can never collide on one temp file), and the scan paths
tolerate entries vanishing mid-iteration under a racing sweep.
"""

from __future__ import annotations

import itertools
import os
import pickle
import shutil
import threading
import warnings
from pathlib import Path
from typing import Any, Union

__all__ = ["ResultStore"]

#: Distinguishes concurrent writers' temp files within one process —
#: pid alone is not enough once two threads persist the same token.
_TMP_COUNTER = itertools.count()

#: One re-entrant lock per resolved store root, shared by every
#: ResultStore instance in the process that points at that directory.
#: Keyed by absolute path so two instances built from different
#: relative spellings of the same root still serialise against each
#: other.  Cross-*process* writers were already safe (atomic replace,
#: unreadable-entry-as-miss); this closes the same-process races the
#: service's shared store introduces (mkdir vs prune, save vs rmtree).
_ROOT_LOCKS: dict[str, threading.RLock] = {}
_ROOT_LOCKS_GUARD = threading.Lock()


def _lock_for(root: Path) -> threading.RLock:
    key = str(root.expanduser().absolute())
    with _ROOT_LOCKS_GUARD:
        lock = _ROOT_LOCKS.get(key)
        if lock is None:
            lock = _ROOT_LOCKS[key] = threading.RLock()
        return lock


class ResultStore:
    """Pickle-per-entry result cache rooted at a directory.

    Parameters
    ----------
    root:
        Cache directory; created on first write.  Top-level entries are
        sharded by the first two hex digits of the token to keep
        directories small on large grids; grouped entries live under
        ``shards/<prefix>/<group>/``.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self._lock = _lock_for(self.root)

    def _path(self, token: str, group: str | None = None) -> Path:
        if group is None:
            return self.root / token[:2] / f"{token}.pkl"
        return self._group_dir(group) / f"{token}.pkl"

    def _group_dir(self, group: str) -> Path:
        return self.root / "shards" / group[:2] / group

    def load(self, token: str, group: str | None = None) -> Any | None:
        """The stored payload for *token*, or ``None`` on any miss.

        *Any* failure to read an entry — corrupt pickle, truncation
        from a pre-atomic-write crash of a foreign writer, a payload
        class no longer importable, permission trouble — is a miss, not
        an error: the cell simply recomputes and overwrites.  A
        :class:`RuntimeWarning` naming the unreadable path is emitted
        so a silently rotting cache is at least visible.
        """
        path = self._path(token, group)
        try:
            with path.open("rb") as handle:
                return pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception as exc:
            warnings.warn(
                f"ignoring unreadable cache entry {path} "
                f"({type(exc).__name__}: {exc}); the cell will recompute",
                RuntimeWarning,
                stacklevel=2,
            )
            return None

    def save(self, token: str, payload: Any, group: str | None = None) -> Path:
        """Atomically persist *payload* under *token*; returns the path.

        Thread-safe: the root lock serialises the mkdir/replace pair
        against concurrent prunes and group sweeps, and the temp-file
        name is unique per writer (pid *and* a process-wide counter),
        so simultaneous saves of the same token from different threads
        each complete atomically — last replace wins, both payloads
        identical by content addressing.
        """
        path = self._path(token, group)
        tmp = path.with_name(
            f".{path.name}.tmp-{os.getpid()}-{next(_TMP_COUNTER)}"
        )
        with self._lock:
            path.parent.mkdir(parents=True, exist_ok=True)
            try:
                with tmp.open("wb") as handle:
                    pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except FileNotFoundError:
                # A foreign *process* pruned the freshly-made parent
                # between mkdir and replace (same-process prunes hold
                # our lock).  Rebuild and retry once.
                path.parent.mkdir(parents=True, exist_ok=True)
                with tmp.open("wb") as handle:
                    pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
        return path

    def contains(self, token: str, group: str | None = None) -> bool:
        """Whether an entry exists for *token* (without reading it)."""
        return self._path(token, group).exists()

    def discard(self, token: str, group: str | None = None) -> bool:
        """Remove the entry for *token*; returns whether one existed.

        The entry's now-possibly-empty parent directories (the
        two-hex-digit prefix, or a group's whole ``shards/<prefix>/
        <group>`` chain) are pruned too, so discards leave no skeleton
        behind.
        """
        path = self._path(token, group)
        with self._lock:
            try:
                path.unlink()
            except FileNotFoundError:
                return False
            self._prune(path.parent)
        return True

    def discard_many(self, tokens, group: str | None = None) -> int:
        """Remove the entries for *tokens*; returns the number removed.

        The batch form of :meth:`discard` — one consolidation sweep,
        one empty-directory prune at the end instead of one per entry.
        """
        removed = 0
        parents = set()
        with self._lock:
            for token in tokens:
                path = self._path(token, group)
                try:
                    path.unlink()
                except FileNotFoundError:
                    continue
                removed += 1
                parents.add(path.parent)
            for parent in parents:
                self._prune(parent)
        return removed

    def discard_group(self, group: str) -> int:
        """Remove every entry of *group*; returns the number removed.

        Used by the executor to drop a sharded cell's transient
        per-shard entries — of the current chunking *and* any stale
        chunking left by interrupted runs — once the merged cell result
        has been persisted.  The group's prefix directory (and the
        ``shards`` root after the last group) is pruned so swept
        scaffolding leaves no skeleton behind.
        """
        directory = self._group_dir(group)
        with self._lock:
            if not directory.exists():
                return 0
            removed = sum(1 for _ in directory.glob("*.pkl"))
            shutil.rmtree(directory, ignore_errors=True)
            self._prune(directory.parent)
        return removed

    def _prune(self, directory: Path) -> None:
        """Remove *directory* and its ancestors while empty, up to the root.

        Stops at the first non-empty level (``rmdir`` refuses to remove
        a populated directory) and never removes the store root itself,
        so pruning after any discard is always safe.
        """
        root = self.root.resolve()
        directory = directory.resolve()
        if directory != root and root not in directory.parents:
            return  # not inside this store; nothing to prune
        while directory != root:
            try:
                directory.rmdir()
            except OSError:
                return
            directory = directory.parent

    def _entries(self) -> list[Path]:
        """Snapshot of every ``.pkl`` entry currently on disk.

        Built on :func:`os.walk`, which skips directories that vanish
        mid-scan (a racing sweep in another process), instead of
        ``rglob`` which raises; same-process sweeps are excluded by the
        root lock callers hold.
        """
        entries = []
        for dirpath, _, filenames in os.walk(self.root):
            base = Path(dirpath)
            entries.extend(
                base / name for name in filenames if name.endswith(".pkl")
            )
        return entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries())

    def stats(self, group_prefix: str | None = None) -> dict:
        """Entry counts and byte totals, broken down by group.

        Returns ``{"root": ..., "entries", "bytes", "cells": {...},
        "groups": {group: {"entries", "bytes"}, ...}}`` where
        ``cells`` covers the top-level (merged cell) entries and each
        ``groups`` key is one sharded cell's transient resume group.
        *group_prefix* restricts the group breakdown to groups whose
        token starts with the prefix.  Read-only: the operational
        companion (``python -m repro cache info``) to the journal's
        cache-hit metrics.
        """
        cells = {"entries": 0, "bytes": 0}
        groups: dict[str, dict] = {}
        with self._lock:
            shards_root = self.root / "shards"
            for path in self._entries():
                try:
                    size = path.stat().st_size
                except OSError:  # pragma: no cover - entry raced a sweep
                    continue
                try:
                    relative = path.relative_to(shards_root)
                except ValueError:
                    cells["entries"] += 1
                    cells["bytes"] += size
                    continue
                group = relative.parts[1] if len(relative.parts) > 2 else "?"
                if group_prefix is not None and not group.startswith(
                    group_prefix
                ):
                    continue
                entry = groups.setdefault(group, {"entries": 0, "bytes": 0})
                entry["entries"] += 1
                entry["bytes"] += size
        grouped = sum(entry["entries"] for entry in groups.values())
        grouped_bytes = sum(entry["bytes"] for entry in groups.values())
        return {
            "root": str(self.root),
            "entries": cells["entries"] + grouped,
            "bytes": cells["bytes"] + grouped_bytes,
            "cells": cells,
            "groups": dict(sorted(groups.items())),
        }

    def clear(self) -> int:
        """Remove every entry (grouped included); returns the number removed.

        Empty subdirectories are swept too: after a clear the store
        root holds nothing at all.
        """
        with self._lock:
            removed = 0
            for path in self._entries():
                path.unlink(missing_ok=True)
                removed += 1
            directories = [
                Path(dirpath)
                for dirpath, _, _ in os.walk(self.root)
                if Path(dirpath) != self.root
            ]
            for directory in sorted(directories, reverse=True):
                try:
                    directory.rmdir()
                except OSError:
                    pass
        return removed

    def __repr__(self) -> str:
        return f"ResultStore({str(self.root)!r})"
