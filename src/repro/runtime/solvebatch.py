"""Cross-request interval-solve batching for the audit service.

The PR 1 batch engine (:mod:`repro.intervals.batch`) amortises solve
overhead across *rows*, but each service request still drives its own
evaluation loop: N small concurrent requests pay N interpreter-bound
dispatches into the same vectorised kernels.  :class:`SolveBroker`
closes that gap.  It sits between the evaluation loops of concurrent
requests (installed as the ambient pool of
:meth:`repro.intervals.base.IntervalMethod.solve_batch` via
:func:`~repro.intervals.base.use_solve_pool`) and coalesces their
pending solves over a short window, flushing each group as **one**
``compute_batch`` call through
:func:`~repro.intervals.batch.compute_batch_pooled`.

Grouping and correctness
------------------------

Pending work is grouped by ``(method, alpha)``, with the method keyed
through :func:`~repro.runtime.cells.method_payload` — a primitive tuple
capturing class and priors — so two requests configured with
*equal* methods coalesce even though they hold distinct instances.
Methods the payload cannot encode fall back to identity keying and
simply never cross-coalesce (still correct, just unbatched across
requests).

When a small-n solve table (:mod:`repro.intervals.table`) is installed,
each entry captures its caller's ambient table at enqueue time; the
flush serves table-eligible entries by lookup — each entry solving
only the rows its table does not hold yet, on the leader's thread,
for every pooled caller to share — and pools only the remainder.
Warm-table solves never reach the broker at all: ``solve_batch``
consults the table (without solving) before enqueueing.

The broker is also fork-aware: a fork-start process-pool worker clones
the submitting thread, context (and any installed channel) included,
but the clone's leader threads and pending callers don't exist on the
child's side of the fork — so solves in any process other than the
broker's own compute directly instead of enqueueing (bit-identical,
just unbatched).

Because every batch kernel is row-independent, the slice a caller gets
back from a pooled flush is **bit-identical** to the ``compute_batch``
it would have run alone; the broker changes wall-clock, never numbers.
That contract is pinned by a hypothesis property over seeded concurrent
schedules in ``tests/test_runtime_service.py``.

Flush policy
------------

The first caller into an empty group becomes the group's *leader* and
waits on the broker's condition variable; later callers (followers)
append their segment and block on a per-entry event.  The leader
flushes when the first of these holds:

* the group reached ``max_batch`` coalesced callers;
* the coalescing window expired;
* every attached participant is blocked in a solve — nobody is left to
  feed the batch, so waiting longer buys nothing (this is what makes a
  lone request pay ~zero added latency: it is the only participant, so
  its own arrival triggers an immediate flush);
* the broker is closing.

The flush itself runs *outside* the broker lock, so other groups keep
coalescing while one solves.  If a pooled flush raises, the leader
falls back to per-entry ``compute_batch`` calls so one caller's bad
evidence cannot poison its batch-mates.

Telemetry: each caller reports the flush it rode on its **own** run's
:class:`~repro.runtime.telemetry.RunTelemetry` bus (as a
``solve_batch_flush`` event) from its own thread, keeping per-run
journals single-threaded and per-request journal files uncorrupted.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import TYPE_CHECKING, Any, Sequence

from ..intervals.base import active_solve_table
from ..intervals.batch import compute_batch_pooled
from ..intervals.payloads import method_payload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..estimators.base import Evidence
    from ..intervals.base import IntervalMethod
    from ..intervals.batch import BatchIntervals
    from .telemetry import RunTelemetry

__all__ = ["BrokerChannel", "SolveBroker"]


class _Entry:
    """One caller's pending segment within a solve group."""

    __slots__ = ("channel", "evidences", "ready", "result", "error", "meta", "table")

    def __init__(
        self, channel: "BrokerChannel", evidences: tuple, table: Any = None
    ) -> None:
        self.channel = channel
        self.evidences = evidences
        self.ready = threading.Event()
        self.result: "BatchIntervals | None" = None
        self.error: BaseException | None = None
        self.meta: dict[str, Any] | None = None
        # The caller's ambient solve table, captured at enqueue time so
        # the flush (which runs on the leader's thread, under the
        # leader's context) serves each entry against *its* table.
        self.table = table


class _Group:
    """Pending entries for one ``(method, alpha)`` solve key."""

    __slots__ = ("method", "alpha", "entries", "deadline")

    def __init__(
        self, method: "IntervalMethod", alpha: float, deadline: float
    ) -> None:
        self.method = method
        self.alpha = alpha
        self.entries: list[_Entry] = []
        self.deadline = deadline


class SolveBroker:
    """Coalesces interval solves from concurrent runs into shared batches.

    Parameters
    ----------
    window:
        Maximum seconds a pending solve is held open for co-batching.
        ``0`` turns the broker into a transparent pass-through (every
        solve computes directly).
    max_batch:
        Coalesced-caller count at which a group flushes immediately.

    One broker is shared by a whole :class:`~repro.runtime.service`
    process; each run attaches a :class:`BrokerChannel` (pairing the
    broker with that run's telemetry) and installs it as the ambient
    solve pool for the duration of its plan execution.
    """

    name = "solve-broker"

    def __init__(self, window: float = 0.005, max_batch: int = 64) -> None:
        from .settings import resolve_solve_batch_max, resolve_solve_batch_window

        self.window = resolve_solve_batch_window(window)
        self.max_batch = resolve_solve_batch_max(max_batch)
        self._cond = threading.Condition()
        # Owning process: the fork-start process pool clones the
        # submitting thread, whose context may carry an installed
        # BrokerChannel.  The clone's leader threads don't exist on the
        # child's side of the fork (nor do its pending groups' callers),
        # so a forked worker joining an inherited broker copy would wait
        # forever.  _solve compares against this pid and computes
        # directly in any process that didn't create the broker.
        self._pid = os.getpid()
        self._groups: dict[tuple, _Group] = {}
        self._participants = 0
        self._waiting = 0
        self._closed = False
        self._flush_ids = itertools.count(1)
        # Lifetime flush statistics (service `ping` / tests).
        self.flushes = 0
        self.coalesced_flushes = 0
        self.rows_solved = 0

    # -- lifecycle -----------------------------------------------------

    def channel(self, telemetry: "RunTelemetry | None" = None) -> "BrokerChannel":
        """A per-run handle pairing this broker with *telemetry*."""
        return BrokerChannel(self, telemetry)

    def close(self) -> None:
        """Flush every pending group and stop coalescing.

        Waiting leaders wake and flush their groups immediately; solves
        arriving after close compute directly (correct, just unbatched),
        so drain-on-shutdown never strands a caller.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed

    def describe(self) -> dict[str, Any]:
        """JSON-ready broker summary (service ``ping`` output)."""
        return {
            "window": self.window,
            "max_batch": self.max_batch,
            "flushes": self.flushes,
            "coalesced_flushes": self.coalesced_flushes,
            "rows_solved": self.rows_solved,
        }

    def _attach(self) -> None:
        with self._cond:
            self._participants += 1

    def _detach(self) -> None:
        with self._cond:
            self._participants -= 1
            # One fewer feeder: leaders re-check all-waiting.
            self._cond.notify_all()

    # -- solving -------------------------------------------------------

    def _solve(
        self,
        channel: "BrokerChannel",
        method: "IntervalMethod",
        evidences: Sequence["Evidence"],
        alpha: float,
    ) -> "BatchIntervals":
        evidences = tuple(evidences)
        table = active_solve_table()
        if (
            self._closed
            or self.window <= 0.0
            or not evidences
            or os.getpid() != self._pid
        ):
            # Pass-through solves still get table service (with build:
            # nobody is pooled behind this caller), matching what
            # solve_batch would have done with no pool installed.
            if table is not None:
                served = table.serve(method, evidences, alpha, build=True)
                if served is not None:
                    return served
            return method.compute_batch(evidences, alpha)
        payload = method_payload(method)
        # Unencodable methods key by identity: same-instance solves can
        # still coalesce, distinct instances never falsely merge.
        key = (payload or ("instance", id(method)), float(alpha))
        entry = _Entry(channel, evidences, table)
        with self._cond:
            if self._closed:
                return method.compute_batch(evidences, alpha)
            group = self._groups.get(key)
            leader = group is None
            if leader:
                group = _Group(method, float(alpha), time.monotonic() + self.window)
                self._groups[key] = group
            group.entries.append(entry)
            self._waiting += 1
            # Followers filling a batch (and detaching runs) must wake
            # leaders so the max-batch / all-waiting triggers re-check.
            self._cond.notify_all()
            if leader:
                self._lead(key, group)
        if not leader:
            entry.ready.wait()
        if entry.error is not None:
            raise entry.error
        if entry.meta is not None:
            channel.record_flush(entry.meta)
        assert entry.result is not None
        return entry.result

    def _lead(self, key: tuple, group: _Group) -> None:
        """Wait out the window, then flush.  Called with the lock held;
        returns with the lock held (the ``with self._cond`` re-acquires
        around the flush automatically via explicit release/acquire)."""
        while True:
            now = time.monotonic()
            if (
                self._closed
                or len(group.entries) >= self.max_batch
                or now >= group.deadline
                or (0 < self._participants <= self._waiting)
            ):
                break
            self._cond.wait(timeout=group.deadline - now)
        if self._closed:
            reason = "closed"
        elif len(group.entries) >= self.max_batch:
            reason = "max_batch"
        elif 0 < self._participants <= self._waiting:
            reason = "all_waiting"
        else:
            reason = "deadline"
        del self._groups[key]
        entries = group.entries
        self._waiting -= len(entries)
        self.flushes += 1
        self.rows_solved += sum(len(entry.evidences) for entry in entries)
        if len(entries) > 1:
            self.coalesced_flushes += 1
        self._cond.release()
        try:
            self._flush(group, entries, reason)
        finally:
            self._cond.acquire()

    def _flush(self, group: _Group, entries: list[_Entry], reason: str) -> None:
        """One pooled solve for *entries*; runs outside the broker lock."""
        flush_id = next(self._flush_ids)
        rows = sum(len(entry.evidences) for entry in entries)
        meta = {
            "flush_id": flush_id,
            "reason": reason,
            "method": group.method.name,
            "alpha": group.alpha,
            "callers": len(entries),
            "rows": rows,
        }
        # Solve tables first: entries whose captured table can serve the
        # whole segment (solving its missing rows here, on the leader's
        # thread) skip the pooled solve entirely; the rest pool.  A table
        # serve is bit-identical to the pooled slice, so the mix is
        # invisible to callers.
        served: dict[int, "BatchIntervals"] = {}
        for index, entry in enumerate(entries):
            if entry.table is None:
                continue
            try:
                batch = entry.table.serve(
                    group.method, entry.evidences, group.alpha, build=True
                )
            except Exception:  # table trouble must never poison a flush
                batch = None
            if batch is not None:
                served[index] = batch
        meta["table_hits"] = len(served)
        pending = [
            entry for index, entry in enumerate(entries) if index not in served
        ]
        try:
            try:
                if pending:
                    slices = compute_batch_pooled(
                        group.method,
                        [entry.evidences for entry in pending],
                        group.alpha,
                    )
                    for entry, batch in zip(pending, slices):
                        entry.result = batch
                for index, batch in served.items():
                    entries[index].result = batch
                for entry in entries:
                    entry.meta = dict(meta, rows_own=len(entry.evidences))
            except Exception:
                # Pooled solve failed — isolate: each caller gets its own
                # compute (bit-identical anyway) and only genuinely bad
                # segments raise, in their own caller's thread.
                for entry in entries:
                    if entry.result is not None:
                        continue
                    try:
                        entry.result = group.method.compute_batch(
                            entry.evidences, group.alpha
                        )
                    except BaseException as exc:  # noqa: BLE001
                        entry.error = exc
        finally:
            for entry in entries:
                entry.ready.set()
        # The leader's own entry is resolved in its calling frame, same
        # as every follower — nothing left to do here.


class BrokerChannel:
    """A per-run handle on a shared :class:`SolveBroker`.

    Implements the ambient-pool protocol
    (``solve(method, evidences, alpha)``) expected by
    :meth:`~repro.intervals.base.IntervalMethod.solve_batch`, and is a
    context manager: entering attaches the run as a broker participant
    (feeding the all-participants-waiting flush trigger), exiting
    detaches it.  Flush telemetry is reported per-caller on this run's
    own bus so journals stay single-threaded.
    """

    def __init__(
        self, broker: SolveBroker, telemetry: "RunTelemetry | None" = None
    ) -> None:
        self._broker = broker
        self._telemetry = telemetry

    @property
    def broker(self) -> SolveBroker:
        return self._broker

    def __enter__(self) -> "BrokerChannel":
        self._broker._attach()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._broker._detach()

    def solve(
        self,
        method: "IntervalMethod",
        evidences: Sequence["Evidence"],
        alpha: float,
    ) -> "BatchIntervals":
        return self._broker._solve(self, method, evidences, alpha)

    def record_flush(self, meta: dict[str, Any]) -> None:
        """Emit this caller's share of a flush on its own telemetry bus."""
        if self._telemetry is not None:
            self._telemetry.emit("solve_batch_flush", **meta)
