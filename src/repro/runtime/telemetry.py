"""Run-scoped structured telemetry: event bus, journal sink, metrics.

Every plan execution owns one :class:`RunTelemetry` — an in-process
event bus the scheduler, executor, and backends emit structured
lifecycle events into: plan/cache-scan start and finish, units queued /
submitted / finished / failed, cache hits, shard merges, retries,
quarantines, and the run's solve-table and solve-batch usage.  Each
:class:`TelemetryEvent` carries the run id, a monotonic timestamp
relative to the run start, a wall clock, and a flat dict of JSON-ready
primitive fields.

Two built-in subscribers cover the common cases:

* :class:`JsonlTraceSink` appends one JSON object per event to a
  journal file (``--trace FILE`` / ``REPRO_TRACE_FILE``), giving a
  machine-readable record of *where a run's time went*;
* :class:`MetricsAggregate` folds the same events into in-memory run
  metrics (cache hit ratio, queue-wait vs execute time, retry and
  fault counts, per-cell-kind and per-backend totals) attached to the
  :class:`~repro.runtime.scheduler.PlanOutcome` as a volatile field.

Progress is a subscriber too: a run's ``RunContext(progress=...)`` is
either the stderr :class:`~repro.runtime.progress.ProgressReporter`
(``progress=True``) or any callable, and it receives every
:class:`TelemetryEvent` of the run — the same ``event`` name and
``fields`` the journal records, plus an in-process ``payload`` on a
few events.  The reporter renders from the fields alone, so a journal
line and a live event render the same.

Because the aggregate consumes nothing but the primitive event fields,
it can be *replayed* from a journal file alone
(:func:`replay_metrics`) — which is what ``python -m repro trace
summarize`` does, and what the test suite uses to prove the journal is
a complete record.

Telemetry is strictly non-semantic.  Events are emitted *about* the
run, never consulted *by* it: tracing on or off changes no result
bytes, no cache tokens, and no seeds — a property the suite pins with
a bit-identity test.
"""

from __future__ import annotations

import json
import time
import uuid
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Union

from ..exceptions import ValidationError

__all__ = [
    "EVENT_TYPES",
    "JsonlTraceSink",
    "MetricsAggregate",
    "RunTelemetry",
    "TelemetryEvent",
    "read_journal",
    "render_summary",
    "replay_metrics",
    "summarize_journal",
]

#: Journal schema version, stamped into every ``run_start`` event and
#: into emitted metric summaries.  Bump when event names or field
#: meanings change incompatibly.  2: ``solve_table`` hits count only
#: serves answered from tables already in memory (a first-touch build
#: or sidecar load is a miss), and the solver-kernel fallback event is
#: gone with the kernel choice.  3: tables fill on demand, so
#: ``solve_table.builds`` counts fill solves (not whole tables) and the
#: event gains ``rows_solved`` and ``sidecar_loads``.  4: tables live in
#: memory only, so ``solve_table`` loses ``sidecar_loads``, and its
#: counts are the run's own serves rather than the shared table's delta
#: over the run (which counted overlapping runs' serves twice).  5: the
#: adaptive chunk-sizing event type is gone, because a fixed
#: ``chunk_size`` is the one shard-size setting.  6: the detached-worker
#: backend is gone, and with it the ``worker_span``, ``lease_reclaim``
#: and ``dead_letter`` event types; ``retry`` carries the ``error`` of
#: the failed attempt; ``solve_table`` sums the counts every unit of the
#: run made, pool workers' included, and loses ``entries``.  7: the
#: fault-injecting backend moved into the test suite, and its
#: injection event type and fault count left the schema with it.
TRACE_SCHEMA_VERSION = 7

#: Every event type the runtime emits.  The journal-schema check (CI
#: and ``python -m repro trace check``) rejects anything else, so a
#: new emission site must register its type here.
EVENT_TYPES = frozenset(
    {
        "run_start",  # plan name, cell count, workers, schema version
        "scan_start",  # cache scan beginning
        "cache_hit",  # one cell served whole from the store
        "shard_cache_hit",  # one shard window resumed from the store
        "unit_queued",  # one unit (whole cell or window) entered the queue
        "scan_finish",  # cache scan done; pending unit count
        "unit_submitted",  # one unit handed to the backend (per attempt)
        "unit_finished",  # one unit returned a value
        "unit_failed",  # one attempt raised
        "retry",  # a failed unit was resubmitted; carries its error
        "quarantine",  # a unit exhausted retries under on_error=continue
        "cell_finished",  # one cell result complete (computed or cached)
        "shard_merged",  # a sharded cell's partials merged
        "shard_progress",  # intermediate shard completion (ticker feed)
        "solve_batch_flush",  # cross-request interval-solve batch flushed
        "solve_table",  # run's small-n solve-table usage (hits/builds)
        "run_finish",  # run over; status ok/aborted, wall seconds
    }
)


@dataclass(frozen=True)
class TelemetryEvent:
    """One structured lifecycle event of a plan execution.

    Attributes
    ----------
    event:
        Type name, always a member of :data:`EVENT_TYPES`.
    run_id:
        Short hex id of the owning run; every event of one execution
        carries the same value, so interleaved journals disentangle.
    t:
        Monotonic seconds since the run's telemetry started — immune
        to wall-clock jumps, the timestamp to diff.
    wall:
        Unix wall-clock seconds at emission (cross-host correlation;
        subject to clock skew between hosts).
    fields:
        Flat JSON-ready payload: strings, numbers, booleans, ``None``.
    payload:
        Optional rich in-process object (the ``CellResult`` of a
        ``cell_finished``, the ``CellSpec`` of a ``shard_progress``)
        for same-process subscribers.  Never serialised into the
        journal; the built-in subscribers do not read it.
    """

    event: str
    run_id: str
    t: float
    wall: float
    fields: dict = field(default_factory=dict)
    payload: Any = None


class RunTelemetry:
    """Event bus for one plan execution.

    Subscribers are plain callables receiving a :class:`TelemetryEvent`;
    they are invoked synchronously, in subscription order, from the
    emitting (scheduler) process.  A subscriber with a ``close`` method
    has it called when the bus closes at the end of the run.

    Parameters
    ----------
    run_id:
        Run identifier stamped into every event; ``None`` generates a
        fresh short hex id.
    """

    def __init__(self, run_id: str | None = None):
        self.run_id = run_id if run_id is not None else uuid.uuid4().hex[:12]
        self._t0 = time.monotonic()
        self._subscribers: list[Callable[[TelemetryEvent], None]] = []

    def subscribe(self, subscriber: Callable[[TelemetryEvent], None]) -> None:
        """Attach *subscriber* to every subsequent event."""
        self._subscribers.append(subscriber)

    def emit(self, event: str, payload: Any = None, **fields) -> TelemetryEvent:
        """Build and dispatch one event; returns it (tests use this)."""
        if event not in EVENT_TYPES:
            raise ValidationError(
                f"unknown telemetry event type {event!r}; "
                "register new types in repro.runtime.telemetry.EVENT_TYPES"
            )
        record = TelemetryEvent(
            event=event,
            run_id=self.run_id,
            # Rounded at the source so the in-memory aggregate and a
            # journal replay consume *identical* timestamps — replayed
            # metrics must match the live ones to the last digit.
            t=round(time.monotonic() - self._t0, 6),
            wall=time.time(),
            fields=fields,
            payload=payload,
        )
        for subscriber in self._subscribers:
            subscriber(record)
        return record

    def close(self) -> None:
        """Close every subscriber that has a ``close`` method."""
        for subscriber in self._subscribers:
            close = getattr(subscriber, "close", None)
            if close is not None:
                close()

    def __repr__(self) -> str:
        return (
            f"RunTelemetry(run_id={self.run_id!r}, "
            f"subscribers={len(self._subscribers)})"
        )


class JsonlTraceSink:
    """Appends one JSON object per event to a journal file.

    The file is opened lazily on the first event and appended to, so
    several runs of one process (or several processes on a shared
    filesystem, line-buffered) interleave whole lines; the ``run_id``
    field disentangles them.  Lines are flushed as written — a killed
    run's journal is complete up to the event in flight.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._handle: IO[str] | None = None

    def __call__(self, event: TelemetryEvent) -> None:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("a", encoding="utf-8")
        record = {
            "event": event.event,
            "run_id": event.run_id,
            "t": round(event.t, 6),
            "wall": round(event.wall, 6),
            **event.fields,
        }
        self._handle.write(json.dumps(record, sort_keys=True, default=repr) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def _zero_totals() -> dict:
    return {"units": 0, "execute_seconds": 0.0, "queue_wait_seconds": 0.0}


class MetricsAggregate:
    """In-memory run metrics folded from the event stream.

    Consumes nothing but primitive event fields, so the same class
    replays identically from a journal file (:func:`replay_metrics`) —
    the aggregate a live run attaches to its
    :class:`~repro.runtime.scheduler.PlanOutcome` and the one
    ``python -m repro trace summarize`` rebuilds from disk agree
    count for count.

    Queue wait is measured scheduler-side: the gap between a unit's
    submission to the backend and the collection of its result, minus
    the worker-reported execute seconds — i.e. everything that is not
    compute (queueing, dispatch, result round-trip).
    """

    def __init__(self) -> None:
        self.run_id: str | None = None
        self.events: dict[str, int] = defaultdict(int)
        self.cache_hits = 0
        self.cache_misses = 0
        self.shard_cache_hits = 0
        self.retries = 0
        self.failures = 0
        self.quarantined = 0
        self.solve_flushes = 0
        self.solve_coalesced_flushes = 0
        self.solve_rows = 0
        self.solve_max_callers = 0
        self.table_hits = 0
        self.table_misses = 0
        self.table_ineligible = 0
        self.table_builds = 0
        self.table_rows_solved = 0
        self.table_build_seconds = 0.0
        self.table_rows_served = 0
        self.table_cap: int | None = None
        self.execute_seconds = 0.0
        self.queue_wait_seconds = 0.0
        self.wall_seconds = 0.0
        self.status: str | None = None
        self.by_kind: dict[str, dict] = defaultdict(_zero_totals)
        self.by_backend: dict[str, dict] = defaultdict(_zero_totals)
        self.units: dict[str, dict] = {}
        self._submitted: dict[tuple[str, int], float] = {}

    # -- event folding --------------------------------------------------

    def __call__(self, event: TelemetryEvent) -> None:
        fields = event.fields
        self.events[event.event] += 1
        if self.run_id is None:
            self.run_id = event.run_id
        if event.event == "cache_hit":
            self.cache_hits += 1
        elif event.event == "shard_cache_hit":
            self.shard_cache_hits += 1
        elif event.event == "unit_submitted":
            self._submitted[(fields["token"], fields["attempt"])] = event.t
        elif event.event == "unit_finished":
            self._finish_unit(event)
        elif event.event == "unit_failed":
            self.failures += 1
            self._submitted.pop((fields["token"], fields["attempt"]), None)
        elif event.event == "retry":
            self.retries += 1
        elif event.event == "quarantine":
            self.quarantined += 1
        elif event.event == "solve_batch_flush":
            # One event per flush this run rode; `rows_own` is this
            # run's share, `callers` the coalesced-caller count of the
            # whole flush (other callers journal their own shares).
            self.solve_flushes += 1
            self.solve_rows += int(fields.get("rows_own", fields.get("rows", 0)))
            callers = int(fields.get("callers", 1))
            self.solve_max_callers = max(self.solve_max_callers, callers)
            if callers > 1:
                self.solve_coalesced_flushes += 1
        elif event.event == "solve_table":
            # One per run, carrying the run's own serves (its pool
            # workers' included), so multi-run aggregates sum.
            self.table_hits += int(fields.get("hits", 0))
            self.table_misses += int(fields.get("misses", 0))
            self.table_ineligible += int(fields.get("ineligible", 0))
            self.table_builds += int(fields.get("builds", 0))
            self.table_rows_solved += int(fields.get("rows_solved", 0))
            self.table_build_seconds += float(fields.get("build_seconds", 0.0))
            self.table_rows_served += int(fields.get("rows_served", 0))
            if fields.get("cap") is not None:
                self.table_cap = int(fields["cap"])
        elif event.event == "cell_finished":
            if not fields.get("cached", False):
                self.cache_misses += 1
        elif event.event == "run_finish":
            self.status = fields.get("status")
            self.wall_seconds = fields.get("seconds", event.t)

    def _finish_unit(self, event: TelemetryEvent) -> None:
        fields = event.fields
        token = fields["token"]
        execute = float(fields.get("seconds", 0.0))
        submitted = self._submitted.pop((token, fields["attempt"]), None)
        wait = max(0.0, event.t - submitted - execute) if submitted is not None else 0.0
        self.execute_seconds += execute
        self.queue_wait_seconds += wait
        entry = self.units.setdefault(
            token,
            {
                "label": fields.get("label"),
                "unit": fields.get("unit"),
                "kind": fields.get("kind"),
                "attempts": 0,
                "execute_seconds": 0.0,
                "queue_wait_seconds": 0.0,
            },
        )
        entry["attempts"] += 1
        entry["execute_seconds"] += execute
        entry["queue_wait_seconds"] += wait
        for group, key in (
            (self.by_kind, fields.get("kind", "?")),
            (self.by_backend, fields.get("backend", "?")),
        ):
            totals = group[key]
            totals["units"] += 1
            totals["execute_seconds"] += execute
            totals["queue_wait_seconds"] += wait

    # -- derived views --------------------------------------------------

    @property
    def cache_hit_ratio(self) -> float:
        """Cells served whole from cache over all finished cells."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def slowest(self, top: int = 10) -> list[dict]:
        """The *top* units by summed execute seconds, slowest first."""
        ranked = sorted(
            (
                {"token": token, **entry}
                for token, entry in self.units.items()
            ),
            key=lambda entry: entry["execute_seconds"],
            reverse=True,
        )
        return ranked[: max(0, int(top))]

    def as_dict(self) -> dict:
        """JSON-ready snapshot (the ``BENCH_*.json`` building block)."""
        return {
            "schema_version": TRACE_SCHEMA_VERSION,
            "run_id": self.run_id,
            "status": self.status,
            "wall_seconds": round(self.wall_seconds, 6),
            "events": dict(sorted(self.events.items())),
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "shard_hits": self.shard_cache_hits,
                "hit_ratio": round(self.cache_hit_ratio, 6),
            },
            "faults": {
                "failed_attempts": self.failures,
                "retries": self.retries,
                "quarantined": self.quarantined,
            },
            "timing": {
                "execute_seconds": round(self.execute_seconds, 6),
                "queue_wait_seconds": round(self.queue_wait_seconds, 6),
            },
            "solve_batching": {
                "flushes": self.solve_flushes,
                "coalesced_flushes": self.solve_coalesced_flushes,
                "rows": self.solve_rows,
                "max_callers": self.solve_max_callers,
            },
            "solve_table": {
                "cap": self.table_cap,
                "hits": self.table_hits,
                "misses": self.table_misses,
                "ineligible": self.table_ineligible,
                "builds": self.table_builds,
                "rows_solved": self.table_rows_solved,
                "build_seconds": round(self.table_build_seconds, 6),
                "rows_served": self.table_rows_served,
            },
            "by_kind": {
                kind: {
                    "units": totals["units"],
                    "execute_seconds": round(totals["execute_seconds"], 6),
                    "queue_wait_seconds": round(totals["queue_wait_seconds"], 6),
                }
                for kind, totals in sorted(self.by_kind.items())
            },
            "by_backend": {
                name: {
                    "units": totals["units"],
                    "execute_seconds": round(totals["execute_seconds"], 6),
                    "queue_wait_seconds": round(totals["queue_wait_seconds"], 6),
                }
                for name, totals in sorted(self.by_backend.items())
            },
        }


# ----------------------------------------------------------------------
# Journal reading / replay / summaries
# ----------------------------------------------------------------------


def read_journal(path: Union[str, Path]) -> list[dict]:
    """Parse a JSONL journal; every line must be a known-schema event.

    Raises :class:`~repro.exceptions.ValidationError` naming the first
    offending line when a line is not JSON, not an object, lacks the
    required keys, or carries an unknown event type — the assertion
    CI's journal-schema step leans on.
    """
    path = Path(path)
    records: list[dict] = []
    with path.open("r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(
                    f"{path}:{number}: not valid JSON ({exc})"
                ) from None
            if not isinstance(record, dict):
                raise ValidationError(
                    f"{path}:{number}: journal lines must be JSON objects, "
                    f"got {type(record).__name__}"
                )
            missing = [key for key in ("event", "run_id", "t") if key not in record]
            if missing:
                raise ValidationError(
                    f"{path}:{number}: missing required keys: "
                    + ", ".join(missing)
                )
            if record["event"] not in EVENT_TYPES:
                raise ValidationError(
                    f"{path}:{number}: unknown event type {record['event']!r}"
                )
            records.append(record)
    return records


def replay_metrics(
    records: Iterable[dict], run_id: str | None = None
) -> MetricsAggregate:
    """Fold journal *records* into a fresh :class:`MetricsAggregate`.

    *run_id* restricts the replay to one run's events (a journal file
    may interleave several runs); ``None`` replays everything.  Because
    the aggregate reads only primitive fields, replaying a run's
    journal reproduces the live run's aggregate exactly.
    """
    metrics = MetricsAggregate()
    for record in records:
        if run_id is not None and record.get("run_id") != run_id:
            continue
        fields = {
            key: value
            for key, value in record.items()
            if key not in ("event", "run_id", "t", "wall")
        }
        metrics(
            TelemetryEvent(
                event=record["event"],
                run_id=record["run_id"],
                t=float(record["t"]),
                wall=float(record.get("wall", 0.0)),
                fields=fields,
            )
        )
    return metrics


def summarize_journal(
    path: Union[str, Path], run_id: str | None = None, top: int = 10
) -> dict:
    """Machine-readable summary of a journal file.

    The ``aggregate`` key is the replayed :meth:`MetricsAggregate.
    as_dict` snapshot; ``runs`` lists every run id seen (with its cell
    count and status); ``slowest`` ranks units by execute seconds.
    *run_id* restricts both the run listing and the aggregate to one
    run of a multi-run journal.
    """
    records = read_journal(path)
    if run_id is not None:
        records = [record for record in records if record["run_id"] == run_id]
    runs: dict[str, dict] = {}
    for record in records:
        entry = runs.setdefault(
            record["run_id"], {"plan": None, "cells": None, "status": None}
        )
        if record["event"] == "run_start":
            entry["plan"] = record.get("plan")
            entry["cells"] = record.get("cells")
        elif record["event"] == "run_finish":
            entry["status"] = record.get("status")
    metrics = replay_metrics(records, run_id=run_id)
    return {
        "schema_version": TRACE_SCHEMA_VERSION,
        "journal": str(path),
        "runs": runs,
        "aggregate": metrics.as_dict(),
        "slowest": metrics.slowest(top=top),
    }


def render_summary(summary: dict, fmt: str = "text") -> str:
    """Render a :func:`summarize_journal` result for the CLI."""
    if fmt == "json":
        return json.dumps(summary, indent=2, sort_keys=True)
    if fmt != "text":
        raise ValidationError(f"unknown trace summary format {fmt!r}")
    aggregate = summary["aggregate"]
    cache = aggregate["cache"]
    faults = aggregate["faults"]
    timing = aggregate["timing"]
    lines = [f"journal: {summary['journal']}"]
    for run_id, entry in summary["runs"].items():
        plan = entry["plan"] or "plan"
        cells = entry["cells"] if entry["cells"] is not None else "?"
        status = entry["status"] or "incomplete"
        lines.append(f"run {run_id}: {plan}, {cells} cells, {status}")
    lines += [
        "",
        "timing",
        f"  execute seconds    : {timing['execute_seconds']:.3f}",
        f"  queue-wait seconds : {timing['queue_wait_seconds']:.3f}",
        "",
        "cache",
        f"  cell hits / misses : {cache['hits']} / {cache['misses']}"
        f"  (ratio {cache['hit_ratio']:.2f})",
        f"  shard resume hits  : {cache['shard_hits']}",
        "",
        "faults",
        f"  failed attempts    : {faults['failed_attempts']}",
        f"  retries            : {faults['retries']}",
        f"  quarantined        : {faults['quarantined']}",
    ]
    batching = aggregate.get("solve_batching", {})
    if batching.get("flushes"):
        lines += [
            "",
            "solve batching",
            f"  flushes ridden     : {batching['flushes']}"
            f"  (coalesced {batching['coalesced_flushes']})",
            f"  rows solved        : {batching['rows']}",
            f"  max callers/flush  : {batching['max_callers']}",
        ]
    table = aggregate.get("solve_table", {})
    if table.get("hits") or table.get("misses"):
        lines += [
            "",
            "solve table",
            f"  hits / misses      : {table['hits']} / {table['misses']}",
            f"  rows served        : {table['rows_served']}",
            f"  rows solved        : {table['rows_solved']}"
            f"  in {table['builds']} fill(s) ({table['build_seconds']:.3f}s)",
        ]
    if aggregate["by_kind"]:
        lines += ["", "per cell kind (units, execute s, queue-wait s)"]
        for kind, totals in aggregate["by_kind"].items():
            lines.append(
                f"  {kind:<24} {totals['units']:>5}  "
                f"{totals['execute_seconds']:>9.3f}  "
                f"{totals['queue_wait_seconds']:>9.3f}"
            )
    if aggregate["by_backend"]:
        lines += ["", "per backend (units, execute s, queue-wait s)"]
        for name, totals in aggregate["by_backend"].items():
            lines.append(
                f"  {name:<24} {totals['units']:>5}  "
                f"{totals['execute_seconds']:>9.3f}  "
                f"{totals['queue_wait_seconds']:>9.3f}"
            )
    if summary["slowest"]:
        lines += ["", "slowest units (execute s, queue-wait s, attempts)"]
        for entry in summary["slowest"]:
            lines.append(
                f"  {entry['label'] or entry['token'][:12]:<40} "
                f"{entry['execute_seconds']:>9.3f}  "
                f"{entry['queue_wait_seconds']:>9.3f}  "
                f"{entry['attempts']:>3}"
            )
    return "\n".join(lines)
