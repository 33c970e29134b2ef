"""Backend-agnostic scheduling core for plan executions.

Every cell runs as repetition windows plus a merge: the unit of work
is a :class:`~repro.runtime.spec.CellShard`, and an unsplit cell is the
single whole-cell window ``CellShard(cell)``.  :class:`PlanScheduler`
owns everything about a run that must *not* depend on where work
physically executes: the cache scan (merged cell entries first, then
per-window resume entries of split cells), the ready queue of remaining
windows, the merge barrier of every cell in flight, the persistence of
fresh results into the :class:`~repro.runtime.store.ResultStore`, and
the completion events progress reporting subscribes to.  The
:class:`~repro.runtime.executor.ParallelExecutor` pairs one scheduler
with one :class:`~repro.runtime.backends.ExecutionBackend` per run and
shuttles completions between them.

That split is what makes backends interchangeable: because every
correctness decision — which windows exist, how partials merge,
what tokens identify results — is made here, on the scheduler side, a
unit of work produces the same bytes on the serial path, a local
process pool, or a spool-directory worker on another host, and a run
interrupted on one backend resumes on any other at the finished-shard
boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from .cells import kind_for
from .faults import TaskFailure
from .spec import CellShard, CellSpec, StudyPlan, cache_token, shard_ranges, shard_token
from .store import ResultStore
from .telemetry import RunTelemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiments.config import ExperimentSettings

__all__ = [
    "CellResult",
    "PlanOutcome",
    "PlanScheduler",
]


@dataclass(frozen=True)
class CellResult:
    """One executed (or cache-served) cell.

    ``seconds`` is the compute time of the cell itself (summed across
    its shards when it ran sharded; 0.0 for cache hits); ``cached``
    records whether the value was assembled without computing anything.
    ``shards`` is the number of repetition shards the cell was split
    into (1 = unsharded) and ``shards_cached`` how many of those were
    served from the store (resume).
    """

    cell: CellSpec
    value: Any
    seconds: float
    cached: bool
    shards: int = 1
    shards_cached: int = 0


@dataclass(frozen=True)
class PlanOutcome:
    """Everything a plan execution produced, in plan order.

    ``backend`` names the execution backend the run's fresh work
    dispatched through (``"serial"`` when everything came from cache) —
    reporting only: results and cache tokens are backend-independent.

    ``failures`` is non-empty only under ``on_error="continue"``: each
    entry is the final :class:`~repro.runtime.faults.TaskFailure` of a
    unit that exhausted its retries, and the cell it belonged to is
    absent from ``cells`` (quarantined).  ``retries`` counts the
    resubmissions the run performed, successful recoveries included.
    """

    plan: StudyPlan
    cells: tuple[CellResult, ...]
    workers: int
    seconds: float
    backend: str = "serial"
    failures: tuple[TaskFailure, ...] = ()
    retries: int = 0
    #: The run's :class:`~repro.runtime.telemetry.MetricsAggregate`
    #: (cache hit ratio, queue-wait vs execute time, fault counts).
    #: Volatile: excluded from equality/repr, never cached or
    #: serialised — the journal is the durable record.
    metrics: Any = field(default=None, compare=False, repr=False)

    @property
    def results(self) -> dict[tuple, Any]:
        """Cell values keyed by each cell's plan key."""
        return {entry.cell.key: entry.value for entry in self.cells}

    @property
    def cache_hits(self) -> int:
        """Cells served from the result store."""
        return sum(1 for entry in self.cells if entry.cached)

    @property
    def cache_misses(self) -> int:
        """Cells that had to compute."""
        return len(self.cells) - self.cache_hits

    @property
    def compute_seconds(self) -> float:
        """Summed per-cell compute time (serial-equivalent work)."""
        return sum(entry.seconds for entry in self.cells)

    def summary(self) -> str:
        """One-line execution summary for logs and CLIs."""
        name = self.plan.name or "plan"
        sharded = sum(1 for entry in self.cells if entry.shards > 1)
        shard_note = f", {sharded} sharded" if sharded else ""
        if self.backend not in ("serial", "process"):
            shard_note += f", {self.backend} backend"
        if self.retries:
            shard_note += f", {self.retries} retried"
        if self.failures:
            shard_note += f", {len(self.failures)} FAILED"
        return (
            f"{name}: {len(self.cells)} cells in {self.seconds:.2f}s "
            f"wall ({self.compute_seconds:.2f}s compute, "
            f"{self.workers} worker{'s' if self.workers != 1 else ''}, "
            f"{self.cache_hits} cached{shard_note})"
        )


@dataclass
class _CellRun:
    """Windows and merge barrier of one cell in flight."""

    index: int
    cell: CellSpec
    token: str | None
    #: The repetition count a split cell's windows cover; ``None`` for
    #: an unsplit cell, whose repetition counter is never called.
    repetitions: int | None
    shards: tuple[CellShard, ...]
    partials: dict[int, Any] = field(default_factory=dict)
    shard_tokens: dict[int, str] = field(default_factory=dict)
    seconds: float = 0.0
    cached_shards: int = 0

    @property
    def split(self) -> bool:
        return len(self.shards) > 1

    @property
    def complete(self) -> bool:
        return len(self.partials) == len(self.shards)

    @property
    def reps_done(self) -> int:
        return sum(
            shard.repetitions
            for shard in self.shards
            if shard.index in self.partials
        )


class PlanScheduler:
    """The ready-queue / merge-barrier / resume core of one execution.

    Lifecycle: construct per run, call :meth:`scan` once to serve the
    cache and obtain the pending windows, feed every completion to
    :meth:`finish` (any order — the merge barriers handle interleaving),
    and collect :meth:`cells` when the queue has drained.

    Parameters
    ----------
    plan:
        The plan under execution.
    store:
        Result store for cache lookups and persistence, or ``None``.
    chunk_size:
        Repetition-sharding granularity (the run's ``chunk_size``), or
        ``None`` to run every cell whole.
    telemetry:
        The run's :class:`~repro.runtime.telemetry.RunTelemetry` bus.
        Every scheduling decision is narrated into it (cache hits,
        queue contents, shard merges, cell completions); progress
        reporting is just a subscriber.  ``None`` creates a private
        bus, so directly-constructed schedulers work unchanged.
    """

    def __init__(
        self,
        plan: StudyPlan,
        *,
        store: ResultStore | None = None,
        chunk_size: int | None = None,
        telemetry: RunTelemetry | None = None,
    ):
        self.plan = plan
        self.settings: "ExperimentSettings" = plan.settings
        self.store = store
        self.chunk_size = chunk_size
        self.telemetry = telemetry if telemetry is not None else RunTelemetry()
        self._entries: dict[int, CellResult] = {}
        self._runs: dict[tuple, _CellRun] = {}
        self._failed: dict[int, TaskFailure] = {}
        self._done = 0

    # -- window planning ------------------------------------------------

    def shards_for(self, cell: CellSpec) -> tuple[int | None, tuple[CellShard, ...]]:
        """The repetition count and windows of *cell*.

        A cell splits when its kind is splittable and the scheduler's
        ``chunk_size`` cuts its repetitions into more than one window.
        Otherwise it runs as the single whole-cell window
        ``CellShard(cell)``, and without a chunk size its kind's
        repetition counter is never called.
        """
        whole = None, (CellShard(cell),)
        if self.chunk_size is None:
            return whole
        counter = kind_for(cell).repetitions
        if counter is None:
            return whole
        repetitions = int(counter(cell, self.settings))
        ranges = shard_ranges(repetitions, self.chunk_size)
        if len(ranges) < 2:
            return whole
        return repetitions, tuple(
            CellShard(
                cell=cell,
                index=i,
                shards=len(ranges),
                rep_start=start,
                rep_stop=stop,
            )
            for i, (start, stop) in enumerate(ranges)
        )

    # -- cache scan / ready queue ---------------------------------------

    def scan(self) -> list[CellShard]:
        """Serve the cache; returns the windows still to run, plan-ordered.

        Cache lookups happen in two passes per cell — the merged cell
        entry, then per-window entries of split cells — so a resumed
        run recomputes only the windows that never finished.
        """
        self.telemetry.emit("scan_start", cells=len(self.plan.cells))
        pending: list[CellShard] = []
        for index, cell in enumerate(self.plan.cells):
            # Explicit None check: an empty ResultStore has len() == 0
            # and would read as falsy.
            token = (
                cache_token(cell, self.settings) if self.store is not None else None
            )
            if token is not None:
                payload = self.store.load(token)
                if payload is not None:
                    self.telemetry.emit(
                        "cache_hit",
                        label=cell.label,
                        kind=type(cell).__name__,
                        token=token,
                    )
                    self._entries[index] = CellResult(
                        cell=cell, value=payload["value"], seconds=0.0, cached=True
                    )
                    self._report(self._entries[index])
                    continue
            repetitions, shards = self.shards_for(cell)
            run = _CellRun(
                index=index,
                cell=cell,
                token=token,
                repetitions=repetitions,
                shards=shards,
            )
            self._runs[cell.key] = run
            incomplete = []
            for shard in shards:
                if run.split and self.store is not None:
                    stoken = shard_token(shard, self.settings, repetitions)
                    run.shard_tokens[shard.index] = stoken
                    payload = self.store.load(stoken, group=token)
                    if payload is not None:
                        # seconds stays at compute-performed-this-run:
                        # resumed windows contribute their value, not
                        # their historical wall-clock.
                        self.telemetry.emit(
                            "shard_cache_hit",
                            label=shard.label,
                            kind=type(cell).__name__,
                            token=stoken,
                        )
                        run.partials[shard.index] = payload["value"]
                        run.cached_shards += 1
                        continue
                incomplete.append(shard)
            if run.cached_shards:
                self._shard_progress(run)
            if run.complete:
                # Every window was already on disk (an interrupted run
                # that died between its last window and the merge).
                self._merge_cell(run)
            else:
                pending.extend(incomplete)
        self.telemetry.emit(
            "scan_finish",
            pending=len(pending),
            cached=sum(1 for entry in self._entries.values() if entry.cached),
        )
        return pending

    # -- completions ----------------------------------------------------

    def finish(self, shard: CellShard, value: Any, seconds: float) -> None:
        """Record one completed window (from any backend, in any order).

        A split cell persists each window as resume scaffolding; an
        unsplit cell persists only its merged result.
        """
        run = self._runs[shard.cell.key]
        token = run.shard_tokens.get(shard.index)
        if token is not None:
            self.store.save(
                token,
                {"value": value, "label": shard.label, "seconds": seconds},
                group=run.token,
            )
        run.partials[shard.index] = value
        run.seconds += seconds
        if run.split:
            self._shard_progress(run)
        if run.complete and run.index not in self._failed:
            self._merge_cell(run)

    def quarantine(self, shard: CellShard, failure: TaskFailure) -> None:
        """Mark the cell behind *shard* failed; the queue keeps draining.

        The ``on_error="continue"`` path: the failed window's cell is
        excluded from :meth:`cells` (a split cell with one exhausted
        window can never merge, so the whole cell is quarantined).
        Sibling windows already in flight still persist their partials
        on completion — a later run with the fault fixed resumes at the
        finished-shard boundary — but the quarantined cell produces no
        result and no merged cache entry this run.
        """
        # First failure wins: a second window of the same cell failing
        # later must not overwrite the failure that quarantined it.
        self._failed.setdefault(self._runs[shard.cell.key].index, failure)

    def failed(self) -> tuple[TaskFailure, ...]:
        """Final failure per quarantined cell, in plan order."""
        return tuple(self._failed[index] for index in sorted(self._failed))

    def cells(self) -> tuple[CellResult, ...]:
        """All results in plan order; quarantined cells are absent.

        A cell that neither finished nor was quarantined means the
        drain loop lost a unit — that is a bug, and the ``KeyError``
        here is deliberately loud.
        """
        return tuple(
            self._entries[index]
            for index in range(len(self.plan.cells))
            if index not in self._failed
        )

    # -- internals ------------------------------------------------------

    def _report(self, result: CellResult) -> None:
        self._done += 1
        self.telemetry.emit(
            "cell_finished",
            payload=result,
            done=self._done,
            total=len(self.plan.cells),
            label=result.cell.label,
            kind=type(result.cell).__name__,
            cached=result.cached,
            seconds=round(result.seconds, 6),
            shards=result.shards,
            shards_cached=result.shards_cached,
        )

    def _merge_cell(self, run: _CellRun) -> None:
        partials = [run.partials[i] for i in range(len(run.shards))]
        value = kind_for(run.cell).merge(run.cell, self.settings, partials)
        if run.token is not None:
            self.store.save(
                run.token,
                {"value": value, "label": run.cell.label, "seconds": run.seconds},
            )
            # Window entries are scaffolding for resume; once the
            # merged result is durable they only cost disk.  The group
            # is keyed by the chunking-independent cell token, so this
            # also sweeps stale windows left by interrupted runs under a
            # different chunk size.
            self.store.discard_group(run.token)
        if run.split:
            self.telemetry.emit(
                "shard_merged",
                label=run.cell.label,
                kind=type(run.cell).__name__,
                shards=len(run.shards),
                shards_cached=run.cached_shards,
                seconds=round(run.seconds, 6),
            )
        self._entries[run.index] = CellResult(
            cell=run.cell,
            value=value,
            seconds=run.seconds,
            cached=len(run.partials) == run.cached_shards,
            shards=len(run.shards),
            shards_cached=run.cached_shards,
        )
        self._report(self._entries[run.index])

    def _shard_progress(self, run: _CellRun) -> None:
        self.telemetry.emit(
            "shard_progress",
            payload=run.cell,
            label=run.cell.label,
            shards_done=len(run.partials),
            shards_total=len(run.shards),
            reps_done=run.reps_done,
            reps_total=run.repetitions,
        )
