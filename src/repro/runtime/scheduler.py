"""Backend-agnostic scheduling core for plan executions.

:class:`PlanScheduler` owns everything about a run that must *not*
depend on where work physically executes: the cache scan (merged cell
entries first, then per-shard resume entries), the ready queue of
remaining units, the merge barriers of in-flight sharded cells, the
persistence of fresh results into the
:class:`~repro.runtime.store.ResultStore`, and the completion events
progress reporting subscribes to.  The
:class:`~repro.runtime.executor.ParallelExecutor` pairs one scheduler
with one :class:`~repro.runtime.backends.ExecutionBackend` per run and
shuttles completions between them.

That split is what makes backends interchangeable: because every
correctness decision — which shard windows exist, how partials merge,
what tokens identify results — is made here, on the scheduler side, a
unit of work produces the same bytes on the serial path, a local
process pool, or a spool-directory worker on another host, and a run
interrupted on one backend resumes on any other at the finished-shard
boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..exceptions import ValidationError
from .cells import (
    cell_repetitions,
    is_shardable,
    shard_reducer_for,
)
from .faults import TaskFailure
from .spec import CellShard, CellSpec, StudyPlan, cache_token, shard_ranges, shard_token
from .store import ResultStore
from .telemetry import RunTelemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiments.config import ExperimentSettings

__all__ = [
    "CellResult",
    "ChunkCalibration",
    "PlanOutcome",
    "PlanScheduler",
    "task_of",
]


@dataclass(frozen=True)
class ChunkCalibration:
    """Outcome of an adaptive chunk-sizing pilot (scheduling only).

    Records which cell served as the pilot, how many repetitions the
    timed pilot shard covered, its wall-clock, and the reps-per-shard
    the run derived from it.  Pure scheduling metadata: the calibrated
    chunk size never reaches cache keys (tokens are chunking-
    independent) or result payloads, so two runs calibrated differently
    still produce byte-identical results files.
    """

    cell_key: tuple
    pilot_repetitions: int
    pilot_seconds: float
    chunk_size: int


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

    ``calibration`` records the adaptive chunk-sizing pilot when the
    run was configured with ``chunk_seconds`` and had shardable work to
    calibrate on; ``None`` otherwise.  ``backend`` names the execution
    backend the run's fresh work dispatched through (``"serial"`` when
    everything came from cache) — reporting only: results and cache
    tokens are backend-independent.

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
    calibration: ChunkCalibration | None = None
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
        if self.calibration is not None:
            shard_note += f", chunk~{self.calibration.chunk_size} calibrated"
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
class _ShardedCell:
    """Merge-barrier bookkeeping for one sharded cell in flight."""

    index: int
    cell: CellSpec
    token: str | None
    repetitions: int
    shards: tuple[CellShard, ...]
    partials: dict[int, Any] = field(default_factory=dict)
    shard_tokens: dict[int, str] = field(default_factory=dict)
    seconds: float = 0.0
    cached_shards: int = 0

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


def task_of(item: tuple) -> CellSpec | CellShard:
    """The submittable unit of a pending queue entry."""
    # Both entry shapes carry their unit at index 2:
    # ("cell", index, cell, token) and ("shard", state, shard).
    return item[2]


class PlanScheduler:
    """The ready-queue / merge-barrier / resume core of one execution.

    Lifecycle: construct per run, call :meth:`scan` once to serve the
    cache and obtain the pending queue, feed every completion to
    :meth:`finish` (any order — the merge barriers handle interleaving),
    and collect :meth:`cells` when the queue has drained.

    Parameters
    ----------
    plan:
        The plan under execution.
    store:
        Result store for cache lookups and persistence, or ``None``.
    default_chunk:
        Effective repetition-sharding granularity for cells without
        their own ``chunk_size`` — the executor's fixed chunk size or
        the run's calibrated one.
    pilot:
        ``(cell_index, pilot_reps, value, seconds)`` of an adaptive
        calibration pilot whose leading window should be reused instead
        of re-executed, or ``None``.
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
        default_chunk: int | None = None,
        pilot: tuple | None = None,
        telemetry: RunTelemetry | None = None,
    ):
        self.plan = plan
        self.settings: "ExperimentSettings" = plan.settings
        self.store = store
        self.default_chunk = default_chunk
        self.pilot = pilot
        self.telemetry = telemetry if telemetry is not None else RunTelemetry()
        self._entries: dict[int, CellResult] = {}
        self._failed: dict[int, TaskFailure] = {}
        self._done = 0

    # -- shard planning -------------------------------------------------

    def shards_for(
        self, cell: CellSpec
    ) -> tuple[int, tuple[CellShard, ...]] | None:
        """The shard decomposition of *cell*, or ``None`` to run whole.

        A cell shards when its type registered the sharding triple and
        the effective chunk size (cell override, else the scheduler's
        ``default_chunk``) splits its repetitions into more than one
        window.
        """
        chunk = (
            cell.chunk_size if cell.chunk_size is not None else self.default_chunk
        )
        if chunk is None or not is_shardable(cell):
            return None
        if chunk < 1:
            raise ValidationError(f"chunk_size must be >= 1, got {chunk}")
        repetitions = cell_repetitions(cell, self.settings)
        ranges = shard_ranges(repetitions, chunk)
        if len(ranges) < 2:
            return None
        shards = tuple(
            CellShard(
                cell=cell,
                index=i,
                shards=len(ranges),
                rep_start=start,
                rep_stop=stop,
            )
            for i, (start, stop) in enumerate(ranges)
        )
        return repetitions, shards

    # -- cache scan / ready queue ---------------------------------------

    def scan(self) -> list[tuple]:
        """Serve the cache; returns the queue of units still to run.

        Cache lookups happen in two passes per cell — the merged cell
        entry, then per-shard entries for sharded cells — so a resumed
        run recomputes only the windows that never finished.  Queue
        entries are ``("cell", index, cell, token)`` or
        ``("shard", state, shard)``; either way :func:`task_of` yields
        the unit a backend should execute.
        """
        self.telemetry.emit("scan_start", cells=len(self.plan.cells))
        pending: list[tuple] = []
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
            decomposition = self.shards_for(cell)
            if decomposition is None:
                pending.append(("cell", index, cell, token))
                continue
            repetitions, shards = decomposition
            state = _ShardedCell(
                index=index,
                cell=cell,
                token=token,
                repetitions=repetitions,
                shards=shards,
            )
            incomplete = []
            for shard in shards:
                if (
                    self.pilot is not None
                    and index == self.pilot[0]
                    and shard.index == 0
                    and shard.rep_stop == self.pilot[1]
                ):
                    # The calibration pilot already computed this exact
                    # window in-process; count it as compute performed
                    # this run (it was), not as a cache hit.
                    state.partials[0] = self.pilot[2]
                    state.seconds += self.pilot[3]
                    continue
                if self.store is not None:
                    stoken = shard_token(shard, self.settings, repetitions)
                    state.shard_tokens[shard.index] = stoken
                    payload = self.store.load(stoken, group=token)
                    if payload is not None:
                        # seconds stays at compute-performed-this-run:
                        # resumed shards contribute their value, not
                        # their historical wall-clock.
                        self.telemetry.emit(
                            "shard_cache_hit",
                            label=shard.label,
                            kind=type(cell).__name__,
                            token=stoken,
                        )
                        state.partials[shard.index] = payload["value"]
                        state.cached_shards += 1
                        continue
                incomplete.append(("shard", state, shard))
            if state.cached_shards:
                self._shard_progress(state)
            if state.complete:
                # Every shard was already on disk (an interrupted run
                # that died between its last shard and the merge).
                self._merge_cell(state)
            else:
                pending.extend(incomplete)
        self.telemetry.emit(
            "scan_finish",
            pending=len(pending),
            cached=sum(1 for entry in self._entries.values() if entry.cached),
        )
        return pending

    # -- completions ----------------------------------------------------

    def finish(self, item: tuple, value: Any, seconds: float) -> None:
        """Record one completed unit (from any backend, in any order)."""
        if item[0] == "cell":
            _, index, cell, token = item
            self._finish_cell(index, cell, token, value, seconds)
        else:
            _, state, shard = item
            self._finish_shard(state, shard, value, seconds)

    def quarantine(self, item: tuple, failure: TaskFailure) -> None:
        """Mark the cell behind *item* failed; the queue keeps draining.

        The ``on_error="continue"`` path: the failed unit's cell is
        excluded from :meth:`cells` (a sharded cell with one exhausted
        shard can never merge, so the whole cell is quarantined).
        Sibling shards already in flight still persist their partials
        on completion — a later run with the fault fixed resumes at the
        finished-shard boundary — but the quarantined cell produces no
        result and no merged cache entry this run.
        """
        index = item[1] if item[0] == "cell" else item[1].index
        # First failure wins: a second shard of the same cell failing
        # later must not overwrite the failure that quarantined it.
        self._failed.setdefault(index, failure)

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

    def _finish_cell(
        self, index: int, cell: CellSpec, token: str | None, value, seconds
    ) -> None:
        if token is not None:
            self.store.save(
                token, {"value": value, "label": cell.label, "seconds": seconds}
            )
            # An unsharded completion also sweeps any shard
            # scaffolding filed under this cell's group — a
            # calibration pilot whose chunking ended up unsharded,
            # or windows left by an interrupted sharded run.
            self.store.discard_group(token)
        self._entries[index] = CellResult(
            cell=cell, value=value, seconds=seconds, cached=False
        )
        self._report(self._entries[index])

    def _merge_cell(self, state: _ShardedCell) -> None:
        partials = [state.partials[i] for i in range(len(state.shards))]
        value = shard_reducer_for(state.cell)(state.cell, self.settings, partials)
        if state.token is not None:
            self.store.save(
                state.token,
                {
                    "value": value,
                    "label": state.cell.label,
                    "seconds": state.seconds,
                },
            )
            # Shard entries are scaffolding for resume; once the
            # merged result is durable they only cost disk.  The
            # group is keyed by the chunking-independent cell token,
            # so this also sweeps stale windows left by interrupted
            # runs under a different chunk size.
            self.store.discard_group(state.token)
        self.telemetry.emit(
            "shard_merged",
            label=state.cell.label,
            kind=type(state.cell).__name__,
            shards=len(state.shards),
            shards_cached=state.cached_shards,
            seconds=round(state.seconds, 6),
        )
        self._entries[state.index] = CellResult(
            cell=state.cell,
            value=value,
            seconds=state.seconds,
            cached=len(state.partials) == state.cached_shards,
            shards=len(state.shards),
            shards_cached=state.cached_shards,
        )
        self._report(self._entries[state.index])

    def _shard_progress(self, state: _ShardedCell) -> None:
        self.telemetry.emit(
            "shard_progress",
            payload=state.cell,
            label=state.cell.label,
            shards_done=len(state.partials),
            shards_total=len(state.shards),
            reps_done=state.reps_done,
            reps_total=state.repetitions,
        )

    def _finish_shard(
        self, state: _ShardedCell, shard: CellShard, value, seconds
    ) -> None:
        token = state.shard_tokens.get(shard.index)
        if token is not None:
            self.store.save(
                token,
                {"value": value, "label": shard.label, "seconds": seconds},
                group=state.token,
            )
        state.partials[shard.index] = value
        state.seconds += seconds
        self._shard_progress(state)
        if state.complete and state.index not in self._failed:
            self._merge_cell(state)
