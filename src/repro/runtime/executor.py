"""Parallel study execution with caching, resume, and progress.

:class:`ParallelExecutor` runs a :class:`~repro.runtime.spec.StudyPlan`
by pairing a backend-agnostic scheduler core
(:class:`~repro.runtime.scheduler.PlanScheduler` — cache scan, ready
queue, merge barriers, persistence, progress) with a pluggable
:class:`~repro.runtime.backends.ExecutionBackend` that decides where
each unit of work physically executes: in-process
(:class:`~repro.runtime.backends.SerialBackend`), on a local process
pool (:class:`~repro.runtime.backends.ProcessPoolBackend`), or through
a spool-directory work queue served by detached ``python -m repro
worker`` processes (:class:`~repro.runtime.backends.SpoolBackend`).
Because every cell is seeded at plan-build time and runners rebuild
their inputs from specs, all backends are bit-identical — the backend
changes wall-clock and placement, never numbers.

Two levels of parallelism compose here.  Cells fan out across workers,
and — when a chunk size is configured — a cell's *repetitions* are
sharded into sub-cell windows that fan out the same way and merge
through per-kind reducers (see :mod:`repro.runtime.cells`), so a single
expensive 1,000-repetition cell no longer serialises on one worker.
Chunking is pure scheduling: for any chunk size, the merged result is
bit-identical to the unsharded run.

Cells completed earlier — in this run, a previous run, or a run that
was interrupted — are served from the optional
:class:`~repro.runtime.store.ResultStore`; fresh results are persisted
the moment they arrive in the scheduler process, so a grid killed
halfway resumes from its last completed cell.  Sharded cells persist
*per shard*: a killed 1,000-repetition cell resumes at the boundary of
its last finished shard, and the transient shard entries are dropped
once the merged cell result is stored.  Cache tokens never depend on
the backend, so a run interrupted under one backend resumes under any
other at the finished-shard boundary.

Chunk sizes can be fixed (``chunk_size`` / ``REPRO_CHUNK_SIZE``) or
adaptive (``chunk_seconds`` / ``REPRO_CHUNK_SECONDS``): the adaptive
mode times one pilot shard per run and targets a wall-clock budget per
shard instead of a repetition count, so one setting suits cells of very
different per-repetition cost.  Either way chunking is pure scheduling
— results and cache keys are chunking-independent.

Failures follow an explicit fault model (:mod:`repro.runtime.faults`):
a failed unit of work is retried up to ``max_retries`` times with
deterministic exponential backoff, and a unit that exhausts its
retries either aborts the run (``on_error="raise"``, with the full
:class:`~repro.runtime.faults.TaskFailure` history on the raised
:class:`~repro.runtime.faults.PlanExecutionError`) or is quarantined
while the rest of the plan drains (``on_error="continue"``, failures
reported on the outcome).  Because cells are seeded at plan-build
time, a retry recomputes byte-identical numbers — the chaos backend
(``chaos:<inner>``) exploits that to prove the failure path.

Configuration is an immutable, per-request
:class:`~repro.runtime.settings.RunContext`: every constructor
argument below is resolved through :mod:`repro.runtime.settings` (the
one owner of all ``REPRO_*`` environment fallbacks) into a frozen
snapshot, and :meth:`ParallelExecutor.from_context` builds an executor
from a ready-made context — which is how the service front end
(:mod:`repro.runtime.service`) runs many concurrently-configured
requests in one process.  The module-level :func:`execute` is the
convenience entry point the experiment modules use: it accepts an
explicit ``context`` or builds the module-default context from
:func:`configure` overrides plus the environment, read at call time so
CI can flip the whole suite to parallel, sharded, spool-dispatched,
fault-injected, or journalled execution without code changes.

Every run additionally narrates itself into a structured telemetry
stream (:mod:`repro.runtime.telemetry`): an in-memory metrics
aggregate always rides on the returned outcome (``outcome.metrics``),
and a JSONL event journal is appended when ``trace`` /
``REPRO_TRACE_FILE`` names a file.  Telemetry is observation only —
it never changes results, cache tokens, or seeds.
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Union

from ..exceptions import ValidationError
from ..intervals.base import use_solve_pool, use_solve_table
from ..intervals.table import SolveTable, shared_table
from .backends import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    make_backend,
    run_shard,
)
from .backends.base import close_backend, open_backend
from .cells import cell_repetitions, is_shardable
from .faults import (
    PlanExecutionError,
    RetryPolicy,
    TaskFailure,
    failure_from,
    unit_token,
)
from .scheduler import (
    CellResult,
    ChunkCalibration,
    PlanOutcome,
    PlanScheduler,
    task_of,
)
from .settings import RunContext
from .spec import CellShard, StudyPlan, cache_token, shard_token
from .store import ResultStore
from .telemetry import (
    TRACE_SCHEMA_VERSION,
    JsonlTraceSink,
    MetricsAggregate,
    ProgressSubscriber,
    RunTelemetry,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiments.config import ExperimentSettings

__all__ = [
    "CellResult",
    "ChunkCalibration",
    "PlanExecutionError",
    "PlanOutcome",
    "ParallelExecutor",
    "RetryPolicy",
    "RunContext",
    "TaskFailure",
    "configure",
    "default_context",
    "default_executor",
    "execute",
    "reset_defaults",
]


def _unit_fields(item: tuple) -> dict:
    """Identifying telemetry fields of one pending-queue entry."""
    task = task_of(item)
    if isinstance(task, CellShard):
        return {
            "unit": "shard",
            "label": task.label,
            "kind": type(task.cell).__name__,
        }
    return {"unit": "cell", "label": task.label, "kind": type(task).__name__}


class ParallelExecutor:
    """Executes study plans over a pluggable backend with a result cache.

    Parameters
    ----------
    workers:
        Worker processes; ``None`` reads ``REPRO_WORKERS`` (default 1).
        ``1`` executes serially in-process under the automatic backend
        policy — also used when a plan has at most one uncached unit of
        work.  The spool backend ignores this count: its parallelism is
        however many ``python -m repro worker`` processes are attached.
    store:
        A :class:`~repro.runtime.store.ResultStore`, a directory path
        to root one at, or ``None`` to disable caching.
    progress:
        ``True`` for the default stderr reporter, a callable
        ``(done, total, CellResult) -> None`` for custom reporting, or
        ``None``/``False`` for silence.
    chunk_size:
        Repetition-sharding granularity: shardable cells with more
        repetitions than this are split into sub-cell windows of at
        most ``chunk_size`` repetitions that fan out like cells and
        merge bit-identically.  ``None`` reads ``REPRO_CHUNK_SIZE``
        (default: no sharding).  A cell's own ``chunk_size`` field
        overrides this value.
    chunk_seconds:
        Adaptive chunk sizing: instead of a fixed reps-per-shard, aim
        for shards of roughly this many wall-clock seconds.  Each run
        times one pilot shard of its first uncached shardable cell,
        derives reps-per-shard from the measured rate, and shards the
        whole plan at that granularity (the pilot window is reused when
        it aligns with the chosen chunking).  ``None`` reads
        ``REPRO_CHUNK_SECONDS`` (default: off).  Mutually exclusive
        with ``chunk_size``: passing both explicitly (or setting both
        environment variables) raises; an explicit argument for one
        silently wins over the *environment* default of the other, so
        code pinning a chunk size keeps working under a
        ``REPRO_CHUNK_SECONDS`` CI leg and vice versa.  Calibration is
        pure scheduling — chunking never changes numbers or cache keys.
    backend:
        Where units of work execute: an
        :class:`~repro.runtime.backends.ExecutionBackend` instance, a
        spec string (``"serial"``, ``"process[:n]"``,
        ``"spool[:dir]"``, ``"chaos:<inner>"``), or ``None`` to read
        ``REPRO_BACKEND`` — falling back to the automatic policy
        (serial at ``workers=1`` or ≤1 pending unit, process pool
        otherwise).  Backends change placement and wall-clock only:
        results are bit-identical and cache tokens are
        backend-independent, so runs resume across backend switches.
    max_retries:
        Resubmissions allowed per unit of work after a failed attempt,
        with deterministic exponential backoff (see
        :class:`~repro.runtime.faults.RetryPolicy`).  ``None`` reads
        ``REPRO_MAX_RETRIES`` (default 0 — classic fail-fast).
    on_error:
        What to do once a unit exhausts its retries: ``"raise"``
        (default; aborts the run with a
        :class:`~repro.runtime.faults.PlanExecutionError` carrying the
        full failure history) or ``"continue"`` (quarantine the failed
        cell, keep draining, and return a partial
        :class:`PlanOutcome` with the ``failures`` tuple populated).
        ``None`` reads ``REPRO_ON_ERROR``.
    retry_policy:
        A full :class:`~repro.runtime.faults.RetryPolicy` (backoff
        shape included).  Mutually exclusive with ``max_retries``,
        which is the convenience form for the common case.
    trace:
        Path of a JSONL trace journal: every run of this executor
        appends its structured lifecycle events (see
        :mod:`repro.runtime.telemetry`) to the file.  ``None`` reads
        ``REPRO_TRACE_FILE`` (default: no journal).  Strictly
        non-semantic — tracing on or off changes no result bytes, no
        cache tokens, and no seeds.  The in-memory metrics aggregate
        is always attached to the outcome, journal or not.
    solve_pool:
        A shared :class:`~repro.runtime.solvebatch.SolveBroker` (or
        compatible object with a ``channel(telemetry)`` factory) to
        coalesce this run's interval solves with other concurrent runs'.
        ``None`` (the default) solves directly.  Pure scheduling: pooled
        solves are bit-identical to direct ones.
    solve_table:
        Small-n solve-table cap: integer-count solves with ``n`` at or
        below this are served from a precomputed, memory-mapped
        (method, alpha, n) interval table rooted in the result store
        (see :mod:`repro.intervals.table`).  ``0`` disables; ``None``
        reads ``REPRO_SOLVE_TABLE`` (default 2048).  Tables are pure
        memoisation — served rows are bit-identical to solved ones.
    """

    def __init__(
        self,
        workers: int | None = None,
        store: Union[ResultStore, str, Path, None] = None,
        progress: Union[bool, Callable[[int, int, CellResult], None], None] = None,
        chunk_size: int | None = None,
        chunk_seconds: float | None = None,
        backend: Union[str, ExecutionBackend, None] = None,
        max_retries: int | None = None,
        on_error: str | None = None,
        retry_policy: RetryPolicy | None = None,
        trace: Union[str, Path, None] = None,
        solve_pool: Any = None,
        solve_table: int | None = None,
    ):
        self._bind(
            RunContext(
                workers=workers,
                store=store,
                progress=progress,
                chunk_size=chunk_size,
                chunk_seconds=chunk_seconds,
                backend=backend,
                max_retries=max_retries,
                on_error=on_error,
                retry_policy=retry_policy,
                trace=trace,
                solve_pool=solve_pool,
                solve_table=solve_table,
            )
        )

    @classmethod
    def from_context(cls, context: RunContext) -> "ParallelExecutor":
        """An executor bound to an already-resolved :class:`RunContext`.

        The context is taken as-is — no environment variable is
        consulted (resolution happened when *context* was built), so
        two executors created from different contexts share nothing and
        can run concurrently in one process.
        """
        if not isinstance(context, RunContext):
            raise TypeError(
                f"from_context expects a RunContext, got {context!r}"
            )
        executor = cls.__new__(cls)
        executor._bind(context)
        return executor

    def _bind(self, context: RunContext) -> None:
        """Adopt *context*, mirroring its fields as attributes."""
        self.context = context
        self.workers = context.workers
        self.chunk_size = context.chunk_size
        self.chunk_seconds = context.chunk_seconds
        self.backend = context.backend
        self.retry_policy = context.retry_policy
        self.on_error = context.on_error
        self.store = context.store
        self.progress: Callable[[int, int, CellResult], None] | None = (
            context.progress
        )
        self.trace = context.trace
        self.solve_pool = context.solve_pool
        self.solve_table = context.solve_table

    def _backend_for(self, pending: int) -> ExecutionBackend:
        """The backend this run dispatches through.

        An explicit backend (constructor argument or ``REPRO_BACKEND``)
        is honoured as-is.  The automatic policy reproduces the classic
        behaviour: a process pool when there are both multiple workers
        and multiple units of work, the serial path otherwise.
        """
        if isinstance(self.backend, ExecutionBackend):
            return self.backend
        if self.backend is not None:
            return make_backend(self.backend)
        if self.workers > 1 and pending > 1:
            return ProcessPoolBackend()
        return SerialBackend()

    #: Repetitions the calibration pilot shard covers (capped at half
    #: the pilot cell's repetitions so the run still has work to shard).
    _PILOT_REPS = 4

    def _calibrate_chunk(
        self,
        plan: StudyPlan,
        settings: "ExperimentSettings",
        telemetry: RunTelemetry,
    ) -> tuple[ChunkCalibration | None, tuple | None]:
        """Derive reps-per-shard from one timed pilot shard.

        Picks the first uncached shardable cell of the plan, executes
        its leading repetition window ``[0, pilot)`` in-process, and
        converts the measured rate into a chunk size targeting
        ``chunk_seconds`` per shard.  The pilot's partial payload is
        persisted to the store (under its ordinary shard token) and
        returned for in-memory reuse, so the timed work is not wasted
        when the chosen chunking's first window happens to align.

        Calibration affects scheduling only: whatever chunk size comes
        out, merged results and cache tokens are identical to any fixed
        chunking — the property the test suite pins down.
        """
        for index, cell in enumerate(plan.cells):
            if not is_shardable(cell) or cell.chunk_size is not None:
                continue
            repetitions = cell_repetitions(cell, settings)
            if repetitions < 2:
                continue
            if self.store is not None and self.store.contains(
                cache_token(cell, settings)
            ):
                continue
            pilot_reps = max(1, min(self._PILOT_REPS, repetitions // 2))
            shard = CellShard(
                cell=cell,
                index=0,
                shards=1,
                rep_start=0,
                rep_stop=pilot_reps,
            )
            value, seconds = run_shard(shard, settings)
            if self.store is not None:
                self.store.save(
                    shard_token(shard, settings, repetitions),
                    {"value": value, "label": shard.label, "seconds": seconds},
                    group=cache_token(cell, settings),
                )
            chunk = max(
                1,
                int(round(self.chunk_seconds * pilot_reps / max(seconds, 1e-9))),
            )
            calibration = ChunkCalibration(
                cell_key=cell.key,
                pilot_repetitions=pilot_reps,
                pilot_seconds=seconds,
                chunk_size=chunk,
            )
            telemetry.emit(
                "calibration",
                payload=calibration,
                cell="/".join(str(part) for part in cell.key),
                pilot_repetitions=pilot_reps,
                pilot_seconds=round(seconds, 6),
                chunk_size=chunk,
            )
            return calibration, (index, pilot_reps, value, seconds)
        return None, None

    def run(self, plan: StudyPlan) -> PlanOutcome:
        """Execute *plan*; returns results for every cell, plan-ordered.

        The scheduler core serves the cache first — merged cell
        entries, then per-shard entries for sharded cells — and the
        remaining units of work (whole cells and repetition shards
        alike) dispatch through the run's backend.  Each fresh result
        is persisted to the store from the scheduler process as soon as
        it completes: whole cells and shards one by one, so
        interruption at any point loses at most the work still in
        flight, and a killed sharded cell resumes at its last finished
        shard — on this backend or any other.

        With ``chunk_seconds`` configured, a timed pilot shard runs
        first and fixes this run's reps-per-shard (see
        :meth:`_calibrate_chunk`); the resulting chunk size is recorded
        on the outcome's ``calibration`` and never in any result.

        Every run narrates itself into a fresh
        :class:`~repro.runtime.telemetry.RunTelemetry` bus: the metrics
        aggregate is always attached (``outcome.metrics``), the JSONL
        journal only when ``trace``/``REPRO_TRACE_FILE`` is set, and
        the progress reporter is just another subscriber.  Telemetry is
        observation only — it never feeds back into scheduling.
        """
        start = time.perf_counter()
        settings = plan.settings
        telemetry = RunTelemetry()
        metrics = MetricsAggregate()
        telemetry.subscribe(metrics)
        if self.trace is not None:
            telemetry.subscribe(JsonlTraceSink(self.trace))
        if self.progress is not None:
            telemetry.subscribe(ProgressSubscriber(self.progress))
        status = "aborted"
        backend = None
        retries = 0
        # Install the shared solve pool (if any) for everything this
        # scheduler thread executes in-process — serial-backend units
        # and the calibration pilot.  Out-of-process units solve
        # directly in their workers, which is bit-identical anyway.
        pool_stack = ExitStack()
        table = None
        table_before: dict | None = None
        try:
            if self.solve_pool is not None:
                channel = pool_stack.enter_context(
                    self.solve_pool.channel(telemetry)
                )
                pool_stack.enter_context(use_solve_pool(channel))
            # The run's solve table installs alongside the pool: ambient
            # for everything this scheduler thread executes in-process.
            # Out-of-process units resolve it from the environment in
            # their workers (see backends.base.run_task) — always
            # bit-identical, so placement still never changes numbers.
            if self.solve_table and self.solve_table > 0:
                root = self.store.root if self.store is not None else None
                table = shared_table(root, self.solve_table)
                table_before = table.stats()
                pool_stack.enter_context(use_solve_table(table))
            else:
                # Explicitly disabled: install a cap-0 table so
                # in-process run_task sees *an* ambient table and never
                # falls back to the environment default.
                pool_stack.enter_context(use_solve_table(SolveTable(cap=0)))
            telemetry.emit(
                "run_start",
                plan=plan.name or "plan",
                cells=len(plan.cells),
                workers=self.workers,
                schema=TRACE_SCHEMA_VERSION,
            )
            default_chunk = self.chunk_size
            calibration = None
            pilot = None
            if self.chunk_seconds is not None:
                calibration, pilot = self._calibrate_chunk(
                    plan, settings, telemetry
                )
                if calibration is not None:
                    default_chunk = calibration.chunk_size
            scheduler = PlanScheduler(
                plan,
                store=self.store,
                default_chunk=default_chunk,
                pilot=pilot,
                telemetry=telemetry,
            )
            pending = scheduler.scan()
            backend = self._backend_for(len(pending))
            failure_log: list[TaskFailure] = []
            if pending:
                tokens = {
                    id(item): unit_token(task_of(item), settings)
                    for item in pending
                }
                for item in pending:
                    telemetry.emit(
                        "unit_queued", token=tokens[id(item)], **_unit_fields(item)
                    )
                open_backend(
                    backend,
                    workers=self.workers,
                    tasks=len(pending),
                    settings=settings,
                    telemetry=telemetry,
                )
                try:
                    # future -> (queue item, attempt number); failed
                    # futures are replaced by their retry's future, so the
                    # map always holds exactly the in-flight attempts.
                    futures: dict = {}
                    for item in pending:
                        telemetry.emit(
                            "unit_submitted",
                            token=tokens[id(item)],
                            attempt=1,
                            backend=backend.name,
                            **_unit_fields(item),
                        )
                        futures[backend.submit(task_of(item), settings)] = (item, 1)
                    outstanding = set(futures)
                    while outstanding:
                        ready, outstanding = backend.wait_any(outstanding)
                        for future in ready:
                            item, attempt = futures.pop(future)
                            try:
                                value, seconds = future.result()
                            except Exception as exc:
                                retried = self._handle_failure(
                                    backend, settings, item, attempt, exc,
                                    futures, outstanding, failure_log,
                                    scheduler, telemetry,
                                )
                                retries += retried
                                continue
                            telemetry.emit(
                                "unit_finished",
                                token=tokens[id(item)],
                                attempt=attempt,
                                seconds=round(seconds, 6),
                                backend=backend.name,
                                **_unit_fields(item),
                            )
                            scheduler.finish(item, value, seconds)
                finally:
                    close_backend(backend)
            status = "ok"
        finally:
            pool_stack.close()
            if table is not None and table_before is not None:
                # The table is shared process-wide; journal this run's
                # *delta* so concurrent runs' summaries stay additive.
                after = table.stats()
                telemetry.emit(
                    "solve_table",
                    cap=table.cap,
                    hits=after["hits"] - table_before["hits"],
                    misses=after["misses"] - table_before["misses"],
                    ineligible=after["ineligible"] - table_before["ineligible"],
                    builds=after["builds"] - table_before["builds"],
                    build_seconds=round(
                        after["build_seconds"] - table_before["build_seconds"], 6
                    ),
                    rows_served=after["rows_served"]
                    - table_before["rows_served"],
                    entries=after["entries"],
                )
            telemetry.emit(
                "run_finish",
                status=status,
                seconds=round(time.perf_counter() - start, 6),
            )
            telemetry.close()
        return PlanOutcome(
            plan=plan,
            cells=scheduler.cells(),
            workers=self.workers,
            seconds=time.perf_counter() - start,
            calibration=calibration,
            backend=backend.name,
            failures=scheduler.failed(),
            retries=retries,
            metrics=metrics,
        )

    def _handle_failure(
        self,
        backend: ExecutionBackend,
        settings: "ExperimentSettings",
        item: tuple,
        attempt: int,
        exc: Exception,
        futures: dict,
        outstanding: set,
        failure_log: list[TaskFailure],
        scheduler: PlanScheduler,
        telemetry: RunTelemetry,
    ) -> int:
        """Consult the retry policy for one failed attempt.

        Returns 1 when the unit was resubmitted (after its
        deterministic backoff), 0 when it exhausted its attempts — in
        which case the cell is either quarantined
        (``on_error="continue"``) or the run aborts with a
        :class:`PlanExecutionError` carrying the full failure history.
        """
        task = task_of(item)
        token = unit_token(task, settings)
        failure = failure_from(task, token, attempt, exc, backend.name)
        failure_log.append(failure)
        telemetry.emit(
            "unit_failed",
            token=token,
            attempt=attempt,
            error=f"{type(exc).__name__}: {exc}",
            backend=backend.name,
            **_unit_fields(item),
        )
        policy = self.retry_policy
        if attempt <= policy.max_retries:
            delay = policy.delay(attempt, token)
            telemetry.emit(
                "retry",
                payload=failure,
                token=token,
                attempt=attempt + 1,
                max_attempts=policy.attempts,
                delay=round(delay, 6),
                **_unit_fields(item),
            )
            if delay > 0.0:
                time.sleep(delay)
            telemetry.emit(
                "unit_submitted",
                token=token,
                attempt=attempt + 1,
                backend=backend.name,
                **_unit_fields(item),
            )
            replacement = backend.submit(task, settings)
            futures[replacement] = (item, attempt + 1)
            outstanding.add(replacement)
            return 1
        if self.on_error == "continue":
            scheduler.quarantine(item, failure)
            telemetry.emit(
                "quarantine",
                payload=failure,
                token=token,
                attempts=failure.attempts,
                error=failure.error,
                **_unit_fields(item),
            )
            return 0
        raise PlanExecutionError(
            f"plan execution aborted: {failure.summary()}",
            failures=tuple(failure_log),
        ) from exc

    def __repr__(self) -> str:
        return (
            f"ParallelExecutor(workers={self.workers}, "
            f"store={self.store!r}, progress={self.progress is not None}, "
            f"chunk_size={self.chunk_size}, chunk_seconds={self.chunk_seconds}, "
            f"backend={self.backend!r}, "
            f"max_retries={self.retry_policy.max_retries}, "
            f"on_error={self.on_error!r}, trace={self.trace!r}, "
            f"solve_pool={self.solve_pool!r})"
        )


# ----------------------------------------------------------------------
# Module-default context: thin wrappers over RunContext for the
# pre-context API (configure()/default_executor()/execute(plan)).
# ----------------------------------------------------------------------

_UNSET = object()
_overrides: dict[str, Any] = {
    "workers": None,
    "cache_dir": None,
    "progress": None,
    "chunk_size": None,
    "chunk_seconds": None,
    "backend": None,
    "max_retries": None,
    "on_error": None,
    "trace": None,
    "solve_table": None,
}


def configure(
    workers=_UNSET,
    cache_dir=_UNSET,
    progress=_UNSET,
    chunk_size=_UNSET,
    chunk_seconds=_UNSET,
    backend=_UNSET,
    max_retries=_UNSET,
    on_error=_UNSET,
    trace=_UNSET,
    solve_table=_UNSET,
    context: RunContext | None = None,
) -> None:
    """Set process-wide defaults for :func:`execute`.

    Thin wrapper over the per-request API: the values set here become
    the module-default :class:`~repro.runtime.settings.RunContext` that
    :func:`default_context` builds at call time (unset values fall back
    to the ``REPRO_*`` environment knobs via
    :mod:`repro.runtime.settings`).  Used by CLIs to route every
    subsequently-run experiment through a configured executor without
    threading parameters through each ``run_*`` signature.  New code
    that needs isolated or concurrent configurations should build a
    :class:`~repro.runtime.settings.RunContext` and pass it to
    :func:`execute` or :meth:`ParallelExecutor.from_context` instead of
    mutating process-wide state.

    Passing ``context=`` adopts every setting of an already-resolved
    :class:`~repro.runtime.settings.RunContext` as the module defaults
    in one call (mutually exclusive with the individual keywords).
    """
    if context is not None:
        if any(
            value is not _UNSET
            for value in (
                workers, cache_dir, progress, chunk_size, chunk_seconds,
                backend, max_retries, on_error, trace, solve_table,
            )
        ):
            raise ValidationError(
                "configure(context=...) is mutually exclusive with the "
                "individual keyword overrides"
            )
        _overrides.update(
            workers=context.workers,
            cache_dir=context.store,
            progress=context.progress,
            chunk_size=context.chunk_size,
            chunk_seconds=context.chunk_seconds,
            backend=context.backend,
            max_retries=None,
            on_error=context.on_error,
            trace=context.trace,
            solve_table=context.solve_table,
        )
        _overrides["retry_policy"] = context.retry_policy
        return
    _overrides.pop("retry_policy", None)
    if workers is not _UNSET:
        _overrides["workers"] = workers
    if cache_dir is not _UNSET:
        _overrides["cache_dir"] = cache_dir
    if progress is not _UNSET:
        _overrides["progress"] = progress
    if chunk_size is not _UNSET:
        _overrides["chunk_size"] = chunk_size
    if chunk_seconds is not _UNSET:
        _overrides["chunk_seconds"] = chunk_seconds
    if backend is not _UNSET:
        _overrides["backend"] = backend
    if max_retries is not _UNSET:
        _overrides["max_retries"] = max_retries
    if on_error is not _UNSET:
        _overrides["on_error"] = on_error
    if trace is not _UNSET:
        _overrides["trace"] = trace
    if solve_table is not _UNSET:
        _overrides["solve_table"] = solve_table


def reset_defaults() -> None:
    """Clear every :func:`configure` override (back to env fallback).

    After this, :func:`default_context` resolves purely from the
    ``REPRO_*`` environment again — what a fresh process sees.  Mainly
    for tests and long-lived hosts embedding several CLIs.
    """
    for key in _overrides:
        _overrides[key] = None
    _overrides.pop("retry_policy", None)


def default_context() -> RunContext:
    """The module-default :class:`RunContext`, built fresh at call time.

    :func:`configure` overrides are applied where set; everything else
    resolves through the ``REPRO_*`` environment knobs *now*, so a CI
    leg exporting ``REPRO_BACKEND`` after import still takes effect.
    """
    return RunContext(
        workers=_overrides["workers"],
        store=_overrides["cache_dir"],
        progress=_overrides["progress"],
        chunk_size=_overrides["chunk_size"],
        chunk_seconds=_overrides["chunk_seconds"],
        backend=_overrides["backend"],
        max_retries=_overrides["max_retries"],
        on_error=_overrides["on_error"],
        retry_policy=_overrides.get("retry_policy"),
        trace=_overrides["trace"],
        solve_table=_overrides["solve_table"],
    )


def default_executor() -> ParallelExecutor:
    """An executor over :func:`default_context`.

    Thin wrapper kept for the pre-context API; equivalent to
    ``ParallelExecutor.from_context(default_context())``.
    """
    return ParallelExecutor.from_context(default_context())


def execute(
    plan: StudyPlan,
    executor: ParallelExecutor | None = None,
    context: RunContext | None = None,
) -> PlanOutcome:
    """Run *plan* on *executor*, *context*, or the module default.

    Passing ``context=`` executes under that exact
    :class:`~repro.runtime.settings.RunContext` (mutually exclusive
    with ``executor=``); with neither, the :func:`configure`/
    environment default context applies.
    """
    if executor is not None and context is not None:
        raise ValidationError(
            "execute() takes an executor or a context, not both"
        )
    if context is not None:
        executor = ParallelExecutor.from_context(context)
    elif executor is None:
        executor = default_executor()
    return executor.run(plan)
