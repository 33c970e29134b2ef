"""Parallel study execution with caching, resume, and progress.

:class:`ParallelExecutor` runs a :class:`~repro.runtime.spec.StudyPlan`
by pairing a backend-agnostic scheduler core
(:class:`~repro.runtime.scheduler.PlanScheduler` — cache scan, ready
queue, merge barriers, persistence, progress) with a pluggable
:class:`~repro.runtime.backends.ExecutionBackend` that decides where
each unit of work physically executes: in-process
(:class:`~repro.runtime.backends.SerialBackend`) or on a local process
pool (:class:`~repro.runtime.backends.ProcessPoolBackend`).  Because
every cell is seeded at plan-build time and runners rebuild their
inputs from specs, all backends are bit-identical — the backend
changes wall-clock and placement, never numbers.

Every cell runs as repetition windows plus a merge (see
:mod:`repro.runtime.cells`): one window when unsplit, and — when a
chunk size is configured — several, so a single expensive
1,000-repetition cell no longer serialises on one worker.  Windows of
all cells fan out across workers alike.  Chunking is pure scheduling:
for any chunk size, the merged result is bit-identical to the unsplit
run.

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

The run's ``chunk_size`` (``REPRO_CHUNK_SIZE``) is the one shard-size
setting: every splittable cell is cut into windows of at most that many
repetitions.  Chunking is pure scheduling — results and cache keys are
chunking-independent.

Failures follow an explicit fault model (:mod:`repro.runtime.faults`):
a failed unit of work is retried up to ``max_retries`` times with
deterministic exponential backoff
(:func:`~repro.runtime.faults.retry_delay`), and a unit that exhausts its
retries either aborts the run (``on_error="raise"``, with the full
:class:`~repro.runtime.faults.TaskFailure` history on the raised
:class:`~repro.runtime.faults.PlanExecutionError`) or is quarantined
while the rest of the plan drains (``on_error="continue"``, failures
reported on the outcome).  Because cells are seeded at plan-build
time, a retry recomputes byte-identical numbers — the test suite's
seeded fault injector exploits that to prove the failure path.

Configuration is an immutable, per-request
:class:`~repro.runtime.settings.RunContext`: every setting is resolved
through :mod:`repro.runtime.settings` (the one owner of all
``REPRO_*`` environment fallbacks) into a frozen snapshot, and
``ParallelExecutor(context)`` — the executor's only constructor —
reads every setting of a run from it, which is how the service front
end (:mod:`repro.runtime.service`) runs many concurrently-configured
requests in one process.  The module-level :func:`execute` is the
entry point the experiment modules use: it runs under an explicit
``context``, else the one :func:`use_context` installed for the
calling block, else a ``RunContext()`` resolved from the environment
at call time, so CI can flip the whole suite to parallel, sharded,
fault-injected, or journalled execution without code changes.

Every run additionally narrates itself into a structured telemetry
stream (:mod:`repro.runtime.telemetry`): an in-memory metrics
aggregate always rides on the returned outcome (``outcome.metrics``),
a JSONL event journal is appended when ``trace`` /
``REPRO_TRACE_FILE`` names a file, and the context's ``progress``
subscriber receives the same events.  Telemetry is observation only —
it never changes results, cache tokens, or seeds.
"""

from __future__ import annotations

import contextvars
import time
from contextlib import ExitStack, contextmanager
from typing import TYPE_CHECKING, Iterator

from ..intervals.base import use_solve_pool, use_solve_table
from ..intervals.table import SolveTable, TableTally, shared_table
from .backends import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    make_backend,
)
from .faults import (
    PlanExecutionError,
    TaskFailure,
    failure_from,
    retry_delay,
    unit_token,
)
from .scheduler import CellResult, PlanOutcome, PlanScheduler
from .settings import RunContext
from .spec import CellShard, StudyPlan
from .telemetry import (
    TRACE_SCHEMA_VERSION,
    JsonlTraceSink,
    MetricsAggregate,
    RunTelemetry,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiments.config import ExperimentSettings

__all__ = [
    "CellResult",
    "PlanExecutionError",
    "PlanOutcome",
    "ParallelExecutor",
    "RunContext",
    "TaskFailure",
    "execute",
    "use_context",
]


def _unit_fields(shard: CellShard) -> dict:
    """Identifying telemetry fields of one unit of work."""
    return {
        "unit": "cell" if shard.rep_range is None else "shard",
        "label": shard.label,
        "kind": type(shard.cell).__name__,
    }


class ParallelExecutor:
    """Executes study plans over a pluggable backend with a result cache.

    Parameters
    ----------
    context:
        The run's :class:`~repro.runtime.settings.RunContext`, taken
        as-is: every setting — workers, store, chunk size, backend,
        retries, error mode, trace journal, progress subscriber, solve
        pool and solve table — is read from it, and no environment
        variable is consulted (resolution happened when the context was
        built), so executors holding different contexts share nothing
        and can run concurrently in one process.
    """

    def __init__(self, context: RunContext):
        if not isinstance(context, RunContext):
            raise TypeError(
                f"ParallelExecutor expects a RunContext, got {context!r}"
            )
        self.context = context

    def _backend_for(self, pending: int) -> ExecutionBackend:
        """The backend this run dispatches through.

        An explicit backend (the context's ``backend`` or
        ``REPRO_BACKEND``) is honoured as-is.  The automatic policy
        reproduces the classic behaviour: a process pool when there are
        both multiple workers and multiple units of work, the serial
        path otherwise.
        """
        backend = self.context.backend
        if isinstance(backend, ExecutionBackend):
            return backend
        if backend is not None:
            return make_backend(backend)
        if self.context.workers > 1 and pending > 1:
            return ProcessPoolBackend()
        return SerialBackend()

    def run(self, plan: StudyPlan) -> PlanOutcome:
        """Execute *plan*; returns results for every cell, plan-ordered.

        The scheduler core serves the cache first — merged cell
        entries, then per-window entries for split cells — and the
        remaining windows dispatch through the run's backend.  Each
        fresh result is persisted to the store from the scheduler
        process as soon as it completes: merged cells and the windows
        of split cells one by one, so interruption at any point loses
        at most the work still in flight, and a killed split cell
        resumes at its last finished window — on this backend or any
        other.

        Every run narrates itself into a fresh
        :class:`~repro.runtime.telemetry.RunTelemetry` bus: the metrics
        aggregate is always attached (``outcome.metrics``), the JSONL
        journal only when ``trace``/``REPRO_TRACE_FILE`` is set, and
        the context's ``progress`` subscriber sees the same events.
        Telemetry is observation only — it never feeds back into
        scheduling.
        """
        start = time.perf_counter()
        context = self.context
        settings = plan.settings
        telemetry = RunTelemetry()
        metrics = MetricsAggregate()
        telemetry.subscribe(metrics)
        if context.trace is not None:
            telemetry.subscribe(JsonlTraceSink(context.trace))
        if context.progress is not None:
            telemetry.subscribe(context.progress)
        status = "aborted"
        backend = None
        retries = 0
        # Install the shared solve pool (if any) for everything this
        # scheduler thread executes in-process (serial-backend units).
        # Out-of-process units solve directly in their workers, which
        # is bit-identical anyway.
        pool_stack = ExitStack()
        tally = None
        try:
            if context.solve_pool is not None:
                channel = pool_stack.enter_context(
                    context.solve_pool.channel(telemetry)
                )
                pool_stack.enter_context(use_solve_pool(channel))
            # The run's solve table installs alongside the pool: ambient
            # for everything this scheduler thread executes in-process
            # and inherited by forked pool workers; spawn-started
            # workers resolve it from the environment (see
            # backends.base.run_task) — always bit-identical, so
            # placement still never changes numbers.  It is installed
            # behind the run's tally, which counts the serves of merges
            # in this thread and sums the counts every unit returns, so
            # a pool run journals its workers' serves and overlapping
            # runs never journal each other's.
            if context.solve_table > 0:
                tally = TableTally(shared_table(context.solve_table))
                pool_stack.enter_context(use_solve_table(tally))
            else:
                # Explicitly disabled: install a cap-0 table so
                # in-process run_task sees *an* ambient table and never
                # falls back to the environment default.
                pool_stack.enter_context(use_solve_table(SolveTable(cap=0)))
            telemetry.emit(
                "run_start",
                plan=plan.name or "plan",
                cells=len(plan.cells),
                workers=context.workers,
                schema=TRACE_SCHEMA_VERSION,
            )
            scheduler = PlanScheduler(
                plan,
                store=context.store,
                chunk_size=context.chunk_size,
                telemetry=telemetry,
            )
            pending = scheduler.scan()
            backend = self._backend_for(len(pending))
            failure_log: list[TaskFailure] = []
            if pending:
                tokens = {id(shard): unit_token(shard, settings) for shard in pending}
                for shard in pending:
                    telemetry.emit(
                        "unit_queued", token=tokens[id(shard)], **_unit_fields(shard)
                    )
                backend.open(
                    workers=context.workers, tasks=len(pending), settings=settings
                )
                try:
                    # future -> (unit, attempt number); failed futures are
                    # replaced by their retry's future, so the map always
                    # holds exactly the in-flight attempts.
                    futures: dict = {}
                    for shard in pending:
                        telemetry.emit(
                            "unit_submitted",
                            token=tokens[id(shard)],
                            attempt=1,
                            backend=backend.name,
                            **_unit_fields(shard),
                        )
                        futures[backend.submit(shard, settings)] = (shard, 1)
                    outstanding = set(futures)
                    while outstanding:
                        ready, outstanding = backend.wait_any(outstanding)
                        for future in ready:
                            shard, attempt = futures.pop(future)
                            try:
                                value, seconds, counts = future.result()
                            except Exception as exc:
                                retried = self._handle_failure(
                                    backend, settings, shard, attempt, exc,
                                    futures, outstanding, failure_log,
                                    scheduler, telemetry,
                                )
                                retries += retried
                                continue
                            telemetry.emit(
                                "unit_finished",
                                token=tokens[id(shard)],
                                attempt=attempt,
                                seconds=round(seconds, 6),
                                backend=backend.name,
                                **_unit_fields(shard),
                            )
                            if tally is not None and counts is not None:
                                tally.add(counts)
                            scheduler.finish(shard, value, seconds)
                finally:
                    backend.close()
            status = "ok"
        finally:
            pool_stack.close()
            if tally is not None:
                counts = tally.counts()
                counts["build_seconds"] = round(counts["build_seconds"], 6)
                telemetry.emit("solve_table", cap=tally.table.cap, **counts)
            telemetry.emit(
                "run_finish",
                status=status,
                seconds=round(time.perf_counter() - start, 6),
            )
            telemetry.close()
        return PlanOutcome(
            plan=plan,
            cells=scheduler.cells(),
            workers=context.workers,
            seconds=time.perf_counter() - start,
            backend=backend.name,
            failures=scheduler.failed(),
            retries=retries,
            metrics=metrics,
        )

    def _handle_failure(
        self,
        backend: ExecutionBackend,
        settings: "ExperimentSettings",
        shard: CellShard,
        attempt: int,
        exc: Exception,
        futures: dict,
        outstanding: set,
        failure_log: list[TaskFailure],
        scheduler: PlanScheduler,
        telemetry: RunTelemetry,
    ) -> int:
        """Retry, quarantine or abort after one failed attempt.

        Returns 1 when the unit was resubmitted (after its
        deterministic :func:`~repro.runtime.faults.retry_delay`), 0
        when it exhausted its ``max_retries`` — in
        which case the cell is either quarantined
        (``on_error="continue"``) or the run aborts with a
        :class:`PlanExecutionError` carrying the full failure history.
        """
        token = unit_token(shard, settings)
        failure = failure_from(shard, token, attempt, exc, backend.name)
        failure_log.append(failure)
        telemetry.emit(
            "unit_failed",
            token=token,
            attempt=attempt,
            error=failure.error,
            backend=backend.name,
            **_unit_fields(shard),
        )
        max_retries = self.context.max_retries
        if attempt <= max_retries:
            delay = retry_delay(attempt, token)
            telemetry.emit(
                "retry",
                token=token,
                attempt=attempt + 1,
                max_attempts=max_retries + 1,
                delay=round(delay, 6),
                error=failure.error,
                **_unit_fields(shard),
            )
            if delay > 0.0:
                time.sleep(delay)
            telemetry.emit(
                "unit_submitted",
                token=token,
                attempt=attempt + 1,
                backend=backend.name,
                **_unit_fields(shard),
            )
            replacement = backend.submit(shard, settings)
            futures[replacement] = (shard, attempt + 1)
            outstanding.add(replacement)
            return 1
        if self.context.on_error == "continue":
            scheduler.quarantine(shard, failure)
            telemetry.emit(
                "quarantine",
                token=token,
                attempts=failure.attempts,
                error=failure.error,
                **_unit_fields(shard),
            )
            return 0
        raise PlanExecutionError(
            f"plan execution aborted: {failure.summary()}",
            failures=tuple(failure_log),
        ) from exc


#: The context :func:`execute` falls back to when no ``context=`` is
#: passed.  A context variable, like the ambient solve pool, so an
#: installation is scoped to the ``with`` block and the calling thread:
#: concurrent requests never see each other's configuration.
_CONTEXT: contextvars.ContextVar[RunContext | None] = contextvars.ContextVar(
    "repro-run-context", default=None
)


@contextmanager
def use_context(context: RunContext) -> Iterator[RunContext]:
    """Run every :func:`execute` call in the ``with`` block under *context*.

    This is how code that calls ``execute(plan)`` without a context —
    the experiments' ``run_*`` report functions — runs under a chosen
    configuration.  The installation ends with the block and is
    invisible to other threads, which resolve from ``REPRO_*`` as
    before.
    """
    token = _CONTEXT.set(context)
    try:
        yield context
    finally:
        _CONTEXT.reset(token)


def execute(plan: StudyPlan, context: RunContext | None = None) -> PlanOutcome:
    """Run *plan* under *context*, the installed context, or the environment.

    An explicit *context* wins; otherwise the one installed by
    :func:`use_context` applies; otherwise a fresh ``RunContext()``
    resolves every knob from ``REPRO_*`` at call time, so a CI leg
    exporting ``REPRO_BACKEND`` switches every run without code changes.
    """
    context = context or _CONTEXT.get() or RunContext()
    return ParallelExecutor(context).run(plan)
