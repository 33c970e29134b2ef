"""Study-execution runtime: parallel grids, caching, resume, backends.

The layer between the evaluators and the experiment scripts.  A grid of
Monte-Carlo cells is described as data (:class:`StudyPlan` /
:class:`CellSpec`), scheduled by a backend-agnostic core
(:mod:`repro.runtime.scheduler`) and dispatched through a pluggable
:class:`ExecutionBackend` — in-process (:class:`SerialBackend`) or a
local process pool (:class:`ProcessPoolBackend`) — always with
bit-identical results (:class:`ParallelExecutor`), cached and resumed
through a content-addressed disk store (:class:`ResultStore`), and
reported cell by cell (:class:`ProgressReporter`).

Every cell runs as repetition windows (:class:`CellShard`) plus a
merge: one whole-cell window by default, and with a chunk size
configured, independent windows that fan out across workers and merge
back bit-identically, so one 1,000-repetition cell no longer
serialises on a single worker.

Execution configuration is an immutable per-request :class:`RunContext`
(:mod:`repro.runtime.settings`): every knob below resolves — explicit
value, else ``REPRO_*`` environment variable, else default — exactly
once, at context construction, and ``ParallelExecutor(ctx)`` (the
executor's only constructor) / ``execute(plan, context=ctx)`` thread
the snapshot through scheduler and backend without touching
process state, so differently-configured runs coexist in one process
(the basis of ``python -m repro serve``).  Code that calls
``execute(plan)`` without a context — the experiments' ``run_*``
report functions — runs under ``with use_context(ctx):``.

Environment knobs (read when :func:`execute` finds neither an
explicit nor an installed context): ``REPRO_WORKERS`` sets the worker
count, ``REPRO_CACHE_DIR`` roots a result store, ``REPRO_CHUNK_SIZE``
turns on repetition sharding at a fixed granularity (the one
shard-size setting), and ``REPRO_BACKEND`` picks the execution backend
(``serial``, ``process[:n]``, or ``chaos[:inner]`` for fault
injection).  Cache tokens never depend on the backend, so a run
interrupted on one backend resumes on another at the finished-shard
boundary.

Execution is fault-tolerant: ``REPRO_MAX_RETRIES`` (or
``max_retries=``) resubmits failed units on a deterministic backoff
schedule (:func:`~repro.runtime.faults.retry_delay`), and
``REPRO_ON_ERROR`` (or ``on_error=``) picks what happens when retries
run out — ``"raise"`` aborts with a :class:`PlanExecutionError` carrying every
:class:`TaskFailure`, ``"continue"`` quarantines the failed cell and
returns the survivors plus the failure records on the
:class:`PlanOutcome`.

Every run is observable: a :class:`RunTelemetry` event bus narrates
the full lifecycle (cache scan, unit queued/submitted/finished,
retries, quarantines, chaos injections, solve-table usage) into an
always-on in-memory :class:`MetricsAggregate` (``outcome.metrics``)
and — when ``REPRO_TRACE_FILE`` or ``trace=``/``--trace`` names a
file — a JSONL journal summarised by ``python -m repro trace
summarize``.  Progress is one more subscriber: ``RunContext(progress=
...)`` takes the stderr :class:`ProgressReporter` (``True``) or any
callable, which receives each :class:`TelemetryEvent`.  Telemetry is
strictly non-semantic: tracing on or off changes no result bytes,
cache tokens, or seeds.

Concurrent runs can additionally share a :class:`SolveBroker`
(:mod:`repro.runtime.solvebatch`): interval solves arriving from
several runs within a coalescing window (``REPRO_SOLVE_BATCH_WINDOW``,
capped by ``REPRO_SOLVE_BATCH_MAX`` callers) flush as one vectorised
``compute_batch`` call — the audit service wires its process-wide
broker into every request's :class:`RunContext`.  Like every other
scheduling knob here, batching is bit-identical: pooled slices match
standalone solves byte for byte.
"""

from .backends import (
    BackendFuture,
    ChaosBackend,
    ChaosFault,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    make_backend,
    register_backend,
)
from .cells import (
    CellKind,
    build_kg,
    build_method,
    build_method_from_payload,
    build_strategy,
    cell_method,
    kind_for,
    method_payload,
    register_cell_runner,
)
from .executor import (
    CellResult,
    ParallelExecutor,
    PlanOutcome,
    execute,
    use_context,
)
from .settings import KNOBS, RunContext, env_knob
from .solvebatch import BrokerChannel, SolveBroker
from .faults import (
    PlanExecutionError,
    TaskFailure,
    unit_token,
)
from .progress import ProgressReporter
from .scheduler import PlanScheduler
from .telemetry import (
    EVENT_TYPES,
    JsonlTraceSink,
    MetricsAggregate,
    RunTelemetry,
    TelemetryEvent,
    read_journal,
    render_summary,
    replay_metrics,
    summarize_journal,
)
from .spec import (
    CACHE_VERSION,
    CellShard,
    CellSpec,
    CoverageCell,
    DynamicAuditCell,
    PartitionedAuditCell,
    SequentialCoverageCell,
    StudyCell,
    StudyPlan,
    cache_token,
    shard_ranges,
    shard_token,
)
from .store import ResultStore

__all__ = [
    "CACHE_VERSION",
    "CellSpec",
    "CellShard",
    "StudyCell",
    "CoverageCell",
    "SequentialCoverageCell",
    "DynamicAuditCell",
    "PartitionedAuditCell",
    "StudyPlan",
    "cache_token",
    "shard_ranges",
    "shard_token",
    "CellResult",
    "PlanOutcome",
    "PlanScheduler",
    "ParallelExecutor",
    "PlanExecutionError",
    "ProgressReporter",
    "ResultStore",
    "TaskFailure",
    "unit_token",
    "BackendFuture",
    "ChaosBackend",
    "ChaosFault",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "make_backend",
    "register_backend",
    "CellKind",
    "build_kg",
    "build_method",
    "build_method_from_payload",
    "build_strategy",
    "cell_method",
    "kind_for",
    "method_payload",
    "register_cell_runner",
    "KNOBS",
    "RunContext",
    "BrokerChannel",
    "SolveBroker",
    "env_knob",
    "execute",
    "use_context",
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
