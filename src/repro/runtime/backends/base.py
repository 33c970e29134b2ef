"""Execution backends: where a unit of work physically runs.

The scheduler core (:mod:`repro.runtime.scheduler`) decides *what* runs
next, which cache entries to reuse, and how window payloads merge back
into cell results.  An :class:`ExecutionBackend` decides *where* a unit
of work — one :class:`~repro.runtime.spec.CellShard`, a repetition
window of a cell or the whole cell — physically executes: in the
scheduler's process (:class:`~repro.runtime.backends.serial.
SerialBackend`), on a local process pool (:class:`~repro.runtime.
backends.pool.ProcessPoolBackend`), or through a file-based work queue
served by detached workers (:class:`~repro.runtime.backends.spool.
SpoolBackend`).

The contract is deliberately narrow.  A backend receives fully
self-contained units (frozen dataclasses of primitives; runners rebuild
everything from spec), returns future-like handles, and surfaces
completions through :meth:`ExecutionBackend.wait_any`.  Everything that
makes results *correct* — plan-time seeding, globally-indexed
repetition windows, lossless merges — lives outside the backend, which
is why every backend is bit-identical to every other and why cache
tokens never depend on the backend choice: a run started on one backend
resumes on any other at the finished-shard boundary.

Backends register under a spec-string name (``"serial"``,
``"process"``, ``"spool"``/``"spool:<dir>"``) resolved by
:func:`make_backend`; ``REPRO_BACKEND`` supplies the process-wide
default (see :func:`resolve_backend_spec`).
"""

from __future__ import annotations

import abc
import time
from typing import TYPE_CHECKING, Any, Callable, Union

from ...exceptions import ValidationError
from ...intervals.base import active_solve_table, use_solve_table
from ...intervals.table import shared_table
from ..cells import kind_for
from ..settings import resolve_backend, resolve_solve_table
from ..spec import CellShard

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...experiments.config import ExperimentSettings

__all__ = [
    "BackendFuture",
    "ExecutionBackend",
    "make_backend",
    "register_backend",
    "resolve_backend_spec",
    "run_task",
]


def run_task(task: CellShard, settings: "ExperimentSettings") -> tuple[Any, float]:
    """Execute one unit of work; returns ``(payload, seconds)``.

    The single entry point every backend dispatches through, so a unit
    produces the same payload no matter which process — scheduler, pool
    worker, or detached spool worker — runs it.  Module-level, so it
    pickles into workers.

    Spawned pool workers and detached spool workers carry no ambient
    run context, so when no solve table is installed the process-wide
    table for the environment-resolved cap (``REPRO_SOLVE_TABLE``) is
    installed for the unit — the worker-side mirror of the executor's
    run-scoped install.  Tables are pure in-memory memoisation, so
    this changes worker wall-clock, never results.
    """
    table = active_solve_table()
    if table is None:
        cap = resolve_solve_table(None)
        if cap > 0:
            table = shared_table(cap)
    with use_solve_table(table):
        start = time.perf_counter()
        value = kind_for(task.cell).run(task.cell, settings, task.rep_range)
        return value, time.perf_counter() - start


class BackendFuture(abc.ABC):
    """Future-like handle for one submitted task."""

    @abc.abstractmethod
    def done(self) -> bool:
        """Whether a result (or error) is available without blocking."""

    @abc.abstractmethod
    def result(self) -> tuple[Any, float]:
        """The task's ``(value, seconds)``; raises its error if it failed."""


class ExecutionBackend(abc.ABC):
    """Where tasks run.  Lifecycle: ``open`` → ``submit``* → drain → ``close``.

    ``open``/``close`` bracket one plan execution: the scheduler opens
    the backend with the run's worker count and task total (sizing
    hints), submits every runnable unit, drains completions with
    :meth:`wait_any`, and closes the backend in a ``finally`` so pools
    shut down and queues are swept even when a task raises.
    """

    #: Spec-string name, recorded on the run's :class:`PlanOutcome`.
    name: str = "?"

    #: The current run's :class:`~repro.runtime.telemetry.RunTelemetry`
    #: bus — *context-scoped*: it arrives as the ``telemetry`` keyword
    #: of :meth:`open` (one run's bus, never process state) and is
    #: cleared by :meth:`close`, so ``None`` between runs.  Backends
    #: with their own observability (chaos injections, spool worker
    #: spans, lease reclaims) emit through it when present — strictly
    #: optional, and strictly non-semantic: a backend must behave
    #: identically with telemetry attached or not.
    telemetry = None

    def open(
        self,
        workers: int,
        tasks: int,
        settings: "ExperimentSettings",
        telemetry=None,
    ) -> None:
        """Prepare for one run of up to *tasks* units (lifecycle hook).

        *telemetry* is the run's event bus (or ``None``); the base hook
        binds it for the duration of the run.  Overrides should call
        ``super().open(workers, tasks, settings, telemetry)`` first.
        """
        self.telemetry = telemetry

    def close(self) -> None:
        """Release run-scoped resources (lifecycle hook).

        The base hook detaches the run's telemetry bus; overrides
        should end with ``super().close()``.
        """
        self.telemetry = None

    @abc.abstractmethod
    def submit(self, task: CellShard, settings: "ExperimentSettings") -> BackendFuture:
        """Enqueue one unit of work; returns its future-like handle."""

    def wait_any(
        self, outstanding: set[BackendFuture]
    ) -> tuple[set[BackendFuture], set[BackendFuture]]:
        """Block until ≥1 of *outstanding* completes; returns (ready, rest).

        The default implementation polls :meth:`BackendFuture.done`
        with a short sleep — enough for file-based backends; in-process
        backends override it with a real wait primitive.
        """
        while True:
            ready = {future for future in outstanding if future.done()}
            if ready:
                return ready, outstanding - ready
            time.sleep(0.005)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


# ----------------------------------------------------------------------
# Registry and spec resolution
# ----------------------------------------------------------------------

_BACKENDS: dict[str, Callable[[str], ExecutionBackend]] = {}


def register_backend(name: str):
    """Register a backend factory under spec-string *name*.

    The factory receives the spec's argument part (the text after the
    first ``:``, empty when absent), so ``"spool:/var/q"`` reaches the
    spool factory as ``"/var/q"``.
    """

    def decorate(factory: Callable[[str], ExecutionBackend]):
        _BACKENDS[name.strip().lower()] = factory
        return factory

    return decorate


def _known() -> str:
    return ", ".join(sorted(_BACKENDS))


def make_backend(spec: str) -> ExecutionBackend:
    """Instantiate the backend described by *spec* (``name[:arg]``)."""
    head, _, arg = str(spec).partition(":")
    factory = _BACKENDS.get(head.strip().lower())
    if factory is None:
        raise ValidationError(
            f"unknown execution backend {spec!r}; expected one of: {_known()}"
        )
    return factory(arg)


def resolve_backend_spec(
    backend: Union[str, ExecutionBackend, None],
) -> Union[str, ExecutionBackend, None]:
    """Explicit backend, or the ``REPRO_BACKEND`` default (auto).

    Returns ``None`` for the automatic policy (serial at ``workers=1``,
    process pool otherwise), a validated spec string, or a ready
    instance passed through untouched.  The environment fallback comes
    from :mod:`repro.runtime.settings`; validation against the registry
    happens here — at context construction — so a typo in
    ``REPRO_BACKEND`` fails fast instead of at the first plan
    execution.
    """
    backend = resolve_backend(backend)
    if backend is None:
        return None
    if isinstance(backend, ExecutionBackend):
        return backend
    spec = str(backend)
    head = spec.partition(":")[0].strip().lower()
    if head not in _BACKENDS:
        raise ValidationError(
            f"unknown execution backend {spec!r}; expected one of: {_known()}"
        )
    return spec
