"""In-process serial backend: the ``workers=1`` path.

Execution is *lazy*: :meth:`SerialBackend.submit` only enqueues, and
each :meth:`wait_any` call runs exactly one task — the next in submit
(= plan) order — before handing it back.  That keeps the scheduler's
persistence incremental, exactly like the pre-backend serial loop: every
completed unit — a split cell's window, an unsplit cell's merged
result — hits the :class:`~repro.runtime.store.ResultStore` before the
next one starts, so an interrupted run loses at most the unit in flight.

A task that raises completes its future with the error, surfaced by
:meth:`_SerialFuture.result` exactly like the pool backend surfaces
its own — which is what lets the executor's retry/quarantine policy
treat all backends uniformly.  ``KeyboardInterrupt`` (and other
``BaseException``) still propagates immediately: there is no pool to
unwind and nothing to retry.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any

from ...exceptions import ValidationError
from ..spec import CellShard
from .base import BackendFuture, ExecutionBackend, register_backend, run_task

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...experiments.config import ExperimentSettings

__all__ = ["SerialBackend"]


class _SerialFuture(BackendFuture):
    """A lazily-executed task; ``_run`` is driven by ``wait_any``."""

    def __init__(self, task: CellShard, settings: "ExperimentSettings"):
        self._task = task
        self._settings = settings
        self._value: tuple[Any, float, dict | None] | None = None
        self._error: Exception | None = None

    def _run(self) -> None:
        try:
            self._value = run_task(self._task, self._settings)
        except Exception as exc:
            self._error = exc

    def done(self) -> bool:
        return self._value is not None or self._error is not None

    def result(self) -> tuple[Any, float, dict | None]:
        if self._error is not None:
            raise self._error
        return self._value


@register_backend("serial")
def _make_serial(arg: str) -> "SerialBackend":
    if arg.strip():
        raise ValidationError(f"the serial backend takes no argument, got {arg!r}")
    return SerialBackend()


class SerialBackend(ExecutionBackend):
    """Runs every task in the scheduler's process, one at a time."""

    name = "serial"

    def __init__(self) -> None:
        self._queue: deque[_SerialFuture] = deque()

    def open(self, workers, tasks, settings) -> None:
        self._queue.clear()

    def close(self) -> None:
        self._queue.clear()

    def submit(self, task: CellShard, settings: "ExperimentSettings") -> BackendFuture:
        future = _SerialFuture(task, settings)
        self._queue.append(future)
        return future

    def wait_any(self, outstanding):
        future = self._queue.popleft()
        future._run()
        return {future}, outstanding - {future}
