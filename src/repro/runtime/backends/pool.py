"""Local process-pool backend: the extracted pre-refactor fan-out path.

Wraps a ``ProcessPoolExecutor`` sized to ``min(workers, tasks)`` with a
fork start method where available (cheap start-up, and runners
registered at runtime — custom cell types — are inherited by workers).
Futures are thin wrappers over :mod:`concurrent.futures` ones, so
``wait_any`` is a real OS-level wait, not a poll.

Worker-side failures surface through :meth:`_PoolFuture.result` with
the remote traceback chained on ``__cause__`` (stdlib behaviour), which
:func:`repro.runtime.faults.failure_from` folds into the
:class:`~repro.runtime.faults.TaskFailure` record when the executor's
retry policy gives up on a unit.  A worker that dies breaks the whole
pool, failing every unit in flight with ``BrokenProcessPool``; the
next submit — the first retry — replaces the pool with a fresh one of
the same size.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import Future as _Future
from concurrent.futures import wait as _wait
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Any

from ...exceptions import ValidationError
from ..spec import CellShard
from .base import BackendFuture, ExecutionBackend, register_backend, run_task

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...experiments.config import ExperimentSettings

__all__ = ["ProcessPoolBackend"]


def _pool_context():
    """Fork where available: cheap start-up, and runners registered at
    runtime (e.g. custom cell types) are inherited by workers."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else methods[0])


class _PoolFuture(BackendFuture):
    def __init__(self, future: _Future):
        self._future = future

    def done(self) -> bool:
        return self._future.done()

    def result(self) -> tuple[Any, float, dict | None]:
        return self._future.result()


@register_backend("process")
def _make_pool(arg: str) -> "ProcessPoolBackend":
    if not arg.strip():
        return ProcessPoolBackend()
    try:
        workers = int(arg)
    except ValueError:
        raise ValidationError(
            f"process backend pool size must be an integer, got {arg!r}"
        ) from None
    return ProcessPoolBackend(workers)


class ProcessPoolBackend(ExecutionBackend):
    """Fans tasks out over local worker processes.

    Parameters
    ----------
    workers:
        Pool size; ``None`` uses the worker count the executor passes
        to :meth:`open` (``--workers`` / ``REPRO_WORKERS``).  The spec
        string form ``"process:<n>"`` pins it explicitly.
    """

    name = "process"

    def __init__(self, workers: int | None = None):
        if workers is not None and workers < 1:
            raise ValidationError(
                f"process backend pool size must be >= 1, got {workers}"
            )
        self.workers = workers
        self._pool: ProcessPoolExecutor | None = None

    def open(self, workers: int, tasks: int, settings) -> None:
        count = self.workers if self.workers is not None else workers
        self._size = max(1, min(count, tasks))
        self._start_pool()

    def _start_pool(self) -> None:
        self._pool = ProcessPoolExecutor(
            max_workers=self._size, mp_context=_pool_context()
        )

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def submit(self, task: CellShard, settings: "ExperimentSettings") -> BackendFuture:
        try:
            future = self._pool.submit(run_task, task, settings)
        except BrokenProcessPool:
            # A worker died (OOM-killed, signalled): the pool failed
            # every unit it held and takes no more.  The retry of one
            # of them runs on a fresh pool of the same size.
            self._pool.shutdown()
            self._start_pool()
            future = self._pool.submit(run_task, task, settings)
        return _PoolFuture(future)

    def wait_any(self, outstanding):
        raw = {future._future: future for future in outstanding}
        ready, _ = _wait(raw.keys(), return_when=FIRST_COMPLETED)
        done = {raw[entry] for entry in ready}
        return done, outstanding - done

    def __repr__(self) -> str:
        return f"ProcessPoolBackend(workers={self.workers})"
