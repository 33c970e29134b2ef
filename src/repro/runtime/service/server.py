"""The asyncio audit service behind ``python -m repro serve``.

One process, one event loop, many concurrent audit requests.  Each
``submit`` builds a :class:`~repro.runtime.service.requests.
StudyRequest` plan plus an immutable per-request
:class:`~repro.runtime.settings.RunContext` (service-wide defaults,
request overrides, the shared :class:`~repro.runtime.store.
ResultStore`, and a per-request trace journal), then executes it on a
thread of the service's pool — the asyncio loop only shepherds events,
so a dozen differently-configured requests run side by side and
overlapping requests serve each other's cache entries.

Protocol: newline-delimited JSON over a Unix socket or TCP.  Ops in:
``submit``, ``status``, ``ping``, ``shutdown``.  Events out carry an
``event`` field (``accepted``, ``progress``, ``done``, ``failed``,
``status``, ``pong``, ``error``, ``shutting_down``); ``progress``,
``done``, and ``failed`` carry the request ``id`` they belong to, so a
client may pipeline several submits on one connection.  A request that
aborts (:class:`~repro.runtime.faults.PlanExecutionError`) answers
*its* client with a ``failed`` event and touches nothing else — sibling
requests keep their contexts, their futures, and their results.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Union

from ...exceptions import ReproError, ValidationError
from ..executor import ParallelExecutor
from ..faults import PlanExecutionError
from ..settings import (
    RunContext,
    resolve_solve_batch_max,
    resolve_solve_batch_window,
)
from ...intervals.table import peek_tables
from ..solvebatch import SolveBroker
from ..store import ResultStore
from .requests import STUDY_COLUMNS, StudyRequest, render_study_table, study_rows

__all__ = ["AuditService", "CONTEXT_OVERRIDE_KEYS"]

#: Request-context knobs a client may override per submit.  The store
#: is deliberately not overridable — sharing one result store across
#: requests is the point of the service — and trace files are assigned
#: by the service (one journal per request under ``--trace-dir``).
CONTEXT_OVERRIDE_KEYS = frozenset(
    {"workers", "backend", "chunk_size", "chunk_seconds",
     "max_retries", "on_error", "solve_table"}
)

#: Queue sentinel: the request's executor thread is done.
_FINISHED = object()


class _RequestRecord:
    """Mutable bookkeeping for one submitted request (status op)."""

    def __init__(self, request_id: str, request: StudyRequest, context: dict):
        self.id = request_id
        self.request = request
        self.context = context
        self.status = "queued"
        self.submitted = time.time()
        self.finished: float | None = None
        self.cells: int | None = None
        self.cache_hits: int | None = None
        self.error: str | None = None

    def describe(self) -> dict:
        return {
            "id": self.id,
            "status": self.status,
            "submitted": round(self.submitted, 3),
            "seconds": (
                None
                if self.finished is None
                else round(self.finished - self.submitted, 3)
            ),
            "request": self.request.to_payload(),
            "context": self.context,
            "cells": self.cells,
            "cache_hits": self.cache_hits,
            "error": self.error,
        }


class AuditService:
    """Accepts concurrent audit requests and multiplexes them onto one
    shared store and thread pool.

    Parameters
    ----------
    store:
        The shared :class:`~repro.runtime.store.ResultStore` (or a
        directory path); ``None`` falls back to the defaults context's
        store (``--cache-dir`` / ``REPRO_CACHE_DIR``), and a service
        with neither simply runs uncached.
    defaults:
        Service-wide default :class:`~repro.runtime.settings.
        RunContext`; request context overrides are applied on top with
        :meth:`RunContext.replace`.  ``None`` resolves a fresh context
        from the environment at service start.
    trace_dir:
        Directory for per-request JSONL trace journals (one
        ``<request-id>.jsonl`` each, via the existing ``--trace``
        machinery); ``None`` journals only if the defaults context
        carries a trace file.
    max_concurrent:
        Requests executing simultaneously (thread-pool size; further
        requests queue).  Default 8.
    solve_batch_window:
        Coalescing window (seconds) of the service's shared
        :class:`~repro.runtime.solvebatch.SolveBroker`: concurrent
        requests' interval solves arriving within one window flush as a
        single vectorised ``compute_batch`` call.  ``None`` reads
        ``REPRO_SOLVE_BATCH_WINDOW`` (default 5 ms); ``0`` disables
        cross-request batching.  Batching is pure scheduling — pooled
        results are bit-identical to standalone runs.
    solve_batch_max:
        Coalesced-caller cap per flush; ``None`` reads
        ``REPRO_SOLVE_BATCH_MAX`` (default 64).
    quiet:
        Suppress the per-request service log lines on stderr.
    """

    def __init__(
        self,
        *,
        store: Union[ResultStore, str, Path, None] = None,
        defaults: RunContext | None = None,
        trace_dir: Union[str, Path, None] = None,
        max_concurrent: int = 8,
        solve_batch_window: float | None = None,
        solve_batch_max: int | None = None,
        quiet: bool = False,
    ):
        self.defaults = defaults if defaults is not None else RunContext()
        if store is None:
            self.store = self.defaults.store
        elif isinstance(store, ResultStore):
            self.store = store
        else:
            self.store = ResultStore(store)
        self.trace_dir = None if trace_dir is None else Path(trace_dir)
        window = resolve_solve_batch_window(solve_batch_window)
        self.solve_broker = (
            SolveBroker(
                window=window,
                max_batch=resolve_solve_batch_max(solve_batch_max),
            )
            if window > 0.0
            else None
        )
        self.quiet = quiet
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, int(max_concurrent)),
            thread_name_prefix="repro-serve",
        )
        self._records: dict[str, _RequestRecord] = {}
        self._records_lock = threading.Lock()
        self._request_ids = itertools.count(1)
        self._started = time.time()
        self._stop: asyncio.Event | None = None
        self._tasks: set[asyncio.Task] = set()
        self.address: tuple | None = None

    # -- service lifecycle ----------------------------------------------

    async def serve(
        self,
        *,
        socket_path: Union[str, Path, None] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        ready: "asyncio.Future | None" = None,
    ) -> None:
        """Listen until a ``shutdown`` op arrives.

        Binds a Unix socket when *socket_path* is given, TCP otherwise
        (``port=0`` picks a free port).  The bound address is published
        on :attr:`address` (and through *ready*, when given) before the
        first connection is accepted.
        """
        self._stop = asyncio.Event()
        if socket_path is not None:
            server = await asyncio.start_unix_server(
                self._on_connect, path=str(socket_path)
            )
            self.address = ("unix", str(socket_path))
        else:
            server = await asyncio.start_server(self._on_connect, host, port)
            bound = server.sockets[0].getsockname()
            self.address = ("tcp", (bound[0], bound[1]))
        self._log(f"serving on {self.address[1]}")
        if ready is not None and not ready.done():
            ready.set_result(self.address)
        async with server:
            await self._stop.wait()
            # Let in-flight requests finish answering their clients
            # before the listener (and their connections) go away.
            if self._tasks:
                await asyncio.gather(*self._tasks, return_exceptions=True)
        # Connection handlers (including the one that delivered the
        # shutdown op) unwind once their peers hang up; collect them so
        # nothing is left pending when the loop closes.
        pending = {
            task
            for task in asyncio.all_tasks()
            if task is not asyncio.current_task()
        }
        if pending:
            done, still_open = await asyncio.wait(pending, timeout=2)
            for task in still_open:
                task.cancel()
            if still_open:
                await asyncio.wait(still_open, timeout=1)
        # Drain ordering: requests have been gathered above, so no new
        # solves are pending — release any straggler the broker still
        # holds *before* the pool (whose threads would wait on it) is
        # joined.
        if self.solve_broker is not None:
            self.solve_broker.close()
        self._pool.shutdown(wait=True)
        self._log("stopped")

    def run(self, **serve_kwargs: Any) -> None:
        """Blocking wrapper: ``asyncio.run`` around :meth:`serve`."""
        asyncio.run(self.serve(**serve_kwargs))

    def _log(self, message: str) -> None:
        if not self.quiet:
            print(f"[serve] {message}", file=sys.stderr, flush=True)

    # -- connection handling --------------------------------------------

    async def _on_connect(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        send_lock = asyncio.Lock()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                await self._dispatch(line, writer, send_lock)
                if self._stop is not None and self._stop.is_set():
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _dispatch(
        self, line: bytes, writer: asyncio.StreamWriter, send_lock: asyncio.Lock
    ) -> None:
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            await self._send(
                writer, send_lock, {"event": "error", "error": f"bad JSON: {exc}"}
            )
            return
        if not isinstance(payload, dict):
            await self._send(
                writer,
                send_lock,
                {"event": "error", "error": "each line must be a JSON object"},
            )
            return
        op = payload.get("op")
        if op == "submit":
            await self._handle_submit(payload, writer, send_lock)
        elif op == "status":
            await self._send(
                writer,
                send_lock,
                {
                    "event": "status",
                    "requests": [
                        record.describe() for record in self._snapshot()
                    ],
                },
            )
        elif op == "ping":
            await self._send(writer, send_lock, self._pong())
        elif op == "shutdown":
            await self._send(writer, send_lock, {"event": "shutting_down"})
            if self._stop is not None:
                self._stop.set()
        else:
            await self._send(
                writer,
                send_lock,
                {
                    "event": "error",
                    "error": f"unknown op {op!r}; expected one of: "
                    "submit, status, ping, shutdown",
                },
            )

    def _snapshot(self) -> list[_RequestRecord]:
        with self._records_lock:
            return list(self._records.values())

    def _pong(self) -> dict:
        records = self._snapshot()
        return {
            "event": "pong",
            "pid": os.getpid(),
            "uptime": round(time.time() - self._started, 3),
            "store": None if self.store is None else str(self.store.root),
            "requests": len(records),
            "active": sum(1 for r in records if r.status == "running"),
            "solve_batching": (
                None
                if self.solve_broker is None
                else self.solve_broker.describe()
            ),
            "solve_table": peek_tables(),
        }

    @staticmethod
    async def _send(
        writer: asyncio.StreamWriter, send_lock: asyncio.Lock, event: dict
    ) -> None:
        async with send_lock:
            writer.write(json.dumps(event).encode("utf-8") + b"\n")
            await writer.drain()

    async def _try_send(
        self, writer: asyncio.StreamWriter, send_lock: asyncio.Lock, event: dict
    ) -> bool:
        """:meth:`_send`, absorbing a hung-up client.

        A request whose client disconnected mid-run must keep draining
        its executor future and finalising its record (the result still
        lands in the shared store); returns ``False`` once the peer is
        gone so callers stop producing events for it.
        """
        try:
            await self._send(writer, send_lock, event)
        except (ConnectionResetError, BrokenPipeError, OSError):
            return False
        return True

    # -- request execution ----------------------------------------------

    def context_for(
        self, overrides: dict | None, trace: Union[str, Path, None]
    ) -> RunContext:
        """The :class:`RunContext` one request executes under.

        Service defaults, the shared store, the request's trace file,
        and the client's whitelisted *overrides* — resolved and
        validated into a fresh immutable context, so nothing about this
        request's configuration can leak into any other.
        """
        overrides = dict(overrides or {})
        unknown = sorted(set(overrides) - CONTEXT_OVERRIDE_KEYS)
        if unknown:
            raise ValidationError(
                f"unknown context field(s) {', '.join(unknown)}; "
                f"expected a subset of: "
                f"{', '.join(sorted(CONTEXT_OVERRIDE_KEYS))}"
            )
        return self.defaults.replace(
            store=self.store,
            progress=None,
            trace=trace,
            solve_pool=self.solve_broker,
            **overrides,
        )

    async def _handle_submit(
        self, payload: dict, writer: asyncio.StreamWriter, send_lock: asyncio.Lock
    ) -> None:
        try:
            request = StudyRequest.from_payload(payload.get("request"))
            request_id = f"req-{next(self._request_ids)}"
            trace = None
            if self.trace_dir is not None:
                self.trace_dir.mkdir(parents=True, exist_ok=True)
                trace = self.trace_dir / f"{request_id}.jsonl"
            elif self.defaults.trace is not None:
                # Every request journals from its own executor thread;
                # pointing them all at the defaults trace file would
                # interleave (and corrupt) their journals.  Derive a
                # per-request sibling instead — same directory, request
                # id suffixed — preserving the one-journal-per-request
                # guarantee without --trace-dir.
                base = self.defaults.trace
                trace = base.with_name(
                    f"{base.stem}-{request_id}{base.suffix}"
                )
            context = self.context_for(payload.get("context"), trace)
        except (ReproError, ValidationError) as exc:
            await self._send(
                writer, send_lock, {"event": "error", "error": str(exc)}
            )
            return
        record = _RequestRecord(request_id, request, context.describe())
        with self._records_lock:
            self._records[request_id] = record
        task = asyncio.ensure_future(
            self._run_request(record, request, context, writer, send_lock)
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _run_request(
        self,
        record: _RequestRecord,
        request: StudyRequest,
        context: RunContext,
        writer: asyncio.StreamWriter,
        send_lock: asyncio.Lock,
    ) -> None:
        loop = asyncio.get_running_loop()
        events: asyncio.Queue = asyncio.Queue()
        request_id = record.id

        def on_progress(done: int, total: int, result: Any) -> None:
            # Called on the request's executor thread; hop to the loop.
            event = {
                "event": "progress",
                "id": request_id,
                "done": done,
                "total": total,
            }
            if result is not None:
                event["label"] = getattr(result.cell, "label", None)
                event["cached"] = bool(result.cached)
            loop.call_soon_threadsafe(events.put_nowait, event)

        context = context.replace(progress=on_progress)
        try:
            plan = request.build_plan()
        except (ReproError, ValidationError) as exc:
            record.status, record.error = "failed", str(exc)
            record.finished = time.time()
            await self._send(
                writer,
                send_lock,
                {"event": "failed", "id": request_id, "error": str(exc)},
            )
            return
        await self._send(
            writer,
            send_lock,
            {
                "event": "accepted",
                "id": request_id,
                "cells": len(plan.cells),
                "context": record.context,
            },
        )
        self._log(f"{request_id}: {len(plan.cells)} cell(s) accepted")

        def execute():
            try:
                return ParallelExecutor.from_context(context).run(plan)
            finally:
                loop.call_soon_threadsafe(events.put_nowait, _FINISHED)

        record.status = "running"
        future = loop.run_in_executor(self._pool, execute)
        # From here on the client may hang up at any moment; that must
        # never abandon the executor future (the plan keeps running and
        # its results land in the shared store) nor strand the record at
        # "running".  Sends go through _try_send, the future is always
        # awaited, and the record is finalised in the finally.
        connected = True
        try:
            while True:
                event = await events.get()
                if event is _FINISHED:
                    break
                if connected:
                    connected = await self._try_send(writer, send_lock, event)
            try:
                outcome = await future
            except PlanExecutionError as exc:
                record.status, record.error = "failed", str(exc)
                self._log(f"{request_id}: failed ({exc})")
                if connected:
                    await self._try_send(
                        writer,
                        send_lock,
                        {
                            "event": "failed",
                            "id": request_id,
                            "error": str(exc),
                            "failures": [
                                failure.summary() for failure in exc.failures
                            ],
                        },
                    )
                return
            except Exception as exc:  # configuration/runtime errors stay local
                record.status, record.error = (
                    "failed",
                    f"{type(exc).__name__}: {exc}",
                )
                self._log(f"{request_id}: failed ({record.error})")
                if connected:
                    await self._try_send(
                        writer,
                        send_lock,
                        {
                            "event": "failed",
                            "id": request_id,
                            "error": record.error,
                        },
                    )
                return
            record.status = "done"
            record.cells = len(outcome.cells)
            record.cache_hits = outcome.cache_hits
            self._log(
                f"{request_id}: done — {len(outcome.cells)} cell(s), "
                f"{outcome.cache_hits} cache hit(s), backend {outcome.backend}"
            )
            if connected:
                connected = await self._try_send(
                    writer,
                    send_lock,
                    {
                        "event": "done",
                        "id": request_id,
                        "table": render_study_table(plan, outcome),
                        "columns": list(STUDY_COLUMNS),
                        "rows": study_rows(plan, outcome),
                        "cells": len(outcome.cells),
                        "cache_hits": outcome.cache_hits,
                        "shard_cache_hits": outcome.metrics.shard_cache_hits,
                        "backend": outcome.backend,
                        "retries": outcome.retries,
                        "seconds": round(outcome.seconds, 6),
                        "failures": [f.summary() for f in outcome.failures],
                        "trace": (
                            None
                            if context.trace is None
                            else str(context.trace)
                        ),
                        "exit_code": 1 if outcome.failures else 0,
                    },
                )
            if not connected:
                self._log(
                    f"{request_id}: client disconnected; "
                    "result kept (store/cache) but not delivered"
                )
        finally:
            record.finished = time.time()
            if record.status == "running":
                # The handler unwound without a verdict (e.g. cancelled
                # during shutdown): never leave the record claiming it
                # still runs.
                record.status = "failed"
                record.error = record.error or "request interrupted"
