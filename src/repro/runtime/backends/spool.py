"""Spool-directory backend: a file-based work queue for detached workers.

The scheduler serialises each task into ``<spool>/tasks/<id>.task``;
any number of workers — started with ``python -m repro worker <spool>``
in other terminals, containers, or (on a shared filesystem) other hosts
— *lease* task files by atomically renaming them into
``<spool>/claimed/``, execute them through the same
:func:`~repro.runtime.backends.base.run_task` every backend uses, and
write ``<spool>/results/<id>.result`` (temp file + ``os.replace``, so
readers never see a partial payload).  The scheduler collects results,
consolidates them through the ordinary
:class:`~repro.runtime.store.ResultStore` path, and sweeps its own spool
files on close.

Leasing via ``os.rename`` is atomic on POSIX filesystems: exactly one
claimant wins a task, with no lock files or coordination service —
which is what makes the queue multi-process today and multi-host
tomorrow.  Five robustness rules keep it live:

* **participation** — by default the scheduler is itself a worker:
  whenever no result is ready it leases and executes a task in-process,
  so a run completes (serially) even with zero external workers;
* **poison handling** — a task a claimant cannot deserialise (a cell
  class importable only in the submitting process, or a corrupt file)
  is returned to the queue and remembered in a local skip-set, leaving
  it for a claimant that *can* run it instead of failing the run;
* **lease reclaim** — a task claimed by a worker that died is renamed
  back into the queue once its lease goes stale
  (``reclaim_seconds``), so a crashed worker delays a run instead of
  hanging it;
* **lease heartbeat** — a live claimant re-stamps its claim file
  (periodic ``os.utime`` from a daemon thread) while executing, so a
  genuinely long-running task is never mistaken for an orphaned lease
  and stolen by the reclaim sweep;
* **dead-letter spool** — every requeue stamps a delivery count into
  the task payload; a task that keeps killing its claimants (a poison
  task) is moved past the redelivery cap into ``<spool>/dead/`` with a
  sidecar diagnostics file instead of being redelivered forever, and
  the submitting run receives an error result so its retry/quarantine
  policy takes over.  Requeue a dead task by renaming its ``.task``
  file back into ``tasks/``.

Execution errors are real results: the worker pickles the exception
(or a :class:`SpoolTaskError` carrying the traceback when the exception
itself will not pickle) into the result file, and the scheduler
re-raises it with the worker-side traceback attached — the same
surfacing the process-pool backend gives.

Tasks that will not pickle at all fall back to inline execution in the
scheduler; they could never reach another process under *any* backend,
so the spool degrades to the serial path for exactly those units.
"""

from __future__ import annotations

import json
import os
import pickle
import socket
import threading
import time
import traceback
import uuid
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Union

from ..settings import resolve_spool_dir
from ..spec import CellShard
from .base import BackendFuture, ExecutionBackend, register_backend, run_task

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...experiments.config import ExperimentSettings

__all__ = ["SpoolBackend", "SpoolTaskError", "run_worker"]

_TASK_DIR = "tasks"
_CLAIM_DIR = "claimed"
_RESULT_DIR = "results"
_DEAD_DIR = "dead"
_TASK_SUFFIX = ".task"
_RESULT_SUFFIX = ".result"

#: Default redelivery cap: a task requeued (reclaim or poison path)
#: this many times without ever producing a result is moved to
#: ``dead/`` instead of redelivered again.
_DEFAULT_REDELIVER_CAP = 5

#: Default seconds between lease-heartbeat ``os.utime`` stamps while a
#: claimant executes; comfortably inside the default 300s reclaim age.
_DEFAULT_HEARTBEAT = 20.0


class SpoolTaskError(RuntimeError):
    """A spooled task failed with an exception that would not pickle;
    carries the worker-side traceback text instead."""


def _resolve_root(root: Union[str, Path, None]) -> Path:
    return resolve_spool_dir(root)


def _ensure_layout(root: Path) -> None:
    for sub in (_TASK_DIR, _CLAIM_DIR, _RESULT_DIR, _DEAD_DIR):
        (root / sub).mkdir(parents=True, exist_ok=True)


def _atomic_write(path: Path, blob: bytes) -> None:
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    tmp.write_bytes(blob)
    os.replace(tmp, path)


def _claim(root: Path, task_path: Path) -> Path | None:
    """Lease *task_path* by renaming it into ``claimed/``; ``None`` if lost.

    ``os.rename`` is atomic, so of any number of racing claimants
    exactly one sees the rename succeed — the others get
    ``FileNotFoundError`` and move on.  The lease clock starts *now*:
    rename preserves the file's submit-time mtime, so the claim is
    re-stamped or stale-lease reclaim would measure queue wait instead
    of execution time and steal live leases from busy workers.
    """
    target = root / _CLAIM_DIR / task_path.name
    try:
        os.rename(task_path, target)
    except FileNotFoundError:
        return None
    try:
        os.utime(target)
    except OSError:  # pragma: no cover - claim raced a reclaim/sweep
        pass
    return target


def _unclaim(root: Path, claimed: Path) -> None:
    """Return a leased task to the queue unchanged (interrupt path, or
    a payload this claimant cannot read to stamp)."""
    try:
        os.rename(claimed, root / _TASK_DIR / claimed.name)
    except FileNotFoundError:  # pragma: no cover - racing cleanup
        pass


def _bury(
    root: Path,
    claimed: Path,
    payload: dict,
    reason: str,
    log: Callable[[str], None] | None = None,
) -> None:
    """Move a leased task into ``dead/`` with a diagnostics sidecar.

    The submitting run still gets an answer: a :class:`SpoolTaskError`
    result is written so its future completes with an error and the
    executor's retry/quarantine policy decides what happens next,
    instead of the run hanging on a task nobody will ever redeliver.
    """
    task_id = claimed.name[: -len(_TASK_SUFFIX)]
    dead = root / _DEAD_DIR
    dead.mkdir(parents=True, exist_ok=True)
    try:
        os.rename(claimed, dead / claimed.name)
    except FileNotFoundError:  # pragma: no cover - racing cleanup
        return
    label = str(getattr(payload.get("task"), "label", task_id))
    diagnostics = {
        "id": task_id,
        "label": label,
        "deliveries": payload.get("deliveries"),
        "reason": reason,
        "buried_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "requeue": (
            f"rename {_DEAD_DIR}/{claimed.name} back into {_TASK_DIR}/ "
            "to redeliver"
        ),
    }
    _atomic_write(
        dead / f"{task_id}.json",
        json.dumps(diagnostics, indent=2, sort_keys=True).encode(),
    )
    message = (
        f"task {task_id} ({label}) moved to {_DEAD_DIR}/ after "
        f"{payload.get('deliveries')} deliveries: {reason}"
    )
    # ``buried`` marks the error result as a dead-letter answer: the
    # collecting run's future emits a ``dead_letter`` telemetry event
    # from it, so the journal records the burial even when it happened
    # in a detached worker on another host.
    _write_result(
        root,
        task_id,
        {
            "id": task_id,
            "error": SpoolTaskError(message),
            "traceback": None,
            "buried": True,
            "label": label,
            "deliveries": payload.get("deliveries"),
            "reason": reason,
        },
    )
    if log is not None:
        log(message)


def _requeue(
    root: Path,
    claimed: Path,
    redeliver_cap: int | None,
    reason: str,
    log: Callable[[str], None] | None = None,
) -> None:
    """Return a leased task to the queue, stamping its delivery count.

    Every requeue (stale-lease reclaim or poison skip) increments the
    ``deliveries`` counter *inside* the task payload, so the count
    survives any claimant — it travels with the file.  A task past
    *redeliver_cap* deliveries is buried in ``dead/`` instead of
    redelivered.  A payload this claimant cannot deserialise is renamed
    back unchanged: the next claimant that can read it keeps counting.
    """
    try:
        payload = pickle.loads(claimed.read_bytes())
        if not isinstance(payload, dict):
            raise ValueError("not a spool task payload")
    except (KeyboardInterrupt, SystemExit):  # pragma: no cover
        raise
    except Exception:
        _unclaim(root, claimed)
        return
    payload["deliveries"] = int(payload.get("deliveries", 0)) + 1
    if redeliver_cap is not None and payload["deliveries"] > redeliver_cap:
        _bury(
            root,
            claimed,
            payload,
            f"{reason}; redelivery cap ({redeliver_cap}) exhausted",
            log=log,
        )
        return
    _atomic_write(
        root / _TASK_DIR / claimed.name,
        pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
    )
    claimed.unlink(missing_ok=True)


def _write_result(root: Path, task_id: str, payload: dict) -> None:
    try:
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        # The computed value itself would not pickle; surface that as
        # the task's error rather than wedging the queue.
        blob = pickle.dumps(
            {
                "id": task_id,
                "error": SpoolTaskError(
                    f"task {task_id} produced an unpicklable result"
                ),
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    _atomic_write(root / _RESULT_DIR / f"{task_id}{_RESULT_SUFFIX}", blob)


def _execute_payload(task_id: str, payload: dict) -> dict:
    try:
        value, seconds = run_task(payload["task"], payload["settings"])
    except Exception as exc:
        text = traceback.format_exc()
        try:
            pickle.dumps(exc)
            error: Exception = exc
        except Exception:
            error = SpoolTaskError(f"task {task_id} failed:\n{text}")
        return {"id": task_id, "error": error, "traceback": text}
    return {"id": task_id, "value": value, "seconds": seconds, "error": None}


def _heartbeat(
    claimed: Path, interval: float
) -> tuple[threading.Event, threading.Thread, dict]:
    """Start a daemon thread re-stamping *claimed* every *interval* s.

    Keeps the lease visibly alive while its task executes, so a
    long-running task is never mistaken for an orphaned lease by the
    stale-lease reclaim sweep.  Stops at the returned event, or silently
    when the claim file disappears (the lease was taken away anyway).
    The returned counter dict tallies successful stamps — recorded in
    the task's worker-side span as evidence the lease stayed live.
    """
    stop = threading.Event()
    counter = {"beats": 0}

    def _beat() -> None:
        while not stop.wait(interval):
            try:
                os.utime(claimed)
            except OSError:
                return
            counter["beats"] += 1

    thread = threading.Thread(
        target=_beat, name=f"spool-heartbeat-{claimed.stem}", daemon=True
    )
    thread.start()
    return stop, thread, counter


def _drain_one(
    root: Path,
    poisoned: set[str],
    log: Callable[[str], None] | None = None,
    heartbeat_seconds: float | None = _DEFAULT_HEARTBEAT,
    redeliver_cap: int | None = _DEFAULT_REDELIVER_CAP,
) -> str | None:
    """Lease, execute, and answer one spooled task; its id, or ``None``.

    Shared by detached workers and the participating scheduler, so both
    kinds of claimant behave identically.  Tasks in *poisoned* — ids
    this claimant already failed to deserialise — are skipped; a newly
    undeserialisable task is returned to the queue and poisoned locally,
    leaving it for a claimant that has its cell types importable.  While
    a task executes its claim file is heartbeat-stamped every
    *heartbeat_seconds* so the lease never looks stale.
    """
    task_root = root / _TASK_DIR
    try:
        entries = sorted(task_root.glob(f"*{_TASK_SUFFIX}"))
    except OSError:  # pragma: no cover - spool removed underfoot
        return None
    for task_path in entries:
        task_id = task_path.name[: -len(_TASK_SUFFIX)]
        if task_id in poisoned:
            continue
        claimed = _claim(root, task_path)
        if claimed is None:
            continue  # another claimant won the rename
        try:
            with claimed.open("rb") as handle:
                payload = pickle.load(handle)
            if not isinstance(payload, dict) or "task" not in payload:
                raise ValueError("not a spool task payload")
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            _unclaim(root, claimed)
            raise
        except Exception:
            # Undeserialisable OR deserialised into something that is
            # not a task payload: either way this claimant cannot run
            # it — requeue (stamping the delivery count where the
            # payload allows) and poison locally, never crash the loop.
            poisoned.add(task_id)
            _requeue(root, claimed, redeliver_cap, "cannot deserialise", log=log)
            if log is not None:
                log(f"skipping task {task_id}: cannot deserialise here")
            continue
        claimed_at = time.time()
        beat = None
        if heartbeat_seconds is not None and heartbeat_seconds > 0:
            beat = _heartbeat(claimed, heartbeat_seconds)
        started = time.perf_counter()
        try:
            result = _execute_payload(task_id, payload)
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            _unclaim(root, claimed)
            raise
        finally:
            if beat is not None:
                beat[0].set()
        label = str(getattr(payload.get("task"), "label", task_id))
        submitted_at = payload.get("submitted_at")
        # The worker-side span travels home inside the result payload,
        # so the scheduler's journal covers execution on other
        # processes and (on a shared filesystem) other hosts.  Claim
        # latency uses wall clocks from both sides — subject to clock
        # skew across hosts, exact on one.
        result["span"] = {
            "label": label,
            "host": socket.gethostname(),
            "pid": os.getpid(),
            "claim_latency": (
                round(max(0.0, claimed_at - submitted_at), 6)
                if isinstance(submitted_at, (int, float))
                else None
            ),
            "execute_seconds": round(time.perf_counter() - started, 6),
            "heartbeats": beat[2]["beats"] if beat is not None else 0,
            "deliveries": int(payload.get("deliveries", 0)),
        }
        if not claimed.exists():
            # The lease was taken away mid-execution — a stale-lease
            # reclaim (this claimant looked dead) or the owning run's
            # close-time sweep.  Whoever holds the task now owns the
            # answer; writing ours would clobber theirs or strand an
            # orphan result file in a shared spool directory.
            if log is not None:
                log(f"dropping {task_id}: lease was reclaimed during execution")
            continue
        _write_result(root, task_id, result)
        claimed.unlink(missing_ok=True)
        if log is not None:
            deliveries = result["span"]["deliveries"]
            if result.get("error") is None:
                log(
                    f"executed {task_id} ({label}) in "
                    f"{result['seconds']:.2f}s (deliveries {deliveries})"
                )
            else:
                log(
                    f"task {task_id} ({label}) failed after "
                    f"{deliveries} deliveries: {result['error']!r}"
                )
        return task_id
    return None


class _SpoolFuture(BackendFuture):
    """Completion handle backed by ``results/<id>.result``."""

    def __init__(self, backend: "SpoolBackend", task_id: str):
        self._backend = backend
        self.task_id = task_id
        self._payload: dict | None = None

    def _complete(self, payload: dict) -> None:
        self._payload = payload

    def done(self) -> bool:
        if self._payload is not None:
            return True
        path = (
            self._backend.root / _RESULT_DIR / f"{self.task_id}{_RESULT_SUFFIX}"
        )
        try:
            with path.open("rb") as handle:
                self._payload = pickle.load(handle)
        except FileNotFoundError:
            return False
        path.unlink(missing_ok=True)
        self._backend._note_payload(self.task_id, self._payload)
        return True

    def result(self) -> tuple[Any, float]:
        if self._payload is None:
            raise RuntimeError(
                "result() before done(): the spool future has not "
                "collected a result file yet"
            )
        error = self._payload.get("error")
        if error is not None:
            text = self._payload.get("traceback")
            if text:
                # Carry the worker-side traceback with the exception so
                # failure records (repro.runtime.faults) can show where
                # the task actually died, not where it was re-raised.
                error.__repro_traceback__ = text
            raise error
        return self._payload["value"], self._payload["seconds"]


@register_backend("spool")
def _make_spool(arg: str) -> "SpoolBackend":
    return SpoolBackend(arg or None)


class SpoolBackend(ExecutionBackend):
    """Dispatches tasks through a spool directory of leased files.

    Parameters
    ----------
    root:
        Spool directory; ``None`` reads ``REPRO_SPOOL_DIR`` at open
        time.  Created (with its ``tasks/``, ``claimed/``,
        ``results/`` subdirectories) on first use.
    poll_interval:
        Seconds between result scans while waiting.
    participate:
        Whether the scheduler leases and executes tasks itself whenever
        none of its results are ready (default ``True``).  Guarantees a
        run completes with zero workers attached; disable only to force
        every task through external workers (tests do).
    reclaim_seconds:
        Age after which a *claimed* task belonging to this run is
        presumed orphaned by a dead worker and returned to the queue;
        ``None`` disables reclaiming.  Live claimants heartbeat their
        claim files, so only genuinely dead workers go stale.
    redeliver_cap:
        Deliveries a task may consume before it is buried in ``dead/``
        instead of requeued again (``None`` disables the cap).
    heartbeat_seconds:
        Interval at which a participating scheduler re-stamps the claim
        of the task it is executing; ``None`` disables the heartbeat.
    """

    name = "spool"

    def __init__(
        self,
        root: Union[str, Path, None] = None,
        poll_interval: float = 0.02,
        participate: bool = True,
        reclaim_seconds: float | None = 300.0,
        redeliver_cap: int | None = _DEFAULT_REDELIVER_CAP,
        heartbeat_seconds: float | None = _DEFAULT_HEARTBEAT,
    ):
        self._root_spec = root
        self.poll_interval = float(poll_interval)
        self.participate = bool(participate)
        self.reclaim_seconds = reclaim_seconds
        self.redeliver_cap = redeliver_cap
        self.heartbeat_seconds = heartbeat_seconds
        self.root: Path | None = None
        self._poisoned: set[str] = set()
        self._submitted: list[str] = []

    def open(self, workers: int, tasks: int, settings, telemetry=None) -> None:
        super().open(workers, tasks, settings, telemetry)
        self.root = _resolve_root(self._root_spec)
        _ensure_layout(self.root)
        self._run_id = uuid.uuid4().hex[:12]
        self._seq = 0
        self._poisoned = set()
        self._submitted = []

    def close(self) -> None:
        # Sweep this run's leftovers — queued tasks never collected
        # because an error aborted the drain, leases abandoned in
        # claimed/ (their holder, seeing its lease file gone, drops the
        # result instead of writing an orphan), and results of
        # reclaimed duplicates — so an aborted run cannot poison the
        # next one, strand a lease, or busy a worker with work nobody
        # will collect.
        if self.root is None:
            super().close()
            return
        for task_id in self._submitted:
            for directory, suffix in (
                (_TASK_DIR, _TASK_SUFFIX),
                (_CLAIM_DIR, _TASK_SUFFIX),
                (_RESULT_DIR, _RESULT_SUFFIX),
            ):
                (self.root / directory / f"{task_id}{suffix}").unlink(
                    missing_ok=True
                )
        self._submitted = []
        super().close()

    def submit(self, task: CellShard, settings: "ExperimentSettings") -> BackendFuture:
        task_id = f"{self._run_id}-{self._seq:06d}"
        self._seq += 1
        future = _SpoolFuture(self, task_id)
        try:
            # ``submitted_at`` is stamped unconditionally (trace on or
            # off) so telemetry never changes what travels through the
            # queue; claimants use it for span claim latency.
            blob = pickle.dumps(
                {
                    "id": task_id,
                    "task": task,
                    "settings": settings,
                    "deliveries": 0,
                    "submitted_at": time.time(),
                },
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        except Exception:
            # A task that cannot be serialised can never leave this
            # process under any backend; run it inline instead.
            future._complete(_execute_payload(task_id, {"task": task, "settings": settings}))
            return future
        _atomic_write(self.root / _TASK_DIR / f"{task_id}{_TASK_SUFFIX}", blob)
        self._submitted.append(task_id)
        return future

    def _note_payload(self, task_id: str, payload: dict) -> None:
        """Surface a collected result's embedded observability.

        Worker-side spans and dead-letter markers travel inside result
        payloads (the only channel back from detached workers); this
        re-emits them as telemetry events in the scheduler process when
        a bus is attached.  Pure observation — collection behaves
        identically without one.
        """
        telemetry = self.telemetry
        if telemetry is None:
            return
        span = payload.get("span")
        if span:
            telemetry.emit("worker_span", task_id=task_id, **span)
        if payload.get("buried"):
            telemetry.emit(
                "dead_letter",
                task_id=task_id,
                label=payload.get("label"),
                deliveries=payload.get("deliveries"),
                reason=payload.get("reason"),
            )

    def wait_any(self, outstanding):
        while True:
            ready = {future for future in outstanding if future.done()}
            if ready:
                return ready, outstanding - ready
            if self.participate and _drain_one(
                self.root,
                self._poisoned,
                heartbeat_seconds=self.heartbeat_seconds,
                redeliver_cap=self.redeliver_cap,
            ):
                continue
            self._reclaim_stale(outstanding)
            time.sleep(self.poll_interval)

    def _reclaim_stale(self, outstanding) -> None:
        """Requeue this run's orphaned leases (or bury repeat offenders).

        A lease only goes stale when its claimant stopped heartbeating —
        i.e. the worker died.  The requeue stamps the task's delivery
        count, so a task that keeps killing workers ends up in ``dead/``
        with an error result instead of circulating forever.
        """
        if self.reclaim_seconds is None:
            return
        cutoff = time.time() - self.reclaim_seconds
        for future in outstanding:
            claimed = (
                self.root / _CLAIM_DIR / f"{future.task_id}{_TASK_SUFFIX}"
            )
            try:
                stale = claimed.stat().st_mtime < cutoff
            except OSError:
                continue
            if stale:
                if self.telemetry is not None:
                    self.telemetry.emit(
                        "lease_reclaim",
                        task_id=future.task_id,
                        stale_seconds=round(self.reclaim_seconds, 6),
                    )
                _requeue(
                    self.root,
                    claimed,
                    self.redeliver_cap,
                    "lease went stale (claimant presumed dead)",
                )

    def __repr__(self) -> str:
        return (
            f"SpoolBackend(root={str(self._root_spec)!r}, "
            f"participate={self.participate})"
        )


def run_worker(
    root: Union[str, Path, None] = None,
    poll_interval: float = 0.1,
    max_tasks: int | None = None,
    idle_timeout: float | None = None,
    log: Callable[[str], None] | None = None,
    heartbeat_seconds: float | None = _DEFAULT_HEARTBEAT,
    redeliver_cap: int | None = _DEFAULT_REDELIVER_CAP,
) -> int:
    """Serve a spool directory: lease, execute, and answer tasks.

    The loop behind ``python -m repro worker <spool-dir>``.  Runs until
    stopped (Ctrl-C), until *max_tasks* tasks have executed, or — when
    *idle_timeout* is set — once the queue has stayed empty for that
    many seconds.  Returns the number of tasks executed.

    Workers are stateless with respect to the scheduler: everything a
    task needs travels inside the task file, results travel back as
    files, and per-process memos (the KG cache, snapshot streams) warm
    up across tasks exactly as pool workers' do.
    """
    root = _resolve_root(root)
    _ensure_layout(root)
    executed = 0
    poisoned: set[str] = set()
    last_activity = time.monotonic()
    while max_tasks is None or executed < max_tasks:
        if (
            _drain_one(
                root,
                poisoned,
                log=log,
                heartbeat_seconds=heartbeat_seconds,
                redeliver_cap=redeliver_cap,
            )
            is not None
        ):
            executed += 1
            last_activity = time.monotonic()
            continue
        if (
            idle_timeout is not None
            and time.monotonic() - last_activity >= idle_timeout
        ):
            break
        time.sleep(poll_interval)
    return executed
