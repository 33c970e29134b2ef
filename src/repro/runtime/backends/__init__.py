"""Pluggable execution backends for the study-execution runtime.

``repro.runtime`` separates *scheduling* (what runs next, how window
payloads merge, what the cache can serve — :mod:`repro.runtime.
scheduler`) from *dispatch* (where a unit of work physically executes —
this package).  Three backends ship:

* :class:`SerialBackend` — in-process, one task at a time; the
  ``workers=1`` path.
* :class:`ProcessPoolBackend` — a local ``ProcessPoolExecutor``; the
  classic ``--workers N`` fan-out.
* :class:`SpoolBackend` — a file-based work queue under a spool
  directory, served by detached ``python -m repro worker`` processes;
  multi-process today, multi-host on any shared filesystem.
* :class:`ChaosBackend` — a fault-injection wrapper around any of the
  above (``chaos:<inner-spec>``), driving the retry/quarantine
  machinery with a deterministic, seeded fault schedule.

Selection flows through ``--backend`` / ``REPRO_BACKEND`` (specs:
``serial``, ``process[:n]``, ``spool[:dir]``, ``chaos[:inner]``); unset
means automatic (serial at ``workers=1``, process pool otherwise).
Whatever the backend, results are bit-identical and cache tokens are
unchanged, so a run interrupted on one backend resumes on another.
"""

from .base import (
    BackendFuture,
    ExecutionBackend,
    make_backend,
    register_backend,
    resolve_backend_spec,
    run_task,
)
from .chaos import ChaosBackend, ChaosFault
from .pool import ProcessPoolBackend
from .serial import SerialBackend
from .spool import SpoolBackend, SpoolTaskError, run_worker

__all__ = [
    "BackendFuture",
    "ChaosBackend",
    "ChaosFault",
    "ExecutionBackend",
    "ProcessPoolBackend",
    "SerialBackend",
    "SpoolBackend",
    "SpoolTaskError",
    "make_backend",
    "register_backend",
    "resolve_backend_spec",
    "run_task",
    "run_worker",
]
