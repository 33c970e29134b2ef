"""Execution-configuration settings: the one place ``REPRO_*`` lives.

Every environment knob the runtime honours resolves through this
module.  :data:`KNOBS` enumerates them — one entry per variable, with
the parser/validator that turns its raw text into a typed value — and
:func:`env_knob` is the only function in the package that is allowed to
read a ``REPRO_*`` variable from ``os.environ`` (a test enforces this
by scanning the source tree), so a new knob cannot be added without a
resolver entry and documentation here.

On top of the resolvers sits :class:`RunContext`: an immutable,
fully-resolved snapshot of one execution's configuration — workers,
result store, backend spec, chunking, retry count, error mode, trace
sink, progress — built once (environment fallbacks applied at
construction time) and then *threaded* through the runtime instead of
being read from module globals.  ``ParallelExecutor(ctx)`` (the
executor's only constructor) and ``execute(plan, context=ctx)`` consume
it directly, and ``with use_context(ctx):`` scopes it over every
``execute(plan)`` call in a block (how ``python -m repro.experiments``
configures its runs); the service front end
(:mod:`repro.runtime.service`) builds one per request, which is what
makes concurrent, differently-configured runs in one process possible.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Union

from ..exceptions import ValidationError

__all__ = [
    "KNOBS",
    "ON_ERROR_MODES",
    "RunContext",
    "env_knob",
    "resolve_backend",
    "resolve_cache_dir",
    "resolve_chunk_size",
    "resolve_max_retries",
    "resolve_on_error",
    "resolve_progress",
    "resolve_service_address",
    "resolve_solve_batch_max",
    "resolve_solve_batch_window",
    "resolve_solve_table",
    "resolve_store",
    "resolve_trace_file",
    "resolve_workers",
]


def _parse_int(name: str):
    def parse(raw: str) -> int:
        try:
            return int(raw)
        except ValueError:
            raise ValidationError(
                f"{name} must be an integer, got {raw!r}"
            ) from None

    return parse


def _parse_float(name: str):
    def parse(raw: str) -> float:
        try:
            return float(raw)
        except ValueError:
            raise ValidationError(
                f"{name} must be a number, got {raw!r}"
            ) from None

    return parse


def _parse_text(name: str):
    return lambda raw: raw


#: Every ``REPRO_*`` environment knob the codebase honours, mapped to
#: ``(parser, description)``.  The test suite scans the source tree for
#: ``REPRO_`` tokens and fails on any mention that is not registered
#: here — adding a knob without a resolver entry is a test failure, not
#: a silent drift.
KNOBS: dict[str, tuple[Callable[[str], Any], str]] = {
    "REPRO_WORKERS": (
        _parse_int("REPRO_WORKERS"),
        "worker processes for plan execution (int >= 1; default 1)",
    ),
    "REPRO_CACHE_DIR": (
        _parse_text("REPRO_CACHE_DIR"),
        "result-store directory for caching and resume (default: none)",
    ),
    "REPRO_CHUNK_SIZE": (
        _parse_int("REPRO_CHUNK_SIZE"),
        "fixed repetition-sharding granularity (int >= 1; default: off)",
    ),
    "REPRO_BACKEND": (
        _parse_text("REPRO_BACKEND"),
        "execution backend spec: serial or process[:n] "
        "(default: automatic)",
    ),
    "REPRO_MAX_RETRIES": (
        _parse_int("REPRO_MAX_RETRIES"),
        "resubmissions allowed per failed unit of work "
        "(int >= 0; default 0, fail fast)",
    ),
    "REPRO_ON_ERROR": (
        _parse_text("REPRO_ON_ERROR"),
        "what to do once a unit exhausts its retries: raise | continue "
        "(default: raise)",
    ),
    "REPRO_TRACE_FILE": (
        _parse_text("REPRO_TRACE_FILE"),
        "JSONL journal file appended with structured lifecycle events "
        "(default: no journal)",
    ),
    "REPRO_SERVICE": (
        _parse_text("REPRO_SERVICE"),
        "audit-service endpoint for `python -m repro submit`/`status`: "
        "a unix-socket path or host:port (default: none)",
    ),
    "REPRO_SOLVE_BATCH_WINDOW": (
        _parse_float("REPRO_SOLVE_BATCH_WINDOW"),
        "cross-request solve-batching coalescing window in seconds for "
        "the audit service (float >= 0; 0 disables batching; "
        "default 0.005)",
    ),
    "REPRO_SOLVE_BATCH_MAX": (
        _parse_int("REPRO_SOLVE_BATCH_MAX"),
        "max coalesced callers per cross-request solve batch flush "
        "(int >= 1; default 64)",
    ),
    "REPRO_SOLVE_TABLE": (
        _parse_int("REPRO_SOLVE_TABLE"),
        "small-n solve-table cap: memoise interval solves of "
        "integer-count evidences with n <= cap, row by row on demand "
        "(int >= 0; 0 disables; default 2048)",
    ),
}


def env_knob(name: str) -> Any | None:
    """The parsed value of registered knob *name*, or ``None`` if unset.

    The single point where ``REPRO_*`` environment variables are read:
    unregistered names raise (the registry is the contract), empty or
    whitespace-only values count as unset, and the registered parser
    turns the raw text into a typed value — raising a
    :class:`~repro.exceptions.ValidationError` naming the variable on
    malformed input.
    """
    try:
        parse, _ = KNOBS[name]
    except KeyError:
        raise ValidationError(
            f"unregistered environment knob {name!r}; add it to "
            "repro.runtime.settings.KNOBS"
        ) from None
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    return parse(raw)


# ----------------------------------------------------------------------
# Per-knob resolvers: explicit value, else environment, else default —
# with the validation each knob has always had.
# ----------------------------------------------------------------------


def resolve_workers(workers: int | None) -> int:
    """Explicit worker count, or the ``REPRO_WORKERS`` default (1)."""
    if workers is None:
        workers = env_knob("REPRO_WORKERS")
        if workers is None:
            workers = 1
    workers = int(workers)
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    return workers


def resolve_chunk_size(chunk_size: int | None) -> int | None:
    """Explicit chunk size, or the ``REPRO_CHUNK_SIZE`` default (off)."""
    if chunk_size is None:
        chunk_size = env_knob("REPRO_CHUNK_SIZE")
        if chunk_size is None:
            return None
    chunk_size = int(chunk_size)
    if chunk_size < 1:
        raise ValidationError(f"chunk_size must be >= 1, got {chunk_size}")
    return chunk_size


def resolve_cache_dir(cache_dir: Union[str, Path, None]) -> Path | None:
    """Explicit store directory, or ``REPRO_CACHE_DIR`` (default none)."""
    if cache_dir is None:
        cache_dir = env_knob("REPRO_CACHE_DIR")
        if cache_dir is None:
            return None
    return Path(cache_dir)


def resolve_store(store: Any):
    """Coerce *store* into a ``ResultStore`` (or ``None``).

    Accepts a ready :class:`~repro.runtime.store.ResultStore`, a
    directory path to root one at, or ``None`` — which falls back to
    ``REPRO_CACHE_DIR`` and, when that is unset too, disables caching.
    """
    from .store import ResultStore  # runtime import: keep settings leaf-light

    if isinstance(store, ResultStore):
        return store
    root = resolve_cache_dir(store)
    return None if root is None else ResultStore(root)


def resolve_backend(backend: Any) -> Any:
    """Explicit backend spec/instance, or the ``REPRO_BACKEND`` default.

    Environment fallback only — semantic validation against the backend
    registry happens in
    :func:`repro.runtime.backends.base.resolve_backend_spec`, which
    calls this first.  ``None`` (auto policy) stays ``None`` when the
    environment is silent.
    """
    if backend is None:
        return env_knob("REPRO_BACKEND")
    return backend


def resolve_max_retries(max_retries: int | None) -> int:
    """Explicit retry count, or the ``REPRO_MAX_RETRIES`` default (0)."""
    if max_retries is None:
        max_retries = env_knob("REPRO_MAX_RETRIES")
        if max_retries is None:
            return 0
    max_retries = int(max_retries)
    if max_retries < 0:
        raise ValidationError(f"max_retries must be >= 0, got {max_retries}")
    return max_retries


#: Valid ``on_error`` modes: abort the run on the first exhausted unit
#: (the classic behaviour) or quarantine it and keep draining.
ON_ERROR_MODES = ("raise", "continue")


def resolve_on_error(on_error: str | None) -> str:
    """Explicit mode, or the ``REPRO_ON_ERROR`` default (``"raise"``)."""
    if on_error is None:
        on_error = env_knob("REPRO_ON_ERROR")
        if on_error is None:
            return "raise"
    on_error = str(on_error).strip().lower()
    if on_error not in ON_ERROR_MODES:
        raise ValidationError(
            f"on_error must be one of {', '.join(ON_ERROR_MODES)}; got {on_error!r}"
        )
    return on_error


def resolve_trace_file(trace: Union[str, Path, None]) -> Path | None:
    """Explicit journal path, or the ``REPRO_TRACE_FILE`` default (off)."""
    if trace is None:
        trace = env_knob("REPRO_TRACE_FILE")
        if trace is None:
            return None
    return Path(trace)


def resolve_service_address(address: str | None) -> str:
    """Explicit endpoint, or the ``REPRO_SERVICE`` default (required).

    The audit-service endpoint used by ``python -m repro submit`` /
    ``status``: a unix-socket path or ``host:port`` text, parsed by
    :func:`repro.runtime.service.client.parse_address`.
    """
    if address is None:
        address = env_knob("REPRO_SERVICE")
        if address is None:
            raise ValidationError(
                "no audit service endpoint: pass --connect or set "
                "REPRO_SERVICE to a socket path or host:port"
            )
    return str(address)


def resolve_solve_batch_window(window: float | None) -> float:
    """Explicit window, or the ``REPRO_SOLVE_BATCH_WINDOW`` default.

    The coalescing window (seconds) the audit service's
    :class:`~repro.runtime.solvebatch.SolveBroker` holds a pending
    interval solve open for co-batching with other requests.  ``0``
    disables cross-request batching entirely; the default is 5 ms —
    far below request latency, far above solve dispatch overhead.
    """
    if window is None:
        window = env_knob("REPRO_SOLVE_BATCH_WINDOW")
        if window is None:
            return 0.005
    window = float(window)
    if window < 0.0:
        raise ValidationError(
            f"solve_batch_window must be >= 0, got {window}"
        )
    return window


def resolve_solve_batch_max(max_batch: int | None) -> int:
    """Explicit cap, or the ``REPRO_SOLVE_BATCH_MAX`` default (64).

    The number of coalesced callers at which a pending solve batch
    flushes immediately instead of waiting out the window.
    """
    if max_batch is None:
        max_batch = env_knob("REPRO_SOLVE_BATCH_MAX")
        if max_batch is None:
            return 64
    max_batch = int(max_batch)
    if max_batch < 1:
        raise ValidationError(
            f"solve_batch_max must be >= 1, got {max_batch}"
        )
    return max_batch


def resolve_solve_table(cap: int | None) -> int:
    """Explicit cap, or the ``REPRO_SOLVE_TABLE`` default (2048).

    The largest evidence count ``n`` the small-n
    :class:`~repro.intervals.table.SolveTable` memoises interval rows
    for — one row per ``(method, alpha, n, tau)``, solved on first
    demand; ``0`` disables the table entirely.  Table serving is pure
    memoisation — served rows are bit-identical to freshly solved ones.
    """
    if cap is None:
        cap = env_knob("REPRO_SOLVE_TABLE")
        if cap is None:
            return 2048
    cap = int(cap)
    if cap < 0:
        raise ValidationError(f"solve_table cap must be >= 0, got {cap}")
    return cap


def resolve_progress(progress: Any) -> Callable | None:
    """Coerce *progress* into a telemetry subscriber (or ``None``).

    ``True`` builds the default stderr
    :class:`~repro.runtime.progress.ProgressReporter`; ``False`` and
    ``None`` are silence; a callable passes through and receives every
    :class:`~repro.runtime.telemetry.TelemetryEvent` of the run.
    """
    if progress is True:
        from .progress import ProgressReporter  # runtime import (leaf-light)

        return ProgressReporter()
    if progress is False or progress is None:
        return None
    if not callable(progress):
        raise ValidationError(
            "progress must be True, False, None, or a callable "
            f"receiving each TelemetryEvent; got {progress!r}"
        )
    return progress


# ----------------------------------------------------------------------
# RunContext: the immutable, fully-resolved per-request configuration
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RunContext:
    """One execution's complete, immutable configuration.

    Construction *is* resolution: every field accepts the same loose
    inputs the executor always did (``None`` for "fall back to the
    environment", paths or stores, spec strings or instances, ``True``
    for the default reporter) and ``__post_init__`` normalises them —
    applying the ``REPRO_*`` fallbacks from :data:`KNOBS` exactly once,
    at construction time.  The result is a frozen snapshot: changing
    the environment afterwards changes nothing about this context, and
    two requests holding different contexts can execute concurrently in
    one process without sharing any configuration state.

    Resolved field types
    --------------------
    * ``workers`` — ``int`` (>= 1); the automatic backend policy runs a
      process pool when it is above 1 and more than one unit is pending,
      and a ``process`` backend without an explicit size uses it as its
      pool size
    * ``store`` — :class:`~repro.runtime.store.ResultStore` or ``None``
    * ``progress`` — a telemetry subscriber (a callable receiving each
      :class:`~repro.runtime.telemetry.TelemetryEvent` of the run) or
      ``None``
    * ``chunk_size`` — ``int`` or ``None``; the one shard-size setting
    * ``chunk_seconds`` — always ``None``; accepted only as ``None`` so
      recorded contexts still construct
    * ``backend`` — validated spec string, ready
      :class:`~repro.runtime.backends.ExecutionBackend`, or ``None``
      for the automatic policy
    * ``max_retries`` — ``int`` (>= 0): resubmissions allowed per failed
      unit of work, each after :func:`~repro.runtime.faults.retry_delay`
    * ``on_error`` — ``"raise"`` (abort with a
      :class:`~repro.runtime.faults.PlanExecutionError` carrying every
      failure) or ``"continue"`` (quarantine the cell, keep draining)
    * ``trace`` — :class:`~pathlib.Path` or ``None``
    * ``solve_pool`` — a cross-request solve broker
      (:class:`~repro.runtime.solvebatch.SolveBroker`) or ``None``;
      shared infrastructure rather than per-run configuration, so it
      has no environment fallback and is threaded in explicitly (the
      audit service passes its process-wide broker here)
    * ``kernel`` — always ``"numpy"``, the one HPD solver kernel
      (:mod:`repro.intervals.kernels`); accepted as ``None`` or
      ``"numpy"`` so recorded contexts still construct, and never part
      of cache identity
    * ``solve_table`` — small-n solve-table cap (``REPRO_SOLVE_TABLE``;
      default 2048, ``0`` disables); pure memoisation, also outside
      cache identity

    Use :meth:`replace` to derive a variant (new context, same
    immutability); use :meth:`describe` for a JSON-ready summary.
    """

    workers: Any = None
    store: Any = None
    progress: Any = None
    chunk_size: Any = None
    chunk_seconds: Any = None
    backend: Any = None
    max_retries: Any = None
    on_error: Any = None
    trace: Any = None
    solve_pool: Any = None
    kernel: Any = None
    solve_table: Any = None

    def __post_init__(self) -> None:
        set_field = lambda name, value: object.__setattr__(self, name, value)  # noqa: E731
        set_field("workers", resolve_workers(self.workers))
        if self.chunk_seconds is not None:
            raise ValidationError(
                "chunk_seconds must be None; chunk_size is the one "
                f"shard-size setting; got {self.chunk_seconds!r}"
            )
        set_field("chunk_size", resolve_chunk_size(self.chunk_size))
        # Runtime import: the backend registry imports this module for
        # its environment fallback, so settings must stay import-leaf.
        from .backends.base import resolve_backend_spec

        set_field("backend", resolve_backend_spec(self.backend))
        set_field("max_retries", resolve_max_retries(self.max_retries))
        set_field("on_error", resolve_on_error(self.on_error))
        set_field("store", resolve_store(self.store))
        set_field("progress", resolve_progress(self.progress))
        set_field("trace", resolve_trace_file(self.trace))
        if self.kernel not in (None, "numpy"):
            raise ValidationError(
                f"kernel must be 'numpy', the only HPD solver kernel; "
                f"got {self.kernel!r}"
            )
        set_field("kernel", "numpy")
        set_field("solve_table", resolve_solve_table(self.solve_table))
        if self.solve_pool is not None and not callable(
            getattr(self.solve_pool, "channel", None)
        ):
            raise ValidationError(
                "solve_pool must expose a channel(telemetry) factory "
                f"(see repro.runtime.solvebatch.SolveBroker); got "
                f"{self.solve_pool!r}"
            )

    def replace(self, **overrides: Any) -> "RunContext":
        """A new context with *overrides* applied (re-validated)."""
        return dataclasses.replace(self, **overrides)

    def describe(self) -> dict[str, Any]:
        """JSON-ready summary (telemetry, service status endpoints)."""
        backend = self.backend
        if backend is not None and not isinstance(backend, str):
            backend = getattr(backend, "name", type(backend).__name__)
        return {
            "workers": self.workers,
            "cache_dir": None if self.store is None else str(self.store.root),
            "chunk_size": self.chunk_size,
            "chunk_seconds": self.chunk_seconds,
            "backend": backend,
            "max_retries": self.max_retries,
            "on_error": self.on_error,
            "trace": None if self.trace is None else str(self.trace),
            "progress": self.progress is not None,
            "solve_pool": None
            if self.solve_pool is None
            else getattr(
                self.solve_pool, "name", type(self.solve_pool).__name__
            ),
            "kernel": self.kernel,
            "solve_table": self.solve_table,
        }
