"""Per-cell progress and timing reporting for plan executions.

The default reporter prints one line per completed cell to stderr —
enough to watch a long grid converge, see which cells dominate the
wall-clock, and confirm that a resumed run is being served from cache —
without polluting stdout, which the experiment CLIs reserve for the
regenerated tables themselves.

It is a telemetry subscriber like any other (``RunContext(progress=
True)`` installs one): it receives every
:class:`~repro.runtime.telemetry.TelemetryEvent` of the run and
dispatches on ``event.event`` — ``cell_finished`` lines, the
``shard_progress`` ticker, ``retry`` and ``quarantine`` lines, and a
ticker clear at ``run_finish`` — ignoring every other event type.  It
reads only ``event.fields``, so an event read back from a journal
renders the same line as the live one.

Sharded cells report *aggregated*: a 1,000-repetition cell split into
20 shards still produces exactly one completion line (annotated with
its shard count), and the intermediate shard completions surface only
as an in-place ``shards done / total reps`` ticker on interactive
terminals — never as per-shard lines that would flood piped logs.
"""

from __future__ import annotations

import sys
import time
from typing import IO, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .telemetry import TelemetryEvent

__all__ = ["ProgressReporter"]


class ProgressReporter:
    """Prints ``[done/total] label seconds`` lines as cells complete.

    Parameters
    ----------
    stream:
        Output stream; defaults to ``sys.stderr`` (resolved at call
        time so pytest capture and redirection behave).
    tick_interval:
        Minimum seconds between shard-ticker redraws (default 0.1 —
        ~10 redraws/sec).  A ``chunk_size=1`` run can complete
        thousands of shards per second; without the throttle every
        completion rewrites the terminal line, flooding slow terminals
        with escape sequences.  The final tick of a cell always draws
        so the ticker never freezes short of ``shards_total``.
    """

    def __init__(
        self, stream: IO[str] | None = None, tick_interval: float = 0.1
    ):
        self._stream = stream
        self._ticking = False
        self.tick_interval = float(tick_interval)
        self._last_tick = float("-inf")

    def _resolve_stream(self) -> IO[str]:
        return self._stream if self._stream is not None else sys.stderr

    def __call__(self, event: "TelemetryEvent") -> None:
        kind = event.event
        if kind == "cell_finished":
            self._cell_finished(event.fields)
        elif kind == "shard_progress":
            self._shard_progress(event.fields)
        elif kind == "retry":
            self._retry(event.fields)
        elif kind == "quarantine":
            self._quarantine(event.fields)
        elif kind == "run_finish":
            # Whatever state the run died in — mid-ticker included,
            # e.g. a PlanExecutionError abort between shard completions
            # — the ticker is cleared, so the traceback or next prompt
            # starts on a clean line.
            self._clear_ticker(self._resolve_stream())

    def _cell_finished(self, fields: dict) -> None:
        stream = self._resolve_stream()
        total = fields["total"]
        width = len(str(total))
        if fields["cached"]:
            timing = "cache"
        else:
            timing = f"{fields['seconds']:.2f}s"
        if fields["shards"] > 1:
            resumed = (
                f", {fields['shards_cached']} resumed"
                if fields["shards_cached"]
                else ""
            )
            timing += f", {fields['shards']} shards{resumed}"
        self._clear_ticker(stream)
        print(
            f"[{fields['done']:>{width}}/{total}] {fields['label']}  ({timing})",
            file=stream,
            flush=True,
        )

    def _retry(self, fields: dict) -> None:
        """One line per resubmission of a failed unit of work.

        Retries are rare enough (and important enough) that each gets a
        real line even in piped logs: which unit failed, with what, and
        which attempt is coming after what backoff.
        """
        stream = self._resolve_stream()
        self._clear_ticker(stream)
        print(
            f"[retry {fields['attempt']}/{fields['max_attempts']}] "
            f"{fields['label']}: {fields['error']} "
            f"(backoff {fields['delay']:.2f}s)",
            file=stream,
            flush=True,
        )

    def _quarantine(self, fields: dict) -> None:
        """One line when a unit exhausts its retries and is quarantined
        (``on_error="continue"``), worded like
        :meth:`~repro.runtime.faults.TaskFailure.summary`."""
        stream = self._resolve_stream()
        self._clear_ticker(stream)
        plural = "s" if fields["attempts"] != 1 else ""
        print(
            f"[quarantined] {fields['label']}: {fields['error']} "
            f"(after {fields['attempts']} attempt{plural})",
            file=stream,
            flush=True,
        )

    def _shard_progress(self, fields: dict) -> None:
        """In-place ticker for a sharded cell's intermediate progress.

        Written only to interactive terminals (carriage-return rewrite,
        no newline), so piped logs and CI output see one line per cell
        regardless of how many shards it split into.  Redraws are
        throttled to one per ``tick_interval`` seconds; a cell's final
        tick (``shards_done == shards_total``) always draws.
        """
        stream = self._resolve_stream()
        if not getattr(stream, "isatty", lambda: False)():
            return
        shards_done, shards_total = fields["shards_done"], fields["shards_total"]
        now = time.monotonic()
        if (
            shards_done < shards_total
            and now - self._last_tick < self.tick_interval
        ):
            return
        self._last_tick = now
        print(
            f"\r\x1b[K  {fields['label']}: {shards_done}/{shards_total} shards "
            f"({fields['reps_done']}/{fields['reps_total']} reps)",
            end="",
            file=stream,
            flush=True,
        )
        self._ticking = True

    def _clear_ticker(self, stream: IO[str]) -> None:
        if self._ticking:
            print("\r\x1b[K", end="", file=stream, flush=True)
            self._ticking = False
