"""Progress-reporter tests: per-cell lines, tty ticker, fault lines.

:mod:`repro.runtime.progress` promises *aggregated* reporting: one
stderr line per completed cell whatever its shard count, and an
in-place shard ticker on interactive terminals only.  The reporter is
a telemetry subscriber, so these tests drive it the way a run does:
events emitted on a :class:`RunTelemetry` bus, with the fields the
scheduler and executor emit (the executor integration is covered in the
shard suite).
"""

from __future__ import annotations

import io
import sys

from repro.runtime import (
    CellSpec,
    ProgressReporter,
    RunTelemetry,
    TaskFailure,
)
from repro.runtime.scheduler import CellResult


class _TtyStream(io.StringIO):
    def isatty(self) -> bool:  # pragma: no cover - trivial
        return True


def _cell(label: str = "NELL/SRS/Wilson") -> CellSpec:
    return CellSpec(key=(label,), label=label, method="Wilson")


def _bus(stream=None, **options) -> RunTelemetry:
    """A bus with one :class:`ProgressReporter` on *stream* subscribed."""
    bus = RunTelemetry()
    bus.subscribe(ProgressReporter(stream=stream, **options))
    return bus


def _finish_cell(bus: RunTelemetry, done: int, total: int, **overrides) -> None:
    """Emit ``cell_finished`` as the scheduler does for one cell."""
    base = dict(cell=_cell(), value=None, seconds=1.234, cached=False)
    base.update(overrides)
    result = CellResult(**base)
    bus.emit(
        "cell_finished",
        payload=result,
        done=done,
        total=total,
        label=result.cell.label,
        kind=type(result.cell).__name__,
        cached=result.cached,
        seconds=round(result.seconds, 6),
        shards=result.shards,
        shards_cached=result.shards_cached,
    )


def _tick(
    bus: RunTelemetry,
    shards_done: int,
    shards_total: int,
    reps_done: int,
    reps_total: int,
) -> None:
    """Emit ``shard_progress`` as the scheduler does for one window."""
    cell = _cell()
    bus.emit(
        "shard_progress",
        payload=cell,
        label=cell.label,
        shards_done=shards_done,
        shards_total=shards_total,
        reps_done=reps_done,
        reps_total=reps_total,
    )


class TestCompletionLines:
    def test_computed_cell_line(self):
        stream = io.StringIO()
        _finish_cell(_bus(stream), 3, 12)
        line = stream.getvalue()
        assert "[ 3/12]" in line
        assert "NELL/SRS/Wilson" in line
        assert "1.23s" in line

    def test_cached_cell_says_cache(self):
        stream = io.StringIO()
        _finish_cell(_bus(stream), 1, 2, cached=True, seconds=0.0)
        assert "(cache)" in stream.getvalue()

    def test_sharded_cell_annotates_shard_count(self):
        stream = io.StringIO()
        _finish_cell(_bus(stream), 1, 1, shards=20)
        line = stream.getvalue()
        assert "20 shards" in line
        assert "resumed" not in line

    def test_resumed_shards_annotated(self):
        stream = io.StringIO()
        _finish_cell(_bus(stream), 1, 1, shards=20, shards_cached=7)
        assert "7 resumed" in stream.getvalue()

    def test_progress_width_aligns_to_total(self):
        stream = io.StringIO()
        _finish_cell(_bus(stream), 7, 100)
        assert "[  7/100]" in stream.getvalue()

    def test_default_stream_is_stderr(self, monkeypatch):
        captured = io.StringIO()
        monkeypatch.setattr(sys, "stderr", captured)
        _finish_cell(_bus(), 1, 1)
        assert "NELL/SRS/Wilson" in captured.getvalue()

    def test_other_events_print_nothing(self):
        stream = _TtyStream()
        bus = _bus(stream)
        bus.emit("scan_start", cells=1)
        bus.emit("unit_queued", token="tok0", unit="cell", label="x", kind="-")
        assert stream.getvalue() == ""


class TestShardTicker:
    def test_silent_on_non_tty(self):
        stream = io.StringIO()
        _tick(_bus(stream), 1, 4, 2, 8)
        assert stream.getvalue() == ""

    def test_ticker_rewrites_in_place_on_tty(self):
        stream = _TtyStream()
        _tick(_bus(stream), 1, 4, 2, 8)
        output = stream.getvalue()
        assert output.startswith("\r\x1b[K")
        assert "1/4 shards" in output
        assert "(2/8 reps)" in output
        assert not output.endswith("\n")

    def test_completion_line_clears_pending_ticker(self):
        stream = _TtyStream()
        bus = _bus(stream)
        _tick(bus, 3, 4, 6, 8)
        before = len(stream.getvalue())
        _finish_cell(bus, 1, 1, shards=4)
        tail = stream.getvalue()[before:]
        # The completion line first erases the ticker, then prints.
        assert tail.startswith("\r\x1b[K")
        assert tail.endswith("\n")

    def test_no_clear_without_prior_ticker(self):
        stream = _TtyStream()
        _finish_cell(_bus(stream), 1, 1)
        assert "\r" not in stream.getvalue()


class TestTickerThrottle:
    def test_first_tick_always_draws(self):
        stream = _TtyStream()
        _tick(_bus(stream, tick_interval=3600.0), 1, 4, 2, 8)
        assert "1/4 shards" in stream.getvalue()

    def test_rapid_intermediate_ticks_are_suppressed(self):
        stream = _TtyStream()
        bus = _bus(stream, tick_interval=3600.0)
        _tick(bus, 1, 4, 2, 8)
        drawn = stream.getvalue()
        _tick(bus, 2, 4, 4, 8)
        _tick(bus, 3, 4, 6, 8)
        assert stream.getvalue() == drawn  # inside the interval: no redraw

    def test_final_tick_always_draws(self):
        stream = _TtyStream()
        bus = _bus(stream, tick_interval=3600.0)
        _tick(bus, 1, 4, 2, 8)
        _tick(bus, 4, 4, 8, 8)
        assert "4/4 shards" in stream.getvalue()

    def test_zero_interval_draws_every_tick(self):
        stream = _TtyStream()
        bus = _bus(stream, tick_interval=0.0)
        _tick(bus, 1, 4, 2, 8)
        _tick(bus, 2, 4, 4, 8)
        assert "2/4 shards" in stream.getvalue()


def _failure(**overrides) -> TaskFailure:
    base = dict(
        label="NELL/SRS/Wilson",
        token="tok0",
        attempts=1,
        error="ValueError: boom",
        traceback=None,
        backend="serial",
    )
    base.update(overrides)
    return TaskFailure(**base)


def _retry(bus: RunTelemetry, attempt: int, max_attempts: int, delay: float) -> None:
    """Emit ``retry`` as the executor does before a resubmission."""
    failure = _failure()
    bus.emit(
        "retry",
        payload=failure,
        token=failure.token,
        attempt=attempt,
        max_attempts=max_attempts,
        delay=delay,
        unit="cell",
        label=failure.label,
        kind="CellSpec",
    )


class TestFaultLines:
    """Retries and quarantines are real lines even on non-tty streams."""

    def test_retry_line_on_non_tty(self):
        stream = io.StringIO()
        _retry(_bus(stream), 2, 3, 0.5)
        line = stream.getvalue()
        assert "[retry 2/3]" in line
        assert "NELL/SRS/Wilson" in line
        assert "ValueError: boom" in line
        assert "backoff 0.50s" in line
        assert line.endswith("\n")

    def test_quarantine_line_on_non_tty(self):
        stream = io.StringIO()
        failure = _failure(attempts=3)
        _bus(stream).emit(
            "quarantine",
            payload=failure,
            token=failure.token,
            attempts=failure.attempts,
            error=failure.error,
            unit="cell",
            label=failure.label,
            kind="CellSpec",
        )
        line = stream.getvalue()
        assert "[quarantined]" in line
        assert "NELL/SRS/Wilson" in line

    def test_retry_line_clears_a_pending_ticker_first(self):
        stream = _TtyStream()
        bus = _bus(stream)
        _tick(bus, 1, 4, 2, 8)
        before = len(stream.getvalue())
        _retry(bus, 1, 2, 0.1)
        tail = stream.getvalue()[before:]
        assert tail.startswith("\r\x1b[K")
        assert "[retry" in tail


class TestRunFinish:
    """The abort-clear guarantee: however the run ends, the ticker is
    cleared so the traceback or prompt starts on a fresh line."""

    def test_run_finish_clears_a_pending_ticker(self):
        # The executor emits run_finish in a finally block, so a
        # PlanExecutionError abort mid-ticker still clears the line.
        stream = _TtyStream()
        bus = _bus(stream)
        _tick(bus, 3, 4, 6, 8)
        before = len(stream.getvalue())
        bus.emit("run_finish", status="aborted", seconds=0.1)
        assert stream.getvalue()[before:] == "\r\x1b[K"

    def test_run_finish_is_silent_without_a_ticker(self):
        stream = _TtyStream()
        _bus(stream).emit("run_finish", status="ok", seconds=0.0)
        assert stream.getvalue() == ""
