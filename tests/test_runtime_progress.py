"""Progress-reporter tests: per-cell lines, tty ticker, fault lines.

:mod:`repro.runtime.progress` promises *aggregated* reporting: one
stderr line per completed cell whatever its shard count, and an
in-place shard ticker on interactive terminals only.  These tests pin
that surface down directly (the executor integration is covered in the
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
from repro.runtime.telemetry import ProgressSubscriber


class _TtyStream(io.StringIO):
    def isatty(self) -> bool:  # pragma: no cover - trivial
        return True


def _cell(label: str = "NELL/SRS/Wilson") -> CellSpec:
    return CellSpec(key=(label,), label=label, method="Wilson")


def _result(**overrides) -> CellResult:
    base = dict(cell=_cell(), value=None, seconds=1.234, cached=False)
    base.update(overrides)
    return CellResult(**base)


class TestCompletionLines:
    def test_computed_cell_line(self):
        stream = io.StringIO()
        ProgressReporter(stream=stream)(3, 12, _result())
        line = stream.getvalue()
        assert "[ 3/12]" in line
        assert "NELL/SRS/Wilson" in line
        assert "1.23s" in line

    def test_cached_cell_says_cache(self):
        stream = io.StringIO()
        ProgressReporter(stream=stream)(1, 2, _result(cached=True, seconds=0.0))
        assert "(cache)" in stream.getvalue()

    def test_sharded_cell_annotates_shard_count(self):
        stream = io.StringIO()
        ProgressReporter(stream=stream)(1, 1, _result(shards=20))
        line = stream.getvalue()
        assert "20 shards" in line
        assert "resumed" not in line

    def test_resumed_shards_annotated(self):
        stream = io.StringIO()
        ProgressReporter(stream=stream)(1, 1, _result(shards=20, shards_cached=7))
        assert "7 resumed" in stream.getvalue()

    def test_progress_width_aligns_to_total(self):
        stream = io.StringIO()
        ProgressReporter(stream=stream)(7, 100, _result())
        assert "[  7/100]" in stream.getvalue()

    def test_default_stream_is_stderr(self, monkeypatch):
        captured = io.StringIO()
        monkeypatch.setattr(sys, "stderr", captured)
        ProgressReporter()(1, 1, _result())
        assert "NELL/SRS/Wilson" in captured.getvalue()


class TestShardTicker:
    def test_silent_on_non_tty(self):
        stream = io.StringIO()
        ProgressReporter(stream=stream).shard_update(_cell(), 1, 4, 2, 8)
        assert stream.getvalue() == ""

    def test_ticker_rewrites_in_place_on_tty(self):
        stream = _TtyStream()
        reporter = ProgressReporter(stream=stream)
        reporter.shard_update(_cell(), 1, 4, 2, 8)
        output = stream.getvalue()
        assert output.startswith("\r\x1b[K")
        assert "1/4 shards" in output
        assert "(2/8 reps)" in output
        assert not output.endswith("\n")

    def test_completion_line_clears_pending_ticker(self):
        stream = _TtyStream()
        reporter = ProgressReporter(stream=stream)
        reporter.shard_update(_cell(), 3, 4, 6, 8)
        before = len(stream.getvalue())
        reporter(1, 1, _result(shards=4))
        tail = stream.getvalue()[before:]
        # The completion line first erases the ticker, then prints.
        assert tail.startswith("\r\x1b[K")
        assert tail.endswith("\n")

    def test_no_clear_without_prior_ticker(self):
        stream = _TtyStream()
        ProgressReporter(stream=stream)(1, 1, _result())
        assert "\r" not in stream.getvalue()


class TestTickerThrottle:
    def test_first_tick_always_draws(self):
        stream = _TtyStream()
        ProgressReporter(stream=stream, tick_interval=3600.0).shard_update(
            _cell(), 1, 4, 2, 8
        )
        assert "1/4 shards" in stream.getvalue()

    def test_rapid_intermediate_ticks_are_suppressed(self):
        stream = _TtyStream()
        reporter = ProgressReporter(stream=stream, tick_interval=3600.0)
        reporter.shard_update(_cell(), 1, 4, 2, 8)
        drawn = stream.getvalue()
        reporter.shard_update(_cell(), 2, 4, 4, 8)
        reporter.shard_update(_cell(), 3, 4, 6, 8)
        assert stream.getvalue() == drawn  # inside the interval: no redraw

    def test_final_tick_always_draws(self):
        stream = _TtyStream()
        reporter = ProgressReporter(stream=stream, tick_interval=3600.0)
        reporter.shard_update(_cell(), 1, 4, 2, 8)
        reporter.shard_update(_cell(), 4, 4, 8, 8)
        assert "4/4 shards" in stream.getvalue()

    def test_zero_interval_draws_every_tick(self):
        stream = _TtyStream()
        reporter = ProgressReporter(stream=stream, tick_interval=0.0)
        reporter.shard_update(_cell(), 1, 4, 2, 8)
        reporter.shard_update(_cell(), 2, 4, 4, 8)
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


class TestFaultLines:
    """Retries and quarantines are real lines even on non-tty streams."""

    def test_retry_line_on_non_tty(self):
        stream = io.StringIO()
        ProgressReporter(stream=stream).retry_update(_failure(), 2, 3, 0.5)
        line = stream.getvalue()
        assert "[retry 2/3]" in line
        assert "NELL/SRS/Wilson" in line
        assert "ValueError: boom" in line
        assert "backoff 0.50s" in line
        assert line.endswith("\n")

    def test_quarantine_line_on_non_tty(self):
        stream = io.StringIO()
        ProgressReporter(stream=stream).failure_update(_failure(attempts=3))
        line = stream.getvalue()
        assert "[quarantined]" in line
        assert "NELL/SRS/Wilson" in line

    def test_retry_line_clears_a_pending_ticker_first(self):
        stream = _TtyStream()
        reporter = ProgressReporter(stream=stream)
        reporter.shard_update(_cell(), 1, 4, 2, 8)
        before = len(stream.getvalue())
        reporter.retry_update(_failure(), 1, 2, 0.1)
        tail = stream.getvalue()[before:]
        assert tail.startswith("\r\x1b[K")
        assert "[retry" in tail


class TestFinishUpdate:
    """The abort-clear guarantee: however the run ends, the ticker is
    cleared so the traceback or prompt starts on a fresh line."""

    def test_finish_clears_a_pending_ticker(self):
        stream = _TtyStream()
        reporter = ProgressReporter(stream=stream)
        reporter.shard_update(_cell(), 3, 4, 6, 8)
        before = len(stream.getvalue())
        reporter.finish_update("aborted")
        assert stream.getvalue()[before:] == "\r\x1b[K"

    def test_finish_is_silent_without_a_ticker(self):
        stream = _TtyStream()
        ProgressReporter(stream=stream).finish_update("ok")
        assert stream.getvalue() == ""

    def test_run_finish_event_reaches_finish_update(self):
        # The executor emits run_finish in a finally block; the
        # subscriber must route it to finish_update so a
        # PlanExecutionError abort mid-ticker still clears the line.
        stream = _TtyStream()
        reporter = ProgressReporter(stream=stream)
        bus = RunTelemetry()
        bus.subscribe(ProgressSubscriber(reporter))
        bus.emit(
            "shard_progress", payload=_cell(), label="NELL/SRS/Wilson",
            shards_done=1, shards_total=4, reps_done=2, reps_total=8,
        )
        before = len(stream.getvalue())
        bus.emit("run_finish", status="aborted", seconds=0.1)
        assert stream.getvalue()[before:] == "\r\x1b[K"

    def test_plain_callable_progress_ignores_finish(self):
        # Duck typing: a bare lambda progress hook has no finish_update
        # and must not break on run_finish.
        seen = []
        bus = RunTelemetry()
        bus.subscribe(ProgressSubscriber(lambda done, total, result: seen.append(done)))
        bus.emit("run_finish", status="ok", seconds=0.0)
        assert seen == []
