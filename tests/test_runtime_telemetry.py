"""Run telemetry: the event bus, journal sink, metrics, and CLI digests.

The contract under test is two-sided.  *Completeness*: a traced run's
journal narrates every executed unit queued → submitted → finished
(retries and injected faults included), and the in-memory aggregate
can be reproduced from the journal alone.
*Non-interference*: tracing on or off changes no result bytes, cache
entries, or tokens — telemetry is strictly observational.
"""

from __future__ import annotations

import io
import json
import pickle
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from repro.cli import main
from repro.exceptions import ValidationError
from repro.experiments.config import ExperimentSettings
from repro.runtime import (
    CellSpec,
    ChaosBackend,
    EVENT_TYPES,
    JsonlTraceSink,
    MetricsAggregate,
    ParallelExecutor,
    ProcessPoolBackend,
    ProgressReporter,
    ResultStore,
    RunContext,
    RunTelemetry,
    StudyCell,
    StudyPlan,
    TelemetryEvent,
    read_journal,
    register_cell_runner,
    render_summary,
    replay_metrics,
    summarize_journal,
)
from repro.runtime.settings import resolve_trace_file
from repro.runtime.telemetry import TRACE_SCHEMA_VERSION

#: Every backend spec that executes units: the two transports and the
#: fault-injecting wrapper around each.
BACKENDS = ("serial", "process", "chaos:serial", "chaos:process")

#: Event types of the deleted detached-worker backend (schema <= 5).
REMOVED_EVENT_TYPES = ("worker_span", "lease_reclaim", "dead_letter")


def study_cell(method: str = "Wilson") -> StudyCell:
    return StudyCell(
        key=("NELL", "SRS", method),
        label=f"NELL/SRS/{method}",
        method=method,
        dataset="NELL",
        strategy="SRS",
        seed_stream=(5,),
    )


def small_plan(repetitions: int = 3, seed: int = 0) -> StudyPlan:
    settings = ExperimentSettings(repetitions=repetitions, seed=seed)
    return StudyPlan(
        settings=settings,
        cells=(study_cell("Wilson"), study_cell("aHPD")),
        name="telemetry",
    )


def assert_studies_equal(a, b) -> None:
    assert np.array_equal(a.triples, b.triples)
    assert np.array_equal(a.estimates, b.estimates)
    assert np.array_equal(a.converged, b.converged)


@dataclass(frozen=True)
class FailOnceCell(CellSpec):
    """Fails its first attempt (a marker file records it), then succeeds."""

    marker: str = ""


@register_cell_runner(FailOnceCell)
def _run_fail_once(cell, settings, rep_range):
    marker = Path(cell.marker)
    if not marker.exists():
        marker.touch()
        raise ValidationError("first attempt fails")
    return ("ok", cell.key)


@dataclass(frozen=True)
class AlwaysFailsCell(CellSpec):
    """Fails every attempt."""


@register_cell_runner(AlwaysFailsCell)
def _run_always_fails(cell, settings, rep_range):
    raise ValidationError("every attempt fails")


def journal_events(path, event=None) -> list[dict]:
    records = read_journal(path)
    if event is None:
        return records
    return [record for record in records if record["event"] == event]


# ----------------------------------------------------------------------
# The bus itself
# ----------------------------------------------------------------------


class TestRunTelemetry:
    def test_emit_delivers_events_with_fields_and_payload(self):
        bus = RunTelemetry()
        seen: list[TelemetryEvent] = []
        bus.subscribe(seen.append)
        payload = object()
        bus.emit("cache_hit", payload=payload, label="a", kind="StudyCell")
        assert len(seen) == 1
        event = seen[0]
        assert event.event == "cache_hit"
        assert event.run_id == bus.run_id
        assert event.fields == {"label": "a", "kind": "StudyCell"}
        assert event.payload is payload
        assert event.t >= 0.0

    def test_unknown_event_type_is_rejected(self):
        bus = RunTelemetry()
        with pytest.raises(ValidationError, match="unknown telemetry event"):
            bus.emit("not_a_real_event")

    def test_every_declared_event_type_is_emittable(self):
        bus = RunTelemetry()
        seen = []
        bus.subscribe(seen.append)
        for name in sorted(EVENT_TYPES):
            bus.emit(name)
        assert [event.event for event in seen] == sorted(EVENT_TYPES)

    def test_close_closes_subscribers_that_support_it(self, tmp_path):
        sink = JsonlTraceSink(tmp_path / "j.jsonl")
        bus = RunTelemetry()
        bus.subscribe(sink)
        bus.emit("run_start", plan="p", cells=0, workers=1, schema=1)
        bus.close()
        records = read_journal(tmp_path / "j.jsonl")
        assert [record["event"] for record in records] == ["run_start"]

    def test_resolve_trace_file_reads_env(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_TRACE_FILE", raising=False)
        assert resolve_trace_file(None) is None
        monkeypatch.setenv("REPRO_TRACE_FILE", str(tmp_path / "env.jsonl"))
        assert resolve_trace_file(None) == tmp_path / "env.jsonl"
        # An explicit argument beats the environment.
        assert resolve_trace_file(tmp_path / "arg.jsonl") == tmp_path / "arg.jsonl"


# ----------------------------------------------------------------------
# Journal completeness and strict parsing
# ----------------------------------------------------------------------


class TestJournal:
    def test_every_executed_unit_has_a_complete_span(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        plan = small_plan()
        ParallelExecutor(RunContext(workers=1, chunk_size=2, trace=journal)).run(plan)
        records = read_journal(journal)
        events = [record["event"] for record in records]
        assert events[0] == "run_start"
        assert events[-1] == "run_finish"
        assert records[-1]["status"] == "ok"
        finished = {
            record["token"] for record in records if record["event"] == "unit_finished"
        }
        assert finished  # sharded: 2 cells x 2 shards
        for token in finished:
            queued = [r for r in records if r["event"] == "unit_queued" and r["token"] == token]
            submitted = [r for r in records if r["event"] == "unit_submitted" and r["token"] == token]
            done = [r for r in records if r["event"] == "unit_finished" and r["token"] == token]
            assert len(queued) == 1
            assert len(submitted) >= 1
            assert len(done) == 1
            # Monotonic ordering within the span.
            assert queued[0]["t"] <= submitted[0]["t"] <= done[0]["t"]

    def test_a_progress_observer_sees_exactly_the_journal(self, tmp_path):
        # The observer API is the journal schema: a progress subscriber
        # receives every event of the run, under the name and with the
        # fields the journal records — a retried and a quarantined unit
        # included — so the progress reporter prints the same lines from
        # the journal as it does live.
        journal = tmp_path / "j.jsonl"
        seen: list[TelemetryEvent] = []
        plan = StudyPlan(
            settings=ExperimentSettings(repetitions=3, seed=0),
            cells=(
                study_cell("Wilson"),
                FailOnceCell(
                    key=("once",), label="once", method="-",
                    marker=str(tmp_path / "failed-once"),
                ),
                AlwaysFailsCell(key=("never",), label="never", method="-"),
            ),
            name="telemetry",
        )
        ParallelExecutor(
            RunContext(
                progress=seen.append,
                trace=journal,
                workers=1,
                backend="serial",
                max_retries=1,
                on_error="continue",
            )
        ).run(plan)
        records = [
            (
                record["event"],
                {
                    key: value
                    for key, value in record.items()
                    if key not in ("event", "run_id", "t", "wall")
                },
            )
            for record in read_journal(journal)
        ]
        assert [(event.event, event.fields) for event in seen] == records
        assert {"run_start", "cell_finished", "retry", "quarantine", "run_finish"} <= {
            event for event, _ in records
        }
        live, replayed = io.StringIO(), io.StringIO()
        live_reporter = ProgressReporter(stream=live)
        for event in seen:
            live_reporter(event)
        replay_reporter = ProgressReporter(stream=replayed)
        for event, fields in records:
            replay_reporter(
                TelemetryEvent(event=event, run_id="-", t=0.0, wall=0.0, fields=fields)
            )
        text = live.getvalue()
        assert replayed.getvalue() == text
        assert "[retry 2/2] once: ValidationError: first attempt fails (backoff" in text
        assert "[retry 2/2] never: ValidationError: every attempt fails (backoff" in text
        assert (
            "[quarantined] never: ValidationError: every attempt fails "
            "(after 2 attempts)\n"
        ) in text

    def test_cached_rerun_journals_cache_hits_not_units(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        store = ResultStore(tmp_path / "cache")
        plan = small_plan()
        ParallelExecutor(RunContext(workers=1, store=store)).run(plan)
        ParallelExecutor(RunContext(workers=1, store=store, trace=journal)).run(plan)
        records = read_journal(journal)
        hits = [r for r in records if r["event"] == "cache_hit"]
        assert len(hits) == len(plan)
        assert not [r for r in records if r["event"] == "unit_submitted"]
        scan = [r for r in records if r["event"] == "scan_finish"]
        assert scan[0]["pending"] == 0 and scan[0]["cached"] == len(plan)

    def test_trace_file_accumulates_runs_by_run_id(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        plan = small_plan()
        ParallelExecutor(RunContext(workers=1, trace=journal)).run(plan)
        ParallelExecutor(RunContext(workers=1, trace=journal)).run(plan)
        run_ids = {record["run_id"] for record in read_journal(journal)}
        assert len(run_ids) == 2

    def test_env_var_turns_tracing_on(self, tmp_path, monkeypatch):
        journal = tmp_path / "env.jsonl"
        monkeypatch.setenv("REPRO_TRACE_FILE", str(journal))
        ParallelExecutor(RunContext(workers=1)).run(small_plan())
        assert journal_events(journal, "run_finish")

    def test_read_journal_rejects_bad_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=r"bad\.jsonl:1:"):
            read_journal(path)
        path.write_text('["array", "not", "object"]\n', encoding="utf-8")
        with pytest.raises(ValidationError, match="must be JSON objects"):
            read_journal(path)
        path.write_text(
            '{"event": "made_up", "run_id": "x", "t": 0.0}\n', encoding="utf-8"
        )
        with pytest.raises(ValidationError, match="made_up"):
            read_journal(path)
        path.write_text('{"run_id": "x", "t": 0.0}\n', encoding="utf-8")
        with pytest.raises(ValidationError, match=r"bad\.jsonl:1:"):
            read_journal(path)


# ----------------------------------------------------------------------
# Metrics: live aggregate vs replay from the journal alone
# ----------------------------------------------------------------------


class TestMetrics:
    def test_outcome_always_carries_a_metrics_aggregate(self):
        outcome = ParallelExecutor(RunContext(workers=1)).run(small_plan())
        assert isinstance(outcome.metrics, MetricsAggregate)
        assert outcome.metrics.cache_misses == len(outcome.plan)
        assert outcome.metrics.status == "ok"
        snapshot = outcome.metrics.as_dict()
        json.dumps(snapshot)  # JSON-ready, no numpy leakage
        assert snapshot["schema_version"] == 6

    def test_replay_reproduces_the_live_aggregate(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        plan = small_plan()
        outcome = ParallelExecutor(
            RunContext(workers=1, chunk_size=2, trace=journal)
        ).run(plan)
        replayed = replay_metrics(read_journal(journal))
        live = outcome.metrics.as_dict()
        again = replayed.as_dict()
        assert again["events"] == live["events"]
        assert again["cache"] == live["cache"]
        assert again["faults"] == live["faults"]
        assert again["by_kind"] == live["by_kind"]
        assert again["by_backend"] == live["by_backend"]
        assert again["timing"] == live["timing"]
        assert again["solve_table"] == live["solve_table"]

    def test_summarize_journal_reports_runs_and_aggregate(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        outcome = ParallelExecutor(
            RunContext(workers=1, trace=journal)).run(small_plan()
        )
        summary = summarize_journal(journal)
        run_id = outcome.metrics.run_id
        assert run_id in summary["runs"]
        assert summary["runs"][run_id]["status"] == "ok"
        assert summary["aggregate"]["cache"] == outcome.metrics.as_dict()["cache"]
        text = render_summary(summary, fmt="text")
        assert "cell hits / misses" in text
        as_json = json.loads(render_summary(summary, fmt="json"))
        assert as_json["aggregate"]["events"] == summary["aggregate"]["events"]

    def test_solve_table_events_of_several_runs_sum(self):
        # Each run's event carries only that run's serves, so an
        # aggregate over runs adds them.  The entries and sidecar_loads
        # of older events are not carried over.
        metrics = MetricsAggregate()
        bus = RunTelemetry()
        bus.subscribe(metrics)
        counts = dict(
            hits=2, misses=1, ineligible=3, builds=1, rows_solved=4, rows_served=9
        )
        bus.emit("solve_table", cap=64, build_seconds=0.25, **counts)
        bus.emit(
            "solve_table", cap=64, entries=3, build_seconds=0.5, sidecar_loads=5,
            **counts,
        )
        aggregate = metrics.as_dict()
        assert aggregate["solve_table"] == {
            "cap": 64,
            **{name: 2 * value for name, value in counts.items()},
            "build_seconds": 0.75,
        }
        text = render_summary(
            {"journal": "j.jsonl", "runs": {}, "aggregate": aggregate, "slowest": []}
        )
        assert "rows solved        : 8  in 2 fill(s) (0.750s)" in text
        assert "sidecar" not in text

    def test_queue_wait_separates_wait_from_execute(self):
        metrics = MetricsAggregate()
        bus = RunTelemetry()
        bus.subscribe(metrics)
        bus.emit("unit_submitted", token="u1", attempt=1, backend="serial",
                 unit="cell", label="a", kind="StudyCell")
        time.sleep(0.02)
        bus.emit("unit_finished", token="u1", attempt=1, seconds=0.005,
                 backend="serial", unit="cell", label="a", kind="StudyCell")
        assert metrics.execute_seconds == pytest.approx(0.005)
        assert metrics.queue_wait_seconds > 0.0
        unit = metrics.units["u1"]
        assert unit["queue_wait_seconds"] > 0.01


# ----------------------------------------------------------------------
# Non-interference: tracing changes nothing but the journal
# ----------------------------------------------------------------------


def _cache_bytes(root: Path) -> dict[str, bytes]:
    """Cache entries re-pickled without their ``seconds`` timing field.

    Cache payloads have always carried the cell's wall-clock compute
    time, which no two runs reproduce — traced or not.  Everything
    else (tokens, layout, labels, result values) must be byte-for-byte
    identical between a traced and an untraced run.
    """
    entries: dict[str, bytes] = {}
    for path in sorted(root.rglob("*.pkl")):
        payload = pickle.loads(path.read_bytes())
        payload.pop("seconds", None)
        entries[str(path.relative_to(root))] = pickle.dumps(
            payload, protocol=pickle.HIGHEST_PROTOCOL
        )
    return entries


class TestBitIdentity:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        repetitions=st.integers(min_value=2, max_value=5),
        chunk_size=st.sampled_from([None, 2]),
    )
    @hyp_settings(max_examples=5, deadline=None)
    def test_tracing_never_changes_results_or_cache(
        self, tmp_path_factory, seed, repetitions, chunk_size
    ):
        tmp_path = tmp_path_factory.mktemp("bitid")
        plan = small_plan(repetitions=repetitions, seed=seed)
        store_off = ResultStore(tmp_path / "off")
        store_on = ResultStore(tmp_path / "on")
        plain = ParallelExecutor(
            RunContext(workers=1, store=store_off, chunk_size=chunk_size)
        ).run(plan)
        traced = ParallelExecutor(
            RunContext(
                workers=1,
                store=store_on,
                chunk_size=chunk_size,
                trace=tmp_path / "j.jsonl",
            )
        ).run(plan)
        for key in plain.results:
            assert_studies_equal(plain.results[key], traced.results[key])
        off_bytes = _cache_bytes(tmp_path / "off")
        on_bytes = _cache_bytes(tmp_path / "on")
        assert set(off_bytes) == set(on_bytes)  # same tokens, same layout
        assert off_bytes == on_bytes  # byte-identical entries


# ----------------------------------------------------------------------
# Chaos around a process pool: the failure path, journalled
# ----------------------------------------------------------------------


class TestChaosJournal:
    def test_chaos_over_a_process_pool_journals_every_fault(self, tmp_path, capsys):
        # Chaos wrapped around a process pool, traced end to end: every
        # executed unit shows a complete queued → finished span, every
        # injected fault that raises is a retry carrying its error, the
        # journal checks clean, and the summary reproduces the live
        # aggregate from disk alone.
        journal = tmp_path / "j.jsonl"
        plan = small_plan()
        backend = ChaosBackend(ProcessPoolBackend(2), seed=1, rate=1.0)
        outcome = ParallelExecutor(
            RunContext(backend=backend, max_retries=2, trace=journal)
        ).run(plan)
        reference = ParallelExecutor(RunContext(workers=1)).run(plan)
        for key in reference.results:
            assert_studies_equal(reference.results[key], outcome.results[key])

        records = read_journal(journal)
        injected = [r for r in records if r["event"] == "chaos_inject"]
        queued = [r for r in records if r["event"] == "unit_queued"]
        assert len(injected) == len(queued)  # rate=1.0: every unit faulted
        raising = {"before", "after", "drop"}
        expected_retries = sum(1 for r in injected if r["kind"] in raising)
        retries = [r for r in records if r["event"] == "retry"]
        assert len(retries) == expected_retries == outcome.retries
        failed = [r["error"] for r in records if r["event"] == "unit_failed"]
        assert [r["error"] for r in retries] == failed
        assert all(error.startswith("ChaosFault: injected") for error in failed)
        finished = [r for r in records if r["event"] == "unit_finished"]
        assert {r["token"] for r in finished} == {r["token"] for r in queued}
        summary = summarize_journal(journal, run_id=outcome.metrics.run_id)
        live = outcome.metrics.as_dict()
        for section in ("faults", "cache", "solve_table"):
            assert summary["aggregate"][section] == live[section], section
        assert main(["trace", "check", str(journal)]) == 0
        assert "schema-valid" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Every backend journals a complete, schema-valid record
# ----------------------------------------------------------------------


def traced_run(tmp_path, backend, plan=None, **context):
    """Run *plan* (default :func:`small_plan`) traced on *backend*."""
    journal = tmp_path / "j.jsonl"
    context.setdefault("max_retries", 1)
    outcome = ParallelExecutor(
        RunContext(
            backend=backend, workers=2, chunk_size=2, trace=journal, **context
        )
    ).run(plan or small_plan())
    return outcome, journal


class TestJournalAcrossBackends:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_trace_check_passes(self, tmp_path, backend, capsys):
        outcome, journal = traced_run(tmp_path, backend)
        assert outcome.backend == backend
        assert main(["trace", "check", str(journal)]) == 0
        assert "1 run(s)" in capsys.readouterr().out
        (start,) = journal_events(journal, "run_start")
        assert start["schema"] == TRACE_SCHEMA_VERSION == 6
        submitted = journal_events(journal, "unit_submitted")
        assert submitted
        assert {record["backend"] for record in submitted} == {backend}

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_replay_reproduces_the_live_aggregate(self, tmp_path, backend):
        outcome, journal = traced_run(tmp_path, backend)
        live = outcome.metrics.as_dict()
        again = replay_metrics(read_journal(journal)).as_dict()
        for section in (
            "events", "cache", "faults", "by_kind", "by_backend", "timing",
            "solve_table",
        ):
            assert again[section] == live[section], section

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_every_retry_carries_the_error_of_its_failed_attempt(
        self, tmp_path, backend
    ):
        plan = StudyPlan(
            settings=ExperimentSettings(repetitions=3, seed=0),
            cells=(
                FailOnceCell(
                    key=("once",), label="once", method="-",
                    marker=str(tmp_path / "failed-once"),
                ),
                study_cell("Wilson"),
            ),
            name="telemetry",
        )
        outcome, journal = traced_run(tmp_path, backend, plan=plan)
        assert outcome.retries == 1
        records = read_journal(journal)
        (failed,) = [r for r in records if r["event"] == "unit_failed"]
        (retry,) = [r for r in records if r["event"] == "retry"]
        assert records.index(failed) < records.index(retry)
        assert retry["error"] == failed["error"] == (
            "ValidationError: first attempt fails"
        )
        assert (retry["label"], retry["attempt"], retry["max_attempts"]) == (
            "once", 2, 2,
        )


class TestSchema:
    def test_worker_event_types_are_gone(self):
        assert EVENT_TYPES.isdisjoint(REMOVED_EVENT_TYPES)
        aggregate = MetricsAggregate().as_dict()
        assert "worker_spans" not in aggregate
        assert set(aggregate["faults"]) == {
            "failed_attempts", "retries", "quarantined", "chaos_injections",
        }

    @pytest.mark.parametrize("event", REMOVED_EVENT_TYPES)
    def test_a_journal_with_a_worker_event_fails_the_check(
        self, tmp_path, event, capsys
    ):
        # A schema-5 detached-worker journal no longer validates.
        _, journal = traced_run(tmp_path, "serial")
        with journal.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps({"event": event, "run_id": "x", "t": 0.0}) + "\n")
        with pytest.raises(ValidationError, match=event):
            read_journal(journal)
        assert main(["trace", "check", str(journal)]) == 1
        assert event in capsys.readouterr().err

    def test_the_solve_table_event_has_no_entries_count(self, tmp_path):
        _, journal = traced_run(tmp_path, "serial")
        (table,) = journal_events(journal, "solve_table")
        assert "entries" not in table
        assert table["hits"] + table["misses"] > 0


# ----------------------------------------------------------------------
# CLI: trace summarize / trace check / cache info
# ----------------------------------------------------------------------


class TestCli:
    @pytest.fixture()
    def journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        store = ResultStore(tmp_path / "cache")
        executor = ParallelExecutor(
            RunContext(workers=1, store=store, chunk_size=2, trace=path)
        )
        executor.run(small_plan())
        executor.run(small_plan())  # second run: all cache hits
        return path

    def test_trace_check_validates_a_journal(self, journal, capsys):
        assert main(["trace", "check", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "2 run(s)" in out and "schema-valid" in out

    def test_trace_check_fails_on_corruption(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("garbage\n", encoding="utf-8")
        assert main(["trace", "check", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_trace_summarize_text_and_json(self, journal, capsys):
        assert main(["trace", "summarize", str(journal)]) == 0
        text = capsys.readouterr().out
        assert "cell hits / misses : 2 / 2" in text
        assert main(["trace", "summarize", str(journal), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["aggregate"]["cache"]["hits"] == 2
        assert payload["aggregate"]["cache"]["misses"] == 2

    def test_trace_summarize_reports_rows_solved(self, tmp_path, capsys):
        # In-process units and a fresh store: the run's table solves rows.
        journal = tmp_path / "j.jsonl"
        ParallelExecutor(
            RunContext(
                workers=1, backend="serial", store=tmp_path / "cache", trace=journal
            )
        ).run(small_plan())
        rows = replay_metrics(read_journal(journal)).as_dict()["solve_table"]
        assert rows["rows_solved"] > 0
        assert main(["trace", "summarize", str(journal)]) == 0
        text = capsys.readouterr().out
        line = f"rows solved        : {rows['rows_solved']}  in {rows['builds']} fill"
        assert line in text

    def test_trace_summarize_filters_by_run_id(self, journal, capsys):
        # Journal order is chronological: run_ids[0] is the cold run.
        run_ids = list(dict.fromkeys(r["run_id"] for r in read_journal(journal)))
        assert main(
            ["trace", "summarize", str(journal), "--run-id", run_ids[0],
             "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload["runs"]) == [run_ids[0]]
        assert payload["aggregate"]["cache"]["hits"] == 0  # first run: cold

    def test_cache_info_reports_entries_and_groups(self, tmp_path, capsys):
        store = ResultStore(tmp_path / "cache")
        ParallelExecutor(RunContext(workers=1, store=store)).run(small_plan())
        assert main(["cache", "info", "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "entries          : 2" in out
        assert "shard entries    : 0" in out
        assert "solve table" not in out  # the result store only

    def test_cache_info_ignores_a_leftover_solvetable_directory(
        self, tmp_path, capsys
    ):
        # Earlier versions kept solve-table files in the store; they are
        # neither entries nor reported.
        store = ResultStore(tmp_path / "cache")
        ParallelExecutor(RunContext(workers=1, store=store)).run(small_plan())
        stale = tmp_path / "cache" / "solvetable"
        stale.mkdir()
        (stale / ("c" * 64 + ".npy")).write_bytes(b"x" * 7)
        assert main(["cache", "info", "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "entries          : 2" in out
        assert "solve table" not in out and "solvetable" not in out

    def test_cache_info_requires_a_directory(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["cache", "info"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_cache_info_reads_env_dir(self, tmp_path, monkeypatch, capsys):
        store = ResultStore(tmp_path / "cache")
        ParallelExecutor(RunContext(workers=1, store=store)).run(small_plan())
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["cache", "info"]) == 0
        assert "entries          : 2" in capsys.readouterr().out
