"""Run telemetry: the event bus, journal sink, metrics, and CLI digests.

The contract under test is two-sided.  *Completeness*: a traced run's
journal narrates every executed unit queued → submitted → finished
(worker-side spans included when the work crossed a spool), and the
in-memory aggregate can be reproduced from the journal alone.
*Non-interference*: tracing on or off changes no result bytes, cache
entries, or tokens — telemetry is strictly observational.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
import threading
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
    ResultStore,
    RunTelemetry,
    SpoolBackend,
    StudyCell,
    StudyPlan,
    TelemetryEvent,
    read_journal,
    register_cell_runner,
    render_summary,
    replay_metrics,
    run_worker,
    summarize_journal,
)
from repro.runtime.backends.spool import _claim
from repro.runtime.telemetry import resolve_trace_file


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
        ParallelExecutor(workers=1, chunk_size=2, trace=journal).run(plan)
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

    def test_cached_rerun_journals_cache_hits_not_units(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        store = ResultStore(tmp_path / "cache")
        plan = small_plan()
        ParallelExecutor(workers=1, store=store).run(plan)
        ParallelExecutor(workers=1, store=store, trace=journal).run(plan)
        records = read_journal(journal)
        hits = [r for r in records if r["event"] == "cache_hit"]
        assert len(hits) == len(plan)
        assert not [r for r in records if r["event"] == "unit_submitted"]
        scan = [r for r in records if r["event"] == "scan_finish"]
        assert scan[0]["pending"] == 0 and scan[0]["cached"] == len(plan)

    def test_trace_file_accumulates_runs_by_run_id(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        plan = small_plan()
        ParallelExecutor(workers=1, trace=journal).run(plan)
        ParallelExecutor(workers=1, trace=journal).run(plan)
        run_ids = {record["run_id"] for record in read_journal(journal)}
        assert len(run_ids) == 2

    def test_env_var_turns_tracing_on(self, tmp_path, monkeypatch):
        journal = tmp_path / "env.jsonl"
        monkeypatch.setenv("REPRO_TRACE_FILE", str(journal))
        ParallelExecutor(workers=1).run(small_plan())
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
        outcome = ParallelExecutor(workers=1).run(small_plan())
        assert isinstance(outcome.metrics, MetricsAggregate)
        assert outcome.metrics.cache_misses == len(outcome.plan)
        assert outcome.metrics.status == "ok"
        snapshot = outcome.metrics.as_dict()
        json.dumps(snapshot)  # JSON-ready, no numpy leakage
        assert snapshot["schema_version"] == 2

    def test_replay_reproduces_the_live_aggregate(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        plan = small_plan()
        outcome = ParallelExecutor(workers=1, chunk_size=2, trace=journal).run(plan)
        replayed = replay_metrics(read_journal(journal))
        live = outcome.metrics.as_dict()
        again = replayed.as_dict()
        assert again["events"] == live["events"]
        assert again["cache"] == live["cache"]
        assert again["faults"] == live["faults"]
        assert again["by_kind"] == live["by_kind"]
        assert again["by_backend"] == live["by_backend"]
        assert again["timing"] == live["timing"]

    def test_summarize_journal_reports_runs_and_aggregate(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        outcome = ParallelExecutor(workers=1, trace=journal).run(small_plan())
        summary = summarize_journal(journal)
        run_id = outcome.metrics.run_id
        assert run_id in summary["runs"]
        assert summary["runs"][run_id]["status"] == "ok"
        assert summary["aggregate"]["cache"] == outcome.metrics.as_dict()["cache"]
        text = render_summary(summary, fmt="text")
        assert "cell hits / misses" in text
        as_json = json.loads(render_summary(summary, fmt="json"))
        assert as_json["aggregate"]["events"] == summary["aggregate"]["events"]

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
            workers=1, store=store_off, chunk_size=chunk_size
        ).run(plan)
        traced = ParallelExecutor(
            workers=1,
            store=store_on,
            chunk_size=chunk_size,
            trace=tmp_path / "j.jsonl",
        ).run(plan)
        for key in plain.results:
            assert_studies_equal(plain.results[key], traced.results[key])
        off_bytes = _cache_bytes(tmp_path / "off")
        on_bytes = _cache_bytes(tmp_path / "on")
        assert set(off_bytes) == set(on_bytes)  # same tokens, same layout
        assert off_bytes == on_bytes  # byte-identical entries


# ----------------------------------------------------------------------
# Worker-side spans, dead letters, chaos — the distributed story
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class UnclaimableCell(CellSpec):
    """Submitted but never executed: tests bury it via stale-lease
    reclaim before any worker answers."""


@register_cell_runner(UnclaimableCell)
def _run_unclaimable(cell, settings):  # pragma: no cover - never reached
    raise AssertionError("should be buried before execution")


class TestWorkerSpans:
    def test_in_process_worker_stamps_spans_into_the_journal(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        spool_dir = tmp_path / "q"
        worker = threading.Thread(
            target=run_worker,
            kwargs=dict(root=spool_dir, poll_interval=0.01, idle_timeout=1.0),
        )
        worker.start()
        try:
            backend = SpoolBackend(spool_dir, participate=False)
            outcome = ParallelExecutor(backend=backend, trace=journal).run(
                small_plan()
            )
        finally:
            worker.join(timeout=30)
        assert outcome.backend == "spool"
        spans = journal_events(journal, "worker_span")
        assert len(spans) == len(outcome.plan)
        for span in spans:
            assert span["pid"] == os.getpid()  # in-process thread worker
            assert span["host"]
            assert span["execute_seconds"] >= 0.0
            assert span["claim_latency"] >= 0.0
            assert span["deliveries"] == 0
        assert len(outcome.metrics.worker_spans) == len(spans)

    def test_dead_letter_is_journaled_with_reclaims(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        root = tmp_path / "q"
        sink = JsonlTraceSink(journal)
        bus = RunTelemetry()
        bus.subscribe(sink)
        backend = SpoolBackend(
            root, participate=False, reclaim_seconds=0.0, redeliver_cap=1
        )
        backend.telemetry = bus
        settings = ExperimentSettings(repetitions=1, seed=0)
        backend.open(workers=1, tasks=1, settings=settings)
        future = backend.submit(
            UnclaimableCell(key=("lost",), label="lost", method="-"), settings
        )
        task_id = future.task_id
        for _ in range(2):  # one reclaim under cap, then burial
            claimed = _claim(root, root / "tasks" / f"{task_id}.task")
            assert claimed is not None
            stale = time.time() - 60.0
            os.utime(claimed, (stale, stale))
            backend._reclaim_stale({future})
        assert future.done()  # reads the burial result, emits dead_letter
        backend.close()
        backend.telemetry = None
        bus.close()
        reclaims = journal_events(journal, "lease_reclaim")
        assert len(reclaims) == 2
        assert all(r["task_id"] == task_id for r in reclaims)
        dead = journal_events(journal, "dead_letter")
        assert len(dead) == 1
        assert dead[0]["task_id"] == task_id
        assert dead[0]["label"] == "lost"
        assert "redelivery cap" in dead[0]["reason"]
        replayed = replay_metrics(read_journal(journal))
        assert replayed.dead_letters == 1
        assert replayed.lease_reclaims == 2

    def test_chaos_over_spool_with_detached_worker(self, tmp_path):
        # The acceptance scenario: chaos wrapped around a spool served
        # by a *real* detached `python -m repro worker` interpreter,
        # traced end to end.  Every executed unit must show a complete
        # queued → finished span, worker-side spans must carry the
        # foreign worker's pid, and the injected faults must surface as
        # chaos_inject + retry events.
        journal = tmp_path / "j.jsonl"
        spool_dir = tmp_path / "q"
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
        worker = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "worker",
                str(spool_dir),
                "--poll",
                "0.02",
                "--idle-timeout",
                "10",
                "--quiet",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            plan = small_plan()
            backend = ChaosBackend(
                SpoolBackend(spool_dir, participate=False), seed=1, rate=1.0
            )
            outcome = ParallelExecutor(
                backend=backend, max_retries=2, trace=journal
            ).run(plan)
        finally:
            out, err = worker.communicate(timeout=60)
        assert worker.returncode == 0, err
        reference = ParallelExecutor(workers=1).run(plan)
        for key in reference.results:
            assert_studies_equal(reference.results[key], outcome.results[key])

        records = read_journal(journal)
        injected = [r for r in records if r["event"] == "chaos_inject"]
        assert len(injected) == len(plan)  # rate=1.0: every unit faulted
        spans = [r for r in records if r["event"] == "worker_span"]
        assert spans, "no worker-side spans reached the journal"
        assert all(span["pid"] != os.getpid() for span in spans)
        # Faults that raise get retried; the journal shows the loop.
        raising = {"before", "after", "drop"}
        expected_retries = sum(
            1 for r in injected if r["kind"] in raising
        )
        retries = [r for r in records if r["event"] == "retry"]
        assert len(retries) == expected_retries
        assert outcome.retries == expected_retries
        # Completeness despite the chaos: every finished unit has its
        # queued and submitted events, and attempts line up.
        finished = [r for r in records if r["event"] == "unit_finished"]
        assert {r["token"] for r in finished} == {
            r["token"] for r in records if r["event"] == "unit_queued"
        }
        # The summarizer reproduces the live aggregate from disk alone.
        summary = summarize_journal(journal, run_id=outcome.metrics.run_id)
        assert summary["aggregate"]["faults"] == outcome.metrics.as_dict()["faults"]
        assert summary["aggregate"]["cache"] == outcome.metrics.as_dict()["cache"]


# ----------------------------------------------------------------------
# CLI: trace summarize / trace check / cache info
# ----------------------------------------------------------------------


class TestCli:
    @pytest.fixture()
    def journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        store = ResultStore(tmp_path / "cache")
        executor = ParallelExecutor(workers=1, store=store, chunk_size=2, trace=path)
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
        ParallelExecutor(workers=1, store=store).run(small_plan())
        assert main(["cache", "info", "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "entries          : 2" in out
        assert "shard entries    : 0" in out

    def test_cache_info_requires_a_directory(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["cache", "info"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_cache_info_reads_env_dir(self, tmp_path, monkeypatch, capsys):
        store = ResultStore(tmp_path / "cache")
        ParallelExecutor(workers=1, store=store).run(small_plan())
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["cache", "info"]) == 0
        assert "entries          : 2" in capsys.readouterr().out
