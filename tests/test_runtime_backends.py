"""Backend-stack tests: selection, bit-identity, cross-backend resume.

The contract under test is the tentpole guarantee of the scheduler /
backend split: an :class:`ExecutionBackend` changes *where* units of
work run and nothing else.  For the same plan, the serial, process-pool,
and spool backends produce bit-identical ``PlanOutcome.results`` under
arbitrary chunkings, cache tokens never depend on the backend, and a
run interrupted on one backend resumes on any other at the
finished-shard boundary.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.experiments.config import ExperimentSettings
from repro.runtime import (
    CellShard,
    CellSpec,
    CoverageCell,
    ExecutionBackend,
    ParallelExecutor,
    ProcessPoolBackend,
    ResultStore,
    RunContext,
    SerialBackend,
    SpoolBackend,
    StudyCell,
    StudyPlan,
    cache_token,
    kind_for,
    make_backend,
    register_cell_runner,
    shard_ranges,
    shard_token,
)


def study_cell(**overrides) -> StudyCell:
    base = dict(
        key=("NELL", "SRS", "Wilson"),
        label="NELL/SRS/Wilson",
        method="Wilson",
        dataset="NELL",
        strategy="SRS",
        seed_stream=(5,),
    )
    base.update(overrides)
    return StudyCell(**base)


def coverage_cell(**overrides) -> CoverageCell:
    base = dict(
        key=("cov", "Wilson"),
        label="cov/Wilson",
        method="Wilson",
        mu=0.8,
        n=25,
        seed=11,
        repetitions=12,
    )
    base.update(overrides)
    return CoverageCell(**base)


def plan_of(cells, repetitions=6, seed=0):
    settings = ExperimentSettings(repetitions=repetitions, seed=seed)
    return StudyPlan(settings=settings, cells=tuple(cells), name="backend-test")


def assert_results_equal(a, b) -> None:
    if hasattr(a, "estimates"):
        assert np.array_equal(a.triples, b.triples)
        assert np.array_equal(a.cost_hours, b.cost_hours)
        assert np.array_equal(a.estimates, b.estimates)
        assert np.array_equal(a.entities, b.entities)
        assert np.array_equal(a.converged, b.converged)
    else:
        assert a == b


class TestBackendSelection:
    @pytest.fixture(autouse=True)
    def _clear_backend_env(self, monkeypatch):
        # These tests probe the *selection* rules, so the suite-wide CI
        # env (e.g. the REPRO_BACKEND=spool leg) must not preempt them;
        # tests that want the env set it explicitly.
        monkeypatch.delenv("REPRO_BACKEND", raising=False)

    def test_auto_is_serial_at_one_worker(self):
        plan = plan_of([study_cell()])
        outcome = ParallelExecutor(RunContext(workers=1)).run(plan)
        assert outcome.backend == "serial"

    def test_auto_is_process_with_workers_and_work(self):
        plan = plan_of([study_cell(), coverage_cell()])
        outcome = ParallelExecutor(RunContext(workers=2)).run(plan)
        assert outcome.backend == "process"

    def test_auto_degrades_to_serial_for_single_unit(self):
        plan = plan_of([study_cell()])
        outcome = ParallelExecutor(RunContext(workers=4)).run(plan)
        assert outcome.backend == "serial"

    def test_env_backend_forces_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        plan = plan_of([study_cell(), coverage_cell()])
        outcome = ParallelExecutor(RunContext(workers=4)).run(plan)
        assert outcome.backend == "serial"

    def test_explicit_argument_beats_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_BACKEND", f"spool:{tmp_path / 'q'}")
        plan = plan_of([study_cell(), coverage_cell()])
        outcome = ParallelExecutor(RunContext(workers=2, backend="serial")).run(plan)
        assert outcome.backend == "serial"

    def test_invalid_backend_fails_at_construction(self, monkeypatch):
        with pytest.raises(ValidationError):
            RunContext(backend="teleport")
        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        with pytest.raises(ValidationError):
            RunContext()

    def test_env_read_when_unconfigured(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "process")
        assert RunContext().backend == "process"
        monkeypatch.delenv("REPRO_BACKEND")
        assert RunContext().backend is None

    def test_make_backend_parses_specs(self, tmp_path):
        assert isinstance(make_backend("serial"), SerialBackend)
        pool = make_backend("process:3")
        assert isinstance(pool, ProcessPoolBackend)
        assert pool.workers == 3
        spool = make_backend(f"spool:{tmp_path / 'q'}")
        assert isinstance(spool, SpoolBackend)
        with pytest.raises(ValidationError):
            make_backend("bogus")

    def test_spool_without_directory_fails(self, monkeypatch):
        monkeypatch.delenv("REPRO_SPOOL_DIR", raising=False)
        plan = plan_of([study_cell()])
        with pytest.raises(ValidationError):
            ParallelExecutor(RunContext(backend="spool")).run(plan)

    def test_spool_directory_from_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SPOOL_DIR", str(tmp_path / "q"))
        plan = plan_of([study_cell()])
        outcome = ParallelExecutor(RunContext(backend="spool")).run(plan)
        assert outcome.backend == "spool"
        assert outcome.cache_misses == 1


class TestBackendBitIdentity:
    @given(
        seed=st.integers(0, 2**16),
        repetitions=st.integers(2, 5),
        chunk_process=st.integers(1, 8),
        chunk_spool=st.integers(1, 8),
    )
    @hyp_settings(max_examples=5, deadline=None)
    def test_property_three_backends_any_chunking(
        self, seed, repetitions, chunk_process, chunk_spool
    ):
        # The acceptance property: for the same StudyPlan, the serial,
        # process-pool, and spool backends produce bit-identical
        # results under arbitrary (and different!) chunkings.
        plan = plan_of(
            [study_cell(), coverage_cell(repetitions=None)],
            repetitions=repetitions,
            seed=seed,
        )
        serial = ParallelExecutor(RunContext(workers=1, backend="serial")).run(plan)
        process = ParallelExecutor(
            RunContext(workers=2, backend="process", chunk_size=chunk_process)
        ).run(plan)
        with tempfile.TemporaryDirectory() as spool_dir:
            spool = ParallelExecutor(
                RunContext(
                    workers=1, backend=f"spool:{spool_dir}", chunk_size=chunk_spool
                )
            ).run(plan)
        assert serial.results.keys() == process.results.keys() == spool.results.keys()
        for key in serial.results:
            assert_results_equal(serial.results[key], process.results[key])
            assert_results_equal(serial.results[key], spool.results[key])

    def test_spool_matches_serial_on_multi_cell_grid(self, tmp_path):
        plan = plan_of([study_cell(), coverage_cell()], repetitions=5)
        serial = ParallelExecutor(RunContext(workers=1)).run(plan)
        spool = ParallelExecutor(
            RunContext(backend=SpoolBackend(tmp_path / "q"), chunk_size=2)
        ).run(plan)
        for key in serial.results:
            assert_results_equal(serial.results[key], spool.results[key])


class TestCrossBackendResume:
    def test_cache_tokens_are_backend_independent(self, tmp_path):
        # A store populated under one backend must be a full cache hit
        # under every other: the token has no backend input at all.
        plan = plan_of([study_cell(), coverage_cell()], repetitions=4)
        store = ResultStore(tmp_path / "cache")
        first = ParallelExecutor(
            RunContext(backend=SpoolBackend(tmp_path / "q"), store=store)
        ).run(plan)
        assert first.cache_misses == len(plan)
        for backend in ("serial", "process"):
            again = ParallelExecutor(
                RunContext(workers=2, backend=backend, store=store)
            ).run(plan)
            assert again.cache_hits == len(plan), backend
            for key in first.results:
                assert_results_equal(first.results[key], again.results[key])

    def test_interrupted_on_one_backend_resumes_on_another(self, tmp_path):
        # Interruption model: a sharded cell finished only some of its
        # windows (persisted one by one) before the run died.  The
        # resume — on a *different* backend — must recompute only the
        # missing windows and merge to the uninterrupted result.
        store = ResultStore(tmp_path / "cache")
        settings = ExperimentSettings(repetitions=10, seed=3)
        cell = study_cell()
        plan = StudyPlan(settings=settings, cells=(cell,), name="resume")
        ranges = shard_ranges(10, 3)
        shards = [
            CellShard(
                cell=cell, index=i, shards=len(ranges), rep_start=a, rep_stop=b
            )
            for i, (a, b) in enumerate(ranges)
        ]
        group = cache_token(cell, settings)
        for shard in (shards[0], shards[2]):  # non-contiguous subset
            value = kind_for(cell).run(cell, settings, shard.rep_range)
            store.save(
                shard_token(shard, settings, 10),
                {"value": value, "label": shard.label, "seconds": 1.0},
                group=group,
            )

        resumed = ParallelExecutor(
            RunContext(backend=SpoolBackend(tmp_path / "q"), store=store, chunk_size=3)
        ).run(plan)
        entry = resumed.cells[0]
        assert entry.shards == 4
        assert entry.shards_cached == 2
        assert not entry.cached  # two shards actually computed

        reference = ParallelExecutor(RunContext(workers=1)).run(plan)
        assert_results_equal(reference.results[cell.key], resumed.results[cell.key])

    def test_spool_run_killed_mid_plan_resumes_serially(self, tmp_path):
        # Whole-cell granularity: a spool run that completed a prefix
        # of the grid resumes serially from the store.
        plan = plan_of([study_cell(), coverage_cell()], repetitions=4)
        store = ResultStore(tmp_path / "cache")
        prefix = StudyPlan(
            settings=plan.settings, cells=plan.cells[:1], name="prefix"
        )
        ParallelExecutor(
            RunContext(backend=SpoolBackend(tmp_path / "q"), store=store)
        ).run(prefix)
        resumed = ParallelExecutor(
            RunContext(workers=1, backend="serial", store=store)
        ).run(plan)
        assert resumed.cache_hits == 1
        assert resumed.cache_misses == 1


@dataclass(frozen=True)
class FailingCell(CellSpec):
    pass


@register_cell_runner(FailingCell)
def _run_failing_cell(cell, settings, rep_range):
    raise ValidationError("intentional failure")


class TestSpoolMechanics:
    def test_spool_sweeps_its_files_after_a_run(self, tmp_path):
        spool_dir = tmp_path / "q"
        plan = plan_of([study_cell(), coverage_cell()], repetitions=4)
        ParallelExecutor(
            RunContext(backend=SpoolBackend(spool_dir), chunk_size=2)
        ).run(plan)
        assert list((spool_dir / "tasks").iterdir()) == []
        assert list((spool_dir / "claimed").iterdir()) == []
        assert list((spool_dir / "results").iterdir()) == []

    def test_task_error_propagates_to_the_run(self, tmp_path):
        from repro.runtime import PlanExecutionError

        cell = FailingCell(key=("boom",), label="boom", method="-")
        plan = plan_of([cell])
        with pytest.raises(PlanExecutionError, match="intentional failure") as info:
            ParallelExecutor(
                RunContext(backend=SpoolBackend(tmp_path / "q"), max_retries=0)
            ).run(plan)
        # The abort carries the failure record, cause included.
        (failure,) = info.value.failures
        assert failure.label == "boom"
        assert "ValidationError" in failure.error
        # The failed run swept its spool files on close.
        assert list((tmp_path / "q" / "tasks").iterdir()) == []

    def test_unpicklable_task_runs_inline(self, tmp_path):
        # A cell class defined locally cannot pickle, so it could never
        # reach another process under ANY backend; the spool degrades
        # to inline execution for exactly those units.
        @dataclass(frozen=True)
        class LocalCell(CellSpec):
            pass

        @register_cell_runner(LocalCell)
        def _run_local(cell, settings, rep_range):
            return ("ran", cell.key)

        cell = LocalCell(key=("local",), label="local", method="-")
        plan = plan_of([cell])
        outcome = ParallelExecutor(
            RunContext(backend=SpoolBackend(tmp_path / "q"))
        ).run(plan)
        assert outcome.results[("local",)] == ("ran", ("local",))
        assert list((tmp_path / "q" / "tasks").iterdir()) == []

    def test_corrupt_task_file_is_poisoned_not_fatal(self, tmp_path):
        spool_dir = tmp_path / "q"
        (spool_dir / "tasks").mkdir(parents=True)
        (spool_dir / "tasks" / "garbage-000000.task").write_bytes(b"not a pickle")
        plan = plan_of([study_cell()])
        outcome = ParallelExecutor(
            RunContext(backend=SpoolBackend(spool_dir))
        ).run(plan)
        assert outcome.cache_misses == 1
        # The foreign file is back in the queue for a claimant that can
        # read it; this run's own files are swept.
        leftovers = [p.name for p in (spool_dir / "tasks").iterdir()]
        assert leftovers == ["garbage-000000.task"]

    def test_stale_claims_are_reclaimed(self, tmp_path):
        # A worker that leased a task and died must not hang the run:
        # once the lease goes stale the scheduler returns the task to
        # the queue and (participating) executes it itself.  Driven
        # through the backend directly so the "crashed worker" claim is
        # deterministic rather than a race against participation.
        import os
        import time as _time

        spool_dir = tmp_path / "q"
        backend = SpoolBackend(spool_dir, reclaim_seconds=0.2, poll_interval=0.02)
        settings = ExperimentSettings(repetitions=3, seed=0)
        cell = study_cell()
        backend.open(workers=1, tasks=1, settings=settings)
        try:
            future = backend.submit(CellShard(cell), settings)
            task_file = next((spool_dir / "tasks").glob("*.task"))
            claimed = spool_dir / "claimed" / task_file.name
            os.rename(task_file, claimed)  # the crashed worker's lease
            stale = _time.time() - 60.0
            os.utime(claimed, (stale, stale))

            ready, rest = backend.wait_any({future})
            assert ready == {future} and rest == set()
            value, seconds = future.result()
        finally:
            backend.close()
        plan = StudyPlan(settings=settings, cells=(cell,), name="reclaim")
        reference = ParallelExecutor(RunContext(workers=1)).run(plan)
        assert_results_equal(reference.results[cell.key], value)


@dataclass(frozen=True)
class UnpicklableResultCell(CellSpec):
    pass


@register_cell_runner(UnpicklableResultCell)
def _run_unpicklable_result(cell, settings, rep_range):
    return lambda: None  # a value no process boundary could carry


class TestSpoolResultEdgeCases:
    def test_unpicklable_result_surfaces_as_spool_task_error(self, tmp_path):
        from repro.runtime import PlanExecutionError

        cell = UnpicklableResultCell(key=("lam",), label="lam", method="-")
        plan = plan_of([cell])
        with pytest.raises(PlanExecutionError, match="unpicklable result") as info:
            ParallelExecutor(
                RunContext(backend=SpoolBackend(tmp_path / "q"), max_retries=0)
            ).run(plan)
        (failure,) = info.value.failures
        assert "SpoolTaskError" in failure.error


class TestDefaultWaitAny:
    def test_base_wait_any_polls_until_done(self):
        # The protocol's default wait primitive: poll done() with a
        # short sleep — what a minimal third-party backend inherits.
        from repro.runtime import BackendFuture

        class CountdownFuture(BackendFuture):
            def __init__(self, polls):
                self._polls = polls

            def done(self):
                self._polls -= 1
                return self._polls <= 0

            def result(self):
                return ("ok", 0.0)

        class MinimalBackend(ExecutionBackend):
            name = "minimal"

            def submit(self, task, settings):  # pragma: no cover - unused
                raise NotImplementedError

        fast, slow = CountdownFuture(1), CountdownFuture(3)
        backend = MinimalBackend()
        ready, rest = backend.wait_any({fast, slow})
        assert ready == {fast} and rest == {slow}
        ready, rest = backend.wait_any(rest)
        assert ready == {slow} and rest == set()


class TestCustomBackendProtocol:
    def test_backend_instance_injection_and_lifecycle(self):
        # Any ExecutionBackend implementation slots in: this recording
        # backend delegates to the serial one and logs the lifecycle.
        events = []

        class RecordingBackend(ExecutionBackend):
            name = "recording"

            def __init__(self):
                self._inner = SerialBackend()

            def open(self, workers, tasks, settings, telemetry=None):
                super().open(workers, tasks, settings, telemetry)
                events.append(("open", workers, tasks, telemetry is not None))
                self._inner.open(workers, tasks, settings, telemetry)

            def close(self):
                events.append(("close",))
                self._inner.close()
                super().close()

            def submit(self, task, settings):
                events.append(("submit", type(task).__name__))
                return self._inner.submit(task, settings)

            def wait_any(self, outstanding):
                return self._inner.wait_any(outstanding)

        plan = plan_of([study_cell(), coverage_cell()], repetitions=4)
        backend = RecordingBackend()
        outcome = ParallelExecutor(
            RunContext(workers=3, backend=backend, chunk_size=2)
        ).run(plan)
        assert outcome.backend == "recording"
        assert events[0] == ("open", 3, 8, True)  # 2 reps-shards + 6 cov-shards
        assert events[-1] == ("close",)
        assert backend.telemetry is None  # the run's bus is detached on close
        assert [e for e in events if e[0] == "submit"] == [
            ("submit", "CellShard")
        ] * 8
        reference = ParallelExecutor(RunContext(workers=1)).run(plan)
        for key in reference.results:
            assert_results_equal(reference.results[key], outcome.results[key])
