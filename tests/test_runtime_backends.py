"""Backend-stack tests: selection, bit-identity, cross-backend resume.

The contract under test is the tentpole guarantee of the scheduler /
backend split: an :class:`ExecutionBackend` changes *where* units of
work run and nothing else.  For the same plan, the serial and
process-pool backends produce bit-identical ``PlanOutcome.results``
under arbitrary chunkings, cache tokens never depend on the backend,
and a run interrupted on one backend resumes on any other at the
finished-shard boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.experiments.config import ExperimentSettings
from repro.runtime import (
    BackendFuture,
    CellShard,
    CellSpec,
    ChaosBackend,
    CoverageCell,
    ExecutionBackend,
    ParallelExecutor,
    PlanExecutionError,
    ProcessPoolBackend,
    ResultStore,
    RunContext,
    SerialBackend,
    StudyCell,
    StudyPlan,
    cache_token,
    kind_for,
    make_backend,
    register_cell_runner,
    shard_ranges,
    shard_token,
)

#: Every backend spec that executes units: the two transports and the
#: fault-injecting wrapper around each.
BACKENDS = ("serial", "process", "chaos:serial", "chaos:process")


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


@dataclass(frozen=True)
class FailingCell(CellSpec):
    pass


@register_cell_runner(FailingCell)
def _run_failing_cell(cell, settings, rep_range):
    raise ValidationError("intentional failure")


@dataclass(frozen=True)
class UnpicklableResultCell(CellSpec):
    pass


@register_cell_runner(UnpicklableResultCell)
def _run_unpicklable_result(cell, settings, rep_range):
    return lambda: None  # a value no process boundary could carry


def local_cell_type():
    """A cell class defined in a function: it cannot pickle, so no unit
    of it can reach another process."""

    @dataclass(frozen=True)
    class LocalCell(CellSpec):
        pass

    @register_cell_runner(LocalCell)
    def _run_local(cell, settings, rep_range):
        return ("ran", cell.key)

    return LocalCell


class TestBackendSelection:
    @pytest.fixture(autouse=True)
    def _clear_backend_env(self, monkeypatch):
        # These tests probe the *selection* rules, so the suite-wide CI
        # env (e.g. the chaos job's REPRO_BACKEND) must not preempt
        # them; tests that want the env set it explicitly.
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

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "process")
        plan = plan_of([study_cell(), coverage_cell()])
        outcome = ParallelExecutor(RunContext(workers=2, backend="serial")).run(plan)
        assert outcome.backend == "serial"

    def test_invalid_backend_fails_at_construction(self, monkeypatch):
        with pytest.raises(ValidationError, match="chaos, process, serial"):
            RunContext(backend="teleport:/tmp/q")
        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        with pytest.raises(ValidationError):
            RunContext()

    def test_env_read_when_unconfigured(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "process")
        assert RunContext().backend == "process"
        monkeypatch.delenv("REPRO_BACKEND")
        assert RunContext().backend is None

    def test_make_backend_parses_specs(self):
        assert isinstance(make_backend("serial"), SerialBackend)
        pool = make_backend("process:3")
        assert isinstance(pool, ProcessPoolBackend)
        assert pool.workers == 3
        with pytest.raises(ValidationError):
            make_backend("bogus")

    @pytest.mark.parametrize(
        "spec, kind",
        [
            (" Serial ", SerialBackend),
            ("PROCESS:2", ProcessPoolBackend),
            ("Chaos:serial", ChaosBackend),
        ],
    )
    def test_spec_names_ignore_case_and_padding(self, spec, kind):
        assert isinstance(make_backend(spec), kind)
        assert RunContext(backend=spec).backend == spec

    def test_a_backend_instance_passes_through_untouched(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "process")
        instance = SerialBackend()
        assert RunContext(backend=instance).backend is instance
        plan = plan_of([study_cell(), coverage_cell()])
        outcome = ParallelExecutor(RunContext(workers=2, backend=instance)).run(plan)
        assert outcome.backend == "serial"


class TestBackendBitIdentity:
    @given(
        seed=st.integers(0, 2**16),
        repetitions=st.integers(2, 5),
        chunk_serial=st.one_of(st.none(), st.integers(1, 8)),
        chunk_process=st.integers(1, 8),
    )
    @hyp_settings(max_examples=5, deadline=None)
    def test_property_serial_and_process_any_chunking(
        self, seed, repetitions, chunk_serial, chunk_process
    ):
        # The acceptance property: for the same StudyPlan, the serial
        # and process-pool backends produce bit-identical results under
        # arbitrary (and different!) chunkings.
        plan = plan_of(
            [study_cell(), coverage_cell(repetitions=None)],
            repetitions=repetitions,
            seed=seed,
        )
        serial = ParallelExecutor(
            RunContext(workers=1, backend="serial", chunk_size=chunk_serial)
        ).run(plan)
        process = ParallelExecutor(
            RunContext(workers=2, backend="process", chunk_size=chunk_process)
        ).run(plan)
        assert serial.results.keys() == process.results.keys()
        for key in serial.results:
            assert_results_equal(serial.results[key], process.results[key])

    @pytest.mark.parametrize("backend", [b for b in BACKENDS if b != "serial"])
    def test_matches_serial_on_multi_cell_grid(self, backend):
        plan = plan_of([study_cell(), coverage_cell()], repetitions=5)
        serial = ParallelExecutor(RunContext(workers=1)).run(plan)
        other = ParallelExecutor(
            RunContext(workers=2, backend=backend, chunk_size=2, max_retries=1)
        ).run(plan)
        assert other.backend == backend
        assert other.failures == ()
        for key in serial.results:
            assert_results_equal(serial.results[key], other.results[key])


class TestUnitFailures:
    """A unit's failure reaches the run the same way on every transport."""

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_task_error_propagates_to_the_run(self, backend):
        cell = FailingCell(key=("boom",), label="boom", method="-")
        plan = plan_of([cell, study_cell()])
        with pytest.raises(PlanExecutionError, match="intentional failure") as info:
            ParallelExecutor(
                RunContext(workers=2, backend=backend, max_retries=0)
            ).run(plan)
        # The abort carries the failure record, cause included.
        (failure,) = info.value.failures
        assert failure.label == "boom"
        assert failure.backend == backend
        assert failure.error == "ValidationError: intentional failure"
        assert "intentional failure" in failure.traceback

    def test_a_local_cell_type_runs_in_process(self):
        # No process boundary: the serial backend runs units that could
        # never pickle.
        LocalCell = local_cell_type()
        plan = plan_of([LocalCell(key=("local",), label="local", method="-")])
        outcome = ParallelExecutor(RunContext(backend="serial")).run(plan)
        assert outcome.results[("local",)] == ("ran", ("local",))

    def test_an_unpicklable_unit_fails_on_the_pool_without_hanging(self):
        LocalCell = local_cell_type()
        plan = plan_of([LocalCell(key=(k,), label=k, method="-") for k in "ab"])
        with pytest.raises(PlanExecutionError, match="pickle") as info:
            ParallelExecutor(
                RunContext(workers=2, backend="process", max_retries=0)
            ).run(plan)
        failure = info.value.failures[-1]
        assert failure.backend == "process"
        assert failure.error.startswith("AttributeError: Can't pickle local object")

    def test_an_unpicklable_result_fails_its_unit_on_the_pool(self):
        cell = UnpicklableResultCell(key=("lam",), label="lam", method="-")
        plan = plan_of([cell, study_cell()])
        with pytest.raises(PlanExecutionError, match="pickle") as info:
            ParallelExecutor(
                RunContext(workers=2, backend="process", max_retries=0)
            ).run(plan)
        (failure,) = info.value.failures
        assert failure.label == "lam"
        # The worker's traceback crossed the boundary with the error.
        assert "Can't pickle local object" in failure.traceback

    def test_an_unpicklable_result_is_quarantined_under_continue(self):
        cell = UnpicklableResultCell(key=("lam",), label="lam", method="-")
        plan = plan_of([cell, study_cell()])
        outcome = ParallelExecutor(
            RunContext(
                workers=2, backend="process", max_retries=0, on_error="continue"
            )
        ).run(plan)
        assert [failure.label for failure in outcome.failures] == ["lam"]
        assert list(outcome.results) == [study_cell().key]
        reference = ParallelExecutor(RunContext(workers=1)).run(
            plan_of([study_cell()])
        )
        assert_results_equal(
            reference.results[study_cell().key], outcome.results[study_cell().key]
        )


class TestPoolLifecycle:
    @pytest.mark.parametrize(
        "pinned, workers, tasks, size",
        [(None, 4, 1, 1), (None, 2, 5, 2), (3, 1, 5, 3)],
    )
    def test_the_pool_is_sized_to_the_work(self, pinned, workers, tasks, size):
        # min(workers, tasks), where a "process:<n>" spec pins workers.
        backend = ProcessPoolBackend(pinned)
        backend.open(workers, tasks, ExperimentSettings(repetitions=2))
        try:
            assert backend._pool._max_workers == size
        finally:
            backend.close()
        assert backend._pool is None

    def test_close_shuts_the_pool_down_after_a_failed_run(self):
        backend = ProcessPoolBackend(2)
        cell = FailingCell(key=("boom",), label="boom", method="-")
        with pytest.raises(PlanExecutionError):
            ParallelExecutor(
                RunContext(backend=backend, max_retries=0)
            ).run(plan_of([cell, study_cell()]))
        assert backend._pool is None
        assert backend.telemetry is None

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_one_backend_instance_serves_consecutive_runs(self, backend):
        instance = make_backend(backend)
        plan = plan_of([study_cell(), coverage_cell()], repetitions=3)
        reference = ParallelExecutor(RunContext(workers=1)).run(plan)
        for _ in range(2):
            outcome = ParallelExecutor(
                RunContext(workers=2, backend=instance, chunk_size=2)
            ).run(plan)
            assert outcome.backend == backend
            for key in reference.results:
                assert_results_equal(reference.results[key], outcome.results[key])


class TestCrossBackendResume:
    def test_cache_tokens_are_backend_independent(self, tmp_path):
        # A store populated under one backend must be a full cache hit
        # under every other: the token has no backend input at all.
        plan = plan_of([study_cell(), coverage_cell()], repetitions=4)
        store = ResultStore(tmp_path / "cache")
        first = ParallelExecutor(
            RunContext(workers=2, backend="process", store=store)
        ).run(plan)
        assert first.cache_misses == len(plan)
        for backend in ("serial", "chaos:serial"):
            again = ParallelExecutor(
                RunContext(workers=2, backend=backend, store=store)
            ).run(plan)
            assert again.cache_hits == len(plan), backend
            for key in first.results:
                assert_results_equal(first.results[key], again.results[key])

    @pytest.mark.parametrize("first", [b for b in BACKENDS if b != "process"])
    def test_a_store_filled_on_any_backend_serves_the_pool(self, tmp_path, first):
        plan = plan_of([study_cell(), coverage_cell()], repetitions=4)
        store = ResultStore(tmp_path / "cache")
        filled = ParallelExecutor(
            RunContext(workers=2, backend=first, store=store, max_retries=1)
        ).run(plan)
        assert filled.cache_misses == len(plan)
        again = ParallelExecutor(
            RunContext(workers=2, backend="process", store=store)
        ).run(plan)
        assert again.cache_hits == len(plan)
        for key in filled.results:
            assert_results_equal(filled.results[key], again.results[key])

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
            RunContext(workers=2, backend="process", store=store, chunk_size=3)
        ).run(plan)
        entry = resumed.cells[0]
        assert entry.shards == 4
        assert entry.shards_cached == 2
        assert not entry.cached  # two shards actually computed

        reference = ParallelExecutor(RunContext(workers=1)).run(plan)
        assert_results_equal(reference.results[cell.key], resumed.results[cell.key])

    def test_pool_run_killed_mid_plan_resumes_serially(self, tmp_path):
        # Whole-cell granularity: a process-pool run that completed a
        # prefix of the grid resumes serially from the store.
        plan = plan_of([study_cell(), coverage_cell()], repetitions=4)
        store = ResultStore(tmp_path / "cache")
        prefix = StudyPlan(
            settings=plan.settings, cells=plan.cells[:1], name="prefix"
        )
        ParallelExecutor(
            RunContext(workers=2, backend="process", store=store)
        ).run(prefix)
        resumed = ParallelExecutor(
            RunContext(workers=1, backend="serial", store=store)
        ).run(plan)
        assert resumed.cache_hits == 1
        assert resumed.cache_misses == 1


class TestAbstractProtocol:
    def test_a_backend_must_define_submit_and_wait_any(self):
        # No polling default: every backend says how it waits.
        class NoWait(ExecutionBackend):
            def submit(self, task, settings):  # pragma: no cover - unused
                raise NotImplementedError

        with pytest.raises(TypeError, match="wait_any"):
            NoWait()

        class NoSubmit(ExecutionBackend):
            def wait_any(self, outstanding):  # pragma: no cover - unused
                raise NotImplementedError

        with pytest.raises(TypeError, match="submit"):
            NoSubmit()

    def test_a_future_must_define_done_and_result(self):
        class NoResult(BackendFuture):
            def done(self):  # pragma: no cover - unused
                return True

        with pytest.raises(TypeError, match="result"):
            NoResult()


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
