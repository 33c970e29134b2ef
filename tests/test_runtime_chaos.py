"""Seeded fault injection proves the failure path.

The property pinned down here: for *any* seeded fault schedule, a run
under the suite's fault injector (:mod:`chaos`, the ``chaos`` backend
spec ``conftest.py`` registers) plus a retry policy produces
bit-identical results — and an identical result cache — to a
fault-free serial run.  Reproducibility extends through the failure
path.
"""

from __future__ import annotations

import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from chaos import FAULT_KINDS, ChaosBackend
from repro.exceptions import ValidationError
from repro.experiments.config import ExperimentSettings
from repro.runtime import (
    CellShard,
    ParallelExecutor,
    ProcessPoolBackend,
    RunContext,
    SerialBackend,
    StudyCell,
    StudyPlan,
    make_backend,
    unit_token,
)


def study_cell(method: str = "Wilson", seed_stream=(5,)) -> StudyCell:
    return StudyCell(
        key=("NELL", "SRS", method),
        label=f"NELL/SRS/{method}",
        method=method,
        dataset="NELL",
        strategy="SRS",
        seed_stream=seed_stream,
    )


def small_plan(repetitions: int = 3) -> StudyPlan:
    settings = ExperimentSettings(repetitions=repetitions, seed=0)
    return StudyPlan(
        settings=settings,
        cells=(study_cell("Wilson"), study_cell("aHPD")),
        name="chaos-test",
    )


def assert_studies_equal(a, b) -> None:
    assert np.array_equal(a.triples, b.triples)
    assert np.array_equal(a.estimates, b.estimates)
    assert np.array_equal(a.cost_hours, b.cost_hours)
    assert np.array_equal(a.converged, b.converged)


def cache_tokens(root) -> list[str]:
    """The token file names of a store — its content-address state."""
    return sorted(path.name for path in Path(root).rglob("*.pkl"))


class TestSpecParsing:
    """The ``chaos`` spec as the suite registers it."""

    def test_bare_chaos_wraps_serial(self):
        backend = make_backend("chaos")
        assert isinstance(backend, ChaosBackend)
        assert isinstance(backend.inner, SerialBackend)
        assert backend.name == "chaos:serial"

    def test_nested_spec_reaches_the_inner_backend(self):
        # Everything after the first colon is the inner spec, its own
        # argument included.
        backend = make_backend("chaos:process:2")
        assert isinstance(backend.inner, ProcessPoolBackend)
        assert backend.inner.workers == 2
        assert backend.name == "chaos:process"

    @pytest.mark.parametrize("inner", ["bogus", "teleport:/tmp/q"])
    def test_an_unknown_inner_spec_is_rejected(self, inner):
        with pytest.raises(ValidationError, match="chaos, process, serial"):
            make_backend(f"chaos:{inner}")


class TestFaultSchedule:
    def test_schedule_is_a_pure_function_of_seed_and_token(self):
        a = ChaosBackend(SerialBackend(), seed=7, rate=0.5)
        b = ChaosBackend(SerialBackend(), seed=7, rate=0.5)
        tokens = [f"token-{i}" for i in range(64)]
        assert [a.fault_for(t) for t in tokens] == [b.fault_for(t) for t in tokens]
        shifted = ChaosBackend(SerialBackend(), seed=8, rate=0.5)
        assert [a.fault_for(t) for t in tokens] != [
            shifted.fault_for(t) for t in tokens
        ]

    def test_rate_one_faults_every_unit_with_all_kinds(self):
        backend = ChaosBackend(SerialBackend(), seed=3, rate=1.0)
        kinds = {backend.fault_for(f"token-{i}") for i in range(256)}
        assert None not in kinds
        assert kinds == set(FAULT_KINDS)

    def test_rate_zero_injects_nothing(self):
        plan = small_plan()
        backend = ChaosBackend(SerialBackend(), seed=1, rate=0.0)
        outcome = ParallelExecutor(
            RunContext(backend=backend, max_retries=0, on_error="raise")
        ).run(plan)
        assert backend.injections == []
        assert outcome.retries == 0
        assert outcome.failures == ()
        assert outcome.backend == "chaos:serial"

    def test_retry_count_matches_the_predicted_schedule(self):
        # At rate=1.0 every unit is faulted exactly once; the faults
        # that fail ("before"/"after"/"drop", not "delay") each cost
        # exactly one retry — predictable from the schedule alone.
        plan = small_plan()
        backend = ChaosBackend(SerialBackend(), seed=11, rate=1.0)
        scheduled = [
            backend.fault_for(unit_token(CellShard(cell), plan.settings))
            for cell in plan.cells
        ]
        expected = sum(1 for kind in scheduled if kind != "delay")
        outcome = ParallelExecutor(
            RunContext(backend=backend, max_retries=2, on_error="raise")
        ).run(plan)
        assert outcome.retries == expected
        assert outcome.failures == ()
        # The injector's own record is the schedule, once per unit.
        assert [kind for kind, _, _ in backend.injections] == scheduled

    def test_unretried_chaos_fault_aborts_with_chaosfault_history(self):
        from repro.runtime import PlanExecutionError

        plan = small_plan()
        backend = ChaosBackend(SerialBackend(), seed=1, rate=1.0)
        failing = [
            cell
            for cell in plan.cells
            if backend.fault_for(unit_token(CellShard(cell), plan.settings)) != "delay"
        ]
        assert failing  # seed 1 chosen so at least one unit fails
        with pytest.raises(PlanExecutionError, match="injected") as info:
            ParallelExecutor(
                RunContext(backend=backend, max_retries=0, on_error="raise")
            ).run(plan)
        assert any("ChaosFault" in f.error for f in info.value.failures)

    def test_identical_seeds_reproduce_the_run_exactly(self):
        plan = small_plan()
        backends = [ChaosBackend(SerialBackend(), seed=5, rate=0.8) for _ in "ab"]
        first, second = (
            ParallelExecutor(RunContext(backend=backend, max_retries=3)).run(plan)
            for backend in backends
        )
        assert backends[0].injections == backends[1].injections
        assert first.retries == second.retries
        for key in first.results:
            assert_studies_equal(first.results[key], second.results[key])


class TestBitIdentityUnderChaos:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        rate=st.floats(min_value=0.0, max_value=0.6),
        chunk=st.sampled_from([None, 2]),
    )
    @hyp_settings(max_examples=8, deadline=None)
    def test_fault_schedules_preserve_results_and_cache_state(
        self, seed, rate, chunk
    ):
        # THE acceptance property: any seeded fault schedule, with
        # retries, yields byte-identical results and final cache state
        # to a fault-free serial run — sharded or not.
        plan = small_plan()
        with tempfile.TemporaryDirectory() as clean_dir, tempfile.TemporaryDirectory() as chaos_dir:
            reference = ParallelExecutor(
                RunContext(
                    workers=1,
                    backend=SerialBackend(),
                    store=clean_dir,
                    chunk_size=chunk,
                )
            ).run(plan)
            chaotic = ParallelExecutor(
                RunContext(
                    backend=ChaosBackend(SerialBackend(), seed=seed, rate=rate),
                    store=chaos_dir,
                    chunk_size=chunk,
                    max_retries=4,
                    on_error="raise",
                )
            ).run(plan)
            assert chaotic.failures == ()
            for key in reference.results:
                assert_studies_equal(reference.results[key], chaotic.results[key])
            # The cache converged to the same content-addressed state:
            # same tokens present, same values stored under each.
            assert cache_tokens(clean_dir) == cache_tokens(chaos_dir)
            for path in Path(clean_dir).rglob("*.pkl"):
                twin = Path(chaos_dir) / path.relative_to(clean_dir)
                a = pickle.loads(path.read_bytes())
                b = pickle.loads(twin.read_bytes())
                assert_studies_equal(a["value"], b["value"])

    def test_chaos_around_the_process_pool(self):
        # The spec string CI runs with: chaos:process, retries on.
        plan = small_plan()
        reference = ParallelExecutor(
            RunContext(workers=1, backend=SerialBackend())
        ).run(plan)
        chaotic = ParallelExecutor(
            RunContext(
                workers=2,
                backend=ChaosBackend("process:2", seed=4, rate=0.5),
                max_retries=3,
            )
        ).run(plan)
        assert chaotic.backend == "chaos:process"
        for key in reference.results:
            assert_studies_equal(reference.results[key], chaotic.results[key])
