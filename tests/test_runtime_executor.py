"""Executor tests: parallel-vs-serial determinism, caching, resume."""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from repro.evaluation.runner import StudyResult
from repro.experiments.config import ExperimentSettings
from repro.runtime import (
    CellSpec,
    ParallelExecutor,
    ResultStore,
    RunContext,
    StudyCell,
    StudyPlan,
    cache_token,
    execute,
    register_cell_runner,
    use_context,
)


def small_plan(
    seed: int = 0,
    repetitions: int = 3,
    datasets: tuple[str, ...] = ("YAGO", "NELL"),
) -> StudyPlan:
    """A small but heterogeneous grid: 2 datasets x 2 strategies x 2 methods."""
    settings = ExperimentSettings(repetitions=repetitions, seed=seed)
    cells = []
    for di, dataset in enumerate(datasets):
        for si, strategy in enumerate(("SRS", "TWCS:3")):
            for method in ("Wilson", "aHPD"):
                cells.append(
                    StudyCell(
                        key=(dataset, strategy, method),
                        label=f"{dataset}/{strategy}/{method}",
                        method=method,
                        dataset=dataset,
                        strategy=strategy,
                        seed_stream=(100 + 10 * di + si,),
                    )
                )
    return StudyPlan(settings=settings, cells=tuple(cells), name="test-grid")


def assert_studies_equal(a: StudyResult, b: StudyResult) -> None:
    assert a.label == b.label
    assert np.array_equal(a.triples, b.triples)
    assert np.array_equal(a.cost_hours, b.cost_hours)
    assert np.array_equal(a.estimates, b.estimates)
    assert np.array_equal(a.entities, b.entities)
    assert np.array_equal(a.converged, b.converged)


class TestParallelSerialDeterminism:
    def test_four_workers_bit_identical(self):
        plan = small_plan()
        serial = ParallelExecutor(workers=1).run(plan)
        parallel = ParallelExecutor(workers=4).run(plan)
        assert serial.results.keys() == parallel.results.keys()
        for key in serial.results:
            assert_studies_equal(serial.results[key], parallel.results[key])

    @given(seed=st.integers(0, 2**16), repetitions=st.integers(2, 5))
    @hyp_settings(max_examples=5, deadline=None)
    def test_property_any_seed_and_size(self, seed, repetitions):
        # Property form of the guarantee: whatever the base seed and
        # repetition count, fan-out over processes never changes a bit.
        plan = small_plan(seed=seed, repetitions=repetitions, datasets=("YAGO",))
        serial = ParallelExecutor(workers=1).run(plan)
        parallel = ParallelExecutor(workers=2).run(plan)
        for key in serial.results:
            assert_studies_equal(serial.results[key], parallel.results[key])

    def test_outcome_order_is_plan_order(self):
        plan = small_plan()
        outcome = ParallelExecutor(workers=4).run(plan)
        assert tuple(entry.cell.key for entry in outcome.cells) == tuple(
            cell.key for cell in plan.cells
        )


class TestResultStoreIntegration:
    def test_second_run_served_from_cache(self, tmp_path):
        plan = small_plan()
        executor = ParallelExecutor(workers=1, store=tmp_path / "cache")
        first = executor.run(plan)
        second = executor.run(plan)
        assert first.cache_misses == len(plan)
        assert first.cache_hits == 0
        assert second.cache_hits == len(plan)
        assert second.cache_misses == 0
        for key in first.results:
            assert_studies_equal(first.results[key], second.results[key])

    def test_resume_after_interrupt(self, tmp_path):
        # Interruption model: only a prefix of the grid completed (each
        # cell is persisted the moment it finishes, so a kill leaves
        # exactly this state).  The re-run must recompute only the
        # missing cells and agree with an uninterrupted run.
        plan = small_plan()
        store = ResultStore(tmp_path / "cache")
        interrupted = StudyPlan(
            settings=plan.settings, cells=plan.cells[:3], name="prefix"
        )
        ParallelExecutor(workers=1, store=store).run(interrupted)
        assert len(store) == 3

        resumed = ParallelExecutor(workers=2, store=store).run(plan)
        assert resumed.cache_hits == 3
        assert resumed.cache_misses == len(plan) - 3

        reference = ParallelExecutor(workers=1).run(plan)
        for key in reference.results:
            assert_studies_equal(reference.results[key], resumed.results[key])

    def test_corrupt_entry_recomputes(self, tmp_path):
        plan = small_plan()
        store = ResultStore(tmp_path / "cache")
        executor = ParallelExecutor(workers=1, store=store)
        executor.run(plan)
        token = cache_token(plan.cells[0], plan.settings)
        store._path(token).write_bytes(b"not a pickle")
        with pytest.warns(RuntimeWarning, match="unreadable cache entry"):
            outcome = executor.run(plan)
        assert outcome.cache_misses == 1
        assert outcome.cache_hits == len(plan) - 1

    @pytest.mark.parametrize(
        "corruption",
        [
            pytest.param(b"not a pickle", id="garbage"),
            pytest.param(None, id="truncated"),
            pytest.param(b"cno_such_module\nNoClass\n.", id="unimportable"),
        ],
    )
    def test_unreadable_entry_warns_with_the_path_and_heals(
        self, tmp_path, corruption
    ):
        # Every flavour of rot — garbage bytes, a truncated write from
        # a crashed foreign (pre-atomic) writer, a payload class that
        # no longer imports — is a miss that names the sick file, and
        # the recompute overwrites it with a loadable entry.
        plan = small_plan()
        store = ResultStore(tmp_path / "cache")
        executor = ParallelExecutor(workers=1, store=store)
        executor.run(plan)
        token = cache_token(plan.cells[0], plan.settings)
        path = store._path(token)
        if corruption is None:
            path.write_bytes(path.read_bytes()[:20])
        else:
            path.write_bytes(corruption)
        with pytest.warns(RuntimeWarning, match="will recompute") as captured:
            assert store.load(token) is None
        assert any(str(path) in str(w.message) for w in captured)
        with pytest.warns(RuntimeWarning):
            outcome = executor.run(plan)
        assert outcome.cache_misses == 1
        # Healed: the overwritten entry loads cleanly again.
        payload = store.load(token)
        assert payload is not None
        assert_studies_equal(
            payload["value"], outcome.results[plan.cells[0].key]
        )

    def test_missing_entry_is_a_silent_miss(self, tmp_path):
        # FileNotFoundError is the ordinary cold-cache path — it must
        # stay warning-free or every fresh run would spam stderr.
        import warnings as _warnings

        store = ResultStore(tmp_path / "cache")
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            assert store.load("ab" + "0" * 62) is None

    def test_settings_change_misses(self, tmp_path):
        plan = small_plan(repetitions=3)
        store = ResultStore(tmp_path / "cache")
        ParallelExecutor(workers=1, store=store).run(plan)
        changed = small_plan(repetitions=4)
        outcome = ParallelExecutor(workers=1, store=store).run(changed)
        assert outcome.cache_hits == 0

    def test_store_utilities(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        assert len(store) == 0
        store.save("ab" + "0" * 62, {"value": 1})
        assert store.contains("ab" + "0" * 62)
        assert store.load("ab" + "0" * 62) == {"value": 1}
        assert store.discard("ab" + "0" * 62)
        assert not store.discard("ab" + "0" * 62)
        store.save("cd" + "0" * 62, {"value": 2})
        assert store.clear() == 1
        assert len(store) == 0


class TestStorePruning:
    """Consolidation must leave no empty-directory skeletons behind."""

    @staticmethod
    def _dirs(root):
        return sorted(
            str(path.relative_to(root))
            for path in root.rglob("*")
            if path.is_dir()
        )

    def test_discard_prunes_empty_prefix_dir(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        store.save("ab" + "0" * 62, {"value": 1})
        store.save("ab" + "1" * 62, {"value": 2})
        store.save("cd" + "0" * 62, {"value": 3})
        store.discard("ab" + "0" * 62)
        assert self._dirs(store.root) == ["ab", "cd"]  # ab still holds one
        store.discard("ab" + "1" * 62)
        assert self._dirs(store.root) == ["cd"]

    def test_discard_grouped_entry_prunes_group_chain(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        group = "ef" + "0" * 62
        store.save("ab" + "0" * 62, {"value": 1}, group=group)
        store.discard("ab" + "0" * 62, group=group)
        # shards/<prefix>/<group> all emptied and swept.
        assert self._dirs(store.root) == []

    def test_discard_many_removes_and_prunes_once(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        tokens = ["ab" + f"{i}" * 62 for i in range(3)]
        for i, token in enumerate(tokens):
            store.save(token, {"value": i})
        assert store.discard_many(tokens + ["cd" + "0" * 62]) == 3
        assert len(store) == 0
        assert self._dirs(store.root) == []

    def test_discard_group_leaves_no_skeleton(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        group = "ef" + "0" * 62
        store.save("ab" + "0" * 62, {"value": 1}, group=group)
        store.save("ab" + "1" * 62, {"value": 2}, group=group)
        assert store.discard_group(group) == 2
        assert self._dirs(store.root) == []
        assert store.discard_group(group) == 0  # idempotent

    def test_clear_sweeps_empty_directories(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        store.save("ab" + "0" * 62, {"value": 1})
        store.save("cd" + "0" * 62, {"value": 2}, group="ef" + "0" * 62)
        assert store.clear() == 2
        assert store.root.exists()
        assert self._dirs(store.root) == []

    def test_sharded_run_leaves_only_merged_entries(self, tmp_path):
        # End to end: after consolidation the store holds exactly the
        # merged cell files and their prefix dirs — no shards/ tree.
        store = ResultStore(tmp_path / "cache")
        plan = small_plan(datasets=("YAGO",))
        ParallelExecutor(workers=1, store=store, chunk_size=1).run(plan)
        assert len(store) == len(plan)
        assert not (store.root / "shards").exists()


@dataclass(frozen=True)
class SleepCell(CellSpec):
    """Test-only cell: sleeps, then returns its key (pure wall-clock)."""

    duration: float = 0.1


@register_cell_runner(SleepCell)
def _run_sleep_cell(cell: SleepCell, settings, rep_range) -> tuple:
    time.sleep(cell.duration)
    return cell.key


class TestExecutionOverlap:
    def test_parallel_overlaps_cells(self):
        # Sleeping cells release the CPU, so overlap shows even on a
        # single-core machine: 6 x 0.15s serially is ~0.9s, but three
        # workers finish in a third of that (plus pool start-up).
        # Backends are pinned explicitly so the timing comparison keeps
        # measuring serial-vs-pool even under a REPRO_BACKEND CI leg.
        settings = ExperimentSettings(repetitions=1)
        cells = tuple(
            SleepCell(key=(i,), label=f"sleep-{i}", method="-", duration=0.15)
            for i in range(6)
        )
        plan = StudyPlan(settings=settings, cells=cells, name="sleep")
        t0 = time.perf_counter()
        serial = ParallelExecutor(workers=1, backend="serial").run(plan)
        serial_wall = time.perf_counter() - t0
        t0 = time.perf_counter()
        parallel = ParallelExecutor(workers=3, backend="process").run(plan)
        parallel_wall = time.perf_counter() - t0
        assert serial.results == parallel.results
        assert parallel_wall < serial_wall / 1.5

    def test_custom_cell_runner_dispatch(self):
        settings = ExperimentSettings(repetitions=1)
        cell = SleepCell(key=("x",), label="x", method="-", duration=0.0)
        plan = StudyPlan(settings=settings, cells=(cell,), name="one")
        outcome = ParallelExecutor(workers=1).run(plan)
        assert outcome.results[("x",)] == ("x",)


class TestConfiguration:
    def test_env_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert ParallelExecutor().workers == 3
        monkeypatch.delenv("REPRO_WORKERS")
        assert ParallelExecutor().workers == 1

    def test_env_cache_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        executor = ParallelExecutor()
        assert executor.store is not None
        assert executor.store.root == tmp_path / "c"

    def test_invalid_workers(self):
        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError):
            ParallelExecutor(workers=0)

    def test_progress_callback(self):
        plan = small_plan(datasets=("YAGO",))
        seen = []
        executor = ParallelExecutor(
            workers=1, progress=lambda done, total, result: seen.append((done, total, result.cached))
        )
        executor.run(plan)
        assert [done for done, _, _ in seen] == list(range(1, len(plan) + 1))
        assert all(total == len(plan) for _, total, _ in seen)

    def test_summary_mentions_cells_and_cache(self, tmp_path):
        plan = small_plan(datasets=("YAGO",))
        executor = ParallelExecutor(workers=1, store=tmp_path / "cache")
        executor.run(plan)
        summary = executor.run(plan).summary()
        assert "4 cells" in summary
        assert "4 cached" in summary


class RecordingPool:
    """A solve pool that counts the runs that opened a channel on it."""

    def __init__(self):
        self.channels = 0

    @contextmanager
    def channel(self, telemetry):
        self.channels += 1
        yield None  # a None pool installs nothing: solves run directly


class TestUseContext:
    """``execute(plan)`` runs under the context ``use_context`` installed."""

    @pytest.fixture
    def ran_under(self, monkeypatch) -> list:
        """The context of every executor run, in order."""
        contexts = []
        run = ParallelExecutor.run

        def spy(executor, plan):
            contexts.append(executor.context)
            return run(executor, plan)

        monkeypatch.setattr(ParallelExecutor, "run", spy)
        return contexts

    @staticmethod
    def plan() -> StudyPlan:
        cell = SleepCell(key=("x",), label="x", method="-", duration=0.0)
        return StudyPlan(
            settings=ExperimentSettings(repetitions=1), cells=(cell,), name="one"
        )

    def test_execute_runs_under_installed_context(self, ran_under):
        pool = RecordingPool()
        ctx = RunContext(workers=2, backend="serial", max_retries=1, solve_pool=pool)
        with use_context(ctx):
            outcome = execute(self.plan())
        (seen,) = ran_under
        assert seen.describe() == ctx.describe()
        assert seen.solve_pool is pool
        assert pool.channels == 1
        assert outcome.workers == 2 and outcome.backend == "serial"

    def test_explicit_context_beats_installed(self, ran_under):
        installed = RunContext(workers=1, backend="serial")
        explicit = RunContext(workers=1, backend="serial", max_retries=2)
        with use_context(installed):
            execute(self.plan(), context=explicit)
        assert ran_under == [explicit]

    def test_env_fallback_after_block_and_in_new_thread(self, ran_under, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        with use_context(RunContext(workers=1, backend="serial", max_retries=2)):
            with ThreadPoolExecutor(max_workers=1) as pool:
                pool.submit(execute, self.plan()).result()
        execute(self.plan())
        assert [ctx.workers for ctx in ran_under] == [3, 3]
        assert all(ctx.describe() == RunContext().describe() for ctx in ran_under)
