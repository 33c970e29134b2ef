"""Executor tests: parallel-vs-serial determinism, caching, resume."""

from __future__ import annotations

import threading
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
from repro.experiments.table3 import table3_plan
from repro.intervals.base import use_solve_table
from repro.intervals.table import (
    TableTally,
    peek_tables,
    reset_shared_tables,
    shared_table,
)
from repro.runtime import (
    CellShard,
    CellSpec,
    CoverageCell,
    ParallelExecutor,
    ResultStore,
    RunContext,
    StudyCell,
    StudyPlan,
    cache_token,
    execute,
    read_journal,
    register_cell_runner,
    use_context,
)
from repro.runtime.backends import run_task


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
        serial = ParallelExecutor(RunContext(workers=1)).run(plan)
        parallel = ParallelExecutor(RunContext(workers=4)).run(plan)
        assert serial.results.keys() == parallel.results.keys()
        for key in serial.results:
            assert_studies_equal(serial.results[key], parallel.results[key])

    @given(seed=st.integers(0, 2**16), repetitions=st.integers(2, 5))
    @hyp_settings(max_examples=5, deadline=None)
    def test_property_any_seed_and_size(self, seed, repetitions):
        # Property form of the guarantee: whatever the base seed and
        # repetition count, fan-out over processes never changes a bit.
        plan = small_plan(seed=seed, repetitions=repetitions, datasets=("YAGO",))
        serial = ParallelExecutor(RunContext(workers=1)).run(plan)
        parallel = ParallelExecutor(RunContext(workers=2)).run(plan)
        for key in serial.results:
            assert_studies_equal(serial.results[key], parallel.results[key])

    def test_outcome_order_is_plan_order(self):
        plan = small_plan()
        outcome = ParallelExecutor(RunContext(workers=4)).run(plan)
        assert tuple(entry.cell.key for entry in outcome.cells) == tuple(
            cell.key for cell in plan.cells
        )


class TestResultStoreIntegration:
    def test_second_run_served_from_cache(self, tmp_path):
        plan = small_plan()
        executor = ParallelExecutor(RunContext(workers=1, store=tmp_path / "cache"))
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
        ParallelExecutor(RunContext(workers=1, store=store)).run(interrupted)
        assert len(store) == 3

        resumed = ParallelExecutor(RunContext(workers=2, store=store)).run(plan)
        assert resumed.cache_hits == 3
        assert resumed.cache_misses == len(plan) - 3

        reference = ParallelExecutor(RunContext(workers=1)).run(plan)
        for key in reference.results:
            assert_studies_equal(reference.results[key], resumed.results[key])

    def test_corrupt_entry_recomputes(self, tmp_path):
        plan = small_plan()
        store = ResultStore(tmp_path / "cache")
        executor = ParallelExecutor(RunContext(workers=1, store=store))
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
        executor = ParallelExecutor(RunContext(workers=1, store=store))
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
        ParallelExecutor(RunContext(workers=1, store=store)).run(plan)
        changed = small_plan(repetitions=4)
        outcome = ParallelExecutor(RunContext(workers=1, store=store)).run(changed)
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
        ParallelExecutor(RunContext(workers=1, store=store, chunk_size=1)).run(plan)
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
        serial = ParallelExecutor(RunContext(workers=1, backend="serial")).run(plan)
        serial_wall = time.perf_counter() - t0
        t0 = time.perf_counter()
        parallel = ParallelExecutor(RunContext(workers=3, backend="process")).run(plan)
        parallel_wall = time.perf_counter() - t0
        assert serial.results == parallel.results
        assert parallel_wall < serial_wall / 1.5

    def test_custom_cell_runner_dispatch(self):
        settings = ExperimentSettings(repetitions=1)
        cell = SleepCell(key=("x",), label="x", method="-", duration=0.0)
        plan = StudyPlan(settings=settings, cells=(cell,), name="one")
        outcome = ParallelExecutor(RunContext(workers=1)).run(plan)
        assert outcome.results[("x",)] == ("x",)


def coverage_plan() -> StudyPlan:
    """Two coverage cells: their units only draw, their merges solve."""
    cells = tuple(
        CoverageCell(
            key=(method,), label=f"coverage/{method}", method=method,
            mu=0.9, n=40, seed=7,
        )
        for method in ("Wilson", "aHPD")
    )
    return StudyPlan(
        settings=ExperimentSettings(repetitions=20, seed=0),
        cells=cells,
        name="coverage",
    )


def srs_plan() -> StudyPlan:
    """The NELL SRS cells of :func:`small_plan`: their solves are table-eligible."""
    plan = small_plan(datasets=("NELL",))
    return StudyPlan(
        settings=plan.settings,
        cells=tuple(cell for cell in plan.cells if cell.strategy == "SRS"),
        name="srs",
    )


def table_counts(outcome) -> dict:
    """The run's solve-table counters, without the timing."""
    counts = dict(outcome.metrics.as_dict()["solve_table"])
    del counts["build_seconds"]
    return counts


def table_event(journal) -> dict:
    (event,) = [r for r in read_journal(journal) if r["event"] == "solve_table"]
    return event


class TestSolveTable:
    """Runs share one in-memory table and journal only their own serves."""

    def test_rows_a_merge_solves_are_counted_by_the_run(self):
        # Pool workers run the units; each merge solves its cell's
        # observed outcomes in the scheduler, in one fill.
        outcome = execute(
            coverage_plan(), context=RunContext(workers=2, backend="process")
        )
        table = outcome.metrics.as_dict()["solve_table"]
        assert (table["hits"], table["misses"], table["builds"]) == (0, 2, 2)
        assert table["rows_solved"] == table["rows_served"] > 0

    def test_runs_with_a_store_write_no_tables_to_it(self, tmp_path):
        srs = srs_plan()
        runs = (
            ("serial", srs, 1, "serial"),
            ("pool", srs, 2, "process"),
            ("merge", coverage_plan(), 1, "serial"),
        )
        for name, plan, workers, backend in runs:
            root = tmp_path / name
            outcome = execute(
                plan,
                context=RunContext(store=root, workers=workers, backend=backend),
            )
            assert ResultStore(root).stats()["cells"]["entries"] == len(plan)
            if backend == "serial":
                assert outcome.metrics.as_dict()["solve_table"]["rows_solved"] > 0
            assert not (root / "solvetable").exists()

    def test_overlapping_runs_journal_only_their_own_serves(self, tmp_path):
        # TWCS evidence is never table-eligible, so each run's counts do
        # not depend on which run reaches the shared table first.
        plan = table3_plan(
            ExperimentSettings(repetitions=2, seed=0, datasets=("NELL",)),
            strategies=("TWCS",),
        )

        def run(name: str, barrier=None) -> dict:
            if barrier is not None:
                barrier.wait(timeout=60)
            journal = tmp_path / f"{name}.jsonl"
            execute(
                plan,
                context=RunContext(
                    workers=1, backend="serial", chunk_size=2, trace=journal
                ),
            )
            return table_event(journal)

        counts = ("hits", "misses", "ineligible", "builds", "rows_solved", "rows_served")
        lone = run("lone")
        assert [lone[name] for name in counts] == [0, 0, 205, 0, 0, 0]
        barrier = threading.Barrier(2)
        with ThreadPoolExecutor(max_workers=2) as pool:
            overlapping = list(pool.map(lambda name: run(name, barrier), "ab"))
        for event in overlapping:
            assert {name: event[name] for name in counts} == {
                name: lone[name] for name in counts
            }
        (table,) = peek_tables()
        assert table["ineligible"] == 3 * 205

    def test_results_are_bit_identical_with_the_table_on_and_off(self):
        for plan in (srs_plan(), coverage_plan()):
            on = execute(plan, context=RunContext(workers=1, backend="serial"))
            off = execute(
                plan, context=RunContext(workers=1, backend="serial", solve_table=0)
            )
            assert table_counts(on)["rows_served"] > 0
            assert on.results.keys() == off.results.keys()
            for key, result in on.results.items():
                if isinstance(result, StudyResult):
                    assert_studies_equal(result, off.results[key])
                else:
                    assert result == off.results[key]

    def test_a_warm_table_serves_the_next_run_whatever_its_store(self, tmp_path):
        plan = srs_plan()
        # One window per cell, whatever REPRO_CHUNK_* say: both runs
        # make the same serves.
        context = dict(workers=1, backend="serial", chunk_size=3)
        cold = execute(plan, context=RunContext(store=tmp_path / "a", **context))
        warm = execute(plan, context=RunContext(store=tmp_path / "b", **context))
        cold_counts, warm_counts = table_counts(cold), table_counts(warm)
        assert cold_counts["rows_solved"] > 0
        assert (warm_counts["misses"], warm_counts["builds"]) == (0, 0)
        assert warm_counts["rows_solved"] == 0
        assert warm_counts["hits"] == cold_counts["hits"] + cold_counts["misses"]
        assert warm_counts["rows_served"] == cold_counts["rows_served"]
        for key in cold.results:
            assert_studies_equal(cold.results[key], warm.results[key])

    def test_a_disabled_table_journals_nothing_and_registers_no_table(
        self, tmp_path
    ):
        journal = tmp_path / "j.jsonl"
        execute(
            srs_plan(),
            context=RunContext(
                workers=1, backend="serial", solve_table=0, trace=journal
            ),
        )
        assert [r for r in read_journal(journal) if r["event"] == "solve_table"] == []
        assert peek_tables() == []

    def test_a_leftover_solvetable_directory_is_never_read(self, tmp_path):
        # Earlier versions kept table rows in <store>/solvetable/.  A run
        # over such a store solves exactly the rows a run over a fresh
        # store does, and leaves the old files as they were.
        plan = srs_plan()
        context = dict(workers=1, backend="serial", chunk_size=3)
        fresh = execute(plan, context=RunContext(store=tmp_path / "new", **context))
        reset_shared_tables()
        stale = tmp_path / "old" / "solvetable"
        stale.mkdir(parents=True)
        files = {
            f"v3-{'a' * 64}.npy": b"\x93NUMPY stale rows",
            f"v3-{'a' * 64}.labels.json": b"[]",
        }
        for name, data in files.items():
            (stale / name).write_bytes(data)
        old = execute(plan, context=RunContext(store=tmp_path / "old", **context))
        assert table_counts(old) == table_counts(fresh)
        assert table_counts(old)["rows_solved"] > 0
        assert {path.name: path.read_bytes() for path in stale.iterdir()} == files

    @pytest.mark.parametrize("cap, caps", [("1024", [1024]), ("0", [])])
    def test_a_unit_with_no_ambient_table_uses_the_env_cap(
        self, monkeypatch, cap, caps
    ):
        # Spawned and detached workers carry no run context: run_task
        # installs the process-wide table for REPRO_SOLVE_TABLE.
        monkeypatch.setenv("REPRO_SOLVE_TABLE", cap)
        plan = srs_plan()
        run_task(CellShard(plan.cells[0]), plan.settings)
        tables = peek_tables()
        assert [stats["cap"] for stats in tables] == caps
        assert all(stats["rows_solved"] > 0 for stats in tables)

    def test_a_unit_serves_through_the_ambient_table(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOLVE_TABLE", "1024")
        plan = srs_plan()
        tally = TableTally(shared_table(2048))
        with use_solve_table(tally):
            run_task(CellShard(plan.cells[0]), plan.settings)
        (table,) = peek_tables()
        assert table["cap"] == 2048
        assert tally.stats()["rows_solved"] == table["rows_solved"] > 0


class TestConfiguration:
    def test_env_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert RunContext().workers == 3
        monkeypatch.delenv("REPRO_WORKERS")
        assert RunContext().workers == 1

    def test_env_cache_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        context = RunContext()
        assert context.store is not None
        assert context.store.root == tmp_path / "c"

    def test_invalid_workers(self):
        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError):
            RunContext(workers=0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ParallelExecutor(),
            lambda: ParallelExecutor(workers=2),
            lambda: ParallelExecutor("not a context"),
        ],
        ids=["no-context", "keywords", "not-a-context"],
    )
    def test_a_run_context_is_the_only_way_in(self, make):
        with pytest.raises(TypeError):
            make()

    def test_progress_callback(self):
        plan = small_plan(datasets=("YAGO",))
        seen = []
        executor = ParallelExecutor(RunContext(workers=1, progress=seen.append))
        executor.run(plan)
        finished = [e.fields for e in seen if e.event == "cell_finished"]
        assert [fields["done"] for fields in finished] == list(
            range(1, len(plan) + 1)
        )
        assert all(fields["total"] == len(plan) for fields in finished)

    def test_summary_mentions_cells_and_cache(self, tmp_path):
        plan = small_plan(datasets=("YAGO",))
        executor = ParallelExecutor(RunContext(workers=1, store=tmp_path / "cache"))
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
