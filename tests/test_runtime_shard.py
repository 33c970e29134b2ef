"""Repetition-sharding tests: planning, bit-identical merge, resume.

The contract under test is the one the executor's merge barrier relies
on: for ANY chunking of a shardable cell's repetitions — including the
degenerate chunking of one repetition per shard — reducing the in-order
shard payloads reproduces the unsharded result bit for bit, and cache
keys of the merged result do not depend on how it was chunked.
"""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from repro.evaluation.runner import StudyResult
from repro.exceptions import ValidationError
from repro.experiments.config import ExperimentSettings
from repro.runtime import (
    CellShard,
    CoverageCell,
    ParallelExecutor,
    PlanScheduler,
    ProgressReporter,
    ResultStore,
    RunContext,
    SequentialCoverageCell,
    StudyCell,
    StudyPlan,
    cache_token,
    kind_for,
    read_journal,
    shard_ranges,
    shard_token,
    unit_token,
)


from dataclasses import dataclass

from repro.runtime import CellSpec, register_cell_runner


@dataclass(frozen=True)
class PlainCell(CellSpec):
    """A cell whose kind registers a runner only: it never splits."""


@register_cell_runner(PlainCell)
def _run_plain(cell, settings, rep_range):
    return cell.key


@dataclass(frozen=True)
class UncountableCell(CellSpec):
    """A splittable kind whose repetition counter must never run unsplit."""


def _merge_uncountable(cell, settings, partials):
    return tuple(partials)


def _count_uncountable(cell, settings):
    raise AssertionError("an unsplit cell's repetition counter was called")


@register_cell_runner(
    UncountableCell, merge=_merge_uncountable, repetitions=_count_uncountable
)
def _run_uncountable(cell, settings, rep_range):
    return rep_range


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
        repetitions=40,
    )
    base.update(overrides)
    return CoverageCell(**base)


def assert_studies_equal(a: StudyResult, b: StudyResult) -> None:
    assert a.label == b.label
    assert np.array_equal(a.triples, b.triples)
    assert np.array_equal(a.cost_hours, b.cost_hours)
    assert np.array_equal(a.estimates, b.estimates)
    assert np.array_equal(a.entities, b.entities)
    assert np.array_equal(a.converged, b.converged)


def assert_results_equal(a, b) -> None:
    if isinstance(a, StudyResult):
        assert_studies_equal(a, b)
    else:
        assert a == b


class TestShardPlanning:
    def test_even_split(self):
        assert shard_ranges(10, 5) == ((0, 5), (5, 10))

    def test_ragged_final_chunk(self):
        assert shard_ranges(10, 7) == ((0, 7), (7, 10))
        assert shard_ranges(10, 3) == ((0, 3), (3, 6), (6, 9), (9, 10))

    def test_chunk_of_one(self):
        assert shard_ranges(3, 1) == ((0, 1), (1, 2), (2, 3))

    def test_chunk_at_least_total_is_single_window(self):
        assert shard_ranges(10, 10) == ((0, 10),)
        assert shard_ranges(10, 99) == ((0, 10),)

    def test_validation(self):
        with pytest.raises(ValidationError):
            shard_ranges(0, 5)
        with pytest.raises(ValidationError):
            shard_ranges(5, 0)

    def test_run_chunk_size_splits_every_splittable_cell(self):
        # The run's chunk size is the one shard size: every cell of the
        # plan is cut the same way.
        cells = (study_cell(), coverage_cell())
        scheduler = PlanScheduler(plan_of(cells, repetitions=5), chunk_size=2)
        repetitions, shards = scheduler.shards_for(study_cell())
        assert repetitions == 5
        assert [shard.rep_range for shard in shards] == [(0, 2), (2, 4), (4, 5)]
        repetitions, shards = scheduler.shards_for(coverage_cell())
        assert repetitions == 40
        assert len(shards) == 20
        assert {shard.shards for shard in shards} == {20}

    def test_unsharded_run_keeps_cells_whole(self):
        plan = plan_of([study_cell()], repetitions=5)
        for chunk_size in (None, 5, 99):
            scheduler = PlanScheduler(plan, chunk_size=chunk_size)
            assert scheduler.shards_for(study_cell()) == (
                None,
                (CellShard(study_cell()),),
            )

    def test_scheduler_rejects_chunk_below_one(self):
        scheduler = PlanScheduler(plan_of([study_cell()]), chunk_size=0)
        with pytest.raises(ValidationError, match="chunk_size"):
            scheduler.shards_for(study_cell())

    def test_invalid_executor_chunk_size(self):
        with pytest.raises(ValidationError):
            RunContext(chunk_size=0)

    def test_env_chunk_size(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHUNK_SIZE", "7")
        assert RunContext().chunk_size == 7
        monkeypatch.setenv("REPRO_CHUNK_SIZE", "nope")
        with pytest.raises(ValidationError):
            RunContext()
        monkeypatch.delenv("REPRO_CHUNK_SIZE")
        assert RunContext().chunk_size is None

    def test_builtin_kinds_are_splittable(self):
        settings = ExperimentSettings(repetitions=6)
        sequential = SequentialCoverageCell(key=("s",), label="s", method="Wilson")
        for cell in (study_cell(), coverage_cell(), sequential):
            assert kind_for(cell).repetitions is not None
        assert kind_for(study_cell()).repetitions(study_cell(), settings) == 6
        assert kind_for(coverage_cell()).repetitions(coverage_cell(), settings) == 40
        unset = coverage_cell(repetitions=None)
        assert kind_for(unset).repetitions(unset, settings) == 6
        assert kind_for(sequential).repetitions(sequential, settings) == 6

    def test_merge_and_repetitions_register_together(self):
        @dataclass(frozen=True)
        class HalfCell(CellSpec):
            pass

        with pytest.raises(ValidationError, match="together"):
            register_cell_runner(HalfCell, merge=lambda c, s, p: p)
        with pytest.raises(ValidationError, match="together"):
            register_cell_runner(HalfCell, repetitions=lambda c, s: 1)

    def test_unregistered_cell_type_is_loud(self):
        @dataclass(frozen=True)
        class StrayCell(CellSpec):
            pass

        with pytest.raises(ValidationError, match="no runner registered"):
            kind_for(StrayCell(key=("x",), label="x", method="-"))


class TestShardTokens:
    def test_shard_tokens_distinct_per_window_and_total(self):
        settings = ExperimentSettings(repetitions=10)
        cell = study_cell()

        def token(index, shards, start, stop, total):
            shard = CellShard(
                cell=cell, index=index, shards=shards, rep_start=start, rep_stop=stop
            )
            return shard_token(shard, settings, total)

        base = token(0, 2, 0, 5, 10)
        assert token(0, 2, 0, 5, 10) == base  # stable
        assert token(1, 2, 5, 10, 10) != base  # window matters
        assert token(0, 2, 0, 5, 20) != base  # total matters
        assert base != cache_token(cell, settings)  # never the full cell


def plan_of(cells, repetitions=6, seed=0):
    settings = ExperimentSettings(repetitions=repetitions, seed=seed)
    return StudyPlan(settings=settings, cells=tuple(cells), name="shard-test")


def merged_whole(cell, settings):
    """``merge([run(rep_range=None)])``: the unsplit cell, computed directly."""
    kind = kind_for(cell)
    return kind.merge(cell, settings, [kind.run(cell, settings, None)])


class TestChunkedEqualsSerial:
    @given(
        seed=st.integers(0, 2**16),
        repetitions=st.integers(2, 6),
        chunk=st.integers(1, 8),
    )
    @hyp_settings(max_examples=6, deadline=None)
    def test_property_any_chunking(self, seed, repetitions, chunk):
        # The headline guarantee: whatever the seed, the repetition
        # count, and the chunk size (divisor, ragged, oversized, or 1),
        # sharded execution never changes a bit of any cell kind.
        plan = plan_of(
            [
                study_cell(),
                coverage_cell(repetitions=None),
            ],
            repetitions=repetitions,
            seed=seed,
        )
        serial = ParallelExecutor(RunContext(workers=1)).run(plan)
        chunked = ParallelExecutor(RunContext(workers=1, chunk_size=chunk)).run(plan)
        for cell in plan.cells:
            assert_results_equal(serial.results[cell.key], chunked.results[cell.key])
            assert_results_equal(
                merged_whole(cell, plan.settings), chunked.results[cell.key]
            )

    def test_parallel_chunked_matches_serial(self):
        plan = plan_of([study_cell(), coverage_cell()], repetitions=10)
        serial = ParallelExecutor(RunContext(workers=1)).run(plan)
        parallel = ParallelExecutor(RunContext(workers=4, chunk_size=3)).run(plan)
        for key in serial.results:
            assert_results_equal(serial.results[key], parallel.results[key])

    def test_sequential_cell_chunked(self):
        cell = SequentialCoverageCell(
            key=("seq",), label="seq", method="Wilson", mu=0.9, seed=2, repetitions=5
        )
        plan = plan_of([cell], repetitions=5)
        serial = ParallelExecutor(RunContext(workers=1)).run(plan)
        ragged = ParallelExecutor(RunContext(workers=2, chunk_size=2)).run(plan)
        assert serial.results[cell.key] == ragged.results[cell.key]
        assert merged_whole(cell, plan.settings) == ragged.results[cell.key]

    def test_oversized_chunk_runs_unsharded(self):
        plan = plan_of([study_cell()], repetitions=3)
        outcome = ParallelExecutor(RunContext(workers=1, chunk_size=50)).run(plan)
        assert outcome.cells[0].shards == 1

    def test_unshardable_cells_ignore_chunking(self):
        # A kind that registers only a runner runs whole even under an
        # executor-wide chunk size, and its one payload is the result.
        # (PlainCell is module-level so the plan survives a
        # process/spool/chaos backend forced through REPRO_BACKEND.)
        settings = ExperimentSettings(repetitions=5)
        cell = PlainCell(key=("s",), label="s", method="-")
        assert kind_for(cell).repetitions is None
        plan = StudyPlan(settings=settings, cells=(cell,), name="plain")
        outcome = ParallelExecutor(RunContext(workers=1, chunk_size=1)).run(plan)
        assert outcome.cells[0].shards == 1
        assert outcome.results[("s",)] == ("s",)


class TestUnsplitCell:
    """An unsplit cell is one whole-cell window, observably a plain cell."""

    @pytest.fixture(autouse=True)
    def _no_env_chunking(self, monkeypatch):
        # These tests pin the unsplit path, so a CI leg's chunking
        # environment must not split the cells under test.
        monkeypatch.delenv("REPRO_CHUNK_SIZE", raising=False)

    def test_whole_cell_unit_is_labelled_and_tokened_as_its_cell(self):
        settings = ExperimentSettings(repetitions=5)
        cell = study_cell()
        whole = CellShard(cell)
        assert whole.rep_range is None
        assert whole.label == cell.label
        assert unit_token(whole, settings) == cache_token(cell, settings)
        window = CellShard(cell=cell, index=0, shards=2, rep_start=0, rep_stop=3)
        assert window.rep_range == (0, 3)
        assert window.label == f"{cell.label}[0:3]"
        assert unit_token(window, settings) != cache_token(cell, settings)

    def test_repetition_counter_is_never_called_unsplit(self):
        cell = UncountableCell(key=("u",), label="u", method="-")
        plan = plan_of([cell], repetitions=4)
        outcome = ParallelExecutor(RunContext(workers=1)).run(plan)
        assert outcome.results[("u",)] == (None,)
        assert outcome.cells[0].shards == 1

    def test_unsplit_run_persists_and_journals_cells_only(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        journal = tmp_path / "run.jsonl"
        sequential = SequentialCoverageCell(
            key=("seq",), label="seq", method="Wilson", mu=0.9, seed=2
        )
        plan = plan_of([study_cell(), coverage_cell(), sequential], repetitions=4)
        outcome = ParallelExecutor(
            RunContext(workers=1, store=store, trace=journal)
        ).run(plan)
        assert [entry.shards for entry in outcome.cells] == [1, 1, 1]
        assert len(store) == len(plan.cells)
        events = read_journal(journal)
        kinds = [event["event"] for event in events]
        assert "shard_merged" not in kinds
        assert "shard_progress" not in kinds
        finished = [event for event in events if event["event"] == "unit_finished"]
        assert sorted((e["label"], e["token"], e["unit"]) for e in finished) == sorted(
            (cell.label, cache_token(cell, plan.settings), "cell")
            for cell in plan.cells
        )


class TestShardStoreIntegration:
    def test_shard_entries_consolidated_after_merge(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        plan = plan_of([study_cell()], repetitions=6)
        outcome = ParallelExecutor(
            RunContext(workers=1, store=store, chunk_size=2)
        ).run(plan)
        assert outcome.cells[0].shards == 3
        # Only the merged cell entry survives; shard scaffolding is gone.
        assert len(store) == 1
        assert store.contains(cache_token(plan.cells[0], plan.settings))

    def test_rerun_under_different_chunking_hits_cache(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        plan = plan_of([study_cell(), coverage_cell()], repetitions=6)
        first = ParallelExecutor(
            RunContext(workers=1, store=store, chunk_size=2)
        ).run(plan)
        assert first.cache_misses == 2
        for chunk in (None, 1, 3, 50):
            again = ParallelExecutor(
                RunContext(workers=1, store=store, chunk_size=chunk)
            ).run(plan)
            assert again.cache_hits == 2, chunk
            for key in first.results:
                assert_results_equal(first.results[key], again.results[key])

    def test_resume_from_partial_shards(self, tmp_path):
        # Interruption model: shards are persisted one by one, so a
        # killed 1,000-rep cell leaves a prefix (any subset, in fact)
        # of its shard entries.  The re-run must recompute only the
        # missing shards and merge to the uninterrupted result.
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

        outcome = ParallelExecutor(
            RunContext(workers=1, store=store, chunk_size=3)
        ).run(plan)
        entry = outcome.cells[0]
        assert entry.shards == 4
        assert entry.shards_cached == 2
        assert not entry.cached  # two shards actually computed

        reference = ParallelExecutor(RunContext(workers=1)).run(plan)
        assert_studies_equal(reference.results[cell.key], outcome.results[cell.key])

    def test_resume_when_all_shards_finished_before_merge(self, tmp_path):
        # A run killed between its last shard and the merge leaves every
        # shard entry but no cell entry; the re-run merges from cache
        # without computing anything.
        store = ResultStore(tmp_path / "cache")
        settings = ExperimentSettings(repetitions=6, seed=1)
        cell = study_cell()
        plan = StudyPlan(settings=settings, cells=(cell,), name="merge-only")
        ranges = shard_ranges(6, 2)
        group = cache_token(cell, settings)
        for i, (a, b) in enumerate(ranges):
            shard = CellShard(
                cell=cell, index=i, shards=len(ranges), rep_start=a, rep_stop=b
            )
            value = kind_for(cell).run(cell, settings, (a, b))
            store.save(
                shard_token(shard, settings, 6),
                {"value": value, "label": shard.label, "seconds": 1.0},
                group=group,
            )

        outcome = ParallelExecutor(
            RunContext(workers=1, store=store, chunk_size=2)
        ).run(plan)
        entry = outcome.cells[0]
        assert entry.cached  # nothing computed this run
        assert entry.shards_cached == entry.shards == 3
        reference = ParallelExecutor(RunContext(workers=1)).run(plan)
        assert_studies_equal(reference.results[cell.key], outcome.results[cell.key])

    def test_merge_sweeps_stale_chunkings_shard_entries(self, tmp_path):
        # An interrupted run under chunk=3 leaves shard entries; the
        # resume happens under chunk=2, which can reuse none of them.
        # The merge must still sweep the stale windows (the group is
        # keyed by the chunking-independent cell token), leaving only
        # the merged entry on disk.
        store = ResultStore(tmp_path / "cache")
        settings = ExperimentSettings(repetitions=6, seed=1)
        cell = study_cell()
        plan = StudyPlan(settings=settings, cells=(cell,), name="stale")
        group = cache_token(cell, settings)
        stale = CellShard(cell=cell, index=0, shards=2, rep_start=0, rep_stop=3)
        value = kind_for(cell).run(cell, settings, stale.rep_range)
        store.save(
            shard_token(stale, settings, 6),
            {"value": value, "label": stale.label, "seconds": 1.0},
            group=group,
        )
        assert len(store) == 1

        outcome = ParallelExecutor(
            RunContext(workers=1, store=store, chunk_size=2)
        ).run(plan)
        assert outcome.cells[0].shards == 3
        assert outcome.cells[0].shards_cached == 0  # stale windows unusable
        assert len(store) == 1  # merged entry only; stale shard swept
        assert store.contains(group)


class _TtyStream(io.StringIO):
    def isatty(self) -> bool:  # pragma: no cover - trivial
        return True


class TestShardProgress:
    def test_one_callback_per_cell_not_per_shard(self):
        plan = plan_of([study_cell(), coverage_cell()], repetitions=6)
        seen = []
        ParallelExecutor(
            RunContext(workers=1, chunk_size=2, progress=seen.append)
        ).run(plan)
        finished = [e.fields for e in seen if e.event == "cell_finished"]
        assert [fields["done"] for fields in finished] == [1, 2]
        assert all(fields["total"] == 2 for fields in finished)
        assert [fields["shards"] for fields in finished] == [3, 20]

    def test_reporter_prints_one_line_per_sharded_cell(self):
        stream = io.StringIO()  # not a tty: no shard ticker
        plan = plan_of([study_cell()], repetitions=6)
        # Serial backend: an ambient fault-injecting backend would add
        # retry lines to the one line per cell counted here.
        ParallelExecutor(
            RunContext(
                workers=1,
                chunk_size=1,
                backend="serial",
                progress=ProgressReporter(stream=stream),
            )
        ).run(plan)
        lines = [line for line in stream.getvalue().splitlines() if line.strip()]
        assert len(lines) == 1
        assert "6 shards" in lines[0]

    def test_shard_ticker_only_on_tty(self):
        plan = plan_of([study_cell()], repetitions=4)
        plain = io.StringIO()
        ParallelExecutor(
            RunContext(workers=1, chunk_size=2, progress=ProgressReporter(stream=plain))
        ).run(plan)
        assert "\r" not in plain.getvalue()

        tty = _TtyStream()
        ParallelExecutor(
            RunContext(workers=1, chunk_size=2, progress=ProgressReporter(stream=tty))
        ).run(plan)
        output = tty.getvalue()
        assert "\r" in output
        assert "shards" in output
        assert "(2/4 reps)" in output
