"""Fault-model tests: retry schedule, quarantine, failure records.

The contract under test: a failed unit of work is retried on a
deterministic backoff schedule derived from its token; a unit that
exhausts its retries either aborts the run with the full failure
history (``on_error="raise"``) or is quarantined while every other
cell completes (``on_error="continue"``); and because cells are seeded
at plan-build time, a retried unit produces exactly the numbers a
fault-free run would have.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.experiments.config import ExperimentSettings
from repro.runtime import (
    CellShard,
    CellSpec,
    ParallelExecutor,
    PlanExecutionError,
    ProcessPoolBackend,
    RunContext,
    SerialBackend,
    StudyCell,
    StudyPlan,
    read_journal,
    register_cell_runner,
    unit_token,
)
from repro.runtime.faults import (
    RETRY_BACKOFF_BASE,
    RETRY_BACKOFF_CAP,
    RETRY_JITTER,
    failure_from,
    retry_delay,
)
from repro.runtime.settings import resolve_max_retries, resolve_on_error


@dataclass(frozen=True)
class FlakyCell(CellSpec):
    """Fails its first ``fail_times`` attempts, then succeeds.

    Attempts are counted through files under ``marker_dir`` (created
    with ``exist_ok=False``, so the count survives process boundaries),
    which also lets tests assert exactly how many executions happened.
    """

    marker_dir: str = ""
    fail_times: int = 0


def _record_attempt(marker_dir: str) -> int:
    root = Path(marker_dir)
    root.mkdir(parents=True, exist_ok=True)
    attempt = 1
    while True:
        try:
            (root / f"attempt-{attempt:04d}").touch(exist_ok=False)
            return attempt
        except FileExistsError:
            attempt += 1


def attempts_recorded(marker_dir) -> int:
    return len(list(Path(marker_dir).glob("attempt-*")))


@register_cell_runner(FlakyCell)
def _run_flaky(cell, settings, rep_range):
    attempt = _record_attempt(cell.marker_dir)
    if attempt <= cell.fail_times:
        raise ValidationError(f"transient failure #{attempt}")
    return ("ok", cell.key, settings.repetitions)


@dataclass(frozen=True)
class BrokenCell(CellSpec):
    """Fails every attempt: the persistent-fault case."""


@register_cell_runner(BrokenCell)
def _run_broken(cell, settings, rep_range):
    raise ValidationError("persistent failure")


@dataclass(frozen=True)
class BrokenSplittableCell(CellSpec):
    """Fails every window of a splittable kind."""


def _merge_broken(cell, settings, partials):  # pragma: no cover - never merges
    return partials


def _count_settings_repetitions(cell, settings):
    return settings.repetitions


@register_cell_runner(
    BrokenSplittableCell, merge=_merge_broken, repetitions=_count_settings_repetitions
)
def _run_broken_splittable(cell, settings, rep_range):
    raise ValidationError("persistent failure")


@dataclass(frozen=True)
class KillOnceCell(CellSpec):
    """SIGKILLs the pool worker that runs its first attempt (a marker
    file records it): the OOM-kill case, which breaks the whole pool."""

    marker: str = ""


@register_cell_runner(KillOnceCell)
def _run_kill_once(cell, settings, rep_range):
    marker = Path(cell.marker)
    # Only ever kill a pool worker, never the process running the suite.
    if not marker.exists() and multiprocessing.parent_process() is not None:
        marker.touch()
        os.kill(os.getpid(), signal.SIGKILL)
    return ("ok", cell.key)


def study_cell(method: str = "Wilson") -> StudyCell:
    return StudyCell(
        key=("NELL", "SRS", method),
        label=f"NELL/SRS/{method}",
        method=method,
        dataset="NELL",
        strategy="SRS",
        seed_stream=(5,),
    )


def plan_of(cells, repetitions=3, seed=0):
    settings = ExperimentSettings(repetitions=repetitions, seed=seed)
    return StudyPlan(settings=settings, cells=tuple(cells), name="faults-test")


class TestRetryDelay:
    def test_the_schedule_is_pinned(self):
        # The delays of a 0.05 s base, 2 s cap and 0.5 jitter, computed
        # before that shape became module constants: a rerun retries on
        # exactly this schedule.
        assert [retry_delay(k, "cafe") for k in (1, 2, 3)] == [
            0.03290466163422084,
            0.05197530244373212,
            0.15580898367306162,
        ]

    def test_delay_is_deterministic_per_token(self):
        assert retry_delay(2, "cafe") == retry_delay(2, "cafe")
        # ...but de-synchronised across tokens and attempts.
        assert retry_delay(2, "cafe") != retry_delay(2, "beef")
        assert retry_delay(1, "cafe") != retry_delay(2, "cafe")

    def test_jitter_only_shaves_the_exponential_delay_downward(self):
        for failures in (1, 2, 3):
            raw = RETRY_BACKOFF_BASE * 2.0 ** (failures - 1)
            shaved = retry_delay(failures, "t")
            assert (1.0 - RETRY_JITTER) * raw <= shaved <= raw

    def test_delay_is_capped(self):
        delay = retry_delay(20, "t")
        assert (1.0 - RETRY_JITTER) * RETRY_BACKOFF_CAP <= delay <= RETRY_BACKOFF_CAP

    def test_validation(self):
        with pytest.raises(ValidationError):
            RunContext(max_retries=-1)
        with pytest.raises(ValidationError):
            retry_delay(0, "t")

    def test_retries_journal_the_schedule(self, tmp_path):
        flaky = FlakyCell(
            key=("flaky",),
            label="flaky",
            method="-",
            marker_dir=str(tmp_path / "attempts"),
            fail_times=2,
        )
        plan = plan_of([flaky])
        journal = tmp_path / "run.jsonl"
        ParallelExecutor(
            RunContext(backend="serial", max_retries=2, trace=journal)
        ).run(plan)
        token = unit_token(CellShard(flaky), plan.settings)
        records = read_journal(journal)
        retries = [r for r in records if r["event"] == "retry"]
        assert [r["attempt"] for r in retries] == [2, 3]
        assert all(r["max_attempts"] == 3 for r in retries)
        # Each retry names the error of the failed attempt before it.
        failed = [r["error"] for r in records if r["event"] == "unit_failed"]
        assert [r["error"] for r in retries] == failed == [
            "ValidationError: transient failure #1",
            "ValidationError: transient failure #2",
        ]
        assert [r["delay"] for r in retries] == [
            round(retry_delay(k, token), 6) for k in (1, 2)
        ]


class TestEnvResolution:
    def test_max_retries_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_RETRIES", "4")
        assert resolve_max_retries(None) == 4
        # An explicit argument beats the environment.
        assert resolve_max_retries(1) == 1

    def test_max_retries_default_and_validation(self, monkeypatch):
        monkeypatch.delenv("REPRO_MAX_RETRIES", raising=False)
        assert resolve_max_retries(None) == 0
        monkeypatch.setenv("REPRO_MAX_RETRIES", "many")
        with pytest.raises(ValidationError, match="REPRO_MAX_RETRIES"):
            resolve_max_retries(None)
        with pytest.raises(ValidationError):
            resolve_max_retries(-2)

    def test_on_error_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ON_ERROR", "continue")
        assert resolve_on_error(None) == "continue"
        assert resolve_on_error("raise") == "raise"

    def test_on_error_default_and_validation(self, monkeypatch):
        monkeypatch.delenv("REPRO_ON_ERROR", raising=False)
        assert resolve_on_error(None) == "raise"
        assert resolve_on_error("CONTINUE") == "continue"
        with pytest.raises(ValidationError, match="on_error"):
            resolve_on_error("explode")


class TestRetries:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_transient_failure_retries_to_success(self, tmp_path, backend):
        marker = tmp_path / "attempts"
        flaky = FlakyCell(
            key=("flaky",),
            label="flaky",
            method="-",
            marker_dir=str(marker),
            fail_times=2,
        )
        plan = plan_of([flaky, study_cell()])
        outcome = ParallelExecutor(
            RunContext(backend=backend, workers=2, max_retries=3)
        ).run(plan)
        assert outcome.results[("flaky",)] == ("ok", ("flaky",), 3)
        assert outcome.retries == 2
        assert attempts_recorded(marker) == 3
        assert outcome.failures == ()
        assert "2 retried" in outcome.summary()

    def test_retried_results_match_a_clean_run(self, tmp_path):
        # The reproducibility claim behind "retrying is always safe":
        # numbers coming out of a retried unit are exactly the numbers
        # a never-failed run produces.
        flaky = FlakyCell(
            key=("flaky",),
            label="flaky",
            method="-",
            marker_dir=str(tmp_path / "a"),
            fail_times=1,
        )
        plan = plan_of([flaky, study_cell()])
        retried = ParallelExecutor(
            RunContext(backend=SerialBackend(), max_retries=1)
        ).run(plan)
        clean = FlakyCell(
            key=("flaky",),
            label="flaky",
            method="-",
            marker_dir=str(tmp_path / "b"),
            fail_times=0,
        )
        reference = ParallelExecutor(RunContext(backend=SerialBackend())).run(
            plan_of([clean, study_cell()])
        )
        assert retried.results[("flaky",)] == reference.results[("flaky",)]

    def test_progress_sees_each_resubmission(self, tmp_path):
        seen = []
        flaky = FlakyCell(
            key=("flaky",),
            label="flaky",
            method="-",
            marker_dir=str(tmp_path / "attempts"),
            fail_times=2,
        )
        ParallelExecutor(
            RunContext(backend=SerialBackend(), progress=seen.append, max_retries=2)
        ).run(plan_of([flaky]))
        retries = [event for event in seen if event.event == "retry"]
        assert [(e.fields["label"], e.fields["attempt"]) for e in retries] == [
            ("flaky", 2),
            ("flaky", 3),
        ]
        assert all(e.fields["max_attempts"] == 3 for e in retries)


class TestKilledWorker:
    """A pool worker that dies breaks its pool; retries run on a new one.

    Backend and workers are pinned, so the CI legs' ``REPRO_*`` knobs
    leave the scenario alone.
    """

    @staticmethod
    def plan(tmp_path) -> StudyPlan:
        killer = KillOnceCell(
            key=("kill",), label="kill", method="-", marker=str(tmp_path / "killed")
        )
        return plan_of([killer, study_cell("Wilson"), study_cell("aHPD")])

    def test_retries_complete_the_plan_on_a_fresh_pool(self, tmp_path):
        plan = self.plan(tmp_path)
        journal = tmp_path / "j.jsonl"
        outcome = ParallelExecutor(
            RunContext(workers=2, backend="process", max_retries=3, trace=journal)
        ).run(plan)
        assert outcome.failures == ()
        # Every unit in flight on the broken pool fails once, so the
        # count depends on timing; the killed unit is always one.
        assert outcome.retries >= 1
        retries = [r for r in read_journal(journal) if r["event"] == "retry"]
        assert len(retries) == outcome.retries
        assert "kill" in {r["label"] for r in retries}
        assert all(r["error"].startswith("BrokenProcessPool") for r in retries)
        reference = ParallelExecutor(RunContext(workers=1, backend="serial")).run(plan)
        assert outcome.results.keys() == reference.results.keys()
        assert outcome.results[("kill",)] == reference.results[("kill",)]
        for method in ("Wilson", "aHPD"):
            key = study_cell(method).key
            got, want = outcome.results[key], reference.results[key]
            for field in ("triples", "estimates", "cost_hours", "converged"):
                assert np.array_equal(getattr(got, field), getattr(want, field))

    def test_without_retries_the_run_aborts_with_the_failure(self, tmp_path):
        with pytest.raises(PlanExecutionError, match="BrokenProcessPool"):
            ParallelExecutor(
                RunContext(workers=2, backend="process", max_retries=0)
            ).run(self.plan(tmp_path))


class TestOnErrorRaise:
    def test_exhausted_unit_raises_with_full_history(self, tmp_path):
        broken = BrokenCell(key=("broken",), label="broken", method="-")
        plan = plan_of([broken])
        with pytest.raises(PlanExecutionError, match="persistent failure") as info:
            ParallelExecutor(
                RunContext(backend=SerialBackend(), on_error="raise", max_retries=2)
            ).run(plan)
        failures = info.value.failures
        assert [f.attempts for f in failures] == [1, 2, 3]
        assert all(f.label == "broken" for f in failures)
        assert all(f.backend == "serial" for f in failures)
        assert all("ValidationError: persistent failure" in f.error for f in failures)
        token = unit_token(CellShard(broken), plan.settings)
        assert all(f.token == token for f in failures)

    def test_failure_record_carries_a_traceback(self, tmp_path):
        broken = BrokenCell(key=("broken",), label="broken", method="-")
        with pytest.raises(PlanExecutionError) as info:
            ParallelExecutor(RunContext(backend=SerialBackend(), max_retries=0)).run(
                plan_of([broken])
            )
        (failure,) = info.value.failures
        assert failure.traceback is not None
        assert "persistent failure" in failure.traceback

    def test_pool_failure_record_carries_worker_traceback(self, tmp_path):
        broken = BrokenCell(key=("broken",), label="broken", method="-")
        with pytest.raises(PlanExecutionError) as info:
            ParallelExecutor(
                RunContext(backend=ProcessPoolBackend(2), max_retries=0)
            ).run(plan_of([broken, study_cell()]))
        failure = info.value.failures[0]
        assert failure.traceback is not None
        assert "persistent failure" in failure.traceback


class TestFailureRecord:
    """``failure_from``: the one-line error and the best traceback."""

    @staticmethod
    def record(exc: BaseException):
        shard = CellShard(BrokenCell(key=("broken",), label="broken", method="-"))
        return failure_from(shard, "tok", 2, exc, "process")

    def test_a_pool_workers_traceback_is_preferred(self):
        from concurrent.futures.process import _RemoteTraceback

        try:
            try:
                raise _RemoteTraceback('\n"""\nworker side: persistent failure\n"""')
            except _RemoteTraceback as remote:
                raise ValidationError("persistent failure") from remote
        except ValidationError as exc:
            failure = self.record(exc)
        assert failure.traceback == '\n"""\nworker side: persistent failure\n"""'
        assert (failure.label, failure.token, failure.attempts, failure.backend) == (
            "broken", "tok", 2, "process",
        )
        assert failure.error == "ValidationError: persistent failure"

    def test_a_local_error_keeps_its_own_traceback(self):
        try:
            try:
                raise KeyError("inner")
            except KeyError as cause:
                raise ValidationError("persistent failure") from cause
        except ValidationError as exc:
            failure = self.record(exc)
        assert failure.traceback.startswith("Traceback (most recent call last)")
        assert "ValidationError: persistent failure" in failure.traceback

    def test_an_error_that_was_never_raised_has_no_traceback(self):
        failure = self.record(ValidationError("built, not raised"))
        assert failure.traceback is None
        assert failure.summary() == (
            "broken: ValidationError: built, not raised (after 2 attempts)"
        )


class TestOnErrorContinue:
    def test_quarantine_returns_survivors_and_failures(self, tmp_path):
        broken = BrokenCell(key=("broken",), label="broken", method="-")
        good = [study_cell("Wilson"), study_cell("aHPD")]
        plan = plan_of([good[0], broken, good[1]])
        outcome = ParallelExecutor(
            RunContext(backend=SerialBackend(), on_error="continue", max_retries=1)
        ).run(plan)
        assert len(outcome.failures) == 1
        failure = outcome.failures[0]
        assert failure.label == "broken"
        assert failure.attempts == 2
        # Every healthy cell still completed, in plan order.
        assert [r.cell.key for r in outcome.cells] == [c.key for c in good]
        assert set(outcome.results) == {c.key for c in good}
        assert "1 FAILED" in outcome.summary()

    def test_never_succeeding_cell_is_quarantined(self, tmp_path):
        flaky = FlakyCell(
            key=("flaky",),
            label="flaky",
            method="-",
            marker_dir=str(tmp_path / "attempts"),
            fail_times=50,  # never succeeds within any retry budget
        )
        plan = plan_of([flaky, study_cell()])
        outcome = ParallelExecutor(
            RunContext(backend=SerialBackend(), on_error="continue", max_retries=0)
        ).run(plan)
        assert [f.label for f in outcome.failures] == ["flaky"]
        assert set(outcome.results) == {study_cell().key}

    def test_quarantined_shard_blocks_the_parent_merge(self):
        # A failed shard quarantines its whole parent cell: even with
        # every sibling shard finished, no partial merge may masquerade
        # as the cell's result.
        from repro.runtime import PlanScheduler
        from repro.runtime.backends import run_task
        from repro.runtime.faults import failure_from

        plan = plan_of([study_cell()], repetitions=4)
        scheduler = PlanScheduler(plan, chunk_size=2)
        bad, good = scheduler.scan()
        failure = failure_from(bad, "token", 1, ValidationError("shard died"), "serial")
        scheduler.quarantine(bad, failure)
        value, seconds, _ = run_task(good, plan.settings)
        scheduler.finish(good, value, seconds)
        assert scheduler.cells() == ()
        assert [f.label for f in scheduler.failed()] == [failure.label]

    def test_progress_sees_the_quarantine(self, tmp_path):
        seen = []
        broken = BrokenCell(key=("broken",), label="broken", method="-")
        ParallelExecutor(
            RunContext(
                backend=SerialBackend(),
                progress=seen.append,
                on_error="continue",
                max_retries=0,
            )
        ).run(plan_of([broken, study_cell()]))
        quarantined = [e.fields["label"] for e in seen if e.event == "quarantine"]
        assert quarantined == ["broken"]

    def test_progress_reporter_prints_retry_and_quarantine_lines(
        self, tmp_path, capsys
    ):
        broken = BrokenCell(key=("broken",), label="broken", method="-")
        ParallelExecutor(
            RunContext(
                backend=SerialBackend(),
                progress=True,
                on_error="continue",
                max_retries=1,
            )
        ).run(plan_of([broken, study_cell()]))
        err = capsys.readouterr().err
        assert "[retry 2/2] broken" in err
        assert "[quarantined] broken" in err


class TestFailingCalibrationPilot:
    """A split cell whose windows raise still obeys retry and quarantine."""

    def plan(self):
        broken = BrokenSplittableCell(key=("broken",), label="broken", method="-")
        return plan_of([broken, study_cell()], repetitions=4)

    def test_continue_quarantines_only_the_failing_cell(self):
        outcome = ParallelExecutor(
            RunContext(workers=1, on_error="continue", max_retries=1, chunk_size=2)
        ).run(self.plan())
        assert set(outcome.results) == {study_cell().key}
        assert [f.label.split("[")[0] for f in outcome.failures] == ["broken"]

    def test_raise_aborts_with_plan_execution_error(self):
        with pytest.raises(PlanExecutionError, match="persistent failure"):
            ParallelExecutor(
                RunContext(workers=1, on_error="raise", max_retries=1, chunk_size=2)
            ).run(self.plan())


class TestCliWiring:
    def test_study_cli_passes_fault_knobs_to_the_executor(self, monkeypatch):
        import repro.cli as cli

        captured = {}

        def fake_execute(plan, context=None):
            captured.update(context.describe())
            raise ValidationError("stop here")

        monkeypatch.setattr(cli, "execute", fake_execute)
        rc = cli.main(
            [
                "study",
                "--datasets",
                "NELL",
                "--reps",
                "2",
                "--max-retries",
                "2",
                "--on-error",
                "continue",
                "--quiet",
            ]
        )
        assert rc == 1  # the fake aborted the run after construction
        assert captured["max_retries"] == 2
        assert captured["on_error"] == "continue"

    def test_experiments_cli_configures_fault_knobs(self, monkeypatch):
        import repro.experiments.__main__ as exp_main

        installed = []
        use_context = exp_main.use_context

        def spy(context):
            installed.append(context)
            return use_context(context)

        monkeypatch.setattr(exp_main, "use_context", spy)
        # table1 only describes the datasets, so the wiring is exercised
        # without running a Monte-Carlo grid.
        rc = exp_main.main(
            ["table1", "--max-retries", "3", "--on-error", "continue"]
        )
        assert rc == 0
        (context,) = installed
        assert context.describe()["max_retries"] == 3
        assert context.describe()["on_error"] == "continue"

    def test_study_cli_reports_failed_cells_and_exits_nonzero(
        self, monkeypatch, capsys, tmp_path
    ):
        from repro.cli import main

        # Route the study through on_error=continue with a method that
        # does not exist in the runner registry? No — all study methods
        # are real.  Instead prove the outcome-rendering path directly:
        # a run whose outcome carries failures exits 1 and prints them.
        import repro.cli as cli

        broken = BrokenCell(key=("broken",), label="broken", method="-")
        outcome = ParallelExecutor(
            RunContext(backend=SerialBackend(), on_error="continue", max_retries=0)
        ).run(plan_of([broken, study_cell()]))

        monkeypatch.setattr(cli, "execute", lambda plan, context=None: outcome)
        rc = main(["study", "--datasets", "NELL", "--reps", "2", "--quiet"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "FAILED broken" in captured.err
        assert "1 FAILED" in captured.out
