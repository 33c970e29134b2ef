"""Fault-model tests: retry policy, quarantine, failure records.

The contract under test: a failed unit of work is retried on a
deterministic backoff schedule derived from its token; a unit that
exhausts its retries either aborts the run with the full failure
history (``on_error="raise"``) or is quarantined while every other
cell completes (``on_error="continue"``); and because cells are seeded
at plan-build time, a retried unit produces exactly the numbers a
fault-free run would have.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.exceptions import ValidationError
from repro.experiments.config import ExperimentSettings
from repro.runtime import (
    CellShard,
    CellSpec,
    ParallelExecutor,
    PlanExecutionError,
    ProcessPoolBackend,
    RetryPolicy,
    SerialBackend,
    SpoolBackend,
    StudyCell,
    StudyPlan,
    register_cell_runner,
    unit_token,
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
    """Fails every window of a splittable kind: a doomed calibration pilot."""


def _merge_broken(cell, settings, partials):  # pragma: no cover - never merges
    return partials


def _count_settings_repetitions(cell, settings):
    return settings.repetitions


@register_cell_runner(
    BrokenSplittableCell, merge=_merge_broken, repetitions=_count_settings_repetitions
)
def _run_broken_splittable(cell, settings, rep_range):
    raise ValidationError("persistent failure")


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


class TestRetryPolicy:
    def test_attempts_counts_first_run_plus_retries(self):
        assert RetryPolicy().attempts == 1
        assert RetryPolicy(max_retries=3).attempts == 4

    def test_delay_is_deterministic_per_token(self):
        policy = RetryPolicy(max_retries=5)
        assert policy.delay(2, "cafe") == policy.delay(2, "cafe")
        # ...but de-synchronised across tokens and attempts.
        assert policy.delay(2, "cafe") != policy.delay(2, "beef")
        assert policy.delay(1, "cafe") != policy.delay(2, "cafe")

    def test_delay_grows_exponentially_without_jitter(self):
        policy = RetryPolicy(max_retries=5, backoff_base=0.1, jitter=0.0)
        assert policy.delay(1, "t") == pytest.approx(0.1)
        assert policy.delay(2, "t") == pytest.approx(0.2)
        assert policy.delay(3, "t") == pytest.approx(0.4)

    def test_delay_is_capped(self):
        policy = RetryPolicy(
            max_retries=20, backoff_base=1.0, backoff_cap=2.5, jitter=0.0
        )
        assert policy.delay(10, "t") == pytest.approx(2.5)

    def test_jitter_only_shaves_downward(self):
        policy = RetryPolicy(max_retries=5, backoff_base=0.1, jitter=0.5)
        for attempt in (1, 2, 3):
            raw = RetryPolicy(max_retries=5, backoff_base=0.1, jitter=0.0).delay(
                attempt, "t"
            )
            shaved = policy.delay(attempt, "t")
            assert 0.5 * raw <= shaved <= raw

    def test_validation(self):
        with pytest.raises(ValidationError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValidationError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValidationError):
            RetryPolicy(backoff_base=-0.1)
        with pytest.raises(ValidationError):
            RetryPolicy(max_retries=1).delay(0, "t")


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

    def test_retry_policy_and_max_retries_are_exclusive(self):
        with pytest.raises(ValidationError, match="mutually exclusive"):
            ParallelExecutor(max_retries=1, retry_policy=RetryPolicy())

    def test_repr_mentions_fault_knobs(self):
        text = repr(ParallelExecutor(max_retries=2, on_error="continue"))
        assert "max_retries=2" in text
        assert "on_error='continue'" in text


def _backend_for(name: str, tmp_path):
    if name == "serial":
        return SerialBackend()
    if name == "process":
        return ProcessPoolBackend(2)
    return SpoolBackend(tmp_path / "q")


class TestRetries:
    @pytest.mark.parametrize("backend_name", ["serial", "process", "spool"])
    def test_transient_failure_retries_to_success(self, tmp_path, backend_name):
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
            backend=_backend_for(backend_name, tmp_path),
            retry_policy=RetryPolicy(max_retries=3, backoff_base=0.001),
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
            backend=SerialBackend(),
            retry_policy=RetryPolicy(max_retries=1, backoff_base=0.0),
        ).run(plan)
        clean = FlakyCell(
            key=("flaky",),
            label="flaky",
            method="-",
            marker_dir=str(tmp_path / "b"),
            fail_times=0,
        )
        reference = ParallelExecutor(backend=SerialBackend()).run(
            plan_of([clean, study_cell()])
        )
        assert retried.results[("flaky",)] == reference.results[("flaky",)]

    def test_retry_update_hook_fires_per_resubmission(self, tmp_path):
        events = []

        class Recorder:
            def __call__(self, done, total, result):
                pass

            def retry_update(self, failure, attempt, max_attempts, delay):
                events.append((failure.label, attempt, max_attempts, delay))

        flaky = FlakyCell(
            key=("flaky",),
            label="flaky",
            method="-",
            marker_dir=str(tmp_path / "attempts"),
            fail_times=2,
        )
        ParallelExecutor(
            backend=SerialBackend(),
            progress=Recorder(),
            retry_policy=RetryPolicy(max_retries=2, backoff_base=0.0),
        ).run(plan_of([flaky]))
        assert [(label, attempt) for label, attempt, _, _ in events] == [
            ("flaky", 2),
            ("flaky", 3),
        ]
        assert all(max_attempts == 3 for _, _, max_attempts, _ in events)


class TestOnErrorRaise:
    def test_exhausted_unit_raises_with_full_history(self, tmp_path):
        broken = BrokenCell(key=("broken",), label="broken", method="-")
        plan = plan_of([broken])
        with pytest.raises(PlanExecutionError, match="persistent failure") as info:
            ParallelExecutor(
                backend=SerialBackend(),
                on_error="raise",
                retry_policy=RetryPolicy(max_retries=2, backoff_base=0.0),
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
            ParallelExecutor(backend=SerialBackend(), max_retries=0).run(
                plan_of([broken])
            )
        (failure,) = info.value.failures
        assert failure.traceback is not None
        assert "persistent failure" in failure.traceback

    def test_pool_failure_record_carries_worker_traceback(self, tmp_path):
        broken = BrokenCell(key=("broken",), label="broken", method="-")
        with pytest.raises(PlanExecutionError) as info:
            ParallelExecutor(
                backend=ProcessPoolBackend(2), max_retries=0
            ).run(plan_of([broken, study_cell()]))
        failure = info.value.failures[0]
        assert failure.traceback is not None
        assert "persistent failure" in failure.traceback


class TestOnErrorContinue:
    def test_quarantine_returns_survivors_and_failures(self, tmp_path):
        broken = BrokenCell(key=("broken",), label="broken", method="-")
        good = [study_cell("Wilson"), study_cell("aHPD")]
        plan = plan_of([good[0], broken, good[1]])
        outcome = ParallelExecutor(
            backend=SerialBackend(),
            on_error="continue",
            retry_policy=RetryPolicy(max_retries=1, backoff_base=0.0),
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
            backend=SerialBackend(), on_error="continue", max_retries=0
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
        scheduler = PlanScheduler(plan, default_chunk=2)
        bad, good = scheduler.scan()
        failure = failure_from(bad, "token", 1, ValidationError("shard died"), "serial")
        scheduler.quarantine(bad, failure)
        value, seconds = run_task(good, plan.settings)
        scheduler.finish(good, value, seconds)
        assert scheduler.cells() == ()
        assert [f.label for f in scheduler.failed()] == [failure.label]

    def test_failure_update_hook_fires_on_quarantine(self, tmp_path):
        quarantined = []

        class Recorder:
            def __call__(self, done, total, result):
                pass

            def failure_update(self, failure):
                quarantined.append(failure.label)

        broken = BrokenCell(key=("broken",), label="broken", method="-")
        ParallelExecutor(
            backend=SerialBackend(),
            progress=Recorder(),
            on_error="continue",
            max_retries=0,
        ).run(plan_of([broken, study_cell()]))
        assert quarantined == ["broken"]

    def test_progress_reporter_prints_retry_and_quarantine_lines(
        self, tmp_path, capsys
    ):
        broken = BrokenCell(key=("broken",), label="broken", method="-")
        ParallelExecutor(
            backend=SerialBackend(),
            progress=True,
            on_error="continue",
            retry_policy=RetryPolicy(max_retries=1, backoff_base=0.0),
        ).run(plan_of([broken, study_cell()]))
        err = capsys.readouterr().err
        assert "[retry 2/2] broken" in err
        assert "[quarantined] broken" in err


#: The two ways to split a plan's cells: fixed, and calibrated by a
#: timed pilot window run in-process before the backend opens.
_CHUNKINGS = (dict(chunk_size=2), dict(chunk_seconds=0.05))


class TestFailingCalibrationPilot:
    """A pilot that raises must not bypass the retry/quarantine policy."""

    def plan(self):
        broken = BrokenSplittableCell(key=("broken",), label="broken", method="-")
        return plan_of([broken, study_cell()], repetitions=4)

    @pytest.mark.parametrize("chunking", _CHUNKINGS)
    def test_continue_quarantines_only_the_failing_cell(self, chunking):
        outcome = ParallelExecutor(
            workers=1, on_error="continue", max_retries=1, **chunking
        ).run(self.plan())
        assert set(outcome.results) == {study_cell().key}
        assert [f.label.split("[")[0] for f in outcome.failures] == ["broken"]

    @pytest.mark.parametrize("chunking", _CHUNKINGS)
    def test_raise_aborts_with_plan_execution_error(self, chunking):
        with pytest.raises(PlanExecutionError, match="persistent failure"):
            ParallelExecutor(
                workers=1, on_error="raise", max_retries=1, **chunking
            ).run(self.plan())

    def test_calibration_falls_through_to_the_next_candidate(self):
        outcome = ParallelExecutor(
            workers=1, on_error="continue", chunk_seconds=0.05
        ).run(self.plan())
        assert outcome.calibration is not None
        assert outcome.calibration.cell_key == study_cell().key


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
            backend=SerialBackend(), on_error="continue", max_retries=0
        ).run(plan_of([broken, study_cell()]))

        monkeypatch.setattr(cli, "execute", lambda plan, context=None: outcome)
        rc = main(["study", "--datasets", "NELL", "--reps", "2", "--quiet"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "FAILED broken" in captured.err
        assert "1 FAILED" in captured.out
