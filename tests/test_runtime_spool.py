"""Spool-worker tests: the detached half of the spool backend.

:func:`repro.runtime.backends.spool.run_worker` is the loop behind
``python -m repro worker <spool-dir>``.  These tests drive it in-process
(threads standing in for other terminals) and once as a real detached
subprocess, checking the full multi-process dispatch path: task files
leased by atomic rename, results written atomically, bit-identical
values, and a queue that ends empty.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.experiments.config import ExperimentSettings
from repro.runtime import (
    CellShard,
    ParallelExecutor,
    RunContext,
    SpoolBackend,
    StudyCell,
    StudyPlan,
    run_worker,
)
from repro.runtime.backends.spool import (
    SpoolTaskError,
    _claim,
    _ensure_layout,
    _requeue,
)
from repro.cli import main
from spool_crash_cells import SlowCell, starts_recorded


from dataclasses import dataclass

from repro.runtime import CellSpec, register_cell_runner


@dataclass(frozen=True)
class LeaseStealingCell(CellSpec):
    """Test-only cell whose runner deletes every lease mid-execution,
    simulating a reclaim/close sweep happening while a claimant runs."""

    spool_root: str = ""


@register_cell_runner(LeaseStealingCell)
def _run_lease_stealing(cell, settings, rep_range):
    for lease in (Path(cell.spool_root) / "claimed").glob("*.task"):
        lease.unlink()
    return "computed"


def study_cell(method: str = "Wilson") -> StudyCell:
    return StudyCell(
        key=("NELL", "SRS", method),
        label=f"NELL/SRS/{method}",
        method=method,
        dataset="NELL",
        strategy="SRS",
        seed_stream=(5,),
    )


def small_plan(repetitions: int = 3) -> StudyPlan:
    settings = ExperimentSettings(repetitions=repetitions, seed=0)
    return StudyPlan(
        settings=settings,
        cells=(study_cell("Wilson"), study_cell("aHPD")),
        name="spool-worker",
    )


def assert_studies_equal(a, b) -> None:
    assert np.array_equal(a.triples, b.triples)
    assert np.array_equal(a.estimates, b.estimates)
    assert np.array_equal(a.converged, b.converged)


class TestRunWorker:
    def test_worker_thread_executes_all_tasks(self, tmp_path):
        # participate=False forces every unit through the worker, so
        # this proves the worker path end to end (not the scheduler
        # quietly doing the work itself).
        spool_dir = tmp_path / "q"
        worker = threading.Thread(
            target=run_worker,
            kwargs=dict(root=spool_dir, poll_interval=0.01, idle_timeout=1.0),
        )
        worker.start()
        try:
            plan = small_plan()
            backend = SpoolBackend(spool_dir, participate=False)
            outcome = ParallelExecutor(RunContext(backend=backend)).run(plan)
        finally:
            worker.join(timeout=30)
        assert not worker.is_alive()
        assert outcome.backend == "spool"
        assert outcome.cache_misses == len(plan)
        reference = ParallelExecutor(RunContext(workers=1)).run(plan)
        for key in reference.results:
            assert_studies_equal(reference.results[key], outcome.results[key])
        assert list((spool_dir / "tasks").iterdir()) == []
        assert list((spool_dir / "results").iterdir()) == []

    def test_max_tasks_stops_the_loop(self, tmp_path):
        spool_dir = tmp_path / "q"
        settings = ExperimentSettings(repetitions=2, seed=0)
        backend = SpoolBackend(spool_dir, participate=False)
        backend.open(workers=1, tasks=2, settings=settings)
        futures = [
            backend.submit(CellShard(study_cell("Wilson")), settings),
            backend.submit(CellShard(study_cell("aHPD")), settings),
        ]
        executed = run_worker(spool_dir, poll_interval=0.01, max_tasks=1)
        assert executed == 1
        done = [future for future in futures if future.done()]
        assert len(done) == 1
        backend.close()

    def test_idle_timeout_returns_zero_on_empty_queue(self, tmp_path):
        executed = run_worker(
            tmp_path / "empty", poll_interval=0.01, idle_timeout=0.05
        )
        assert executed == 0

    def test_claim_restarts_the_lease_clock(self, tmp_path):
        # os.rename preserves mtime, so without a re-stamp the stale-
        # lease reclaim would measure time-in-queue instead of
        # time-in-execution and steal live leases from busy workers.
        import time as _time

        from repro.runtime.backends.spool import _claim, _ensure_layout

        root = tmp_path / "q"
        _ensure_layout(root)
        task = root / "tasks" / "aaaa-000000.task"
        task.write_bytes(b"payload")
        stale = _time.time() - 3_600.0
        os.utime(task, (stale, stale))  # submitted an hour ago
        claimed = _claim(root, task)
        assert claimed is not None
        assert _time.time() - claimed.stat().st_mtime < 60.0

    def test_result_dropped_when_lease_vanishes_mid_execution(self, tmp_path):
        # A claimant whose lease was reclaimed (or swept by the owning
        # run's close) while it was executing must drop its result:
        # whoever holds the task now owns the answer.
        from repro.runtime.backends.spool import _drain_one

        spool_root = tmp_path / "q"
        settings = ExperimentSettings(repetitions=2, seed=0)
        backend = SpoolBackend(spool_root, participate=False)
        backend.open(workers=1, tasks=1, settings=settings)
        backend.submit(
            CellShard(
                LeaseStealingCell(
                    key=("steal",),
                    label="steal",
                    method="-",
                    spool_root=str(spool_root),
                )
            ),
            settings,
        )
        messages = []
        assert _drain_one(spool_root, set(), log=messages.append) is None
        assert list((spool_root / "results").iterdir()) == []
        assert any("lease was reclaimed" in message for message in messages)
        backend.close()

    def test_close_sweeps_abandoned_leases(self, tmp_path):
        # An aborted run must not strand its claimed/ leases in a
        # shared spool directory: close sweeps them alongside tasks
        # and results.
        spool_root = tmp_path / "q"
        settings = ExperimentSettings(repetitions=2, seed=0)
        backend = SpoolBackend(spool_root, participate=False)
        backend.open(workers=1, tasks=1, settings=settings)
        backend.submit(CellShard(study_cell()), settings)
        task_file = next((spool_root / "tasks").glob("*.task"))
        os.rename(task_file, spool_root / "claimed" / task_file.name)
        backend.close()
        assert list((spool_root / "claimed").iterdir()) == []
        assert list((spool_root / "tasks").iterdir()) == []

    def test_worker_skips_valid_pickle_that_is_not_a_task(self, tmp_path):
        # A .task file that unpickles into a non-payload (version skew,
        # stray file) must poison-and-requeue like a corrupt one — not
        # crash the worker loop.
        import pickle

        spool_dir = tmp_path / "q"
        (spool_dir / "tasks").mkdir(parents=True)
        (spool_dir / "tasks" / "aaaa-000000.task").write_bytes(
            pickle.dumps("not a payload dict")
        )
        settings = ExperimentSettings(repetitions=2, seed=0)
        backend = SpoolBackend(spool_dir, participate=False)
        backend.open(workers=1, tasks=1, settings=settings)
        future = backend.submit(CellShard(study_cell()), settings)
        messages = []
        executed = run_worker(
            spool_dir, poll_interval=0.01, idle_timeout=0.2, log=messages.append
        )
        assert executed == 1
        assert future.done()
        assert any("cannot deserialise" in message for message in messages)
        assert (spool_dir / "tasks" / "aaaa-000000.task").exists()
        backend.close()

    def test_worker_skips_corrupt_tasks_and_serves_good_ones(self, tmp_path):
        spool_dir = tmp_path / "q"
        (spool_dir / "tasks").mkdir(parents=True)
        (spool_dir / "tasks" / "aaaa-000000.task").write_bytes(b"junk")
        settings = ExperimentSettings(repetitions=2, seed=0)
        backend = SpoolBackend(spool_dir, participate=False)
        backend.open(workers=1, tasks=1, settings=settings)
        future = backend.submit(CellShard(study_cell()), settings)
        messages = []
        executed = run_worker(
            spool_dir, poll_interval=0.01, idle_timeout=0.2, log=messages.append
        )
        assert executed == 1
        assert future.done()
        assert any("cannot deserialise" in message for message in messages)
        # The corrupt file is back in the queue, not deleted or fatal.
        assert (spool_dir / "tasks" / "aaaa-000000.task").exists()
        backend.close()


class TestWorkerCli:
    def test_worker_subcommand_serves_spooled_tasks(self, tmp_path, capsys):
        spool_dir = tmp_path / "q"
        settings = ExperimentSettings(repetitions=2, seed=0)
        backend = SpoolBackend(spool_dir, participate=False)
        backend.open(workers=1, tasks=1, settings=settings)
        future = backend.submit(CellShard(study_cell()), settings)
        assert (
            main(
                [
                    "worker",
                    str(spool_dir),
                    "--poll",
                    "0.01",
                    "--idle-timeout",
                    "0.2",
                    "--quiet",
                ]
            )
            == 0
        )
        assert "executed 1 task(s)" in capsys.readouterr().out
        assert future.done()
        backend.close()

    def test_worker_subcommand_spool_dir_from_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SPOOL_DIR", str(tmp_path / "envq"))
        assert main(["worker", "--idle-timeout", "0.05", "--quiet"]) == 0
        assert "executed 0 task(s)" in capsys.readouterr().out

    def test_detached_worker_subprocess_end_to_end(self, tmp_path):
        # The real thing: a detached `python -m repro worker` process in
        # another interpreter leases, executes, and answers the tasks of
        # a participate=False scheduler — multi-process dispatch with
        # bit-identical results.
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
                "5",
                "--quiet",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            plan = small_plan()
            backend = SpoolBackend(spool_dir, participate=False)
            outcome = ParallelExecutor(RunContext(backend=backend)).run(plan)
        finally:
            out, err = worker.communicate(timeout=60)
        assert worker.returncode == 0, err
        assert "executed 2 task(s)" in out
        reference = ParallelExecutor(RunContext(workers=1)).run(plan)
        for key in reference.results:
            assert_studies_equal(reference.results[key], outcome.results[key])


# ----------------------------------------------------------------------
# Fault-tolerance hardening: delivery counts, dead letters, heartbeats
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BoomCell(CellSpec):
    pass


@register_cell_runner(BoomCell)
def _run_boom(cell, settings, rep_range):
    raise ValidationError("boom in a worker")


def _settings(repetitions: int = 2) -> ExperimentSettings:
    return ExperimentSettings(repetitions=repetitions, seed=0)


class TestSpoolFutureGuard:
    def test_result_before_done_raises_clearly(self, tmp_path):
        backend = SpoolBackend(tmp_path / "q", participate=False)
        backend.open(workers=1, tasks=1, settings=_settings())
        future = backend.submit(CellShard(study_cell()), _settings())
        with pytest.raises(RuntimeError, match=r"result\(\) before done\(\)"):
            future.result()
        backend.close()

    def test_worker_side_traceback_rides_the_exception(self, tmp_path):
        spool_dir = tmp_path / "q"
        backend = SpoolBackend(spool_dir, participate=False)
        backend.open(workers=1, tasks=1, settings=_settings())
        future = backend.submit(
            CellShard(BoomCell(key=("boom",), label="boom", method="-")), _settings()
        )
        run_worker(spool_dir, poll_interval=0.01, idle_timeout=0.2)
        assert future.done()
        with pytest.raises(ValidationError, match="boom in a worker") as info:
            future.result()
        attached = getattr(info.value, "__repro_traceback__", None)
        assert attached is not None and "boom in a worker" in attached
        backend.close()


class TestDeadLetter:
    def test_requeue_stamps_the_delivery_count(self, tmp_path):
        root = tmp_path / "q"
        _ensure_layout(root)
        payload = {
            "id": "aaaa-000000",
            "task": CellShard(study_cell()),
            "settings": _settings(),
            "deliveries": 0,
        }
        task_path = root / "tasks" / "aaaa-000000.task"
        task_path.write_bytes(pickle.dumps(payload))
        claimed = _claim(root, task_path)
        _requeue(root, claimed, 5, "test requeue")
        assert not claimed.exists()
        requeued = pickle.loads(task_path.read_bytes())
        assert requeued["deliveries"] == 1

    def test_unreadable_claim_requeues_unchanged(self, tmp_path):
        root = tmp_path / "q"
        _ensure_layout(root)
        task_path = root / "tasks" / "bbbb-000000.task"
        task_path.write_bytes(b"junk the requeue cannot stamp")
        claimed = _claim(root, task_path)
        _requeue(root, claimed, 5, "test requeue")
        # Same name, same bytes, back in the queue — never buried on a
        # payload nobody could read a delivery count from.
        assert task_path.read_bytes() == b"junk the requeue cannot stamp"

    def test_redelivery_cap_buries_the_task_with_diagnostics(self, tmp_path):
        root = tmp_path / "q"
        backend = SpoolBackend(
            root, participate=False, reclaim_seconds=0.0, redeliver_cap=2
        )
        backend.open(workers=1, tasks=1, settings=_settings())
        future = backend.submit(CellShard(study_cell()), _settings())
        task_id = future.task_id
        for _ in range(3):  # three stale leases: 2 requeues, then burial
            claimed = _claim(root, root / "tasks" / f"{task_id}.task")
            assert claimed is not None
            stale = time.time() - 60.0
            os.utime(claimed, (stale, stale))
            backend._reclaim_stale({future})
        assert (root / "dead" / f"{task_id}.task").exists()
        diagnostics = json.loads((root / "dead" / f"{task_id}.json").read_text())
        assert diagnostics["label"] == "NELL/SRS/Wilson"
        assert diagnostics["deliveries"] == 3
        assert "redelivery cap" in diagnostics["reason"]
        assert "tasks/" in diagnostics["requeue"]
        # The submitting run still gets an answer: an error result.
        assert future.done()
        with pytest.raises(SpoolTaskError, match="dead"):
            future.result()
        backend.close()
        # close() sweeps tasks/claimed/results but leaves the dead
        # letter for inspection.
        assert (root / "dead" / f"{task_id}.task").exists()


class TestHeartbeat:
    def test_heartbeat_protects_long_tasks_from_reclaim(self, tmp_path):
        spool_dir = tmp_path / "q"
        marker = tmp_path / "starts"
        cell = SlowCell(
            key=("slow",),
            label="slow",
            method="-",
            marker_dir=str(marker),
            sleep_seconds=0.8,
        )
        plan = StudyPlan(settings=_settings(), cells=(cell,), name="heartbeat")
        worker = threading.Thread(
            target=run_worker,
            kwargs=dict(
                root=spool_dir,
                poll_interval=0.01,
                idle_timeout=10.0,
                heartbeat_seconds=0.05,
            ),
        )
        worker.start()
        try:
            backend = SpoolBackend(
                spool_dir, participate=False, reclaim_seconds=0.3
            )
            outcome = ParallelExecutor(RunContext(backend=backend)).run(plan)
        finally:
            worker.join(timeout=30)
        # The 0.8s execution outlived the 0.3s reclaim age, but the
        # heartbeat kept the lease visibly alive: executed exactly once.
        assert outcome.results[("slow",)] == ("slow-done", ("slow",), 2)
        assert starts_recorded(marker) == 1
        assert list((spool_dir / "dead").glob("*")) == []

    def test_stolen_lease_drops_the_duplicate_and_the_rerun_converges(
        self, tmp_path
    ):
        # The contrast case proving the heartbeat test above is real:
        # steal the lease mid-execution (what the reclaim sweep does to
        # a worker without a heartbeat) and the first claimant discards
        # its answer; the redelivered task is executed again and the
        # run converges on the rerun's result — the unit simply cost
        # two executions.
        spool_dir = tmp_path / "q"
        marker = tmp_path / "starts"
        cell = SlowCell(
            key=("slow",),
            label="slow",
            method="-",
            marker_dir=str(marker),
            sleep_seconds=0.8,
        )
        plan = StudyPlan(settings=_settings(), cells=(cell,), name="steal")
        worker = threading.Thread(
            target=run_worker,
            kwargs=dict(
                root=spool_dir,
                poll_interval=0.01,
                idle_timeout=10.0,
                heartbeat_seconds=None,
            ),
        )
        worker.start()
        holder = {}

        def drive():
            backend = SpoolBackend(
                spool_dir, participate=False, reclaim_seconds=None
            )
            try:
                holder["outcome"] = ParallelExecutor(
                    RunContext(backend=backend)
                ).run(plan)
            except BaseException as error:
                holder["error"] = error

        scheduler = threading.Thread(target=drive)
        scheduler.start()
        try:
            deadline = time.monotonic() + 30
            while starts_recorded(marker) < 1 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert starts_recorded(marker) >= 1
            (claimed,) = list((spool_dir / "claimed").glob("*.task"))
            _requeue(spool_dir, claimed, 5, "stolen by the test")
            scheduler.join(timeout=60)
        finally:
            worker.join(timeout=30)
        assert not scheduler.is_alive()
        assert "error" not in holder, holder.get("error")
        outcome = holder["outcome"]
        assert outcome.results[("slow",)] == ("slow-done", ("slow",), 2)
        assert starts_recorded(marker) == 2
        assert list((spool_dir / "dead").glob("*")) == []


class TestWorkerCrash:
    def _spawn_worker(self, spool_dir, *, idle_timeout=None):
        src = Path(__file__).resolve().parents[1] / "src"
        tests = Path(__file__).resolve().parent
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            f"{src}{os.pathsep}{tests}{os.pathsep}" + env.get("PYTHONPATH", "")
        )
        argv = [
            sys.executable,
            "-m",
            "repro",
            "worker",
            str(spool_dir),
            "--poll",
            "0.02",
            "--heartbeat",
            "0.05",
            "--quiet",
        ]
        if idle_timeout is not None:
            argv += ["--idle-timeout", str(idle_timeout)]
        return subprocess.Popen(
            argv,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def _wait_for_start(self, marker, minimum=1, timeout=30.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if starts_recorded(marker) >= minimum:
                return
            time.sleep(0.02)
        raise AssertionError("worker never began executing the slow task")

    def test_sigkilled_worker_is_reclaimed_and_rerun_bit_identically(
        self, tmp_path
    ):
        # The end-to-end crash story: a real detached worker process is
        # SIGKILLed mid-task; the scheduler reclaims the stale lease, a
        # replacement worker reruns the unit, and the run completes
        # with the exact value a crash-free run produces — leaving no
        # stranded lease behind.
        spool_dir = tmp_path / "q"
        marker = tmp_path / "starts"
        cell = SlowCell(
            key=("slow",),
            label="slow",
            method="-",
            marker_dir=str(marker),
            sleep_seconds=1.5,
        )
        plan = StudyPlan(settings=_settings(), cells=(cell,), name="sigkill")
        victim = self._spawn_worker(spool_dir)
        replacement = None
        holder = {}

        def drive():
            backend = SpoolBackend(
                spool_dir, participate=False, reclaim_seconds=0.5
            )
            try:
                holder["outcome"] = ParallelExecutor(
                    RunContext(backend=backend)
                ).run(plan)
            except BaseException as error:  # surfaced after the join
                holder["error"] = error

        scheduler = threading.Thread(target=drive)
        scheduler.start()
        try:
            self._wait_for_start(marker)
            victim.kill()  # SIGKILL: no cleanup, the lease is stranded
            victim.wait(timeout=30)
            replacement = self._spawn_worker(spool_dir, idle_timeout=15)
            scheduler.join(timeout=60)
        finally:
            victim.kill()
            if replacement is not None:
                replacement.kill()
                replacement.wait(timeout=30)
        assert not scheduler.is_alive()
        assert "error" not in holder, holder.get("error")
        outcome = holder["outcome"]
        assert outcome.results[("slow",)] == ("slow-done", ("slow",), 2)
        assert outcome.failures == ()
        # Killed once mid-sleep, rerun once to completion.
        assert starts_recorded(marker) == 2
        assert list((spool_dir / "claimed").iterdir()) == []
        assert list((spool_dir / "dead").glob("*")) == []

    def test_capped_crashing_task_is_buried_while_the_run_continues(
        self, tmp_path
    ):
        # The acceptance scenario: with a redelivery cap of zero, the
        # task whose worker died is buried in dead/ (diagnostics
        # sidecar included) instead of redelivered, and an
        # on_error="continue" run returns every healthy cell plus the
        # failure record.
        spool_dir = tmp_path / "q"
        marker = tmp_path / "starts"
        slow = SlowCell(
            key=("slow",),
            label="slow",
            method="-",
            marker_dir=str(marker),
            sleep_seconds=2.5,
        )
        good = study_cell()
        plan = StudyPlan(
            settings=_settings(), cells=(good, slow), name="dead-letter"
        )
        victim = self._spawn_worker(spool_dir)
        holder = {}

        def drive():
            backend = SpoolBackend(
                spool_dir,
                participate=False,
                reclaim_seconds=0.5,
                redeliver_cap=0,
            )
            executor = ParallelExecutor(
                RunContext(backend=backend, max_retries=0, on_error="continue")
            )
            try:
                holder["outcome"] = executor.run(plan)
            except BaseException as error:
                holder["error"] = error

        scheduler = threading.Thread(target=drive)
        scheduler.start()
        try:
            self._wait_for_start(marker)
            victim.kill()
            victim.wait(timeout=30)
            scheduler.join(timeout=60)
        finally:
            victim.kill()
        assert not scheduler.is_alive()
        assert "error" not in holder, holder.get("error")
        outcome = holder["outcome"]
        # The healthy cell completed; the poison task was quarantined.
        assert set(outcome.results) == {good.key}
        (failure,) = outcome.failures
        assert failure.label == "slow"
        assert "dead" in failure.error
        dead_tasks = list((spool_dir / "dead").glob("*.task"))
        assert len(dead_tasks) == 1
        diagnostics = json.loads(
            (spool_dir / "dead" / f"{dead_tasks[0].stem}.json").read_text()
        )
        assert diagnostics["label"] == "slow"
        assert diagnostics["deliveries"] == 1
