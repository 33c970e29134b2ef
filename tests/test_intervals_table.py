"""Solve-table tests: bit-identity, persistence, and routing.

The small-n solve table (:mod:`repro.intervals.table`) is pure
memoisation: for every method, alpha, and eligible batch, the served
bounds must be *bitwise* equal to a direct ``compute_batch`` — and to a
pooled :class:`~repro.runtime.solvebatch.SolveBroker` flush, which is
the other consult point.  These tests pin that three-way identity for
all nine methods, on-demand fills (a serve solves only the rows the
table lacks), the mmap sidecar round-trip of full and partial tables
(including a genuinely fresh process) and its commit order, and the
table's strict fall-through for anything it cannot serve exactly.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.estimators.base import Evidence
from repro.intervals import (
    AdaptiveHPD,
    AgrestiCoullInterval,
    ArcsineInterval,
    ClopperPearsonInterval,
    ETCredibleInterval,
    HPDCredibleInterval,
    Interval,
    IntervalMethod,
    LogitInterval,
    WaldInterval,
    WilsonInterval,
)
from repro.intervals.base import use_solve_pool, use_solve_table
from repro.intervals.table import (
    DEFAULT_TABLE_CAP,
    TABLE_SCHEMA_VERSION,
    SolveTable,
    shared_table,
    sidecar_summary,
)
from repro.runtime.solvebatch import SolveBroker
from repro.runtime.store import ResultStore

ALL_METHODS = (
    WaldInterval, WilsonInterval, AgrestiCoullInterval,
    ClopperPearsonInterval, ArcsineInterval, LogitInterval,
    ETCredibleInterval, HPDCredibleInterval, AdaptiveHPD,
)


def batches_equal(a, b) -> bool:
    return (
        a.lower.tobytes() == b.lower.tobytes()
        and a.upper.tobytes() == b.upper.tobytes()
        and a.alpha == b.alpha
        and a.method == b.method
        and a.labels == b.labels
    )


def fresh_process_serve(root, n: int, taus, build: bool) -> list[str] | None:
    """Serve aHPD rows *taus* of *n* from a table in a new interpreter.

    Returns ``[lower hex, upper hex, labels, builds, rows_solved]`` or
    ``None`` when the table fell through.
    """
    script = (
        "from repro.estimators.base import Evidence\n"
        "from repro.intervals import AdaptiveHPD\n"
        "from repro.intervals.table import SolveTable\n"
        f"table = SolveTable({str(root)!r}, cap=256)\n"
        f"evs = [Evidence.from_counts(t, {n}) for t in {list(taus)!r}]\n"
        f"served = table.serve(AdaptiveHPD(), evs, 0.05, build={build!r})\n"
        "stats = table.stats()\n"
        "print('none' if served is None else '\\n'.join([\n"
        "    served.lower.tobytes().hex(), served.upper.tobytes().hex(),\n"
        "    '|'.join(served.labels), str(stats['builds']),\n"
        "    str(stats['rows_solved'])]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).parents[1]) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return None if lines == ["none"] else lines


def sidecar_pair(root) -> tuple[Path, Path]:
    """The one table's .npy and its (possibly absent) .labels.json."""
    (npy,) = (Path(root) / "solvetable").glob("*.npy")
    return npy, npy.with_name(npy.name[: -len(".npy")] + ".labels.json")


class TestBitIdentity:
    @pytest.mark.parametrize("method_cls", ALL_METHODS)
    @pytest.mark.parametrize("alpha", [0.05, 0.2])
    def test_served_equals_direct_for_every_tau(self, tmp_path, method_cls, alpha):
        method = method_cls()
        table = SolveTable(tmp_path, cap=64)
        for n in (1, 2, 17, 64):
            evidences = [Evidence.from_counts(tau, n) for tau in range(n + 1)]
            direct = method.compute_batch(evidences, alpha)
            served = table.serve(method, evidences, alpha)
            assert served is not None
            assert batches_equal(direct, served)

    def test_mixed_n_batches_and_repeat_rows(self, tmp_path):
        method = HPDCredibleInterval()
        table = SolveTable(tmp_path, cap=64)
        evidences = [
            Evidence.from_counts(tau, n)
            for tau, n in [(3, 7), (0, 1), (7, 7), (3, 7), (20, 41), (41, 41)]
        ]
        direct = method.compute_batch(evidences, 0.1)
        served = table.serve(method, evidences, 0.1)
        assert served is not None and batches_equal(direct, served)

    def test_solve_batch_routes_through_ambient_table(self, tmp_path):
        method = AdaptiveHPD()
        evidences = [Evidence.from_counts(tau, 12) for tau in range(13)]
        direct = method.compute_batch(evidences, 0.05)
        table = SolveTable(tmp_path, cap=64)
        with use_solve_table(table):
            served = method.solve_batch(evidences, 0.05)
        assert batches_equal(direct, served)
        # The first serve builds the table: answered, but a miss.
        assert (table.stats()["hits"], table.stats()["misses"]) == (0, 1)
        assert table.stats()["rows_served"] == 13

    def test_pooled_broker_flush_serves_from_the_table(self, tmp_path):
        """Three-way identity: direct == table-served == broker flush."""
        method = WilsonInterval()
        evidences = [Evidence.from_counts(tau, 20) for tau in range(21)]
        direct = method.compute_batch(evidences, 0.05)
        table = SolveTable(tmp_path, cap=64)
        broker = SolveBroker(window=0.05, max_batch=8)
        results: dict[int, object] = {}

        def solve(slot: int) -> None:
            channel = broker.channel(None)
            with channel, use_solve_pool(channel), use_solve_table(table):
                results[slot] = method.solve_batch(evidences, 0.05)

        threads = [threading.Thread(target=solve, args=(i,)) for i in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        broker.close()
        for slot in range(3):
            assert batches_equal(direct, results[slot])
        # The cold solves went through the broker (the table could not
        # serve without building), and the flush built the table once —
        # after which warm solve_batch calls bypass the broker entirely.
        stats = table.stats()
        assert stats["builds"] == 1
        assert stats["hits"] >= 1
        with use_solve_pool(broker.channel(None)), use_solve_table(table):
            warm = method.solve_batch(evidences, 0.05)
        assert batches_equal(direct, warm)
        assert broker.rows_solved <= 3 * len(evidences)


class TestCounters:
    def test_first_serve_misses_and_repeat_hits(self, tmp_path):
        method = AdaptiveHPD()
        evidences = [Evidence.from_counts(tau, 9) for tau in range(10)]
        table = SolveTable(tmp_path, cap=16)
        assert table.serve(method, evidences, 0.05) is not None
        assert (table.stats()["hits"], table.stats()["misses"]) == (0, 1)
        assert table.serve(method, evidences, 0.05) is not None
        assert (table.stats()["hits"], table.stats()["misses"]) == (1, 1)
        # A sidecar load is not an in-memory hit either.
        assert table.flush() == 1
        fresh = SolveTable(tmp_path, cap=16)
        assert fresh.serve(method, evidences, 0.05, build=False) is not None
        assert (fresh.stats()["hits"], fresh.stats()["misses"]) == (0, 1)

    def test_a_batch_needing_one_new_table_is_a_miss(self, tmp_path):
        method = WilsonInterval()
        table = SolveTable(None, cap=16)
        table.serve(method, [Evidence.from_counts(2, 5)], 0.05)
        mixed = [Evidence.from_counts(2, 5), Evidence.from_counts(3, 7)]
        assert table.serve(method, mixed, 0.05) is not None
        assert (table.stats()["hits"], table.stats()["misses"]) == (0, 2)
        assert table.serve(method, mixed, 0.05) is not None
        assert (table.stats()["hits"], table.stats()["misses"]) == (1, 2)

    def test_every_serve_call_is_counted_once(self, tmp_path):
        table = SolveTable(tmp_path, cap=16)
        stratified = Evidence(
            mu_hat=0.5, variance=0.01, n_effective=12.5,
            tau_effective=6.25, n_annotated=12,
        )
        calls = [
            (HPDCredibleInterval(), [Evidence.from_counts(3, 8)], True),
            (HPDCredibleInterval(), [Evidence.from_counts(5, 8)], True),
            (HPDCredibleInterval(), [Evidence.from_counts(4, 9)], False),
            (WilsonInterval(), [stratified], True),
            (WilsonInterval(), [Evidence.from_counts(1, 40)], True),
            (WilsonInterval(), [], True),
            (ETCredibleInterval(), [Evidence.from_counts(0, 3)], False),
            (ETCredibleInterval(), [Evidence.from_counts(0, 3)], True),
            (ETCredibleInterval(), [Evidence.from_counts(3, 3)], False),
        ]
        for method, evidences, build in calls:
            table.serve(method, evidences, 0.05, build=build)
        stats = table.stats()
        assert stats["hits"] + stats["misses"] + stats["ineligible"] == len(calls)
        # Every eligible call needed a row its table did not hold yet
        # (a new tau at a touched n is a miss too), so none is a hit.
        assert (stats["hits"], stats["misses"], stats["ineligible"]) == (0, 6, 3)


class TestPersistence:
    def test_sidecar_round_trip_in_fresh_table(self, tmp_path):
        method = ETCredibleInterval()
        evidences = [Evidence.from_counts(tau, 9) for tau in range(10)]
        direct = method.compute_batch(evidences, 0.05)
        table = SolveTable(tmp_path, cap=16)
        table.serve(method, evidences, 0.05)
        table.flush()
        fresh = SolveTable(tmp_path, cap=16)
        served = fresh.serve(method, evidences, 0.05, build=False)
        assert served is not None and batches_equal(direct, served)
        assert fresh.stats()["builds"] == 0
        assert fresh.stats()["sidecar_loads"] == 1

    def test_sidecar_round_trip_in_fresh_process(self, tmp_path):
        method = AdaptiveHPD()  # the label-carrying selector
        evidences = [Evidence.from_counts(tau, 6) for tau in range(7)]
        direct = method.compute_batch(evidences, 0.05)
        table = SolveTable(tmp_path, cap=16)
        table.serve(method, evidences, 0.05)
        table.flush()
        lower_hex, upper_hex, labels, builds, _ = fresh_process_serve(
            tmp_path, 6, range(7), build=False
        )
        assert lower_hex == direct.lower.tobytes().hex()
        assert upper_hex == direct.upper.tobytes().hex()
        assert tuple(labels.split("|")) == direct.labels
        assert builds == "0"

    def test_corrupt_sidecar_is_rebuilt_not_served(self, tmp_path):
        method = WilsonInterval()
        evidences = [Evidence.from_counts(tau, 5) for tau in range(6)]
        direct = method.compute_batch(evidences, 0.05)
        table = SolveTable(tmp_path, cap=8)
        table.serve(method, evidences, 0.05)
        sidecar_dir = tmp_path / "solvetable"
        for path in sidecar_dir.glob("*.npy"):
            path.write_bytes(b"not an npy file")
        fresh = SolveTable(tmp_path, cap=8)
        served = fresh.serve(method, evidences, 0.05)
        assert served is not None and batches_equal(direct, served)
        assert fresh.stats()["builds"] == 1  # rebuilt over the bad file

    def test_cache_entries_coexist_before_and_after_tables(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save("a" * 40, {"value": 1, "label": "before", "seconds": 0.0})
        before = store.stats()
        method = HPDCredibleInterval()
        evidences = [Evidence.from_counts(2, 4)]
        table = SolveTable(tmp_path, cap=8)
        table.serve(method, evidences, 0.05)
        table.flush()
        assert sidecar_summary(tmp_path)["entries"] == 1
        store.save("b" * 40, {"value": 2, "label": "after", "seconds": 0.0})
        # The store never sees the sidecars: entry counts and bytes
        # move only by the .pkl entry written after the table.
        after = store.stats()
        assert after["entries"] == before["entries"] + 1
        assert store.load("a" * 40)["value"] == 1
        assert store.load("b" * 40)["value"] == 2
        # And the table still serves beside the new entries.
        fresh = SolveTable(tmp_path, cap=8)
        assert fresh.serve(method, evidences, 0.05, build=False) is not None


class TestOnDemandFill:
    def test_one_row_serve_solves_one_row(self, tmp_path):
        method = AdaptiveHPD()
        seen: list[int] = []
        compute_batch = method.compute_batch

        def spy(evidences, alpha):
            seen.append(len(evidences))
            return compute_batch(evidences, alpha)

        method.compute_batch = spy
        evidences = [Evidence.from_counts(57, 200)]
        table = SolveTable(tmp_path, cap=256)
        served = table.serve(method, evidences, 0.05)
        assert batches_equal(compute_batch(evidences, 0.05), served)
        assert seen == [1]
        stats = table.stats()
        assert (stats["builds"], stats["rows_solved"]) == (1, 1)

    def test_new_tau_at_a_touched_n_misses_and_a_repeat_hits(self, tmp_path):
        method = HPDCredibleInterval()
        table = SolveTable(tmp_path, cap=256)
        table.serve(method, [Evidence.from_counts(57, 200)], 0.05)
        other = [Evidence.from_counts(58, 200)]
        assert batches_equal(
            method.compute_batch(other, 0.05), table.serve(method, other, 0.05)
        )
        stats = table.stats()
        assert (stats["hits"], stats["misses"], stats["rows_solved"]) == (0, 2, 2)
        assert table.serve(method, other, 0.05) is not None
        stats = table.stats()
        assert (stats["hits"], stats["misses"], stats["rows_solved"]) == (1, 2, 2)

    def test_repeated_rows_in_one_batch_solve_once(self, tmp_path):
        method = WilsonInterval()
        evidences = [Evidence.from_counts(tau, 9) for tau in (4, 4, 1, 4, 1)]
        table = SolveTable(tmp_path, cap=16)
        served = table.serve(method, evidences, 0.05)
        assert batches_equal(method.compute_batch(evidences, 0.05), served)
        assert table.stats()["rows_solved"] == 2

    @pytest.mark.parametrize("method_cls", ALL_METHODS)
    @pytest.mark.parametrize("alpha", [0.05, 0.2])
    def test_one_tau_at_a_time_in_any_order_equals_compute_batch(
        self, method_cls, alpha
    ):
        method = method_cls()
        n = 40
        evidences = [Evidence.from_counts(tau, n) for tau in range(n + 1)]
        direct = method.compute_batch(evidences, alpha)
        table = SolveTable(None, cap=64)
        order = list(range(n + 1))
        random.Random(f"{method_cls.__name__}-{alpha}").shuffle(order)
        for tau in order:
            single = table.serve(method, [evidences[tau]], alpha)
            assert single.lower.tobytes() == direct.lower[tau : tau + 1].tobytes()
            assert single.upper.tobytes() == direct.upper[tau : tau + 1].tobytes()
            want = None if direct.labels is None else (direct.labels[tau],)
            assert single.labels == want
        assert table.stats()["rows_solved"] == n + 1
        assert batches_equal(direct, table.serve(method, evidences, alpha))
        assert table.stats()["rows_solved"] == n + 1


class TestPartialSidecars:
    def test_partial_sidecar_round_trips_in_fresh_process(self, tmp_path):
        method = AdaptiveHPD()
        held = [0, 3, 17, 40]
        evidences = [Evidence.from_counts(tau, 40) for tau in held]
        direct = method.compute_batch(evidences, 0.05)
        table = SolveTable(tmp_path, cap=256)
        table.serve(method, evidences, 0.05)
        assert table.flush() == 1
        lower_hex, upper_hex, labels, builds, rows = fresh_process_serve(
            tmp_path, 40, held, build=False
        )
        assert lower_hex == direct.lower.tobytes().hex()
        assert upper_hex == direct.upper.tobytes().hex()
        assert tuple(labels.split("|")) == direct.labels
        assert (builds, rows) == ("0", "0")
        # A row the sidecar does not hold: no answer without solving...
        assert fresh_process_serve(tmp_path, 40, [3, 5], build=False) is None
        # ...and with solving, exactly that row is solved.
        *_, builds, rows = fresh_process_serve(tmp_path, 40, [3, 5], build=True)
        assert (builds, rows) == ("1", "1")

    def test_build_false_misses_and_build_true_solves_only_the_missing_row(
        self, tmp_path
    ):
        method = ETCredibleInterval()
        table = SolveTable(tmp_path, cap=16)
        table.serve(method, [Evidence.from_counts(1, 9)], 0.05)
        table.flush()
        evidences = [Evidence.from_counts(1, 9), Evidence.from_counts(5, 9)]
        fresh = SolveTable(tmp_path, cap=16)
        assert fresh.serve(method, evidences, 0.05, build=False) is None
        served = fresh.serve(method, evidences, 0.05)
        assert batches_equal(method.compute_batch(evidences, 0.05), served)
        stats = fresh.stats()
        assert (stats["sidecar_loads"], stats["builds"], stats["rows_solved"]) == (
            1, 1, 1,
        )
        assert (stats["hits"], stats["misses"]) == (0, 2)

    def test_flush_with_nothing_dirty_writes_nothing(self, tmp_path):
        method = AdaptiveHPD()
        evidences = [Evidence.from_counts(2, 5)]
        table = SolveTable(tmp_path, cap=8)
        assert table.flush() == 0
        assert not (tmp_path / "solvetable").exists()
        table.serve(method, evidences, 0.05)
        assert table.flush() == 1
        npy, labels = sidecar_pair(tmp_path)
        stamps = (npy.stat().st_mtime_ns, labels.stat().st_mtime_ns)
        table.serve(method, evidences, 0.05)  # a hit fills nothing
        assert table.flush() == 0
        fresh = SolveTable(tmp_path, cap=8)
        assert fresh.serve(method, evidences, 0.05, build=False) is not None
        assert fresh.flush() == 0  # a load fills nothing either
        assert (npy.stat().st_mtime_ns, labels.stat().st_mtime_ns) == stamps
        assert sorted(path.name for path in npy.parent.iterdir()) == sorted(
            [npy.name, labels.name]
        )

    def test_memory_only_table_never_writes(self, tmp_path):
        table = SolveTable(None, cap=8)
        table.serve(WilsonInterval(), [Evidence.from_counts(2, 5)], 0.05)
        assert table.flush() == 0

    @pytest.mark.parametrize("bound", [0, 1])
    def test_row_with_nan_in_one_bound_is_solved_again(self, tmp_path, bound):
        method = HPDCredibleInterval()
        evidences = [Evidence.from_counts(tau, 6) for tau in range(7)]
        table = SolveTable(tmp_path, cap=8)
        table.serve(method, evidences, 0.05)
        table.flush()
        npy, _ = sidecar_pair(tmp_path)
        bounds = np.load(npy)
        bounds[bound, 4] = np.nan
        np.save(npy, bounds)
        fresh = SolveTable(tmp_path, cap=8)
        assert fresh.serve(method, evidences, 0.05, build=False) is None
        served = fresh.serve(method, evidences, 0.05)
        assert batches_equal(method.compute_batch(evidences, 0.05), served)
        assert fresh.stats()["rows_solved"] == 1


class TestSidecarCommit:
    """The ``.npy`` replace commits a sidecar pair; its labels land first."""

    def test_write_interrupted_after_the_labels_serves_no_row_unlabelled(
        self, tmp_path, monkeypatch
    ):
        method = AdaptiveHPD()
        evidences = [Evidence.from_counts(tau, 6) for tau in range(7)]
        direct = method.compute_batch(evidences, 0.05)
        assert direct.labels[3] == "aHPD[Uniform]"
        first = SolveTable(tmp_path, cap=16)
        first.serve(method, evidences[:4], 0.05)
        first.flush()
        # A later process solves rows 4-6; its write dies after the
        # labels landed and before the .npy replace (a crash, a full disk).
        second = SolveTable(tmp_path, cap=16)
        second.serve(method, evidences, 0.05)

        def disk_full(*args, **kwargs):
            raise OSError(28, "No space left on device")

        with monkeypatch.context() as patch:
            patch.setattr("repro.intervals.table.np.save", disk_full)
            assert second.flush() == 0
        npy, labels = sidecar_pair(tmp_path)
        assert json.loads(labels.read_text()) == list(direct.labels)
        assert int(np.count_nonzero(~np.isnan(np.load(npy)[0]))) == 4
        fresh = SolveTable(tmp_path, cap=16)
        assert fresh.serve(method, evidences, 0.05, build=False) is None
        held = fresh.serve(method, evidences[:4], 0.05, build=False)
        assert held.labels == direct.labels[:4]
        assert batches_equal(direct, fresh.serve(method, evidences, 0.05))
        assert fresh.stats()["rows_solved"] == 3

    def test_crossed_pairs_solve_held_rows_without_labels_again(self, tmp_path):
        # Two processes write the same table: the labels of one and the
        # .npy of the other end up on disk.
        method = AdaptiveHPD()
        evidences = [Evidence.from_counts(tau, 6) for tau in range(7)]
        one, two = SolveTable(tmp_path, cap=16), SolveTable(tmp_path, cap=16)
        one.serve(method, evidences[:2], 0.05)
        two.serve(method, evidences[2:4], 0.05)
        one.flush()
        npy, _ = sidecar_pair(tmp_path)
        rows_of_one = npy.read_bytes()
        two.flush()
        npy.write_bytes(rows_of_one)
        fresh = SolveTable(tmp_path, cap=16)
        assert fresh.serve(method, evidences[:2], 0.05, build=False) is None
        served = fresh.serve(method, evidences, 0.05)
        assert batches_equal(method.compute_batch(evidences, 0.05), served)
        assert fresh.stats()["rows_solved"] == 7


class TestConcurrentFills:
    def test_threads_fill_and_flush_one_table(self, tmp_path):
        # More threads than cores, a short switch interval: serves, fills
        # and flushes interleave.  Each row must be solved exactly once
        # (a lost update would solve it twice or serve a NaN), every
        # answer must equal compute_batch, and the last flush must leave
        # every row on disk.
        method = AdaptiveHPD()
        n = 30
        evidences = [Evidence.from_counts(tau, n) for tau in range(n + 1)]
        direct = method.compute_batch(evidences, 0.05)
        table = SolveTable(tmp_path, cap=64)
        errors: list[BaseException] = []

        def work(seed: int) -> None:
            rng = random.Random(seed)
            try:
                for _ in range(40):
                    taus = rng.sample(range(n + 1), 3)
                    served = table.serve(method, [evidences[t] for t in taus], 0.05)
                    assert served.lower.tobytes() == direct.lower[taus].tobytes()
                    assert served.upper.tobytes() == direct.upper[taus].tobytes()
                    assert served.labels == tuple(direct.labels[t] for t in taus)
                    if rng.random() < 0.2:
                        table.flush()
            except BaseException as exc:  # surfaced in the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[0]
        assert table.stats()["rows_solved"] == n + 1
        table.flush()
        fresh = SolveTable(tmp_path, cap=64)
        served = fresh.serve(method, evidences, 0.05, build=False)
        assert served is not None and batches_equal(direct, served)


class TestSidecarInventory:
    def test_summary_counts_current_tables_and_stale_files_apart(self, tmp_path):
        method = WilsonInterval()
        table = SolveTable(tmp_path, cap=16)
        table.serve(method, [Evidence.from_counts(tau, 9) for tau in (1, 2, 3)], 0.05)
        table.serve(method, [Evidence.from_counts(0, 4)], 0.05)
        assert table.flush() == 2
        base = tmp_path / "solvetable"
        assert all(
            path.name.startswith(f"v{TABLE_SCHEMA_VERSION}-")
            for path in base.iterdir()
        )
        current_bytes = sum(path.stat().st_size for path in base.iterdir())
        # An older schema's pair and a write's leftover tmp file.
        (base / ("a" * 64 + ".npy")).write_bytes(b"x" * 100)
        (base / ("a" * 64 + ".labels.json")).write_bytes(b"x" * 20)
        (base / f"v{TABLE_SCHEMA_VERSION}-{'b' * 64}.npy.tmp-1-2").write_bytes(b"x" * 5)
        summary = sidecar_summary(tmp_path)
        assert summary["entries"] == 2
        assert summary["bytes"] == current_bytes
        assert summary["rows_solved"] == 4
        assert (summary["stale_files"], summary["stale_bytes"]) == (3, 125)


class TestEligibility:
    def test_non_integer_counts_fall_through(self, tmp_path):
        table = SolveTable(tmp_path, cap=64)
        stratified = Evidence(
            mu_hat=0.5, variance=0.01, n_effective=12.5,
            tau_effective=6.25, n_annotated=12,
        )
        assert table.serve(WilsonInterval(), [stratified], 0.05) is None
        assert table.stats()["ineligible"] == 1

    def test_over_cap_and_disabled_fall_through(self, tmp_path):
        evidences = [Evidence.from_counts(3, 10)]
        assert SolveTable(tmp_path, cap=4).serve(
            WilsonInterval(), evidences, 0.05
        ) is None
        assert SolveTable(tmp_path, cap=0).serve(
            WilsonInterval(), evidences, 0.05
        ) is None

    def test_unencodable_method_falls_through(self, tmp_path):
        class Custom(IntervalMethod):
            name = "custom"

            def compute(self, evidence, alpha):
                return Interval(lower=0.0, upper=1.0, alpha=alpha)

        table = SolveTable(tmp_path, cap=64)
        assert table.serve(Custom(), [Evidence.from_counts(1, 2)], 0.05) is None
        assert table.stats()["ineligible"] == 1

    def test_mixed_eligibility_is_all_or_nothing(self, tmp_path):
        table = SolveTable(tmp_path, cap=64)
        evidences = [
            Evidence.from_counts(1, 2),
            Evidence(
                mu_hat=0.4, variance=0.02, n_effective=9.5,
                tau_effective=3.8, n_annotated=9,
            ),
        ]
        assert table.serve(WilsonInterval(), evidences, 0.05) is None
        assert table.stats()["builds"] == 0

    def test_empty_batch_falls_through(self, tmp_path):
        assert SolveTable(tmp_path, cap=8).serve(WilsonInterval(), [], 0.05) is None


class TestRegistry:
    def test_shared_table_is_per_root_and_cap(self, tmp_path):
        a = shared_table(tmp_path, 32)
        assert shared_table(tmp_path, 32) is a
        assert shared_table(tmp_path, 64) is not a
        assert shared_table(None, 32) is not a
        assert a.cap == 32 and a.root == Path(tmp_path)

    def test_default_cap_matches_settings_default(self, monkeypatch):
        from repro.runtime.settings import resolve_solve_table

        monkeypatch.delenv("REPRO_SOLVE_TABLE", raising=False)
        assert DEFAULT_TABLE_CAP == 2048
        assert resolve_solve_table(None) == DEFAULT_TABLE_CAP
