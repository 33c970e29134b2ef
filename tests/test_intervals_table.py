"""Solve-table tests: bit-identity, persistence, and routing.

The small-n solve table (:mod:`repro.intervals.table`) is pure
memoisation: for every method, alpha, and eligible batch, the served
bounds must be *bitwise* equal to a direct ``compute_batch`` — and to a
pooled :class:`~repro.runtime.solvebatch.SolveBroker` flush, which is
the other consult point.  These tests pin that three-way identity for
all nine methods, the mmap sidecar round-trip (including a genuinely
fresh process), and the table's strict fall-through for anything it
cannot serve exactly.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

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
        assert (stats["hits"], stats["misses"], stats["ineligible"]) == (2, 4, 3)


class TestPersistence:
    def test_sidecar_round_trip_in_fresh_table(self, tmp_path):
        method = ETCredibleInterval()
        evidences = [Evidence.from_counts(tau, 9) for tau in range(10)]
        direct = method.compute_batch(evidences, 0.05)
        SolveTable(tmp_path, cap=16).serve(method, evidences, 0.05)
        fresh = SolveTable(tmp_path, cap=16)
        served = fresh.serve(method, evidences, 0.05, build=False)
        assert served is not None and batches_equal(direct, served)
        assert fresh.stats()["builds"] == 0
        assert fresh.stats()["sidecar_loads"] == 1

    def test_sidecar_round_trip_in_fresh_process(self, tmp_path):
        method = AdaptiveHPD()  # the label-carrying selector
        evidences = [Evidence.from_counts(tau, 6) for tau in range(7)]
        direct = method.compute_batch(evidences, 0.05)
        SolveTable(tmp_path, cap=16).serve(method, evidences, 0.05)
        script = (
            "import numpy as np\n"
            "from repro.estimators.base import Evidence\n"
            "from repro.intervals import AdaptiveHPD\n"
            "from repro.intervals.table import SolveTable\n"
            f"table = SolveTable({str(tmp_path)!r}, cap=16)\n"
            "evs = [Evidence.from_counts(t, 6) for t in range(7)]\n"
            "served = table.serve(AdaptiveHPD(), evs, 0.05, build=False)\n"
            "assert served is not None, 'sidecar not served'\n"
            "assert table.stats()['builds'] == 0\n"
            "print(served.lower.tobytes().hex())\n"
            "print(served.upper.tobytes().hex())\n"
            "print('|'.join(served.labels))\n"
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
        lower_hex, upper_hex, labels = proc.stdout.strip().splitlines()
        assert lower_hex == direct.lower.tobytes().hex()
        assert upper_hex == direct.upper.tobytes().hex()
        assert tuple(labels.split("|")) == direct.labels

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
        SolveTable(tmp_path, cap=8).serve(method, evidences, 0.05)
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
