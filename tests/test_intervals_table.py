"""Solve-table tests: bit-identity, counters, and routing.

The small-n solve table (:mod:`repro.intervals.table`) is pure
memoisation: for every method, alpha, and eligible batch, the served
bounds must be *bitwise* equal to a direct ``compute_batch`` — and to a
pooled :class:`~repro.runtime.solvebatch.SolveBroker` flush, which is
the other consult point.  These tests pin that three-way identity for
all nine methods, on-demand fills (a serve solves only the rows the
table lacks, once, even under concurrent serves), per-run tallies, that
tables live in process memory only (nothing reaches disk, a new process
starts empty, a forked one keeps its parent's rows), and the table's
strict fall-through for anything it cannot serve exactly: every
``Evidence.from_counts`` row within the cap is served, and the same row
one ulp off in any column is not.
"""

from __future__ import annotations

import dataclasses
import inspect
import multiprocessing
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

import repro
from repro.estimators.base import Evidence
from repro.exceptions import ValidationError
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
from repro.intervals.batch import BatchIntervals
from repro.intervals.table import (
    DEFAULT_TABLE_CAP,
    SolveTable,
    TableTally,
    peek_tables,
    reset_shared_tables,
    shared_table,
)
from repro.runtime.solvebatch import SolveBroker

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
    def test_served_equals_direct_for_every_tau(self, method_cls, alpha):
        method = method_cls()
        table = SolveTable(cap=64)
        for n in (1, 2, 17, 64):
            evidences = [Evidence.from_counts(tau, n) for tau in range(n + 1)]
            direct = method.compute_batch(evidences, alpha)
            served = table.serve(method, evidences, alpha)
            assert served is not None
            assert batches_equal(direct, served)

    def test_mixed_n_batches_and_repeat_rows(self):
        method = HPDCredibleInterval()
        table = SolveTable(cap=64)
        evidences = [
            Evidence.from_counts(tau, n)
            for tau, n in [(3, 7), (0, 1), (7, 7), (3, 7), (20, 41), (41, 41)]
        ]
        direct = method.compute_batch(evidences, 0.1)
        served = table.serve(method, evidences, 0.1)
        assert served is not None and batches_equal(direct, served)

    def test_a_hit_is_not_revalidated_and_the_constructor_still_checks(
        self, monkeypatch
    ):
        method = WilsonInterval()
        evidences = [Evidence.from_counts(27, 30)]
        table = SolveTable(cap=64)
        solved = table.serve(method, evidences, 0.05)

        def revalidated(self):
            raise AssertionError("a served batch was validated again")

        monkeypatch.setattr(BatchIntervals, "__post_init__", revalidated)
        hit = table.serve(method, evidences, 0.05)
        assert table.stats()["hits"] == 1
        assert batches_equal(solved, hit)
        monkeypatch.undo()
        # Rows reach the table only as compute_batch outputs, and those
        # (like any public construction) still fail loudly on a NaN row.
        with pytest.raises(ValidationError):
            BatchIntervals(lower=np.array([np.nan]), upper=np.array([0.5]), alpha=0.05)

    def test_solve_batch_routes_through_ambient_table(self):
        method = AdaptiveHPD()
        evidences = [Evidence.from_counts(tau, 12) for tau in range(13)]
        direct = method.compute_batch(evidences, 0.05)
        table = SolveTable(cap=64)
        with use_solve_table(table):
            served = method.solve_batch(evidences, 0.05)
        assert batches_equal(direct, served)
        # The first serve builds the table: answered, but a miss.
        assert (table.stats()["hits"], table.stats()["misses"]) == (0, 1)
        assert table.stats()["rows_served"] == 13

    def test_pooled_broker_flush_serves_from_the_table(self):
        """Three-way identity: direct == table-served == broker flush."""
        method = WilsonInterval()
        evidences = [Evidence.from_counts(tau, 20) for tau in range(21)]
        direct = method.compute_batch(evidences, 0.05)
        table = SolveTable(cap=64)
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
    def test_first_serve_misses_and_repeat_hits(self):
        method = AdaptiveHPD()
        evidences = [Evidence.from_counts(tau, 9) for tau in range(10)]
        table = SolveTable(cap=16)
        assert table.serve(method, evidences, 0.05) is not None
        assert (table.stats()["hits"], table.stats()["misses"]) == (0, 1)
        assert table.serve(method, evidences, 0.05) is not None
        assert (table.stats()["hits"], table.stats()["misses"]) == (1, 1)

    def test_a_batch_needing_one_new_table_is_a_miss(self):
        method = WilsonInterval()
        table = SolveTable(cap=16)
        table.serve(method, [Evidence.from_counts(2, 5)], 0.05)
        mixed = [Evidence.from_counts(2, 5), Evidence.from_counts(3, 7)]
        assert table.serve(method, mixed, 0.05) is not None
        assert (table.stats()["hits"], table.stats()["misses"]) == (0, 2)
        assert table.serve(method, mixed, 0.05) is not None
        assert (table.stats()["hits"], table.stats()["misses"]) == (1, 2)

    def test_every_serve_call_is_counted_once(self):
        table = SolveTable(cap=16)
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

    def test_tallies_count_their_own_serves_and_the_table_counts_all(self):
        method = WilsonInterval()
        table = SolveTable(cap=16)
        one, two = TableTally(table), TableTally(table)
        evidences = [Evidence.from_counts(tau, 5) for tau in (1, 2)]
        assert batches_equal(
            method.compute_batch(evidences, 0.05), one.serve(method, evidences, 0.05)
        )
        assert two.serve(method, evidences, 0.05) is not None
        assert two.serve(method, [Evidence.from_counts(3, 7)], 0.05) is not None
        assert two.serve(method, [], 0.05) is None
        counts = ("hits", "misses", "ineligible", "builds", "rows_solved", "rows_served")

        def picked(stats):
            return tuple(stats[name] for name in counts)

        assert picked(one.stats()) == (0, 1, 0, 1, 2, 2)
        assert picked(two.stats()) == (1, 1, 1, 1, 1, 3)
        assert picked(table.stats()) == (1, 2, 1, 2, 3, 5)
        assert one.stats()["build_seconds"] > 0.0
        assert one.stats()["entries"] == table.stats()["entries"] == 2

    def test_a_tally_forwards_each_serve_to_the_table_exactly_once(
        self, monkeypatch
    ):
        # Benchmark tracing counts SolveTable.serve calls; a tally in
        # front of the table must not change that count.
        builds: list[bool] = []
        serve = SolveTable.serve

        def counted(self, *args, **kwargs):
            builds.append(kwargs.get("build", True))
            return serve(self, *args, **kwargs)

        monkeypatch.setattr(SolveTable, "serve", counted)
        method = ETCredibleInterval()
        table = SolveTable(cap=16)
        tally = TableTally(table)
        stratified = Evidence(
            mu_hat=0.5, variance=0.01, n_effective=12.5,
            tau_effective=6.25, n_annotated=12,
        )
        assert tally.serve(method, [Evidence.from_counts(1, 9)], 0.05) is not None
        assert tally.serve(method, [Evidence.from_counts(1, 9)], 0.05) is not None
        assert tally.serve(
            method, [Evidence.from_counts(2, 9)], 0.05, build=False
        ) is None
        assert tally.serve(method, [stratified], 0.05) is None
        assert tally.serve(method, [], 0.05) is None
        assert builds == [True, True, False, True, True]
        stats = tally.stats()
        assert (stats["hits"], stats["misses"], stats["ineligible"]) == (1, 2, 2)
        assert stats == table.stats()

    def test_broker_flushes_count_for_the_tally_that_queued_them(self):
        # Each thread stands for one run: its cold rows miss the table
        # (build=False), pool on the broker, and the flush fills them on
        # whichever thread leads it — counted for the run that asked.
        method = WilsonInterval()
        table = SolveTable(cap=64)
        broker = SolveBroker(window=0.05, max_batch=8)
        sizes = (10, 20)  # distinct n: the runs solve disjoint rows
        tallies = [TableTally(table) for _ in sizes]
        grids = [[Evidence.from_counts(tau, n) for tau in range(n + 1)] for n in sizes]
        results: dict[int, object] = {}

        def solve(slot: int) -> None:
            channel = broker.channel(None)
            with channel, use_solve_pool(channel), use_solve_table(tallies[slot]):
                results[slot] = method.solve_batch(grids[slot], 0.05)

        threads = [threading.Thread(target=solve, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        broker.close()
        counts = ("hits", "misses", "builds", "rows_solved", "rows_served")
        for slot, n in enumerate(sizes):
            assert batches_equal(method.compute_batch(grids[slot], 0.05), results[slot])
            stats = tallies[slot].stats()
            assert tuple(stats[name] for name in counts) == (0, 2, 1, n + 1, n + 1)
        assert table.stats()["rows_solved"] == sum(n + 1 for n in sizes)


class TestOnDemandFill:
    def test_one_row_serve_solves_one_row(self):
        method = AdaptiveHPD()
        seen: list[int] = []
        compute_batch = method.compute_batch

        def spy(evidences, alpha):
            seen.append(len(evidences))
            return compute_batch(evidences, alpha)

        method.compute_batch = spy
        evidences = [Evidence.from_counts(57, 200)]
        table = SolveTable(cap=256)
        served = table.serve(method, evidences, 0.05)
        assert batches_equal(compute_batch(evidences, 0.05), served)
        assert seen == [1]
        stats = table.stats()
        assert (stats["builds"], stats["rows_solved"]) == (1, 1)

    def test_new_tau_at_a_touched_n_misses_and_a_repeat_hits(self):
        method = HPDCredibleInterval()
        table = SolveTable(cap=256)
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

    def test_build_false_misses_and_build_true_solves_only_the_missing_row(self):
        method = ETCredibleInterval()
        table = SolveTable(cap=16)
        table.serve(method, [Evidence.from_counts(1, 9)], 0.05)
        evidences = [Evidence.from_counts(1, 9), Evidence.from_counts(5, 9)]
        assert table.serve(method, evidences, 0.05, build=False) is None
        served = table.serve(method, evidences, 0.05)
        assert batches_equal(method.compute_batch(evidences, 0.05), served)
        stats = table.stats()
        assert (stats["builds"], stats["rows_solved"]) == (2, 2)
        assert (stats["hits"], stats["misses"]) == (0, 3)

    def test_repeated_rows_in_one_batch_solve_once(self):
        method = WilsonInterval()
        evidences = [Evidence.from_counts(tau, 9) for tau in (4, 4, 1, 4, 1)]
        table = SolveTable(cap=16)
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
        table = SolveTable(cap=64)
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


class TestConcurrentFills:
    def test_threads_fill_one_table(self):
        # More threads than cores, a short switch interval: serves and
        # fills interleave.  Each row must be solved exactly once (a lost
        # update would solve it twice or serve a NaN), every answer must
        # equal compute_batch, and no serve may go uncounted, in the
        # table or in the tally of the thread that made it.
        method = AdaptiveHPD()
        n = 30
        evidences = [Evidence.from_counts(tau, n) for tau in range(n + 1)]
        direct = method.compute_batch(evidences, 0.05)
        table = SolveTable(cap=64)
        tallies = [TableTally(table) for _ in range(8)]
        errors: list[BaseException] = []

        def work(seed: int) -> None:
            rng = random.Random(seed)
            try:
                for _ in range(40):
                    taus = rng.sample(range(n + 1), 3)
                    served = tallies[seed].serve(
                        method, [evidences[t] for t in taus], 0.05
                    )
                    assert served.lower.tobytes() == direct.lower[taus].tobytes()
                    assert served.upper.tobytes() == direct.upper[taus].tobytes()
                    assert served.labels == tuple(direct.labels[t] for t in taus)
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
        stats = table.stats()
        assert stats["rows_solved"] == n + 1
        assert stats["hits"] + stats["misses"] == 8 * 40
        for tally in tallies:
            assert tally.stats()["hits"] + tally.stats()["misses"] == 40
        assert sum(tally.stats()["rows_solved"] for tally in tallies) == n + 1
        served = table.serve(method, evidences, 0.05, build=False)
        assert served is not None and batches_equal(direct, served)


class TestMemoryOnly:
    """Rows live in the process that solved them (and its forks) only."""

    def test_a_table_takes_only_a_cap_and_has_no_flush(self):
        assert list(inspect.signature(SolveTable).parameters) == ["cap"]
        assert list(inspect.signature(shared_table).parameters) == ["cap"]
        assert not hasattr(SolveTable, "flush")

    def test_stats_are_the_lifetime_counters(self):
        table = SolveTable(cap=16)
        table.serve(WilsonInterval(), [Evidence.from_counts(2, 5)], 0.05)
        stats = table.stats()
        assert set(stats) == {
            "cap", "entries", "hits", "misses", "ineligible", "builds",
            "rows_solved", "build_seconds", "rows_served",
        }
        # Benchmark tracing reads builds and build_seconds.
        assert (stats["cap"], stats["entries"], stats["builds"]) == (16, 1, 1)
        assert stats["build_seconds"] > 0.0

    def test_serving_writes_nothing_to_disk(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        table = shared_table(64)
        evidences = [Evidence.from_counts(tau, 12) for tau in range(13)]
        for method_cls in ALL_METHODS:
            assert table.serve(method_cls(), evidences, 0.05) is not None
        assert table.stats()["builds"] == len(ALL_METHODS)
        assert list(tmp_path.iterdir()) == []

    def test_a_new_process_starts_with_empty_tables(self, tmp_path):
        method = AdaptiveHPD()  # the label-carrying selector
        evidences = [Evidence.from_counts(tau, 6) for tau in range(7)]
        direct = method.compute_batch(evidences, 0.05)
        assert shared_table(256).serve(method, evidences, 0.05) is not None
        script = (
            "from repro.estimators.base import Evidence\n"
            "from repro.intervals import AdaptiveHPD\n"
            "from repro.intervals.table import shared_table\n"
            "table = shared_table(256)\n"
            "evs = [Evidence.from_counts(t, 6) for t in range(7)]\n"
            "print(table.serve(AdaptiveHPD(), evs, 0.05, build=False))\n"
            "served = table.serve(AdaptiveHPD(), evs, 0.05)\n"
            "print(served.lower.tobytes().hex())\n"
            "print(served.upper.tobytes().hex())\n"
            "print('|'.join(served.labels))\n"
            "print(table.stats()['rows_solved'])\n"
        )
        env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path))
        env["PYTHONPATH"] = str(Path(repro.__file__).parents[1]) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [
            "None",
            direct.lower.tobytes().hex(),
            direct.upper.tobytes().hex(),
            "|".join(direct.labels),
            "7",
        ]

    def test_a_forked_child_serves_its_parents_rows(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs the fork start method")
        mp = multiprocessing.get_context("fork")
        method = AdaptiveHPD()
        evidences = [Evidence.from_counts(tau, 9) for tau in range(10)]
        direct = method.compute_batch(evidences, 0.05)
        table = shared_table(64)
        table.serve(method, evidences, 0.05)
        queue = mp.SimpleQueue()

        def child():
            served = table.serve(method, evidences, 0.05, build=False)
            queue.put(
                None if served is None else (
                    served.lower.tobytes(), served.upper.tobytes(),
                    served.labels, table.stats()["builds"],
                )
            )

        # Fork while the lock is held, as by a parent thread mid-fill:
        # the child must not inherit it locked.
        with table._lock:
            proc = mp.Process(target=child)
            proc.start()
        proc.join(timeout=60)
        if proc.is_alive():
            proc.kill()
            pytest.fail("forked child hung on the inherited table lock")
        assert queue.get() == (
            direct.lower.tobytes(), direct.upper.tobytes(), direct.labels, 1
        )


class TestEligibility:
    def test_non_integer_counts_fall_through(self):
        table = SolveTable(cap=64)
        stratified = Evidence(
            mu_hat=0.5, variance=0.01, n_effective=12.5,
            tau_effective=6.25, n_annotated=12,
        )
        assert table.serve(WilsonInterval(), [stratified], 0.05) is None
        assert table.stats()["ineligible"] == 1

    def test_over_cap_and_disabled_fall_through(self):
        evidences = [Evidence.from_counts(3, 10)]
        assert SolveTable(cap=4).serve(
            WilsonInterval(), evidences, 0.05
        ) is None
        assert SolveTable(cap=0).serve(
            WilsonInterval(), evidences, 0.05
        ) is None

    def test_unencodable_method_falls_through(self):
        class Custom(IntervalMethod):
            name = "custom"

            def compute(self, evidence, alpha):
                return Interval(lower=0.0, upper=1.0, alpha=alpha)

        table = SolveTable(cap=64)
        assert table.serve(Custom(), [Evidence.from_counts(1, 2)], 0.05) is None
        assert table.stats()["ineligible"] == 1

    def test_an_ineligible_serve_never_builds_the_payload(self, monkeypatch):
        # A TWCS round's effective counts are never table rows, so its
        # serves reject them before building aHPD's payload.
        from repro.intervals import table as table_module

        built = []
        payload = table_module.method_payload

        def counting(method):
            built.append(method)
            return payload(method)

        monkeypatch.setattr(table_module, "method_payload", counting)
        table = SolveTable(cap=64)
        twcs_round = Evidence(
            mu_hat=0.9, variance=0.002, n_effective=41.5, tau_effective=37.35,
            n_annotated=45,
        )
        assert table.serve(AdaptiveHPD(), [twcs_round], 0.05) is None
        assert table.serve(AdaptiveHPD(), [twcs_round], 0.05, build=False) is None
        assert built == []
        assert table.serve(AdaptiveHPD(), [Evidence.from_counts(27, 30)], 0.05)
        assert len(built) == 1
        stats = table.stats()
        assert (stats["ineligible"], stats["hits"], stats["misses"]) == (2, 0, 1)

    def test_mixed_eligibility_is_all_or_nothing(self):
        table = SolveTable(cap=64)
        evidences = [
            Evidence.from_counts(1, 2),
            Evidence(
                mu_hat=0.4, variance=0.02, n_effective=9.5,
                tau_effective=3.8, n_annotated=9,
            ),
        ]
        assert table.serve(WilsonInterval(), evidences, 0.05) is None
        assert table.stats()["builds"] == 0

    def test_empty_batch_falls_through(self):
        assert SolveTable(cap=8).serve(WilsonInterval(), [], 0.05) is None

    @hyp_settings(max_examples=60, deadline=None)
    @given(
        method_cls=st.sampled_from(ALL_METHODS),
        counts=st.integers(1, DEFAULT_TABLE_CAP).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(0, n))
        ),
    )
    def test_every_from_counts_row_within_the_cap_is_served(self, method_cls, counts):
        n, tau = counts
        method = method_cls()
        evidences = [Evidence.from_counts(tau, n)]
        table = SolveTable()
        served = table.serve(method, evidences, 0.05)
        assert served is not None
        assert batches_equal(method.compute_batch(evidences, 0.05), served)
        stats = table.stats()
        assert (stats["misses"], stats["ineligible"], stats["rows_served"]) == (1, 0, 1)

    @hyp_settings(max_examples=60, deadline=None)
    @given(
        column=st.sampled_from(("mu_hat", "variance", "n_effective", "tau_effective")),
        counts=st.integers(1, DEFAULT_TABLE_CAP).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(0, n))
        ),
    )
    def test_one_ulp_off_in_any_column_falls_through(self, column, counts):
        n, tau = counts
        exact = Evidence.from_counts(tau, n)
        value = getattr(exact, column)
        # Move away from the edge Evidence would reject (mu_hat above 1).
        toward = -np.inf if column == "mu_hat" and value == 1.0 else np.inf
        moved = dataclasses.replace(
            exact, **{column: float(np.nextafter(value, toward))}
        )
        method = WilsonInterval()
        table = SolveTable()
        assert table.serve(method, [exact, moved], 0.05) is None
        assert table.serve(method, [moved], 0.05) is None
        stats = table.stats()
        assert (stats["ineligible"], stats["builds"], stats["entries"]) == (2, 0, 0)

    def test_one_past_the_cap_falls_through(self):
        table = SolveTable(cap=64)
        method = WilsonInterval()
        assert table.serve(method, [Evidence.from_counts(64, 64)], 0.05) is not None
        for tau in (0, 30, 65):
            assert table.serve(method, [Evidence.from_counts(tau, 65)], 0.05) is None
        assert (table.stats()["misses"], table.stats()["ineligible"]) == (1, 3)


class TestRegistry:
    def test_shared_table_is_one_table_per_cap(self):
        a = shared_table(32)
        assert shared_table(32) is a
        assert shared_table(64) is not a
        assert a.cap == 32
        assert [stats["cap"] for stats in peek_tables()] == [32, 64]
        reset_shared_tables()
        assert peek_tables() == []
        assert shared_table(32) is not a

    def test_default_cap_matches_settings_default(self, monkeypatch):
        from repro.runtime.settings import resolve_solve_table

        monkeypatch.delenv("REPRO_SOLVE_TABLE", raising=False)
        assert DEFAULT_TABLE_CAP == 2048
        assert resolve_solve_table(None) == DEFAULT_TABLE_CAP
