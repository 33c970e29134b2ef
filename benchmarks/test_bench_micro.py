"""Micro-benchmarks of the hot primitives.

These time the inner-loop operations that dominate the Monte-Carlo
experiments: HPD solves, aHPD rounds, the Wilson closed form, PPS
cluster draws on the 100M-triple KG, a full evaluation run, one TWCS
round step by step, and the solve table — cold fill vs warm table hit,
and the first-touch cost of a one-row serve.  The TWCS-round and
solve-table scenarios additionally land machine-readable numbers in
``benchmarks/BENCH_solver.json`` (schema-versioned, deliberately
outside ``benchmarks/results`` so the drift gate never diffs
hardware-dependent wall-clock).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.estimators.base import Evidence
from repro.evaluation.framework import KGAccuracyEvaluator
from repro.intervals.ahpd import AdaptiveHPD
from repro.intervals.hpd import hpd_bounds
from repro.intervals.posterior import BetaPosterior
from repro.intervals.priors import JEFFREYS
from repro.intervals.table import SolveTable
from repro.intervals.wilson import WilsonInterval
from repro.kg.datasets import load_dataset, load_syn100m
from repro.sampling.srs import SimpleRandomSampling
from repro.sampling.twcs import TwoStageWeightedClusterSampling

EVIDENCE = Evidence.from_counts(27, 30)
POSTERIOR = BetaPosterior.from_counts(JEFFREYS, 27, 30)

#: Machine-readable solver-benchmark trajectory; kept outside
#: ``benchmarks/results`` because it carries wall-clock numbers.
BENCH_JSON = Path(__file__).parent / "BENCH_solver.json"

#: Version of the trajectory-file layout (bump on breaking change).
BENCH_SCHEMA_VERSION = 1

#: Acceptance bar: a warm table hit must beat the cold build by this.
_TABLE_SPEEDUP_BAR = 5.0


def _record_solver_bench(scenario: str, payload: dict) -> None:
    """Merge one scenario's numbers into ``BENCH_solver.json``.

    Read-modify-write (same discipline as ``BENCH_runtime.json``) so a
    scenario run alone updates only its own key.
    """
    try:
        trajectory = json.loads(BENCH_JSON.read_text(encoding="utf-8"))
        if trajectory.get("schema_version") != BENCH_SCHEMA_VERSION:
            trajectory = {}
    except (FileNotFoundError, ValueError):
        trajectory = {}
    trajectory.setdefault("schema_version", BENCH_SCHEMA_VERSION)
    trajectory.setdefault("scenarios", {})[scenario] = {
        "cores": os.cpu_count() or 1,
        **payload,
    }
    BENCH_JSON.write_text(
        json.dumps(trajectory, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def test_bench_hpd_newton(benchmark):
    bounds = benchmark(lambda: hpd_bounds(POSTERIOR, 0.05, solver="newton"))
    assert bounds[0] < bounds[1]


def test_bench_hpd_slsqp(benchmark):
    bounds = benchmark(lambda: hpd_bounds(POSTERIOR, 0.05, solver="slsqp"))
    assert bounds[0] < bounds[1]


def test_bench_ahpd_round(benchmark):
    method = AdaptiveHPD()
    interval = benchmark(lambda: method.compute(EVIDENCE, 0.05))
    assert interval.width > 0


def test_bench_wilson(benchmark):
    method = WilsonInterval()
    interval = benchmark(lambda: method.compute(EVIDENCE, 0.05))
    assert interval.width > 0


def test_bench_syn100m_cluster_draw(benchmark):
    kg = load_syn100m(accuracy=0.9, seed=0)
    twcs = TwoStageWeightedClusterSampling(m=5)
    rng = np.random.default_rng(0)

    def draw():
        state = twcs.new_state()
        batch = twcs.draw(kg, state, units=50, rng=rng)
        return batch.num_triples

    total = benchmark(draw)
    assert total >= 50


def test_bench_full_evaluation_run(benchmark):
    kg = load_dataset("NELL", seed=42)
    evaluator = KGAccuracyEvaluator(kg, SimpleRandomSampling(), AdaptiveHPD())
    counter = iter(range(10_000))
    result = benchmark(lambda: evaluator.run(rng=next(counter)))
    assert result.converged


def test_bench_twcs_round():
    """One TWCS round of Algorithm 1, step by step; recorded, never gated.

    On FACTBENCH with ``m = 3`` and a state at 100 clusters: the
    one-cluster ``draw``, ``update`` and ``evidence``, and the
    one-evidence aHPD ``compute_batch`` of that evidence (3 rows on the
    HPD row path), each the min of 50 timings.
    """
    kg = load_dataset("FACTBENCH", seed=0)
    twcs = TwoStageWeightedClusterSampling(m=3)
    rng = np.random.default_rng(0)
    state = twcs.new_state()
    while len(state.cluster_means) < 100:
        batch = twcs.draw(kg, state, 1, rng)
        twcs.update(state, batch, kg.labels(batch.indices))
    batch = twcs.draw(kg, state, 1, rng)
    labels = kg.labels(batch.indices)
    evidence = twcs.evidence(state)
    method = AdaptiveHPD()

    draw_seconds = min(_timed(lambda: twcs.draw(kg, state, 1, rng)) for _ in range(50))
    evidence_seconds = min(_timed(lambda: twcs.evidence(state)) for _ in range(50))
    ahpd_seconds = min(
        _timed(lambda: method.compute_batch([evidence], 0.05)) for _ in range(50)
    )
    # Last: each timed update folds one more cluster into the state.
    update_seconds = min(
        _timed(lambda: twcs.update(state, batch, labels) or state) for _ in range(50)
    )
    assert len(state.cluster_means) == 150

    _record_solver_bench(
        "twcs-round",
        {
            "dataset": "FACTBENCH",
            "m": 3,
            "clusters": 100,
            "draw_seconds": round(draw_seconds, 7),
            "update_seconds": round(update_seconds, 7),
            "evidence_seconds": round(evidence_seconds, 7),
            "ahpd_one_evidence_seconds": round(ahpd_seconds, 7),
        },
    )
    print(
        "\nTWCS round (FACTBENCH, m=3, 100 clusters)\n"
        f"  draw, one cluster    : {draw_seconds * 1e6:9.1f} us\n"
        f"  update               : {update_seconds * 1e6:9.1f} us\n"
        f"  evidence             : {evidence_seconds * 1e6:9.1f} us\n"
        f"  aHPD, one evidence   : {ahpd_seconds * 1e6:9.1f} us\n"
        f"[recorded in {BENCH_JSON}]"
    )


def test_bench_solve_table_cold_vs_warm():
    """Acceptance: a warm table hit beats the cold fill by >= 5x.

    The cold pass fills every row of one (n+1)-row aHPD table (every
    tau for one n, as a coverage grid requests it); the warm pass
    serves the same batch from the in-memory table without re-solving
    anything.  ``cold_row_seconds`` is what a Monte-Carlo loop pays on
    first touch: a one-row serve solves one row, not the table.
    ``warm_row_seconds`` is a one-row hit, the only kind of serve the
    paper's loops make (Algorithm 1 solves one interval per round).
    ``ahpd_one_evidence_seconds`` and ``ahpd_lookahead_seconds`` time a
    direct aHPD ``compute_batch`` (min of 50) of one evidence (3 rows,
    the row path) and of one SRS look-ahead batch (15 evidences, 45
    rows, the array path).
    """
    method = AdaptiveHPD()
    n, alpha = 256, 0.05
    evidences = [Evidence.from_counts(tau, n) for tau in range(n + 1)]
    direct_start = time.perf_counter()
    direct = method.compute_batch(evidences, alpha)
    direct_seconds = time.perf_counter() - direct_start

    table = SolveTable(cap=n)
    cold_start = time.perf_counter()
    cold = table.serve(method, evidences, alpha)
    cold_seconds = time.perf_counter() - cold_start
    assert cold is not None and table.stats()["builds"] == 1

    warm_seconds = min(
        _timed(lambda: table.serve(method, evidences, alpha))
        for _ in range(5)
    )
    assert table.stats()["builds"] == 1  # warm hits never re-solve

    one_row = SolveTable(cap=n)
    cold_row_seconds = _timed(
        lambda: one_row.serve(method, [evidences[n // 2]], alpha)
    )
    warm_row_seconds = min(
        _timed(lambda: one_row.serve(method, [evidences[n // 2]], alpha))
        for _ in range(50)
    )
    assert one_row.stats()["rows_solved"] == 1

    one_evidence = [evidences[n // 2]]
    ahpd_one_evidence_seconds = min(
        _timed(lambda: method.compute_batch(one_evidence, alpha)) for _ in range(50)
    )
    # The current (n, tau) and the 14 states the next four SRS rounds
    # can reach: one look-ahead solve of Algorithm 1.
    lookahead = [
        Evidence.from_counts(n // 2 + step, n + rounds)
        for rounds in range(5)
        for step in range(rounds + 1)
    ]
    ahpd_lookahead_seconds = min(
        _timed(lambda: method.compute_batch(lookahead, alpha)) for _ in range(50)
    )

    warm = table.serve(method, evidences, alpha)
    identical = (
        warm.lower.tobytes() == direct.lower.tobytes()
        and warm.upper.tobytes() == direct.upper.tobytes()
        and warm.labels == direct.labels
    )
    assert identical

    speedup = cold_seconds / warm_seconds
    assert speedup >= _TABLE_SPEEDUP_BAR, (
        f"warm table hit only {speedup:.1f}x faster than the cold fill"
    )
    _record_solver_bench(
        "solve-table",
        {
            "method": "aHPD",
            "n": n,
            "rows": len(evidences),
            "direct_solve_seconds": round(direct_seconds, 6),
            "cold_build_seconds": round(cold_seconds, 6),
            "cold_row_seconds": round(cold_row_seconds, 6),
            "ahpd_one_evidence_seconds": round(ahpd_one_evidence_seconds, 6),
            "ahpd_lookahead_seconds": round(ahpd_lookahead_seconds, 6),
            "warm_row_seconds": round(warm_row_seconds, 6),
            "warm_hit_seconds": round(warm_seconds, 6),
            "warm_speedup": round(speedup, 1),
            "speedup_bar": _TABLE_SPEEDUP_BAR,
            "bit_identical_to_direct": bool(identical),
        },
    )
    print(
        f"\nsolve-table benchmark (aHPD, n={n}, {len(evidences)} rows)\n"
        f"  direct compute_batch : {direct_seconds * 1e3:9.3f} ms\n"
        f"  cold fill + serve    : {cold_seconds * 1e3:9.3f} ms\n"
        f"  cold one-row serve   : {cold_row_seconds * 1e3:9.3f} ms\n"
        f"  aHPD, one evidence   : {ahpd_one_evidence_seconds * 1e3:9.3f} ms\n"
        f"  aHPD, look-ahead (15): {ahpd_lookahead_seconds * 1e3:9.3f} ms\n"
        f"  warm one-row hit     : {warm_row_seconds * 1e3:9.3f} ms\n"
        f"  warm table hit       : {warm_seconds * 1e3:9.3f} ms"
        f"  ({speedup:.0f}x vs cold)\n"
        f"[recorded in {BENCH_JSON}]"
    )


def _timed(fn) -> float:
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    assert result is not None
    return elapsed
