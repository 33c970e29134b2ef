"""One cold run of a paper-experiment plan, measured from inside.

Started by ``run.py`` in a fresh interpreter with every ``REPRO_*``
variable scrubbed from the environment.  Set-up is everything from the
parent's spawn to the first call into ``execute``: imports, plan build,
and ``build_kg`` for the plan's datasets.  The run then executes the
plan under an explicit ``RunContext``, checks the outputs, and prints
one JSON line with its measurements.

Modes:

* ``plain``: no wrappers; the end-to-end measurement.
* ``trace``: every layer wrapped (in-cell and result store).
* ``trace-parent``: only the scheduler-side layers wrapped (the result
  store); pool workers forked from this process report nothing back.
* ``trace-serial``: the same plan on one in-process worker with every
  layer wrapped, for in-cell numbers of a plan that normally runs in
  worker processes.
* ``setup``: set-up only; reports ``setup_s`` and exits before
  ``execute``, for extra set-up samples.

Times are ``time.monotonic()`` readings, one clock for every process
on the host, so the parent can place ``started`` (the first call into
``execute``) and ``<t0>`` (its spawn) against its host-speed probe.

Usage: python3 perfbench/experiment.py <workload-json> <seed> <mode> <store-dir|-> <t0>
"""

import hashlib
import json
import os
import resource
import sys
import threading
import time

_HERE = os.path.dirname(os.path.abspath(__file__))


def _proc_children(pid):
    found = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                found.extend(int(child) for child in handle.read().split())
        except OSError:
            continue
    return found


def _hwm_kib(pid):
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class ChildPeaks:
    """Samples the peak RSS of this process's children (pool workers).

    Each child's ``VmHWM`` only grows, so the largest value seen per pid
    is its peak up to the last sample before it exits.
    """

    def __init__(self, interval=0.05):
        self.interval = interval
        self.peaks = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        me = os.getpid()
        while not self._stop.wait(self.interval):
            for child in _proc_children(me):
                hwm = _hwm_kib(child)
                if hwm > self.peaks.get(child, 0):
                    self.peaks[child] = hwm

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    @property
    def total_kib(self):
        return sum(self.peaks.values())


def _cpu(usage):
    return usage.ru_utime + usage.ru_stime


def build(spec, seed, mode, store):
    """The plan, the explicit context, and the datasets to preload."""
    from repro.experiments.config import ExperimentSettings
    from repro.experiments.sequential_coverage import sequential_coverage_plan
    from repro.experiments.table3 import table3_plan
    from repro.runtime import RunContext

    settings = ExperimentSettings(repetitions=spec["repetitions"], seed=seed)
    plan = {"table3": table3_plan, "sequential-coverage": sequential_coverage_plan}[
        spec["plan"]
    ](settings)
    knobs = dict(spec["resolved_context"])
    del knobs["cache_dir"]
    if mode == "trace-serial":
        knobs.update(workers=1, backend="serial")
    context = RunContext(store=store, **knobs)
    datasets = sorted({cell.dataset for cell in plan.cells if hasattr(cell, "dataset")})
    return plan, context, datasets


def _digest(parts):
    sha = hashlib.sha256()
    for part in parts:
        sha.update(part if isinstance(part, bytes) else str(part).encode())
        sha.update(b"\0")
    return sha.hexdigest()


def check_table3(plan, outcome, spec):
    """Counts, convergence, Table 3's efficiency ordering, and a digest."""
    results = outcome.results
    reps = spec["repetitions"]
    checks = {
        "cells": len(results) == len(plan.cells) == 24,
        "repetitions": all(r.repetitions == reps for r in results.values()),
        "converged": all(bool(r.converged.all()) for r in results.values()),
    }
    ordering = True
    for dataset, strategy, method in results:
        if method == "aHPD":
            ahpd = results[(dataset, strategy, "aHPD")].triples.mean()
            wilson = results[(dataset, strategy, "Wilson")].triples.mean()
            ordering &= bool(ahpd <= 1.1 * wilson)
    checks["ahpd_le_1.1_wilson"] = ordering
    parts = []
    for cell in plan.cells:
        study = results[cell.key]
        parts.append(cell.label)
        for array in (study.triples, study.cost_hours, study.estimates,
                      study.entities, study.converged):
            parts.append(array.tobytes())
    return checks, _digest(parts)


def check_sequential(plan, outcome, spec):
    """Counts, coverage in [0, 1], and a digest of every summary."""
    results = outcome.results
    reps = spec["repetitions"]
    checks = {
        "cells": len(results) == len(plan.cells) == 12,
        "repetitions": all(r.repetitions == reps for r in results.values()),
        "coverage_in_0_1": all(0.0 <= r.coverage <= 1.0 for r in results.values()),
        "stopping_n_positive": all(r.mean_stopping_n > 0 for r in results.values()),
    }
    parts = []
    for cell in plan.cells:
        r = results[cell.key]
        parts.append(
            f"{cell.label}|{r.method}|{r.coverage.hex()}|"
            f"{r.mean_stopping_n.hex()}|{r.std_stopping_n.hex()}|{r.repetitions}"
        )
    return checks, _digest(parts)


def main(argv):
    spec = json.loads(argv[0])
    seed, mode = int(argv[1]), argv[2]
    store = None if argv[3] == "-" else argv[3]
    t0 = float(argv[4])

    spans = None
    if mode.startswith("trace"):
        sys.path.insert(0, _HERE)
        import tracing

        spans = tracing.Spans()
        tracing.install(spans, in_cell=mode != "trace-parent")

    from repro.runtime import cells, execute

    plan, context, datasets = build(spec, seed, mode, store)
    for dataset in datasets:
        cells.build_kg(dataset, plan.settings.dataset_seed)

    setup_s = time.monotonic() - t0
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    self_before = _cpu(resource.getrusage(resource.RUSAGE_SELF))
    start = time.monotonic()
    with ChildPeaks() as peaks:
        outcome = execute(plan, context=context)
    checker = check_table3 if spec["plan"] == "table3" else check_sequential
    checks, digest = checker(plan, outcome, spec)
    wall_s = time.monotonic() - start

    cpu_s = _cpu(resource.getrusage(resource.RUSAGE_SELF)) - self_before
    cpu_s += _cpu(resource.getrusage(resource.RUSAGE_CHILDREN))
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + peaks.total_kib
    metrics = outcome.metrics
    report = {
        "setup_s": setup_s,
        "started": start,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": rss_kib / 1024.0,
        "cells": len(plan.cells),
        "failed": len(outcome.failures),
        "checks": checks,
        "digest": digest,
        "context": context.describe(),
        "runtime": {
            "runtime.units": sum(t["units"] for t in metrics.by_kind.values()),
            "runtime.queue_wait_s": metrics.queue_wait_seconds,
            "runtime.execute_s": metrics.execute_seconds,
            "runtime.cache_hit_ratio": metrics.cache_hit_ratio,
            "runtime.retries": metrics.retries,
        },
    }
    if spans is not None:
        report["spans"] = spans.snapshot()
        report["tables"] = tracing.table_stats()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
