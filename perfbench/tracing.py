"""Layer attribution from outside the program: spans around public calls.

:func:`install` wraps the public entry points of each layer (interval
solves, the solve table, the Newton kernel, sampling, annotation, the
evaluation loop, the result store, KG loading) in timing spans.  A span
records its wall time and its *self* time: the span's duration minus the
part covered by child spans on the same thread.  A call that re-enters
the layer it is already in (a ``compute_batch`` delegating to another
method's ``compute_batch``) folds into the outer span, so call counts
count entries into a layer, not internal delegation.

Nothing here changes what the wrapped calls compute; the wrappers only
read arguments and results.  Wrappers live in the process that installs
them: a worker forked afterwards inherits them but never reports back,
which is why the benchmark takes in-cell numbers from serial runs.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable


class Spans:
    """Per-layer call counts, self and total seconds, and counters."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: name -> [calls, total seconds, self seconds]
        self.layers: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, **increments: float) -> None:
        with self._lock:
            for key, value in increments.items():
                self.counters[key] += value

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span named *name*."""
        stack = self._stack()
        if stack and stack[-1][0] == name:
            return fn(*args, **kwargs)
        frame = [name, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][1] += elapsed
            with self._lock:
                entry = self.layers[name]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        before: Callable[..., Any] | None = None,
        after: Callable[..., None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a spanned version of itself.

        *before* sees the call's arguments and returns a state value;
        *after* sees ``(spans, args, result, state)`` once the call
        returned, to add counters.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def spanned(*args: Any, **kwargs: Any) -> Any:
            state = before(*args) if before is not None else None
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(self, args, result, state)
            return result

        setattr(owner, attr, spanned)

    def snapshot(self) -> dict:
        """JSON-ready copy (for reporting across processes)."""
        with self._lock:
            return {
                "layers": {name: list(entry) for name, entry in self.layers.items()},
                "counters": dict(self.counters),
            }


def _hierarchy(base: type) -> list[type]:
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def _wrap_defined(spans: Spans, base: type, attr: str, name: str, **hooks: Any) -> None:
    """Wrap *attr* on every class of *base*'s hierarchy that defines it."""
    for cls in _hierarchy(base):
        if attr in cls.__dict__:
            spans.wrap(cls, attr, name, **hooks)


def _solve_rows(spans: Spans, args: tuple, result: Any, state: Any) -> None:
    spans.count(solve_rows=len(args[1]))


def _newton_rows(spans: Spans, args: tuple, result: Any, state: Any) -> None:
    spans.count(newton_rows=len(args[1]))


def _table_served(spans: Spans, args: tuple, result: Any, state: Any) -> None:
    # SolveTable.serve answers or returns None to fall through; only an
    # answer is a served solve (its stats() counts first-touch builds
    # as hits, so the return value is the honest signal).
    if result is not None:
        spans.count(table_served=1)


def _memo_before(evaluator: Any, *args: Any) -> tuple[int, int]:
    return evaluator.cache_hits, evaluator.cache_misses


def _evaluation_after(spans: Spans, args: tuple, result: Any, state: Any) -> None:
    evaluator = args[0]
    hits, misses = state
    spans.count(
        iterations=result.iterations,
        memo_hits=evaluator.cache_hits - hits,
        memo_misses=evaluator.cache_misses - misses,
    )


def _run_after(spans: Spans, args: tuple, outcome: Any, state: Any) -> None:
    metrics = outcome.metrics
    spans.count(
        units=sum(totals["units"] for totals in metrics.by_kind.values()),
        queue_wait_s=metrics.queue_wait_seconds,
        execute_s=metrics.execute_seconds,
        retries=metrics.retries,
        cells=len(outcome.cells),
        cached_cells=outcome.cache_hits,
    )


def install(spans: Spans, in_cell: bool = True) -> None:
    """Wrap the program's layers.

    Plan execution and the result store, which the scheduler process
    drives, are always wrapped.  *in_cell* adds the layers that run
    inside a unit of work (intervals, sampling, annotation, evaluation,
    KG loading).
    """
    import repro  # noqa: F401  (imports every layer, so hierarchies are complete)
    import repro.experiments  # noqa: F401
    from repro.runtime import ParallelExecutor, ResultStore

    if in_cell:
        from repro.annotation.annotator import Annotator
        from repro.evaluation.framework import KGAccuracyEvaluator
        from repro.intervals.base import IntervalMethod
        from repro.intervals.kernels import SolverKernel
        from repro.intervals.table import SolveTable
        from repro.runtime import cells
        from repro.sampling.base import SamplingStrategy

        spans.wrap(IntervalMethod, "solve_batch", "intervals.solve", after=_solve_rows)
        _wrap_defined(spans, IntervalMethod, "compute_batch", "intervals.compute_batch")
        _wrap_defined(
            spans, SolverKernel, "newton_interior", "intervals.newton", after=_newton_rows
        )
        spans.wrap(SolveTable, "serve", "intervals.table_serve", after=_table_served)
        _wrap_defined(spans, SamplingStrategy, "draw", "sampling.draw")
        _wrap_defined(spans, SamplingStrategy, "update", "sampling.update")
        _wrap_defined(spans, SamplingStrategy, "evidence", "sampling.evidence")
        _wrap_defined(spans, Annotator, "annotate", "annotation.annotate")
        spans.wrap(
            KGAccuracyEvaluator,
            "run",
            "evaluation.run",
            before=_memo_before,
            after=_evaluation_after,
        )
        spans.wrap(cells, "build_kg", "kg.load")
    spans.wrap(ParallelExecutor, "run", "runtime.run", after=_run_after)
    spans.wrap(ResultStore, "save", "runtime.store_save")
    spans.wrap(ResultStore, "load", "runtime.store_load")


def table_stats() -> dict:
    """Summed stats of every solve table this process holds."""
    from repro.intervals.table import peek_tables

    totals = {"builds": 0, "build_seconds": 0.0}
    for stats in peek_tables():
        totals["builds"] += stats["builds"]
        totals["build_seconds"] += stats["build_seconds"]
    return totals


def in_cell_metrics(spans: dict, tables: dict) -> dict:
    """Per-layer metrics of the in-cell layers from a spans snapshot."""
    layers, counters = spans["layers"], spans["counters"]

    def calls(name: str) -> int:
        return layers.get(name, [0, 0.0, 0.0])[0]

    def self_s(name: str) -> float:
        return layers.get(name, [0, 0.0, 0.0])[2]

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    solve_calls = calls("intervals.solve")
    memo_hits = counters.get("memo_hits", 0)
    memo_total = memo_hits + counters.get("memo_misses", 0)
    return {
        "intervals.solve_calls": solve_calls,
        "intervals.solve_rows": counters.get("solve_rows", 0),
        "intervals.rows_per_solve": ratio(counters.get("solve_rows", 0), solve_calls),
        "intervals.solve_s": self_s("intervals.solve"),
        "intervals.newton_calls": calls("intervals.newton"),
        "intervals.newton_rows": counters.get("newton_rows", 0),
        "intervals.newton_s": self_s("intervals.newton"),
        "intervals.compute_batch_s": self_s("intervals.compute_batch"),
        "intervals.table_serve_calls": calls("intervals.table_serve"),
        "intervals.table_served_ratio": ratio(
            counters.get("table_served", 0), calls("intervals.table_serve")
        ),
        "intervals.table_serve_s": self_s("intervals.table_serve"),
        "intervals.table_builds": tables["builds"],
        "intervals.table_build_s": tables["build_seconds"],
        "sampling.draw_calls": calls("sampling.draw"),
        "sampling.draw_s": self_s("sampling.draw"),
        "sampling.update_s": self_s("sampling.update"),
        "sampling.evidence_s": self_s("sampling.evidence"),
        "annotation.annotate_calls": calls("annotation.annotate"),
        "annotation.annotate_s": self_s("annotation.annotate"),
        "evaluation.runs": calls("evaluation.run"),
        "evaluation.iterations": counters.get("iterations", 0),
        "evaluation.memo_hit_ratio": ratio(memo_hits, memo_total),
        "evaluation.run_s": self_s("evaluation.run"),
        "kg.load_s": self_s("kg.load"),
    }


def store_metrics(spans: dict) -> dict:
    """Per-layer metrics of the result store from a spans snapshot."""
    layers = spans["layers"]
    save = layers.get("runtime.store_save", [0, 0.0, 0.0])
    load = layers.get("runtime.store_load", [0, 0.0, 0.0])
    return {
        "runtime.store_save_calls": save[0],
        "runtime.store_save_s": save[2],
        "runtime.store_load_calls": load[0],
        "runtime.store_load_s": load[2],
    }
