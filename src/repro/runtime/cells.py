"""Cell runners: turn picklable cell specs into computed results.

Workers (or the serial fallback) receive a :class:`~.spec.CellSpec`
plus the plan settings and nothing else, so everything a cell needs —
the KG, the sampling strategy, the interval method — is rebuilt from
spec strings here.  Builders are deterministic: the same spec and
settings always construct identical objects, which is what makes
parallel execution bit-identical to serial and cache keys meaningful.

The runner registry is open: downstream code (and the test suite) can
register additional cell types with :func:`register_cell_runner`
without touching the executor.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from ..annotation.annotator import OracleAnnotator
from ..evaluation.coverage import (
    CoverageResult,
    coverage_from_counts,
    empirical_coverage,
    tau_counts,
)
from ..evaluation.dynamic import DynamicAuditor, DynamicAuditStudy
from ..evaluation.framework import KGAccuracyEvaluator
from ..evaluation.partitioned import (
    PartitionedAuditResult,
    allocate_budget,
    finalize_audit,
    partition_order,
    partition_trajectories,
)
from ..evaluation.runner import StudyResult, run_study
from ..evaluation.sequential import (
    SequentialCoverageResult,
    sequential_coverage,
    sequential_from_replays,
    sequential_replays,
)
from ..exceptions import ValidationError
from ..intervals.agresti_coull import AgrestiCoullInterval
from ..intervals.ahpd import AdaptiveHPD
from ..intervals.base import IntervalMethod
from ..intervals.clopper_pearson import ClopperPearsonInterval
from ..intervals.et import ETCredibleInterval
from ..intervals.hpd import HPDCredibleInterval
from ..intervals.payloads import build_method_from_payload, method_payload
from ..intervals.priors import JEFFREYS, KERMAN, UNIFORM, BetaPrior
from ..intervals.transforms import ArcsineInterval, LogitInterval
from ..intervals.wald import WaldInterval
from ..intervals.wilson import WilsonInterval
from ..kg.base import TripleStore
from ..kg.datasets import load_dataset, load_syn100m
from ..kg.io import load_kg
from ..sampling.base import SamplingStrategy
from ..sampling.srs import SimpleRandomSampling
from ..sampling.stratified import StratifiedPredicateSampling
from ..sampling.twcs import TwoStageWeightedClusterSampling
from ..sampling.wcs import WeightedClusterSampling
from ..kg.evolution import UpdateBatchSpec, build_evolving_kg
from ..kg.graph import KnowledgeGraph
from ..kg.queries import TripleIndex
from ..stats.rng import derive_seed, spawn_rng
from .spec import (
    CellSpec,
    CoverageCell,
    DynamicAuditCell,
    PartitionedAuditCell,
    SequentialCoverageCell,
    StudyCell,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiments.config import ExperimentSettings

__all__ = [
    "build_kg",
    "build_method",
    "build_method_from_payload",
    "build_strategy",
    "cell_method",
    "cell_repetitions",
    "is_shardable",
    "method_payload",
    "register_cell_runner",
    "register_shard_runner",
    "register_shard_reducer",
    "runner_for",
    "shard_runner_for",
    "shard_reducer_for",
    "run_study_cell",
    "run_coverage_cell",
    "run_sequential_coverage_cell",
    "run_dynamic_audit_cell",
    "run_partitioned_audit_cell",
]

_PRIORS = {"kerman": KERMAN, "jeffreys": JEFFREYS, "uniform": UNIFORM}

#: Per-process KG memo: workers (and serial runs) load each dataset
#: once, not once per cell.  Capped because the SYN 100M backends hold
#: ~100 MB each; eviction is FIFO — grids sweep datasets in order, so
#: recency tracking buys nothing.
_KG_CACHE: dict[tuple[str, int], TripleStore] = {}
_KG_CACHE_LIMIT = 4


def build_kg(spec: str, dataset_seed: int) -> TripleStore:
    """Load the KG described by *spec*, memoised per process.

    Accepted forms: a profiled-dataset name (``"NELL"``),
    ``"SYN100M:<mu>"`` for the synthetic 100M-triple KG at accuracy
    ``mu``, or ``"file:<path>"`` for a labelled-TSV file.
    """
    key = (spec, dataset_seed)
    cached = _KG_CACHE.get(key)
    if cached is not None:
        return cached
    upper = spec.upper()
    if upper.startswith("SYN100M:"):
        kg: TripleStore = load_syn100m(
            accuracy=float(spec.split(":", 1)[1]), seed=dataset_seed
        )
    elif spec.startswith("file:"):
        kg = load_kg(spec.split(":", 1)[1])
    else:
        kg = load_dataset(spec, seed=dataset_seed)
    if len(_KG_CACHE) >= _KG_CACHE_LIMIT:
        _KG_CACHE.pop(next(iter(_KG_CACHE)))
    _KG_CACHE[key] = kg
    return kg


def build_strategy(spec: str) -> SamplingStrategy:
    """Instantiate the sampling design described by *spec*.

    Accepted forms: ``"SRS"``, ``"TWCS:<m>"`` (the stage-2 cap is
    explicit — plan builders resolve the per-dataset default),
    ``"WCS"``, and ``"STRAT"``.
    """
    head, _, arg = spec.partition(":")
    head = head.upper()
    if head == "SRS":
        return SimpleRandomSampling()
    if head == "TWCS":
        if not arg:
            raise ValidationError(
                "TWCS cell specs must carry an explicit stage-2 cap, "
                'e.g. "TWCS:3"'
            )
        return TwoStageWeightedClusterSampling(m=int(arg))
    if head == "WCS":
        return WeightedClusterSampling()
    if head == "STRAT":
        return StratifiedPredicateSampling()
    raise ValidationError(f"unknown sampling strategy spec {spec!r}")


def _prior(name: str) -> BetaPrior:
    prior = _PRIORS.get(name.strip().lower())
    if prior is None:
        known = ", ".join(sorted(_PRIORS))
        raise ValidationError(f"unknown prior {name!r}; expected one of: {known}")
    return prior


def build_method(
    spec: str,
    priors: tuple[tuple[float, float, str], ...] | None = None,
) -> IntervalMethod:
    """Instantiate the interval method described by *spec*.

    Accepted forms (case-insensitive): ``Wald``, ``Wilson``, ``AC``,
    ``CP``, ``Arcsine``, ``Logit``, ``ET[:prior]``, ``HPD[:prior]``,
    and ``aHPD``.  *priors* (``(a, b, name)`` triples) equips aHPD with
    informative candidates instead of the uninformative trio.
    """
    head, _, arg = spec.partition(":")
    name = head.strip().lower()
    if name == "wald":
        return WaldInterval()
    if name == "wilson":
        return WilsonInterval()
    if name in ("ac", "agresti-coull"):
        return AgrestiCoullInterval()
    if name in ("cp", "clopper-pearson"):
        return ClopperPearsonInterval()
    if name == "arcsine":
        return ArcsineInterval()
    if name == "logit":
        return LogitInterval()
    if name == "et":
        return ETCredibleInterval(prior=_prior(arg)) if arg else ETCredibleInterval()
    if name == "hpd":
        return HPDCredibleInterval(prior=_prior(arg)) if arg else HPDCredibleInterval()
    if name == "ahpd":
        if priors is not None:
            candidates = tuple(BetaPrior(a, b, name=label) for a, b, label in priors)
            return AdaptiveHPD(priors=candidates)
        return AdaptiveHPD()
    raise ValidationError(f"unknown interval method spec {spec!r}")


# ----------------------------------------------------------------------
# Picklable method payloads
# ----------------------------------------------------------------------
#
# The payload machinery itself lives in the intervals layer
# (:mod:`repro.intervals.payloads`) because the solve broker and the
# small-n solve table key methods by payload too; the names stay
# re-exported here, unchanged, for every existing runtime import site.


def cell_method(cell: CellSpec) -> IntervalMethod:
    """The interval method a cell's runner (or reducer) should use.

    A :attr:`~repro.runtime.spec.CellSpec.method_payload` wins over the
    ``method`` spec string; both construct deterministically, which is
    what keeps worker-side rebuilds bit-identical to the serial path.
    """
    if cell.method_payload is not None:
        return build_method_from_payload(cell.method_payload)
    return build_method(cell.method, priors=getattr(cell, "priors", None))


# ----------------------------------------------------------------------
# Runner registry
# ----------------------------------------------------------------------

_RUNNERS: dict[type, Callable[[Any, "ExperimentSettings"], Any]] = {}


def register_cell_runner(cell_type: type):
    """Class decorator-style registration of a cell runner.

    The executor dispatches on the cell's type (walking the MRO, so
    subclasses inherit their parent's runner unless they register their
    own).
    """

    def decorate(fn: Callable[[Any, "ExperimentSettings"], Any]):
        _RUNNERS[cell_type] = fn
        return fn

    return decorate


def runner_for(cell: CellSpec) -> Callable[[Any, "ExperimentSettings"], Any]:
    """The registered runner for *cell*'s type."""
    runner = _lookup(_RUNNERS, cell)
    if runner is None:
        raise ValidationError(f"no runner registered for cell type {type(cell)!r}")
    return runner


# ----------------------------------------------------------------------
# Repetition-sharding registry
# ----------------------------------------------------------------------
#
# A cell type opts into repetition sharding by registering three pieces:
# a repetition counter (how many independent repetitions the cell runs),
# a shard runner (execute one half-open repetition window, returning a
# picklable partial payload), and a reducer (merge the in-order partial
# payloads into exactly the value the unsharded runner returns).  The
# contract every implementation must honour — and the hypothesis suite
# enforces — is *bit-identity*: for any chunking, reducing the shard
# payloads reproduces the unsharded result exactly.  The built-in kinds
# achieve that by keeping per-repetition seed streams keyed on global
# repetition indices and merging via lossless operations only (integer
# sums, array concatenation) before any shared float reduction.

_SHARD_RUNNERS: dict[type, Callable[[Any, "ExperimentSettings", int, int], Any]] = {}
_SHARD_REDUCERS: dict[type, Callable[[Any, "ExperimentSettings", list], Any]] = {}
_REP_COUNTERS: dict[type, Callable[[Any, "ExperimentSettings"], int]] = {}


def register_shard_runner(
    cell_type: type, repetitions: Callable[[Any, "ExperimentSettings"], int]
):
    """Register a shard runner (and repetition counter) for *cell_type*.

    The runner receives ``(cell, settings, rep_start, rep_stop)`` and
    returns a picklable partial payload for that window; *repetitions*
    maps ``(cell, settings)`` to the cell's total repetition count.
    """

    def decorate(fn: Callable[[Any, "ExperimentSettings", int, int], Any]):
        _SHARD_RUNNERS[cell_type] = fn
        _REP_COUNTERS[cell_type] = repetitions
        return fn

    return decorate


def register_shard_reducer(cell_type: type):
    """Register the merge step for *cell_type*'s shard payloads.

    The reducer receives ``(cell, settings, partials)`` with partials in
    shard order and must return exactly what the unsharded runner would.
    """

    def decorate(fn: Callable[[Any, "ExperimentSettings", list], Any]):
        _SHARD_REDUCERS[cell_type] = fn
        return fn

    return decorate


def _lookup(registry: dict, cell: CellSpec):
    for klass in type(cell).__mro__:
        entry = registry.get(klass)
        if entry is not None:
            return entry
    return None


def is_shardable(cell: CellSpec) -> bool:
    """Whether *cell*'s type registered the full sharding triple."""
    return (
        _lookup(_SHARD_RUNNERS, cell) is not None
        and _lookup(_SHARD_REDUCERS, cell) is not None
        and _lookup(_REP_COUNTERS, cell) is not None
    )


def cell_repetitions(cell: CellSpec, settings: "ExperimentSettings") -> int:
    """Total independent repetitions *cell* runs under *settings*."""
    counter = _lookup(_REP_COUNTERS, cell)
    if counter is None:
        raise ValidationError(
            f"cell type {type(cell)!r} has no registered repetition counter"
        )
    return int(counter(cell, settings))


def shard_runner_for(cell: CellSpec) -> Callable[[Any, "ExperimentSettings", int, int], Any]:
    """The registered shard runner for *cell*'s type."""
    runner = _lookup(_SHARD_RUNNERS, cell)
    if runner is None:
        raise ValidationError(
            f"no shard runner registered for cell type {type(cell)!r}"
        )
    return runner


def shard_reducer_for(cell: CellSpec) -> Callable[[Any, "ExperimentSettings", list], Any]:
    """The registered shard reducer for *cell*'s type."""
    reducer = _lookup(_SHARD_REDUCERS, cell)
    if reducer is None:
        raise ValidationError(
            f"no shard reducer registered for cell type {type(cell)!r}"
        )
    return reducer


# ----------------------------------------------------------------------
# Built-in runners
# ----------------------------------------------------------------------


def _study_evaluator(cell: StudyCell, settings: "ExperimentSettings") -> KGAccuracyEvaluator:
    """The deterministic evaluator behind a study cell (or its shards)."""
    kg = build_kg(cell.dataset, settings.dataset_seed)
    config = settings.evaluation_config(alpha=cell.alpha)
    if cell.units_per_iteration is not None:
        config = replace(config, units_per_iteration=cell.units_per_iteration)
    return KGAccuracyEvaluator(
        kg=kg,
        strategy=build_strategy(cell.strategy),
        method=cell_method(cell),
        config=config,
    )


@register_cell_runner(StudyCell)
def run_study_cell(cell: StudyCell, settings: "ExperimentSettings") -> StudyResult:
    """One (dataset, strategy, method) Monte-Carlo study.

    Mirrors the pre-runtime ``run_configuration`` path exactly: the
    evaluator configuration, the per-cell ``derive_seed`` stream, and
    the per-repetition seeding are unchanged, so routed experiments
    reproduce their serial numbers bit for bit.
    """
    return run_study(
        _study_evaluator(cell, settings),
        repetitions=settings.repetitions,
        seed=derive_seed(settings.seed, *cell.seed_stream),
        label=cell.label,
    )


@register_cell_runner(CoverageCell)
def run_coverage_cell(cell: CoverageCell, settings: "ExperimentSettings") -> CoverageResult:
    """One fixed-n empirical coverage cell."""
    method = cell_method(cell)
    alpha = settings.alpha if cell.alpha is None else cell.alpha
    repetitions = settings.repetitions if cell.repetitions is None else cell.repetitions
    return empirical_coverage(
        method,
        cell.mu,
        cell.n,
        alpha=alpha,
        repetitions=repetitions,
        rng=cell.seed,
    )


@register_cell_runner(SequentialCoverageCell)
def run_sequential_coverage_cell(
    cell: SequentialCoverageCell, settings: "ExperimentSettings"
) -> SequentialCoverageResult:
    """One stopped-interval coverage cell (full iterative procedure)."""
    method = cell_method(cell)
    config = settings.evaluation_config(alpha=cell.alpha)
    repetitions = settings.repetitions if cell.repetitions is None else cell.repetitions
    return sequential_coverage(
        method,
        cell.mu,
        config=config,
        repetitions=repetitions,
        seed=cell.seed,
    )


# ----------------------------------------------------------------------
# Built-in shard runners and reducers
# ----------------------------------------------------------------------


def _study_cell_repetitions(cell: StudyCell, settings: "ExperimentSettings") -> int:
    return settings.repetitions


def _audit_cell_repetitions(cell, settings: "ExperimentSettings") -> int:
    return settings.repetitions if cell.repetitions is None else cell.repetitions


@register_shard_runner(StudyCell, repetitions=_study_cell_repetitions)
def run_study_cell_shard(
    cell: StudyCell, settings: "ExperimentSettings", rep_start: int, rep_stop: int
) -> StudyResult:
    """Repetitions ``[rep_start, rep_stop)`` of a study cell.

    Per-repetition seeds stay keyed on the global repetition index, so
    the shard's arrays are exactly the corresponding slice of the
    unsharded run's.
    """
    return run_study(
        _study_evaluator(cell, settings),
        repetitions=settings.repetitions,
        seed=derive_seed(settings.seed, *cell.seed_stream),
        label=cell.label,
        rep_range=(rep_start, rep_stop),
    )


@register_shard_reducer(StudyCell)
def merge_study_cell_shards(
    cell: StudyCell, settings: "ExperimentSettings", partials: list
) -> StudyResult:
    """Concatenate in-order study shards back into the full-cell result.

    Concatenation of the per-repetition arrays is lossless, and the
    summaries on :class:`StudyResult` are derived lazily from them, so
    the merged result is bit-identical to the unsharded run.
    """
    return StudyResult(
        label=cell.label,
        triples=np.concatenate([p.triples for p in partials]),
        cost_hours=np.concatenate([p.cost_hours for p in partials]),
        estimates=np.concatenate([p.estimates for p in partials]),
        entities=np.concatenate([p.entities for p in partials]),
        converged=np.concatenate([p.converged for p in partials]),
    )


@register_shard_runner(CoverageCell, repetitions=_audit_cell_repetitions)
def run_coverage_cell_shard(
    cell: CoverageCell, settings: "ExperimentSettings", rep_start: int, rep_stop: int
) -> np.ndarray:
    """Outcome histogram of one repetition window of a coverage cell.

    The partial payload is the integer ``tau`` histogram of the window;
    histograms of a partition sum exactly to the full histogram, and the
    reducer performs the (cheap, deduplicated) interval solves once on
    the merged counts — the identical computation the unsharded runner
    does.
    """
    return tau_counts(
        cell.mu,
        cell.n,
        _audit_cell_repetitions(cell, settings),
        rng=cell.seed,
        rep_range=(rep_start, rep_stop),
    )


@register_shard_reducer(CoverageCell)
def merge_coverage_cell_shards(
    cell: CoverageCell, settings: "ExperimentSettings", partials: list
) -> CoverageResult:
    """Sum shard histograms and solve the merged outcome set once."""
    counts = np.sum(partials, axis=0)
    method = cell_method(cell)
    alpha = settings.alpha if cell.alpha is None else cell.alpha
    return coverage_from_counts(
        method,
        cell.mu,
        cell.n,
        alpha,
        counts,
        repetitions=_audit_cell_repetitions(cell, settings),
    )


@register_shard_runner(SequentialCoverageCell, repetitions=_audit_cell_repetitions)
def run_sequential_coverage_cell_shard(
    cell: SequentialCoverageCell,
    settings: "ExperimentSettings",
    rep_start: int,
    rep_stop: int,
) -> tuple[int, np.ndarray]:
    """Raw ``(hits, stopping)`` replay outcomes of one repetition window."""
    method = cell_method(cell)
    config = settings.evaluation_config(alpha=cell.alpha)
    return sequential_replays(
        method,
        cell.mu,
        config=config,
        repetitions=_audit_cell_repetitions(cell, settings),
        seed=cell.seed,
        rep_range=(rep_start, rep_stop),
    )


@register_shard_reducer(SequentialCoverageCell)
def merge_sequential_coverage_cell_shards(
    cell: SequentialCoverageCell, settings: "ExperimentSettings", partials: list
) -> SequentialCoverageResult:
    """Sum hit counts, concatenate stopping sizes, summarise once.

    Hit counts are integers and the stopping-size concatenation is the
    unsharded run's array element for element, so the float summaries
    (mean/std over the full array) are computed on identical input —
    bit-identical output.
    """
    method = cell_method(cell)
    config = settings.evaluation_config(alpha=cell.alpha)
    hits = sum(int(h) for h, _ in partials)
    stopping = np.concatenate([s for _, s in partials])
    return sequential_from_replays(method.name, cell.mu, config, hits, stopping)


# ----------------------------------------------------------------------
# Dynamic (evolving-KG) audit cells
# ----------------------------------------------------------------------

#: Per-process snapshot-stream memo, mirroring the KG cache: every
#: repetition shard of a dynamic cell replays the same evolving KG, so
#: workers build each stream once.  FIFO-capped like the KG cache.
_SNAPSHOT_CACHE: dict[tuple, list] = {}
_SNAPSHOT_CACHE_LIMIT = 4


def _dynamic_snapshots(cell: DynamicAuditCell) -> list:
    key = (cell.base_facts, cell.base_accuracy, cell.updates, cell.stream_seed)
    cached = _SNAPSHOT_CACHE.get(key)
    if cached is not None:
        return cached
    updates = [
        UpdateBatchSpec(
            num_facts=num_facts,
            accuracy=accuracy,
            intra_cluster_correlation=correlation,
        )
        for num_facts, accuracy, correlation in cell.updates
    ]
    snapshots = build_evolving_kg(
        base_facts=cell.base_facts,
        base_accuracy=cell.base_accuracy,
        updates=updates,
        seed=cell.stream_seed,
    )
    if len(_SNAPSHOT_CACHE) >= _SNAPSHOT_CACHE_LIMIT:
        _SNAPSHOT_CACHE.pop(next(iter(_SNAPSHOT_CACHE)))
    _SNAPSHOT_CACHE[key] = snapshots
    return snapshots


def _dynamic_auditor(cell: DynamicAuditCell, settings: "ExperimentSettings") -> DynamicAuditor:
    return DynamicAuditor(
        strategy=build_strategy(cell.strategy),
        config=settings.evaluation_config(alpha=cell.alpha),
        carryover=cell.carryover,
        max_prior_strength=cell.max_prior_strength,
    )


@register_cell_runner(DynamicAuditCell)
def run_dynamic_audit_cell(
    cell: DynamicAuditCell, settings: "ExperimentSettings"
) -> DynamicAuditStudy:
    """All replications of one evolving-KG audit stream.

    Repetition 0 reproduces ``DynamicAuditor.audit_stream`` on the
    cell's audit seed exactly, so routing a single-replication
    experiment through the runtime changes scheduling, never numbers.
    """
    return _dynamic_auditor(cell, settings).audit_study(
        _dynamic_snapshots(cell),
        repetitions=_audit_cell_repetitions(cell, settings),
        seed=cell.seed,
        label=cell.label,
    )


@register_shard_runner(DynamicAuditCell, repetitions=_audit_cell_repetitions)
def run_dynamic_audit_cell_shard(
    cell: DynamicAuditCell,
    settings: "ExperimentSettings",
    rep_start: int,
    rep_stop: int,
) -> tuple:
    """Stream replications ``[rep_start, rep_stop)`` of a dynamic cell.

    Each replication is a complete multi-round stream with the carried
    prior threaded through its rounds, and its seed window is keyed on
    the global repetition index — so the shard payload is exactly the
    corresponding slice of the unsharded study's streams.
    """
    study = _dynamic_auditor(cell, settings).audit_study(
        _dynamic_snapshots(cell),
        repetitions=_audit_cell_repetitions(cell, settings),
        seed=cell.seed,
        label=cell.label,
        rep_range=(rep_start, rep_stop),
    )
    return study.streams


@register_shard_reducer(DynamicAuditCell)
def merge_dynamic_audit_cell_shards(
    cell: DynamicAuditCell, settings: "ExperimentSettings", partials: list
) -> DynamicAuditStudy:
    """Concatenate in-order stream windows back into the full study.

    Concatenation is lossless (the records themselves are the payload,
    carried-prior state included), so the merged study is bit-identical
    to the unsharded run for any chunking.
    """
    return DynamicAuditStudy(
        label=cell.label,
        streams=tuple(stream for part in partials for stream in part),
    )


# ----------------------------------------------------------------------
# Partitioned (per-predicate) audit cells
# ----------------------------------------------------------------------
#
# The shard dimension here is the *partition list*, not Monte-Carlo
# repetitions: "repetition" i is predicate i in the KG's deterministic
# sorted order.  Shards compute the expensive budget-independent
# trajectories of their partition window; the reducer merges the
# integer-evidence partials, replays the budget allocation, and runs
# the shared interval solves once.


def _partitioned_kg(cell: PartitionedAuditCell, settings: "ExperimentSettings") -> KnowledgeGraph:
    kg = build_kg(cell.dataset, settings.dataset_seed)
    if not isinstance(kg, KnowledgeGraph):
        raise ValidationError(
            f"partitioned audits need a materialised KnowledgeGraph; "
            f"dataset spec {cell.dataset!r} built {type(kg)!r}"
        )
    return kg


def _partitioned_cell_partitions(
    cell: PartitionedAuditCell, settings: "ExperimentSettings"
) -> int:
    # Counting needs the predicate list only — not the permutation
    # draws partition_order performs on top of it.
    return len(TripleIndex(_partitioned_kg(cell, settings)).predicates)


def _partition_trajectory_window(
    cell: PartitionedAuditCell,
    settings: "ExperimentSettings",
    start: int,
    stop: int | None,
) -> tuple:
    kg = _partitioned_kg(cell, settings)
    generator = spawn_rng(cell.seed)
    names, members, order = partition_order(kg, rng=generator)
    alpha = settings.alpha if cell.alpha is None else cell.alpha
    trajectories = partition_trajectories(
        kg,
        names[start:stop],
        members,
        order,
        cell_method(cell),
        alpha,
        cell.epsilon,
        cell.min_per_partition,
        cell.max_triples,
        OracleAnnotator(),
        rng=generator,
    )
    return tuple(trajectories)


@register_cell_runner(PartitionedAuditCell)
def run_partitioned_audit_cell(
    cell: PartitionedAuditCell, settings: "ExperimentSettings"
) -> PartitionedAuditResult:
    """One whole partitioned audit (trajectories + allocation + solve)."""
    trajectories = _partition_trajectory_window(cell, settings, 0, None)
    return merge_partitioned_audit_cell_shards(cell, settings, [trajectories])


@register_shard_runner(PartitionedAuditCell, repetitions=_partitioned_cell_partitions)
def run_partitioned_audit_cell_shard(
    cell: PartitionedAuditCell,
    settings: "ExperimentSettings",
    rep_start: int,
    rep_stop: int,
) -> tuple:
    """Trajectories of partitions ``[rep_start, rep_stop)``.

    Every shard replays the full permutation schedule (cheap) and
    annotates only its own partitions (rng-free under the oracle
    annotator), so its payload is exactly the corresponding slice of
    the serial trajectory list.
    """
    return _partition_trajectory_window(cell, settings, rep_start, rep_stop)


@register_shard_reducer(PartitionedAuditCell)
def merge_partitioned_audit_cell_shards(
    cell: PartitionedAuditCell, settings: "ExperimentSettings", partials: list
) -> PartitionedAuditResult:
    """Merge integer trajectories, replay the budget, solve once.

    The partials are integer evidence only; every float the result
    carries is produced *after* the merge by the same allocation replay
    and interval solves the serial path runs — bit-identical output for
    any partition chunking.
    """
    trajectories = [trajectory for part in partials for trajectory in part]
    allocated, done, total = allocate_budget(trajectories, cell.max_triples)
    alpha = settings.alpha if cell.alpha is None else cell.alpha
    return finalize_audit(
        trajectories,
        allocated,
        done,
        total,
        cell_method(cell),
        alpha,
        cell.epsilon,
    )
