"""Cell kinds: turn picklable cell specs into computed results.

Every cell runs as repetition windows plus a merge.  A worker (or the
serial path) receives one :class:`~.spec.CellShard` — a cell and its
window, the whole cell when unsplit — plus the plan settings and
nothing else, so everything a window needs — the KG, the sampling
strategy, the interval method — is rebuilt from spec strings here; the
scheduler merges the window payloads into the cell's result.  Builders
are deterministic: the same spec and settings always construct
identical objects, which is what makes parallel execution bit-identical
to serial and cache keys meaningful.

The kind registry is open: downstream code (and the test suite) can
register additional cell types with :func:`register_cell_runner`
without touching the executor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from ..annotation.annotator import OracleAnnotator
from ..evaluation.coverage import CoverageResult, coverage_from_counts, tau_counts
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
    "CellKind",
    "build_kg",
    "build_method",
    "build_method_from_payload",
    "build_strategy",
    "cell_method",
    "kind_for",
    "method_payload",
    "register_cell_runner",
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
    """The interval method a cell's runner (or merge) should use.

    A :attr:`~repro.runtime.spec.CellSpec.method_payload` wins over the
    ``method`` spec string; both construct deterministically, which is
    what keeps worker-side rebuilds bit-identical to the serial path.
    """
    if cell.method_payload is not None:
        return build_method_from_payload(cell.method_payload)
    return build_method(cell.method, priors=getattr(cell, "priors", None))


# ----------------------------------------------------------------------
# Cell kinds
# ----------------------------------------------------------------------
#
# Every cell runs as one or more repetition windows plus a merge.  A
# kind registers one window runner ``(cell, settings, rep_range)`` —
# ``rep_range=None`` means every repetition — and, to be splittable,
# the merge of its in-order window payloads and a repetition counter.
# The contract every splittable kind honours — and the hypothesis
# suite enforces — is *bit-identity*: for any chunking, merging the
# window payloads reproduces ``merge([run(rep_range=None)])`` exactly.
# The built-in kinds achieve that by keeping per-repetition seed
# streams keyed on global repetition indices and merging via lossless
# operations only (integer sums, array concatenation) before any
# shared float reduction.


def _single(cell: CellSpec, settings: "ExperimentSettings", partials: list) -> Any:
    """The merge of a kind that never splits: its one payload."""
    (value,) = partials
    return value


@dataclass(frozen=True)
class CellKind:
    """How the runtime executes one cell type.

    ``run(cell, settings, rep_range)`` computes one window's payload;
    ``merge(cell, settings, partials)`` turns the in-order payloads
    into the cell's result.  ``repetitions(cell, settings)`` counts the
    repetitions its windows partition; a kind without it always runs
    as one window.
    """

    run: Callable[[Any, "ExperimentSettings", tuple[int, int] | None], Any]
    merge: Callable[[Any, "ExperimentSettings", list], Any] = _single
    repetitions: Callable[[Any, "ExperimentSettings"], int] | None = None


_KINDS: dict[type, CellKind] = {}


def register_cell_runner(
    cell_type: type,
    *,
    merge: Callable[[Any, "ExperimentSettings", list], Any] | None = None,
    repetitions: Callable[[Any, "ExperimentSettings"], int] | None = None,
):
    """Decorator registering *cell_type*'s window runner.

    The runner receives ``(cell, settings, rep_range)``.  A splittable
    kind passes *merge* and *repetitions* too (both or neither).  The
    executor dispatches on the cell's type, walking the MRO, so
    subclasses inherit their parent's kind unless they register their
    own.
    """
    if (merge is None) != (repetitions is None):
        raise ValidationError(
            "a splittable cell kind registers merge= and repetitions= together"
        )

    def decorate(fn: Callable[[Any, "ExperimentSettings", Any], Any]):
        _KINDS[cell_type] = CellKind(
            run=fn, merge=merge or _single, repetitions=repetitions
        )
        return fn

    return decorate


def kind_for(cell: CellSpec) -> CellKind:
    """The registered :class:`CellKind` of *cell*'s type."""
    for klass in type(cell).__mro__:
        kind = _KINDS.get(klass)
        if kind is not None:
            return kind
    raise ValidationError(f"no runner registered for cell type {type(cell)!r}")


# ----------------------------------------------------------------------
# Built-in kinds
# ----------------------------------------------------------------------


def _study_evaluator(cell: StudyCell, settings: "ExperimentSettings") -> KGAccuracyEvaluator:
    """The deterministic evaluator behind a study cell's windows."""
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


def _study_cell_repetitions(cell: StudyCell, settings: "ExperimentSettings") -> int:
    return settings.repetitions


def _audit_cell_repetitions(cell, settings: "ExperimentSettings") -> int:
    return settings.repetitions if cell.repetitions is None else cell.repetitions


def merge_study_cell(
    cell: StudyCell, settings: "ExperimentSettings", partials: list
) -> StudyResult:
    """Concatenate in-order study windows into the cell's result.

    Concatenation of the per-repetition arrays is lossless, and the
    summaries on :class:`StudyResult` are derived lazily from them, so
    the merged result is bit-identical for any chunking.
    """
    return StudyResult(
        label=cell.label,
        triples=np.concatenate([p.triples for p in partials]),
        cost_hours=np.concatenate([p.cost_hours for p in partials]),
        estimates=np.concatenate([p.estimates for p in partials]),
        entities=np.concatenate([p.entities for p in partials]),
        converged=np.concatenate([p.converged for p in partials]),
    )


@register_cell_runner(
    StudyCell, merge=merge_study_cell, repetitions=_study_cell_repetitions
)
def run_study_cell(
    cell: StudyCell, settings: "ExperimentSettings", rep_range: tuple[int, int] | None
) -> StudyResult:
    """Repetitions *rep_range* of one (dataset, strategy, method) study.

    Mirrors the pre-runtime ``run_configuration`` path exactly: the
    evaluator configuration, the per-cell ``derive_seed`` stream, and
    the per-repetition seeding are unchanged, and per-repetition seeds
    stay keyed on the global repetition index, so a window's arrays are
    exactly the corresponding slice of the whole run's.
    """
    return run_study(
        _study_evaluator(cell, settings),
        repetitions=settings.repetitions,
        seed=derive_seed(settings.seed, *cell.seed_stream),
        label=cell.label,
        rep_range=rep_range,
    )


def merge_coverage_cell(
    cell: CoverageCell, settings: "ExperimentSettings", partials: list
) -> CoverageResult:
    """Sum window histograms and solve the merged outcome set once."""
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


@register_cell_runner(
    CoverageCell, merge=merge_coverage_cell, repetitions=_audit_cell_repetitions
)
def run_coverage_cell(
    cell: CoverageCell, settings: "ExperimentSettings", rep_range: tuple[int, int] | None
) -> np.ndarray:
    """Outcome histogram of one repetition window of a coverage cell.

    The payload is the integer ``tau`` histogram of the window;
    histograms of a partition sum exactly to the full histogram, and
    the merge performs the (cheap, deduplicated) interval solves once
    on the summed counts.
    """
    return tau_counts(
        cell.mu,
        cell.n,
        _audit_cell_repetitions(cell, settings),
        rng=cell.seed,
        rep_range=rep_range,
    )


def merge_sequential_coverage_cell(
    cell: SequentialCoverageCell, settings: "ExperimentSettings", partials: list
) -> SequentialCoverageResult:
    """Sum hit counts, concatenate stopping sizes, summarise once.

    Hit counts are integers and the stopping-size concatenation is the
    whole run's array element for element, so the float summaries
    (mean/std over the full array) are computed on identical input —
    bit-identical output.
    """
    method = cell_method(cell)
    config = settings.evaluation_config(alpha=cell.alpha)
    hits = sum(int(h) for h, _ in partials)
    stopping = np.concatenate([s for _, s in partials])
    return sequential_from_replays(method.name, cell.mu, config, hits, stopping)


@register_cell_runner(
    SequentialCoverageCell,
    merge=merge_sequential_coverage_cell,
    repetitions=_audit_cell_repetitions,
)
def run_sequential_coverage_cell(
    cell: SequentialCoverageCell,
    settings: "ExperimentSettings",
    rep_range: tuple[int, int] | None,
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
        rep_range=rep_range,
    )


# ----------------------------------------------------------------------
# Dynamic (evolving-KG) audit cells
# ----------------------------------------------------------------------

#: Per-process snapshot-stream memo, mirroring the KG cache: every
#: repetition window of a dynamic cell replays the same evolving KG, so
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


def merge_dynamic_audit_cell(
    cell: DynamicAuditCell, settings: "ExperimentSettings", partials: list
) -> DynamicAuditStudy:
    """Concatenate in-order stream windows into the full study.

    Concatenation is lossless (the records themselves are the payload,
    carried-prior state included), so the merged study is bit-identical
    for any chunking.
    """
    return DynamicAuditStudy(
        label=cell.label,
        streams=tuple(stream for part in partials for stream in part),
    )


@register_cell_runner(
    DynamicAuditCell,
    merge=merge_dynamic_audit_cell,
    repetitions=_audit_cell_repetitions,
)
def run_dynamic_audit_cell(
    cell: DynamicAuditCell,
    settings: "ExperimentSettings",
    rep_range: tuple[int, int] | None,
) -> tuple:
    """Stream replications *rep_range* of one evolving-KG audit cell.

    Each replication is a complete multi-round stream with the carried
    prior threaded through its rounds, and its seed window is keyed on
    the global repetition index — so the payload is exactly the
    corresponding slice of the whole study's streams.  Repetition 0
    reproduces ``DynamicAuditor.audit_stream`` on the cell's audit seed
    exactly, so routing a single-replication experiment through the
    runtime changes scheduling, never numbers.
    """
    study = _dynamic_auditor(cell, settings).audit_study(
        _dynamic_snapshots(cell),
        repetitions=_audit_cell_repetitions(cell, settings),
        seed=cell.seed,
        label=cell.label,
        rep_range=rep_range,
    )
    return study.streams


# ----------------------------------------------------------------------
# Partitioned (per-predicate) audit cells
# ----------------------------------------------------------------------
#
# The window dimension here is the *partition list*, not Monte-Carlo
# repetitions: "repetition" i is predicate i in the KG's deterministic
# sorted order.  Windows compute the expensive budget-independent
# trajectories of their partitions; the merge concatenates the
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


def merge_partitioned_audit_cell(
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


@register_cell_runner(
    PartitionedAuditCell,
    merge=merge_partitioned_audit_cell,
    repetitions=_partitioned_cell_partitions,
)
def run_partitioned_audit_cell(
    cell: PartitionedAuditCell,
    settings: "ExperimentSettings",
    rep_range: tuple[int, int] | None,
) -> tuple:
    """Trajectories of the partitions in *rep_range* (all when ``None``).

    Every window replays the full permutation schedule (cheap) and
    annotates only its own partitions (rng-free under the oracle
    annotator), so its payload is exactly the corresponding slice of
    the serial trajectory list.
    """
    kg = _partitioned_kg(cell, settings)
    generator = spawn_rng(cell.seed)
    names, members, order = partition_order(kg, rng=generator)
    start, stop = rep_range or (0, None)
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
