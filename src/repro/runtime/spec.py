"""Study grids as data: cell specifications and execution plans.

The paper's evidence is a grid of independent, seeded Monte-Carlo
cells — one (dataset, strategy, method, alpha) configuration per table
row or figure point.  The runtime layer turns that structure into an
explicit value: experiment modules *describe* their grid as a tuple of
:class:`CellSpec` objects collected in a :class:`StudyPlan`, and the
:class:`~repro.runtime.executor.ParallelExecutor` decides how to run
them (serially, or fanned out over worker processes) and whether a cell
can be served from the :class:`~repro.runtime.store.ResultStore`.

The unit of work is a :class:`CellShard`: one repetition window of a
cell, the whole cell when it is not split.  Cells are frozen
dataclasses of primitives only — strings, numbers, tuples — so they
(and their windows) pickle across process boundaries and hash stably
into cache keys.  Everything stochastic is pinned at plan-build time: a
study cell carries the ``derive_seed(settings.seed, *seed_stream)``
stream indices of the existing seeding scheme, and audit cells carry
their concrete base seed, so parallel and serial execution (and any
completion order) produce bit-identical results.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from ..exceptions import ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..experiments.config import ExperimentSettings

__all__ = [
    "CACHE_VERSION",
    "CellSpec",
    "CellShard",
    "StudyCell",
    "CoverageCell",
    "SequentialCoverageCell",
    "DynamicAuditCell",
    "PartitionedAuditCell",
    "StudyPlan",
    "cache_token",
    "shard_ranges",
    "shard_token",
]

#: Version tag mixed into every cache key.  Bump whenever a change to
#: the evaluators, interval solvers, or cell semantics makes previously
#: cached payloads stale.  2: cells grew the picklable ``method_payload``
#: field (full method configuration in the token, not just the spec
#: string).  3: the HPD ``solver`` left settings and method payloads.
#: 4: ``StudyCell.priors`` left (informative priors travel as
#: ``method_payload``), which changes every study cell's token.
CACHE_VERSION = 4


@dataclass(frozen=True)
class CellSpec:
    """One independent unit of work in a study grid.

    Attributes
    ----------
    key:
        Hashable identity of the cell inside its plan; becomes the key
        of the executor's results mapping (e.g. ``("YAGO", "SRS",
        "aHPD")``).  Must be unique within a plan.
    label:
        Human-readable cell name used in progress lines and stored on
        the produced result.
    method:
        Interval-method spec string (see
        :func:`repro.runtime.cells.build_method`), e.g. ``"Wilson"``,
        ``"HPD:Kerman"``.
    alpha:
        Significance-level override; ``None`` uses the plan settings'
        alpha.
    method_payload:
        Full picklable method configuration — the primitive tuple
        produced by :func:`repro.runtime.cells.method_payload` — for
        methods whose configuration (informative priors) is not captured
        by the ``method`` spec string.  When set, runners build
        the method from this payload (``method`` stays as the display
        name) and the payload participates in the cache token, so two
        ad-hoc methods with the same display name can never share an
        entry.
    """

    key: tuple
    label: str
    method: str
    alpha: float | None = None
    method_payload: tuple | None = None


@dataclass(frozen=True)
class StudyCell(CellSpec):
    """A full Monte-Carlo study: repeated evaluation runs on one KG.

    Attributes
    ----------
    dataset:
        KG spec string (see :func:`repro.runtime.cells.build_kg`):
        a profile name (``"NELL"``), ``"SYN100M:<mu>"``, or
        ``"file:<path>"``.
    strategy:
        Sampling-design spec string: ``"SRS"``, ``"TWCS:<m>"``,
        ``"WCS"``, or ``"STRAT"``.
    seed_stream:
        Indices fed to ``derive_seed(settings.seed, *seed_stream)`` —
        the existing per-configuration stream scheme, preserved so that
        routed experiments reproduce their pre-runtime numbers exactly.
    units_per_iteration:
        Optional override of the evaluation loop's batch granularity
        (used by the batch-size ablation).
    """

    dataset: str = "NELL"
    strategy: str = "SRS"
    seed_stream: tuple[int, ...] = (0,)
    units_per_iteration: int | None = None


@dataclass(frozen=True)
class CoverageCell(CellSpec):
    """A fixed-n empirical coverage measurement (one method, mu, n).

    ``seed`` is the concrete RNG seed (already derived at plan-build
    time), so the cell is self-contained and order-independent.
    ``repetitions`` of ``None`` uses the plan settings' count.
    """

    mu: float = 0.5
    n: int = 30
    seed: int = 0
    repetitions: int | None = None


@dataclass(frozen=True)
class SequentialCoverageCell(CellSpec):
    """A stopped-interval coverage measurement under the full procedure."""

    mu: float = 0.5
    seed: int = 0
    repetitions: int | None = None


@dataclass(frozen=True)
class DynamicAuditCell(CellSpec):
    """Monte-Carlo replications of an evolving-KG audit stream.

    One cell is a full Sec.-8 scenario: a base KG plus cumulative
    update batches, re-audited after each batch with the posterior
    carried forward as next round's informative prior.  Repetition
    sharding splits the *replications* of the stream; the carried prior
    threads through the rounds within each replication, so shards stay
    independent and merge bit-identically.

    Attributes
    ----------
    base_facts / base_accuracy:
        The initial KG snapshot's size and ground-truth accuracy.
    updates:
        ``(num_facts, accuracy, intra_cluster_correlation)`` triples,
        one per cumulative content batch, in arrival order.
    stream_seed:
        Concrete seed of the evolving-KG generator (already derived at
        plan-build time).
    strategy:
        Sampling-design spec string used in every audit round.
    carryover:
        Fraction of the previous round's posterior pseudo-counts kept
        as the next round's informative prior (0.0 = independent
        re-audits).
    max_prior_strength:
        Cap on the carried prior's pseudo-annotation count.
    seed:
        Base audit seed; repetition ``r``, round ``i`` audits under
        ``seed + r * rounds + i`` (see
        :meth:`repro.evaluation.dynamic.DynamicAuditor.audit_study`).
    repetitions:
        Stream replications; ``None`` uses the plan settings' count.
    """

    base_facts: int = 6_000
    base_accuracy: float = 0.85
    updates: tuple[tuple[int, float, float], ...] = ()
    stream_seed: int = 0
    strategy: str = "TWCS:3"
    carryover: float = 1.0
    max_prior_strength: float = 200.0
    seed: int = 0
    repetitions: int | None = None


@dataclass(frozen=True)
class PartitionedAuditCell(CellSpec):
    """A per-predicate partitioned audit of one KG under a shared budget.

    The cell shards over *partitions* rather than repetitions: the
    runtime's repetition index enumerates the KG's predicates (in their
    deterministic sorted order), each window computes the budget-
    independent annotation trajectories of its partitions, and the
    kind's merge concatenates the integer-evidence partials, replays the
    budget allocation, and performs the shared interval solves once —
    bit-identical to the serial :func:`~repro.evaluation.partitioned.
    audit_by_predicate` for any chunking.

    Attributes
    ----------
    dataset:
        KG spec string (see :func:`repro.runtime.cells.build_kg`).
    epsilon:
        Per-partition MoE threshold.
    min_per_partition:
        Calibrated stop-rule floor per partition.
    max_triples:
        Global annotation budget.
    seed:
        Concrete RNG seed of the partition permutations.
    """

    dataset: str = "NELL"
    epsilon: float = 0.05
    min_per_partition: int = 30
    max_triples: int = 50_000
    seed: int = 0


@dataclass(frozen=True)
class CellShard:
    """One unit of work: a contiguous repetition window of a cell.

    ``CellShard(cell)`` is the whole cell — the single window of an
    unsplit cell, executed with ``rep_range=None``.  The windows of a
    split cell are fixed at plan-schedule time: the parent cell, the
    window's position, and its half-open ``[rep_start, rep_stop)``
    range fully determine the work, and the per-repetition seed
    sub-streams are the *global* repetition indices of the parent
    cell's ``derive_seed`` stream — which is what makes the merged
    result bit-identical to the whole-cell run for any chunking.
    """

    cell: CellSpec
    index: int = 0
    shards: int = 1
    rep_start: int = 0
    rep_stop: int | None = None

    @property
    def rep_range(self) -> tuple[int, int] | None:
        """The runner's window argument; ``None`` for the whole cell."""
        return None if self.rep_stop is None else (self.rep_start, self.rep_stop)

    @property
    def repetitions(self) -> int:
        """Repetitions covered by this window (split cells only)."""
        return self.rep_stop - self.rep_start

    @property
    def label(self) -> str:
        """Progress label: the cell label, plus the window when split."""
        if self.rep_stop is None:
            return self.cell.label
        return f"{self.cell.label}[{self.rep_start}:{self.rep_stop}]"


def shard_ranges(repetitions: int, chunk_size: int) -> tuple[tuple[int, int], ...]:
    """Contiguous ``[start, stop)`` windows covering *repetitions*.

    Every window holds *chunk_size* repetitions except a ragged final
    one.  ``chunk_size >= repetitions`` yields the single full window.
    """
    repetitions = int(repetitions)
    chunk_size = int(chunk_size)
    if repetitions < 1:
        raise ValidationError(f"repetitions must be >= 1, got {repetitions}")
    if chunk_size < 1:
        raise ValidationError(f"chunk_size must be >= 1, got {chunk_size}")
    return tuple(
        (start, min(start + chunk_size, repetitions))
        for start in range(0, repetitions, chunk_size)
    )


@dataclass(frozen=True)
class StudyPlan:
    """An executable description of a study grid.

    Attributes
    ----------
    settings:
        The shared :class:`~repro.experiments.config.ExperimentSettings`
        (repetitions, seeds, alpha/epsilon).
    cells:
        The grid, in deterministic plan order.  Keys must be unique.
    name:
        Plan identifier used in progress output (e.g. ``"table3"``).
    """

    settings: "ExperimentSettings"
    cells: tuple[CellSpec, ...]
    name: str = ""

    def __post_init__(self) -> None:
        seen: set[tuple] = set()
        for cell in self.cells:
            if cell.key in seen:
                raise ValidationError(f"duplicate cell key in plan: {cell.key!r}")
            seen.add(cell.key)

    def __len__(self) -> int:
        return len(self.cells)


#: Settings fields that feed the execution of a cell (and therefore the
#: cache identity of its result).  ``datasets`` is deliberately absent:
#: it shapes plan construction, not cell execution.
_SETTINGS_TOKEN_FIELDS = (
    "repetitions",
    "seed",
    "dataset_seed",
    "alpha",
    "epsilon",
)


def cache_token(cell: CellSpec, settings: "ExperimentSettings") -> str:
    """Content hash identifying *cell*'s result under *settings*.

    The token covers every input of the computation: the cell fields,
    the settings fields the runners read, and :data:`CACHE_VERSION` as
    a stand-in for the code revision of the numerical kernels.  Two
    invocations with the same token are guaranteed to produce the same
    payload, so the :class:`~repro.runtime.store.ResultStore` can serve
    re-runs and resume interrupted grids safely.

    Deliberately absent: anything that only changes *where or in what
    pieces* the work runs — the chunk size, the worker count and the
    execution backend, all run settings rather than cell fields.  A
    grid computed under one chunking or backend is a cache hit under
    every other, which is what lets a run interrupted under one resume
    under another.
    """
    payload = {
        "version": CACHE_VERSION,
        "kind": type(cell).__name__,
        "cell": asdict(cell),
        "settings": {
            name: getattr(settings, name) for name in _SETTINGS_TOKEN_FIELDS
        },
    }
    dataset = getattr(cell, "dataset", "")
    if dataset.startswith("file:"):
        # Profiled/synthetic KGs are pure functions of (spec, seed), but
        # a file-backed KG can change on disk under an unchanged spec —
        # fold its size and mtime into the token so edits invalidate
        # cached results instead of silently serving stale ones.
        payload["dataset_file"] = _file_fingerprint(dataset.split(":", 1)[1])
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def shard_token(
    shard: CellShard, settings: "ExperimentSettings", total_repetitions: int
) -> str:
    """Content hash identifying one shard's partial payload.

    Derived from the parent cell's :func:`cache_token` plus the shard's
    repetition window and the cell's total repetition count, so shard
    entries are stable across runs of the same chunking and can never
    collide with full-cell entries or with shards of a different
    chunking/total.
    """
    base = cache_token(shard.cell, settings)
    suffix = f":shard:{shard.rep_start}:{shard.rep_stop}:{int(total_repetitions)}"
    return hashlib.sha256((base + suffix).encode("utf-8")).hexdigest()


def _file_fingerprint(path: str) -> tuple:
    try:
        stat = os.stat(path)
    except OSError:
        # The runner will surface the missing file as a load error.
        return ("missing",)
    return (stat.st_size, stat.st_mtime_ns)
