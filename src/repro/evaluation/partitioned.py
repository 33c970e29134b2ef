"""Per-partition accuracy auditing (library extension).

KG quality management rarely stops at one global number: error rates
differ sharply by relation type, and curation teams need to know *which
predicates* drag the accuracy down.  This module audits every partition
(stratum) of a KG — by default its predicates — producing one credible
interval per partition plus the stratified global estimate, under a
shared annotation budget.

The per-partition intervals inherit everything from the global
machinery (aHPD by default), so each partition's audit individually
carries the paper's guarantees; partitions whose budget share is too
small for their own convergence are reported as non-converged rather
than silently dropped.

Execution is factored into three stages so the runtime layer can shard
the expensive one over worker processes:

1. :func:`partition_trajectories` — per partition, the (budget-
   independent) annotation outcome sequence and the sample size at
   which the partition's own stop rule fires.  This stage holds all the
   interval solves and parallelises over partitions.
2. :func:`allocate_budget` — a cheap, deterministic replay of the
   proportional round-robin allocation using only the integer stopping
   points, deciding how many annotations each partition actually
   receives under the shared budget.
3. :func:`finalize_audit` — the per-partition and stratified-global
   interval solves on the allocated integer evidence.

:func:`audit_by_predicate` composes the three serially, checking stop
rules on demand (:func:`allocation_stop_rule`).  The runtime's
``PartitionedAuditCell`` calls down into the same stages — windows run
stage 1 with precomputed stops so partitions shard, its merge runs
stages 2-3 — and a sharded or cached audit is that one-cell plan, as
``python -m repro partition-audit`` builds.  With the default
(rng-free) oracle annotator the two paths are bit-identical for any
sharding — the guarantee the hypothesis suite enforces.  Non-oracle
annotators draw their label noise per partition (in partition order)
rather than interleaved across partitions, which keeps the trajectory
of each partition independent of every other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .._validation import check_alpha, check_positive, check_positive_int
from ..annotation.annotator import Annotator, OracleAnnotator
from ..annotation.cost import DEFAULT_COST_MODEL, AnnotationCost, CostModel
from ..estimators.base import Evidence
from ..exceptions import ValidationError
from ..intervals.ahpd import AdaptiveHPD
from ..intervals.base import Interval, IntervalMethod
from ..kg.graph import KnowledgeGraph
from ..kg.queries import TripleIndex
from ..stats.rng import RandomSource, spawn_rng

__all__ = [
    "PartitionAudit",
    "PartitionTrajectory",
    "PartitionedAuditResult",
    "allocate_budget",
    "allocation_stop_rule",
    "audit_by_predicate",
    "finalize_audit",
    "partition_order",
    "partition_trajectories",
]


@dataclass(frozen=True)
class PartitionAudit:
    """Audit outcome for one partition.

    Attributes
    ----------
    partition:
        Partition key (e.g. the predicate name).
    weight:
        Partition share of the KG, ``M_h / M``.
    n_annotated:
        Triples annotated inside the partition.
    mu_hat:
        Partition accuracy estimate.
    interval:
        The ``1 - alpha`` interval for the partition accuracy.
    converged:
        Whether the partition's own MoE met the threshold.
    """

    partition: str
    weight: float
    n_annotated: int
    mu_hat: float
    interval: Interval
    converged: bool


@dataclass(frozen=True)
class PartitionedAuditResult:
    """Joint outcome of a partitioned audit."""

    partitions: tuple[PartitionAudit, ...]
    global_mu_hat: float
    global_interval: Interval
    cost: AnnotationCost
    alpha: float
    epsilon: float

    @property
    def worst_partition(self) -> PartitionAudit:
        """The converged partition with the lowest estimated accuracy."""
        converged = [p for p in self.partitions if p.converged]
        pool = converged if converged else list(self.partitions)
        return min(pool, key=lambda p: p.mu_hat)

    def by_name(self) -> Mapping[str, PartitionAudit]:
        """Partition audits keyed by partition name."""
        return {p.partition: p for p in self.partitions}

    @property
    def cost_hours(self) -> float:
        """Total priced effort in hours."""
        return self.cost.hours


@dataclass(frozen=True)
class PartitionTrajectory:
    """Budget-independent annotation trajectory of one partition.

    Everything downstream of the trajectory is integer bookkeeping plus
    a handful of final interval solves, so trajectories are the natural
    shard payload: they pickle cheaply (integer tuples only) and
    partials from any partition sharding merge losslessly.

    Attributes
    ----------
    partition:
        Partition key (predicate name).
    size:
        Total triples in the partition, ``M_h``.
    weight:
        Partition share of the KG, ``M_h / M``.
    labels:
        Annotation outcomes in annotation order, truncated at
        ``n_stop`` (no later annotation can ever be requested — the
        allocator stops feeding a partition the moment its stop rule
        fires) or at the trajectory cap for never-stopping partitions.
    subjects:
        Subject entity ids aligned with ``labels`` (for the distinct-
        entity cost model).
    n_stop:
        Annotations at which the partition's own stop rule fires —
        exhaustion of the partition, or ``MoE <= epsilon`` at/after the
        calibrated floor; ``None`` when the rule cannot fire within the
        global budget cap.
    """

    partition: str
    size: int
    weight: float
    labels: tuple[int, ...]
    subjects: tuple[int, ...]
    n_stop: int | None


def partition_order(
    kg: KnowledgeGraph, rng: RandomSource = None
) -> tuple[list[str], dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Partition names, members, and annotation-order permutations.

    Permutations for **all** partitions are drawn from one generator in
    partition order, whatever subset a caller will actually process —
    that fixed consumption schedule is what lets partition shards on
    different workers replay exactly the draws the serial path makes.
    Annotation order within a partition is the *reversed* permutation,
    preserving the pre-runtime implementation (which popped candidates
    from the end of each partition's list).
    """
    index = TripleIndex(kg)
    names = list(index.predicates)
    members = {name: index.match(predicate=name) for name in names}
    generator = spawn_rng(rng)
    order = {name: generator.permutation(members[name])[::-1] for name in names}
    return names, members, order


def _stop_point(
    method: IntervalMethod,
    taus: np.ndarray,
    size: int,
    cap: int,
    floor: int,
    alpha: float,
    epsilon: float,
) -> int | None:
    """First ``n`` at which the partition's stop rule fires, if any.

    The rule mirrors the evaluation framework's: no decision before the
    calibrated floor, exhaustive annotation always stops (exact within
    the partition, no interval consulted), and otherwise the first
    ``MoE <= epsilon`` wins.
    """
    for n in range(floor, cap + 1):
        if n == size:
            return n
        evidence = Evidence.from_counts(int(taus[n - 1]), n)
        if method.compute(evidence, alpha).moe <= epsilon:
            return n
    return None


def partition_trajectories(
    kg: KnowledgeGraph,
    names: Sequence[str],
    members: Mapping[str, np.ndarray],
    order: Mapping[str, np.ndarray],
    method: IntervalMethod,
    alpha: float,
    epsilon: float,
    min_per_partition: int,
    max_triples: int,
    annotator: Annotator,
    rng: RandomSource = None,
    precompute_stops: bool = True,
) -> list[PartitionTrajectory]:
    """Stage 1: the annotation trajectory of each partition in *names*.

    With *precompute_stops* (the sharded path), this is the expensive
    stage — one interval solve per candidate stop point — and the one
    the runtime fans out: any split of the partition list produces
    trajectories that concatenate to the serial result, because each
    trajectory depends only on its own partition's permutation and
    labels.  ``precompute_stops=False`` skips the solve scan and keeps
    every label up to the trajectory cap (``n_stop`` stays ``None``);
    the serial path uses it together with
    :func:`allocation_stop_rule`, solving only at the sample sizes the
    budget actually reaches — the pre-refactor work profile.

    Validates the audit's knobs for both paths: a non-positive
    *epsilon* would annotate every partition to exhaustion.
    """
    check_alpha(alpha)
    check_positive(epsilon, "epsilon")
    check_positive_int(min_per_partition, "min_per_partition")
    check_positive_int(max_triples, "max_triples")
    total = kg.num_triples
    trajectories: list[PartitionTrajectory] = []
    for name in names:
        size = int(members[name].size)
        cap = min(size, max_triples)
        ordered = np.asarray(order[name][:cap])
        labels = np.asarray(
            annotator.annotate(kg, ordered, rng=rng), dtype=bool
        )
        subjects = kg.subjects(ordered)
        n_stop = None
        keep = cap
        if precompute_stops:
            floor = min(min_per_partition, size)
            taus = np.cumsum(labels, dtype=np.int64)
            n_stop = _stop_point(method, taus, size, cap, floor, alpha, epsilon)
            keep = cap if n_stop is None else n_stop
        trajectories.append(
            PartitionTrajectory(
                partition=name,
                size=size,
                weight=size / total,
                labels=tuple(int(v) for v in labels[:keep]),
                subjects=tuple(int(s) for s in subjects[:keep]),
                n_stop=n_stop,
            )
        )
    return trajectories


def allocation_stop_rule(
    trajectories: Sequence[PartitionTrajectory],
    method: IntervalMethod,
    alpha: float,
    epsilon: float,
    min_per_partition: int,
):
    """An on-demand ``is_done(name, n)`` for :func:`allocate_budget`.

    Evaluates the same predicate the precomputed ``n_stop`` scan uses —
    exhaustion, or ``MoE <= epsilon`` at/after the floor — but only at
    the sample sizes the allocation replay actually reaches, so a
    budget-starved audit performs no more interval solves than the
    pre-refactor interleaved loop did.
    """
    info = {t.partition: t for t in trajectories}
    taus = {
        t.partition: np.cumsum(np.asarray(t.labels, dtype=np.int64))
        for t in trajectories
    }

    def is_done(name: str, n: int) -> bool:
        trajectory = info[name]
        if n >= trajectory.size:
            return True
        if n < min(min_per_partition, trajectory.size):
            return False
        evidence = Evidence.from_counts(int(taus[name][n - 1]), n)
        return method.compute(evidence, alpha).moe <= epsilon

    return is_done


def allocate_budget(
    trajectories: Sequence[PartitionTrajectory],
    max_triples: int,
    is_done=None,
) -> tuple[dict[str, int], dict[str, bool], int]:
    """Stage 2: replay the proportional round-robin under the budget.

    Each step feeds the most under-allocated unfinished partition
    (``weight * (total + 1) - allocated``, ties to the earliest
    partition) and marks it done the moment its stop rule fires —
    exactly the decision sequence of the pre-runtime interleaved loop.
    *is_done* is a ``(name, n) -> bool`` predicate; the default reads
    the trajectories' precomputed ``n_stop``, which fires at identical
    sample sizes, so both variants replay the same allocation.
    """
    if is_done is None:
        stops = {t.partition: t.n_stop for t in trajectories}

        def is_done(name: str, n: int) -> bool:
            stop = stops[name]
            return stop is not None and n >= stop

    allocated = {t.partition: 0 for t in trajectories}
    done = {t.partition: False for t in trajectories}
    weights = {t.partition: t.weight for t in trajectories}
    names = [t.partition for t in trajectories]
    total = 0
    while total < max_triples:
        open_names = [n for n in names if not done[n]]
        if not open_names:
            break
        target = max(
            open_names,
            key=lambda n: weights[n] * (total + 1) - allocated[n],
        )
        allocated[target] += 1
        total += 1
        if is_done(target, allocated[target]):
            done[target] = True
    return allocated, done, total


def finalize_audit(
    trajectories: Sequence[PartitionTrajectory],
    allocated: Mapping[str, int],
    done: Mapping[str, bool],
    total: int,
    method: IntervalMethod,
    alpha: float,
    epsilon: float,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> PartitionedAuditResult:
    """Stage 3: interval solves on the allocated integer evidence."""
    audits = []
    entities: set[int] = set()
    global_mu = 0.0
    global_var = 0.0
    for trajectory in trajectories:
        name = trajectory.partition
        n_h = allocated[name]
        labels = trajectory.labels[:n_h]
        entities.update(trajectory.subjects[:n_h])
        if labels:
            evidence = Evidence.from_counts(int(sum(labels)), len(labels))
            interval = method.compute(evidence, alpha)
            mu_h = evidence.mu_hat
            var_h = mu_h * (1.0 - mu_h) / len(labels)
        else:
            # Budget ran out before the partition saw any annotation:
            # report total ignorance, not a fabricated estimate.
            interval = Interval(lower=0.0, upper=1.0, alpha=alpha, method="no-data")
            mu_h = 0.5
            var_h = 0.25
        audits.append(
            PartitionAudit(
                partition=name,
                weight=trajectory.weight,
                n_annotated=len(labels),
                mu_hat=mu_h,
                interval=interval,
                converged=done[name],
            )
        )
        global_mu += trajectory.weight * mu_h
        global_var += trajectory.weight ** 2 * var_h
    # Global stratified interval through the shared evidence machinery.
    global_mu = min(max(global_mu, 0.0), 1.0)
    srs_var = global_mu * (1.0 - global_mu) / max(total, 1)
    deff = max(global_var / srs_var, 1e-3) if srs_var > 0 else 1.0
    n_eff = max(total, 1) / deff
    global_evidence = Evidence(
        mu_hat=global_mu,
        variance=global_var,
        n_effective=n_eff,
        tau_effective=global_mu * n_eff,
        n_annotated=total,
    )
    global_interval = method.compute(global_evidence, alpha)
    cost = cost_model.price(len(entities), total)
    return PartitionedAuditResult(
        partitions=tuple(audits),
        global_mu_hat=global_mu,
        global_interval=global_interval,
        cost=cost,
        alpha=alpha,
        epsilon=epsilon,
    )


def audit_by_predicate(
    kg: KnowledgeGraph,
    alpha: float = 0.05,
    epsilon: float = 0.05,
    method: IntervalMethod | None = None,
    annotator: Annotator | None = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    min_per_partition: int = 30,
    max_triples: int = 50_000,
    rng: RandomSource = None,
) -> PartitionedAuditResult:
    """Audit every predicate of *kg* plus the stratified global accuracy.

    The sampler round-robins over partitions proportionally to their
    size (each partition is an SRS within itself), annotating until
    **every** partition's interval meets ``epsilon`` or the budget is
    exhausted.  Small partitions are annotated exhaustively when that
    is cheaper than their convergence requirement.

    Parameters
    ----------
    kg:
        A materialised KG with predicates.
    alpha / epsilon:
        Per-partition interval level and MoE threshold.
    method:
        Interval method (default aHPD).
    min_per_partition:
        Annotations each partition receives before its stop rule is
        consulted (small partitions cap at their size).  Defaults to 30,
        the same calibrated floor the global framework uses — unanimous
        small samples would otherwise stop on overconfident
        limiting-case intervals.
    max_triples:
        Global annotation budget.
    annotator:
        Label source (default: the rng-free oracle, whose results are
        unchanged from the pre-trajectory implementation).  A *noisy*
        annotator now draws its label noise per partition, in partition
        order, rather than interleaved across partitions — seeded
        non-oracle results differ from releases before the trajectory
        refactor.
    """
    alpha = check_alpha(alpha)
    if not isinstance(kg, KnowledgeGraph):
        raise ValidationError("partitioned audits need a materialised KnowledgeGraph")
    method = method if method is not None else AdaptiveHPD()
    annotator = annotator if annotator is not None else OracleAnnotator()
    generator = spawn_rng(rng)
    names, members, order = partition_order(kg, rng=generator)
    trajectories = partition_trajectories(
        kg, names, members, order, method, alpha, epsilon,
        min_per_partition, max_triples, annotator, rng=generator,
        precompute_stops=False,
    )
    allocated, done, total = allocate_budget(
        trajectories,
        max_triples,
        is_done=allocation_stop_rule(
            trajectories, method, alpha, epsilon, min_per_partition
        ),
    )
    return finalize_audit(
        trajectories, allocated, done, total, method, alpha, epsilon, cost_model
    )
