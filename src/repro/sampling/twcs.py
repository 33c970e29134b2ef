"""Two-stage Weighted Cluster Sampling (paper Sec. 2.4).

Stage 1 draws entity clusters with probability proportional to their
size ``pi_i = M_i / M`` (with replacement, as required for the
Hansen-Hurwitz mean-of-means estimator to be unbiased).  Stage 2 draws
``min(M_i, m)`` triples from each sampled cluster by SRS without
replacement.

The size-proportional draw is implemented by picking a uniform triple
index and mapping it to its owning cluster through the offsets array —
O(log N) per draw with no per-draw normalisation, which is what makes
the 5M-cluster synthetic KG workable.

A multi-unit draw is array-level: stage 1 is one ``searchsorted`` over
the anchors, and stage 2 materialises every unit at once — whole
clusters through offset arithmetic, capped clusters through a batched
random-keys subset (the ``m`` smallest of iid uniform keys per row is
a uniform ``m``-subset without replacement).  Its single ``integers``
and ``random`` calls fix how the generator is consumed.

Algorithm 1 draws one cluster per round, where one-element array calls
cost more than the work, so a one-unit draw takes its anchor, cluster
and keys in scalars.  It makes the array code's generator calls at
``units=1`` (``integers(0, N)`` is ``integers(0, N, size=1)[0]`` with
the same next state, ``random(w)`` is ``random((1, w))[0]``, and
``argpartition`` of that row is the row of the ``axis=1`` call), so it
returns the same triples in the same order and leaves the generator in
the same state.  ``update`` takes each cluster's mean as its label count
over its size in Python ints, the float64 sum-and-divide bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._validation import check_positive_int
from ..estimators.base import Evidence
from ..estimators.cluster import twcs_evidence
from ..exceptions import InsufficientSampleError, SamplingError
from ..kg.base import TripleStore
from .base import Batch, SampleState, SamplingStrategy

__all__ = ["TwoStageWeightedClusterSampling", "TWCSState"]


@dataclass
class TWCSState(SampleState):
    """TWCS accumulator: per-cluster stage-2 accuracies."""

    cluster_means: list[float] = field(default_factory=list)


class TwoStageWeightedClusterSampling(SamplingStrategy):
    """Size-weighted cluster sampling with a stage-2 cap.

    Parameters
    ----------
    m:
        Stage-2 sample size cap: ``min(M_i, m)`` triples are annotated
        per sampled cluster.  The paper recommends 3-5 (3 for the small
        datasets, 5 for SYN 100M).  ``None`` annotates whole clusters,
        which degenerates to one-stage Weighted Cluster Sampling.
    """

    name = "TWCS"
    unit_label = "cluster"

    def __init__(self, m: int | None = 3):
        if m is not None:
            m = check_positive_int(m, "m")
        self.m = m

    def new_state(self) -> TWCSState:
        return TWCSState()

    #: Upper bound on the (capped clusters x widest cluster) key matrix
    #: of the batched stage-2 subset; pathological draws beyond it fall
    #: back to per-cluster sampling rather than allocating gigabytes.
    _KEYS_BUDGET = 8_000_000

    def draw(
        self,
        kg: TripleStore,
        state: SampleState,
        units: int,
        rng: np.random.Generator,
    ) -> Batch:
        if units <= 0:
            raise SamplingError(f"units must be > 0, got {units}")
        if units == 1:
            # Algorithm 1 draws one cluster per round.
            return self._draw_one(kg, rng)
        return self._draw_arrays(kg, units, rng)

    def _draw_one(self, kg: TripleStore, rng: np.random.Generator) -> Batch:
        """One unit in scalars: :meth:`_draw_arrays`'s RNG calls, keys and order."""
        offsets = kg.cluster_offsets
        anchor = rng.integers(0, kg.num_triples)
        cluster = int(np.searchsorted(offsets, anchor, side="right")) - 1
        lo = int(offsets[cluster])
        size = int(offsets[cluster + 1]) - lo
        if self.m is None or size <= self.m:
            indices = np.arange(lo, lo + size, dtype=np.int64)
        elif size <= self._KEYS_BUDGET:
            indices = np.argpartition(rng.random(size), self.m - 1)[: self.m] + lo
        else:
            indices = lo + rng.choice(size, size=self.m, replace=False)
        return Batch(
            indices=indices,
            unit_slices=(slice(0, len(indices)),),
            subjects=np.full(len(indices), cluster, dtype=np.intp),
        )

    def _draw_arrays(
        self, kg: TripleStore, units: int, rng: np.random.Generator
    ) -> Batch:
        """Every unit at once; its ``integers``/``random`` calls fix the stream."""
        offsets = kg.cluster_offsets
        # PPS-with-replacement stage 1: a uniform triple index lands in
        # cluster i with probability M_i / M.
        anchors = rng.integers(0, kg.num_triples, size=units)
        cluster_ids = np.searchsorted(offsets, anchors, side="right") - 1
        lo = np.asarray(offsets[cluster_ids], dtype=np.int64)
        sizes = np.asarray(offsets[cluster_ids + 1], dtype=np.int64) - lo

        # Stage 2, all units at once.  Units at or under the cap take
        # the whole cluster (pure offset arithmetic, no randomness);
        # larger units take a uniform m-subset via random keys.
        take = sizes if self.m is None else np.minimum(sizes, self.m)
        bounds = np.concatenate(([0], np.cumsum(take)))
        total = int(bounds[-1])
        indices = np.empty(total, dtype=np.int64)
        within = np.arange(total, dtype=np.int64) - np.repeat(bounds[:-1], take)
        whole = sizes == take
        whole_rows = np.repeat(whole, take)
        indices[whole_rows] = np.repeat(lo[whole], take[whole]) + within[whole_rows]
        if not whole.all():
            capped = ~whole
            sub_lo = lo[capped]
            sub_sizes = sizes[capped]
            width = int(sub_sizes.max())
            if sub_sizes.size * width <= self._KEYS_BUDGET:
                # One uniform key per candidate position; the m smallest
                # keys of each row are a uniform m-subset without
                # replacement.  Invalid positions get +inf keys.
                keys = rng.random((sub_sizes.size, width))
                keys[np.arange(width) >= sub_sizes[:, None]] = np.inf
                cols = np.argpartition(keys, self.m - 1, axis=1)[:, : self.m]
                picked = (sub_lo[:, None] + cols).ravel()
            else:
                picked = np.concatenate(
                    [
                        start + rng.choice(int(size), size=self.m, replace=False)
                        for start, size in zip(sub_lo, sub_sizes)
                    ]
                )
            indices[np.repeat(capped, take)] = picked
        unit_slices = tuple(
            slice(int(start), int(stop))
            for start, stop in zip(bounds[:-1], bounds[1:])
        )
        return Batch(
            indices=indices,
            unit_slices=unit_slices,
            subjects=kg.subjects(indices),
        )

    def update(self, state: SampleState, batch: Batch, labels: np.ndarray) -> None:
        if not isinstance(state, TWCSState):
            raise SamplingError("TWCS update requires a TWCSState")
        labels = np.asarray(labels, dtype=bool)
        # A bool count is an exact int and int / int is correctly
        # rounded: each mean is the float64 sum over size bit for bit.
        flags = labels.tolist()
        state.cluster_means.extend(
            sum(flags[unit]) / (unit.stop - unit.start) for unit in batch.unit_slices
        )
        state._record(batch, labels)

    def evidence(self, state: SampleState) -> Evidence:
        if not isinstance(state, TWCSState):
            raise SamplingError("TWCS evidence requires a TWCSState")
        if len(state.cluster_means) < self.min_units:
            raise InsufficientSampleError(
                "TWCS evidence needs at least 2 sampled clusters, got "
                f"{len(state.cluster_means)}"
            )
        return twcs_evidence(state.cluster_means, state.n_annotated)

    @property
    def min_units(self) -> int:
        # The between-cluster variance needs two observations.
        return 2

    def __repr__(self) -> str:
        return f"TwoStageWeightedClusterSampling(m={self.m})"
