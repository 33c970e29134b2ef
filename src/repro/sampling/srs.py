"""Simple Random Sampling (paper Sec. 2.4).

Draws triples uniformly *without replacement* across the whole
evaluation run (the paper notes with-replacement is an acceptable
approximation at scale, but without-replacement is what SRS means and is
exact for the small datasets).  Rejection sampling keeps the draw O(1)
per unit even for the 100M-triple synthetic KG, where collisions are
vanishingly rare.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..estimators.base import Evidence
from ..estimators.proportion import srs_evidence
from ..exceptions import InsufficientSampleError, SamplingError
from ..kg.base import TripleStore
from .base import Batch, SampleState, SamplingStrategy

__all__ = ["SimpleRandomSampling", "SRSState"]


@dataclass
class SRSState(SampleState):
    """SRS accumulator: the counts are the sufficient statistics."""


class SimpleRandomSampling(SamplingStrategy):
    """Uniform triple-level sampling without replacement."""

    name = "SRS"
    unit_label = "triple"

    def new_state(self) -> SRSState:
        return SRSState()

    def draw(
        self,
        kg: TripleStore,
        state: SampleState,
        units: int,
        rng: np.random.Generator,
    ) -> Batch:
        if units <= 0:
            raise SamplingError(f"units must be > 0, got {units}")
        remaining = kg.num_triples - len(state.seen_triples)
        if units > remaining:
            raise InsufficientSampleError(
                f"requested {units} new triples but only {remaining} remain unannotated"
            )
        chosen: list[int] = []
        seen = state.seen_triples
        pending: set[int] = set()
        while len(chosen) < units:
            # Oversample to amortise rejections; collisions are rare
            # unless the sample approaches the full KG.
            need = units - len(chosen)
            candidates = rng.integers(0, kg.num_triples, size=max(2 * need, 8))
            for idx in candidates.tolist():
                if idx in seen or idx in pending:
                    continue
                pending.add(idx)
                chosen.append(idx)
                if len(chosen) == units:
                    break
        indices = np.asarray(chosen, dtype=np.int64)
        subjects = kg.subjects(indices)
        unit_slices = tuple(slice(i, i + 1) for i in range(units))
        return Batch(indices=indices, unit_slices=unit_slices, subjects=subjects)

    def update(self, state: SampleState, batch: Batch, labels: np.ndarray) -> None:
        state._record(batch, np.asarray(labels, dtype=bool))

    def evidence(self, state: SampleState) -> Evidence:
        if state.n_annotated == 0:
            raise InsufficientSampleError("no annotations accumulated yet")
        return srs_evidence(state.n_correct, state.n_annotated)

    def evidence_ahead(self, state: SampleState, rounds: int) -> tuple[Evidence, ...]:
        """The ``(n + j, tau + i)`` states, ``1 <= j <= rounds``, ``0 <= i <= j``.

        One unit moves ``(n, tau)`` to ``(n + 1, tau)`` or
        ``(n + 1, tau + 1)``; the counts are valid by construction, so
        the states skip :meth:`Evidence.from_counts`'s checks but share
        its arithmetic with :meth:`evidence`.
        """
        n, tau = state.n_annotated, state.n_correct
        return tuple(
            Evidence.from_counts_fast(tau + i, n + j)
            for j in range(1, rounds + 1)
            for i in range(j + 1)
        )
