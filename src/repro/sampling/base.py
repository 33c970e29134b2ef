"""Sampling-strategy interface.

A strategy owns three things:

* a mutable :class:`SampleState` accumulating the annotated sample over
  the iterative evaluation (paper Fig. 1);
* a ``draw`` step producing the next :class:`Batch` of triples to
  annotate (*units* are triples for SRS, clusters for TWCS);
* an ``update`` step folding annotations into the state, after which
  the state can produce the design-aware
  :class:`~repro.estimators.base.Evidence` consumed by every interval
  method.

Annotation itself is *not* the strategy's job — the evaluation framework
routes batches through an :class:`~repro.annotation.annotator.Annotator`
so that noisy / crowdsourced label sources compose with any strategy.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from ..annotation.cost import AnnotationCost, CostModel
from ..estimators.base import Evidence
from ..kg.base import TripleStore

__all__ = ["Batch", "SampleState", "SamplingStrategy"]


@dataclass(frozen=True)
class Batch:
    """One draw of triples to annotate.

    Attributes
    ----------
    indices:
        Global triple indices to annotate, concatenated across units.
    unit_slices:
        One slice into :attr:`indices` per sampled unit (a single triple
        for SRS; a cluster's stage-2 draw for TWCS).
    subjects:
        Cluster id owning each entry of :attr:`indices`.
    """

    indices: np.ndarray
    unit_slices: tuple[slice, ...]
    subjects: np.ndarray
    #: Optional per-unit stratum ids (set by stratified designs only).
    strata: tuple[int, ...] | None = None

    @property
    def num_units(self) -> int:
        """Number of sampled units in this batch."""
        return len(self.unit_slices)

    @property
    def num_triples(self) -> int:
        """Number of triples to annotate in this batch."""
        return int(self.indices.size)


@dataclass
class SampleState:
    """Accumulated annotated sample shared by all strategies.

    Strategy subclasses extend this with design-specific sufficient
    statistics; the base class tracks the bookkeeping every design
    needs — annotation counts and the distinct entities / triples that
    drive the cost model (paper Eq. 12).
    """

    n_annotated: int = 0
    n_correct: int = 0
    n_units: int = 0
    seen_triples: set[int] = field(default_factory=set)
    seen_entities: set[int] = field(default_factory=set)

    @property
    def mu_hat_raw(self) -> float:
        """Raw proportion of correct annotations (diagnostic only)."""
        if self.n_annotated == 0:
            return 0.0
        return self.n_correct / self.n_annotated

    def cost(self, model: CostModel) -> AnnotationCost:
        """Price the accumulated annotation effort under *model*.

        Distinct entities and triples are charged once — repeated draws
        of an already-annotated fact reuse the recorded judgement.
        """
        return model.price(len(self.seen_entities), len(self.seen_triples))

    def _record(self, batch: Batch, labels: np.ndarray) -> None:
        self.n_annotated += int(labels.size)
        self.n_correct += int(np.count_nonzero(labels))
        self.n_units += batch.num_units
        self.seen_triples.update(batch.indices.tolist())
        self.seen_entities.update(batch.subjects.tolist())


class SamplingStrategy(ABC):
    """Abstract sampling design (paper Sec. 2.4)."""

    #: Human-readable strategy name used in reports.
    name: str = "abstract"
    #: What one "unit" means for this design.
    unit_label: str = "unit"

    @abstractmethod
    def new_state(self) -> SampleState:
        """A fresh, empty accumulator for one evaluation run."""

    @abstractmethod
    def draw(
        self,
        kg: TripleStore,
        state: SampleState,
        units: int,
        rng: np.random.Generator,
    ) -> Batch:
        """Draw the next *units* sampling units from *kg*."""

    @abstractmethod
    def update(self, state: SampleState, batch: Batch, labels: np.ndarray) -> None:
        """Fold a batch's annotations into *state*."""

    @abstractmethod
    def evidence(self, state: SampleState) -> Evidence:
        """Design-aware evidence summary of the accumulated sample."""

    def evidence_ahead(self, state: SampleState, rounds: int) -> tuple[Evidence, ...]:
        """Evidence of the states the next *rounds* one-unit rounds can reach.

        Each entry must equal, field for field, what :meth:`evidence`
        returns once the walk reaches that state; the evaluator solves
        them ahead of time in one batch.  A design lists them only when
        they are few and known in advance; the default lists none.
        """
        return ()

    @property
    def min_units(self) -> int:
        """Fewest units required before evidence is well-defined."""
        return 1

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
