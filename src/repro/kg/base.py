"""Abstract triple-store interface shared by all KG backends.

Both the in-memory :class:`~repro.kg.graph.KnowledgeGraph` and the lazy
:class:`~repro.kg.synthetic.SyntheticKG` expose the same *columnar*
view that the sampling layer needs:

* a global triple index space ``0 .. num_triples - 1``;
* entity clusters with contiguous index ranges, described by a
  ``cluster_offsets`` prefix-sum array (cluster ``i`` owns indices
  ``[offsets[i], offsets[i + 1])``);
* vectorised ground-truth labels and subject lookups by index.

Keeping the interface columnar means simple random sampling is a single
``rng.integers`` call and cluster sampling is a single weighted
``rng.choice`` call, even for the 101M-triple synthetic KG.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from ..exceptions import EmptyGraphError, ValidationError

__all__ = ["TripleStore"]


class TripleStore(ABC):
    """Common interface over concrete KG backends."""

    # ------------------------------------------------------------------
    # Size and structure
    # ------------------------------------------------------------------

    @property
    @abstractmethod
    def num_triples(self) -> int:
        """Total number of triples ``M = |T|``."""

    @property
    @abstractmethod
    def num_clusters(self) -> int:
        """Number of entity clusters (distinct subjects)."""

    @property
    @abstractmethod
    def cluster_sizes(self) -> np.ndarray:
        """Integer array of per-cluster triple counts ``M_i``."""

    @property
    @abstractmethod
    def cluster_offsets(self) -> np.ndarray:
        """Prefix sums of :attr:`cluster_sizes` with a leading zero.

        Length is ``num_clusters + 1``; cluster ``i`` owns the global
        triple indices ``[offsets[i], offsets[i + 1])``.
        """

    # ------------------------------------------------------------------
    # Per-triple lookups (vectorised)
    # ------------------------------------------------------------------

    @abstractmethod
    def labels(self, indices: Sequence[int] | np.ndarray) -> np.ndarray:
        """Ground-truth correctness labels for *indices* (bool array).

        Only the oracle annotator should consult this; the estimation
        machinery never sees ground truth directly.
        """

    def subjects(self, indices: Sequence[int] | np.ndarray) -> np.ndarray:
        """Cluster ids (entity ids) owning each global triple index."""
        idx = self._check_indices(indices)
        # Right-side search maps index offsets[i] .. offsets[i+1]-1 -> i.
        return np.searchsorted(self.cluster_offsets, idx, side="right") - 1

    def cluster_triples(self, cluster_id: int) -> np.ndarray:
        """Global triple indices owned by *cluster_id*."""
        offsets = self.cluster_offsets
        if not 0 <= cluster_id < self.num_clusters:
            raise ValidationError(
                f"cluster_id must be in [0, {self.num_clusters}), got {cluster_id}"
            )
        return np.arange(offsets[cluster_id], offsets[cluster_id + 1], dtype=np.int64)

    def cluster_size(self, cluster_id: int) -> int:
        """Number of triples ``M_i`` in *cluster_id*."""
        if not 0 <= cluster_id < self.num_clusters:
            raise ValidationError(
                f"cluster_id must be in [0, {self.num_clusters}), got {cluster_id}"
            )
        return int(self.cluster_sizes[cluster_id])

    # ------------------------------------------------------------------
    # Ground truth
    # ------------------------------------------------------------------

    @property
    @abstractmethod
    def accuracy(self) -> float:
        """The true accuracy ``mu`` — the proportion of correct triples."""

    @property
    def avg_cluster_size(self) -> float:
        """Mean triples per entity cluster."""
        if self.num_clusters == 0:
            raise EmptyGraphError("graph has no clusters")
        return self.num_triples / self.num_clusters

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _check_indices(self, indices: Sequence[int] | np.ndarray) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.int64)
        if idx.ndim != 1:
            raise ValidationError("triple indices must be one-dimensional")
        # Viewed as uint64 a negative index wraps above any valid one,
        # so one max() checks both ends.
        if idx.size and idx.view(np.uint64).max() >= self.num_triples:
            raise ValidationError(
                f"triple indices must be in [0, {self.num_triples}); "
                f"got range [{idx.min()}, {idx.max()}]"
            )
        return idx

    def _require_non_empty(self) -> None:
        if self.num_triples == 0:
            raise EmptyGraphError("operation requires a non-empty graph")
