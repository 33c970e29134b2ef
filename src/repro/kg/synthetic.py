"""Lazy large-scale synthetic KG (the paper's SYN 100M).

The paper's scalability study uses a synthetic dataset with 101,415,011
triples in 5,000,000 entity clusters, "where correctness labels are
generated by setting the probability of a triple being true to a fixed
rate" (Sec. 5).  Materialising 100M triple objects is pointless for a
sampling study, so :class:`SyntheticKG` keeps only the cluster-size
array in memory (~40 MB) and derives every label on demand from a
counter-based hash of the global triple index — deterministic,
vectorised, and O(sample size) in memory.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .._validation import check_positive_int, check_probability
from ..exceptions import ValidationError
from ..stats.rng import RandomSource, spawn_rng
from .base import TripleStore

__all__ = ["SyntheticKG", "draw_cluster_sizes"]

_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SPLITMIX_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_MUL2 = np.uint64(0x94D049BB133111EB)
_TWO_POW_64 = float(2**64)
_MASK64 = 2**64 - 1


def _splitmix64(values: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser — a strong, stateless 64-bit mixer."""
    with np.errstate(over="ignore"):
        z = (values + _SPLITMIX_GAMMA) * _SPLITMIX_MUL1
        z = (z ^ (z >> np.uint64(30))) * _SPLITMIX_MUL1
        z = (z ^ (z >> np.uint64(27))) * _SPLITMIX_MUL2
        return z ^ (z >> np.uint64(31))


def _splitmix64_int(value: int) -> int:
    """:func:`_splitmix64` of one Python int, bit for bit, without arrays."""
    z = ((value + 0x9E3779B97F4A7C15) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def draw_cluster_sizes(
    num_clusters: int,
    num_triples: int,
    rng: RandomSource = None,
    dispersion: float = 1.0,
) -> np.ndarray:
    """Draw positive cluster sizes that sum exactly to *num_triples*.

    Sizes follow ``1 + NegativeBinomial`` with the requested mean and a
    *dispersion* knob (1.0 approximates geometric-like skew; larger
    values concentrate sizes around the mean).  The draw is then
    adjusted by distributing the residual one unit at a time so that the
    total matches *num_triples* exactly while all sizes stay >= 1.
    """
    num_clusters = check_positive_int(num_clusters, "num_clusters")
    num_triples = check_positive_int(num_triples, "num_triples")
    if num_triples < num_clusters:
        raise ValidationError(
            "num_triples must be >= num_clusters so every cluster is non-empty"
        )
    if dispersion <= 0:
        raise ValidationError(f"dispersion must be > 0, got {dispersion}")
    rng = spawn_rng(rng)

    excess_mean = num_triples / num_clusters - 1.0
    if excess_mean == 0.0:
        return np.ones(num_clusters, dtype=np.int64)
    # NegativeBinomial(n=r, p) has mean r(1-p)/p; solve p for the target.
    r = float(dispersion)
    p = r / (r + excess_mean)
    sizes = 1 + rng.negative_binomial(r, p, size=num_clusters).astype(np.int64)

    residual = num_triples - int(sizes.sum())
    if residual > 0:
        # Add the missing mass to uniformly chosen clusters.
        bump = rng.integers(0, num_clusters, size=residual)
        np.add.at(sizes, bump, 1)
    elif residual < 0:
        # Remove mass from clusters that can spare it, in random order.
        deficit = -residual
        while deficit > 0:
            candidates = np.flatnonzero(sizes > 1)
            take = min(deficit, candidates.size)
            chosen = rng.choice(candidates, size=take, replace=False)
            sizes[chosen] -= 1
            deficit -= take
    assert int(sizes.sum()) == num_triples
    return sizes


class SyntheticKG(TripleStore):
    """A lazily-labelled synthetic KG of arbitrary scale.

    Parameters
    ----------
    num_triples:
        Total fact count ``M``.
    num_clusters:
        Number of entity clusters.
    accuracy:
        The fixed probability that a triple is correct (the paper's
        "fixed rate"); this is the ground-truth ``mu`` of the KG.
    seed:
        Seed for both the cluster-size draw and the label hash.
    dispersion:
        Cluster-size dispersion passed to :func:`draw_cluster_sizes`.

    Notes
    -----
    Labels are i.i.d. ``Bernoulli(accuracy)`` indexed by the global
    triple index through a SplitMix64 hash, so repeated queries are
    consistent and the whole KG never needs to exist in memory.  The
    :attr:`accuracy` property reports the nominal rate; over 100M
    triples the realised proportion is within ~1e-4 of it.
    """

    def __init__(
        self,
        num_triples: int,
        num_clusters: int,
        accuracy: float,
        seed: int = 0,
        dispersion: float = 1.0,
    ):
        self._num_triples = check_positive_int(num_triples, "num_triples")
        self._num_clusters = check_positive_int(num_clusters, "num_clusters")
        self._accuracy = check_probability(accuracy, "accuracy")
        self._seed = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)
        size_rng = spawn_rng(int(seed))
        self._sizes = draw_cluster_sizes(
            num_clusters, num_triples, rng=size_rng, dispersion=dispersion
        )
        self._sizes.setflags(write=False)
        self._offsets = np.concatenate(([0], np.cumsum(self._sizes)))
        self._offsets.setflags(write=False)

    # ------------------------------------------------------------------
    # TripleStore interface
    # ------------------------------------------------------------------

    @property
    def num_triples(self) -> int:
        return self._num_triples

    @property
    def num_clusters(self) -> int:
        return self._num_clusters

    @property
    def cluster_sizes(self) -> np.ndarray:
        return self._sizes

    @property
    def cluster_offsets(self) -> np.ndarray:
        return self._offsets

    @property
    def accuracy(self) -> float:
        return self._accuracy

    def labels(self, indices: Sequence[int] | np.ndarray) -> np.ndarray:
        idx = self._check_indices(indices)
        if idx.size == 1:
            # Algorithm 1 under SRS annotates one triple per round; one
            # int hash skips a dozen one-element array operations.
            hashed = _splitmix64_int(int(idx[0]) ^ int(self._seed))
            return np.array([hashed / _TWO_POW_64 < self._accuracy])
        hashed = _splitmix64(idx.astype(np.uint64) ^ self._seed)
        uniform = hashed.astype(np.float64) / _TWO_POW_64
        return uniform < self._accuracy

    def realized_accuracy(self, sample_size: int = 1_000_000, seed: int = 7) -> float:
        """Monte-Carlo estimate of the realised label proportion.

        Useful for sanity-checking that the hash-based labelling matches
        the nominal :attr:`accuracy`; not used by the estimators.
        """
        sample_size = check_positive_int(sample_size, "sample_size")
        rng = spawn_rng(seed)
        idx = rng.integers(0, self._num_triples, size=min(sample_size, self._num_triples))
        return float(self.labels(idx).mean())

    def __repr__(self) -> str:
        return (
            f"SyntheticKG(num_triples={self._num_triples}, "
            f"num_clusters={self._num_clusters}, accuracy={self._accuracy})"
        )
