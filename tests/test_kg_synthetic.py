"""Unit and property tests for the lazy synthetic KG."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.kg.synthetic import (
    SyntheticKG,
    _splitmix64,
    _splitmix64_int,
    draw_cluster_sizes,
)


class TestDrawClusterSizes:
    def test_sums_exactly(self, rng):
        sizes = draw_cluster_sizes(100, 2028, rng=rng)
        assert int(sizes.sum()) == 2028
        assert sizes.size == 100

    def test_all_positive(self, rng):
        sizes = draw_cluster_sizes(500, 700, rng=rng)
        assert sizes.min() >= 1

    def test_degenerate_one_per_cluster(self, rng):
        sizes = draw_cluster_sizes(50, 50, rng=rng)
        assert np.all(sizes == 1)

    def test_rejects_too_few_triples(self, rng):
        with pytest.raises(ValidationError):
            draw_cluster_sizes(10, 5, rng=rng)

    def test_rejects_bad_dispersion(self, rng):
        with pytest.raises(ValidationError):
            draw_cluster_sizes(10, 20, rng=rng, dispersion=0.0)

    def test_deterministic_under_seed(self):
        a = draw_cluster_sizes(100, 1000, rng=5)
        b = draw_cluster_sizes(100, 1000, rng=5)
        assert np.array_equal(a, b)

    @given(
        clusters=st.integers(2, 200),
        extra=st.integers(0, 2_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_invariants_hold(self, clusters, extra):
        total = clusters + extra
        sizes = draw_cluster_sizes(clusters, total, rng=0)
        assert sizes.size == clusters
        assert sizes.min() >= 1
        assert int(sizes.sum()) == total


class TestSyntheticKG:
    def test_structure(self, small_synthetic):
        assert small_synthetic.num_triples == 50_000
        assert small_synthetic.num_clusters == 2_500
        assert small_synthetic.avg_cluster_size == pytest.approx(20.0)
        assert small_synthetic.cluster_offsets[-1] == 50_000

    def test_labels_deterministic(self, small_synthetic):
        idx = np.array([0, 1, 42, 49_999])
        a = small_synthetic.labels(idx)
        b = small_synthetic.labels(idx)
        assert np.array_equal(a, b)

    def test_labels_depend_on_seed(self):
        kg_a = SyntheticKG(10_000, 500, accuracy=0.5, seed=1)
        kg_b = SyntheticKG(10_000, 500, accuracy=0.5, seed=2)
        idx = np.arange(10_000)
        assert not np.array_equal(kg_a.labels(idx), kg_b.labels(idx))

    def test_label_rate_matches_accuracy(self, small_synthetic):
        idx = np.arange(small_synthetic.num_triples)
        rate = float(small_synthetic.labels(idx).mean())
        assert rate == pytest.approx(0.9, abs=0.01)

    def test_realized_accuracy_helper(self, small_synthetic):
        assert small_synthetic.realized_accuracy() == pytest.approx(0.9, abs=0.02)

    @pytest.mark.parametrize("mu", [0.0, 1.0])
    def test_degenerate_rates(self, mu):
        kg = SyntheticKG(1_000, 100, accuracy=mu, seed=0)
        labels = kg.labels(np.arange(1_000))
        assert labels.mean() == mu

    def test_subjects_consistent_with_offsets(self, small_synthetic):
        rng = np.random.default_rng(0)
        idx = rng.integers(0, small_synthetic.num_triples, size=200)
        subs = small_synthetic.subjects(idx)
        offsets = small_synthetic.cluster_offsets
        for i, s in zip(idx, subs):
            assert offsets[s] <= i < offsets[s + 1]

    def test_rejects_out_of_range(self, small_synthetic):
        with pytest.raises(ValidationError):
            small_synthetic.labels([50_000])

    @pytest.mark.parametrize(
        "indices", [[-1], [3, -2, 7], [0, 50_000], [-(2**63)]], ids=str
    )
    def test_rejects_negative_and_too_large_indices_in_one_check(
        self, small_synthetic, indices
    ):
        low, high = min(indices), max(indices)
        with pytest.raises(ValidationError, match=rf"got range \[{low}, {high}\]"):
            small_synthetic.labels(indices)
        with pytest.raises(ValidationError, match="must be in"):
            small_synthetic.subjects(indices)

    def test_rejects_bad_accuracy(self):
        with pytest.raises(ValidationError):
            SyntheticKG(100, 10, accuracy=1.5)

    def test_labels_are_not_correlated_with_index_parity(self, small_synthetic):
        # Hash-based labels should not leak structural patterns.
        idx = np.arange(20_000)
        labels = small_synthetic.labels(idx).astype(float)
        even = labels[idx % 2 == 0].mean()
        odd = labels[idx % 2 == 1].mean()
        assert abs(even - odd) < 0.02


class TestOneIndexLabels:
    """The one-index label path (one Python-int hash) against the arrays."""

    @given(value=st.integers(0, 2**64 - 1))
    @settings(max_examples=300, deadline=None)
    def test_int_hash_matches_the_uint64_hash(self, value):
        hashed = _splitmix64_int(value)
        vector = _splitmix64(np.array([value], dtype=np.uint64))[0]
        assert hashed == int(vector)
        # The int -> float conversion rounds like the uint64 cast.
        assert hashed / 2.0**64 == vector.astype(np.float64) / 2.0**64

    @given(
        seed=st.integers(0, 2**64 - 1),
        accuracy=st.floats(0.0, 1.0),
        index=st.integers(0, 9_999),
        other=st.integers(0, 9_999),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_index_labels_match_the_vector_path(self, seed, accuracy, index, other):
        kg = SyntheticKG(10_000, 50, accuracy=accuracy, seed=seed)
        one = kg.labels(np.array([index]))
        assert one.dtype == np.bool_ and one.shape == (1,)
        assert one[0] == kg.labels(np.array([index, other]))[0]
        assert kg.labels([index])[0] == one[0]
