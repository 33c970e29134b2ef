"""Unit tests for Two-stage Weighted Cluster Sampling and WCS."""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.estimators.base import Evidence
from repro.estimators.cluster import twcs_evidence
from repro.exceptions import InsufficientSampleError, SamplingError, ValidationError
from repro.kg.datasets import load_dataset
from repro.kg.synthetic import SyntheticKG
from repro.sampling.base import Batch
from repro.sampling.twcs import TwoStageWeightedClusterSampling
from repro.sampling.wcs import WeightedClusterSampling


@pytest.fixture(scope="module")
def draw_kgs():
    """A profiled dataset (clusters of 1-18 triples) and a synthetic KG
    whose clusters (~50 triples) are all wider than any tested ``m``."""
    return {
        "FACTBENCH": load_dataset("FACTBENCH", seed=0),
        "synthetic": SyntheticKG(
            num_triples=20_000, num_clusters=400, accuracy=0.8, seed=5
        ),
    }


class TestStageOne:
    def test_pps_probabilities(self, tiny_kg):
        # tiny_kg cluster sizes are (2, 3, 1): stage-1 draw probabilities
        # must be proportional to size.
        twcs = TwoStageWeightedClusterSampling(m=3)
        counts = np.zeros(3)
        for seed in range(4_000):
            rng = np.random.default_rng(seed)
            batch = twcs.draw(tiny_kg, twcs.new_state(), units=1, rng=rng)
            cluster = int(tiny_kg.subjects(batch.indices[:1])[0])
            counts[cluster] += 1
        freq = counts / counts.sum()
        expected = tiny_kg.cluster_sizes / tiny_kg.num_triples
        assert np.allclose(freq, expected, atol=0.03)


class TestStageTwo:
    def test_cap_respected(self, medium_kg, rng):
        twcs = TwoStageWeightedClusterSampling(m=3)
        batch = twcs.draw(medium_kg, twcs.new_state(), units=20, rng=rng)
        for unit in batch.unit_slices:
            size = unit.stop - unit.start
            assert 1 <= size <= 3

    def test_small_cluster_taken_whole(self, tiny_kg, rng):
        twcs = TwoStageWeightedClusterSampling(m=5)
        batch = twcs.draw(tiny_kg, twcs.new_state(), units=1, rng=rng)
        cluster = int(tiny_kg.subjects(batch.indices[:1])[0])
        assert batch.num_triples == tiny_kg.cluster_size(cluster)

    def test_no_duplicate_triples_within_unit(self, medium_kg, rng):
        twcs = TwoStageWeightedClusterSampling(m=3)
        batch = twcs.draw(medium_kg, twcs.new_state(), units=50, rng=rng)
        for unit in batch.unit_slices:
            chunk = batch.indices[unit]
            assert len(set(chunk.tolist())) == chunk.size

    def test_unit_triples_share_cluster(self, medium_kg, rng):
        twcs = TwoStageWeightedClusterSampling(m=3)
        batch = twcs.draw(medium_kg, twcs.new_state(), units=10, rng=rng)
        for unit in batch.unit_slices:
            subs = batch.subjects[unit]
            assert len(set(subs.tolist())) == 1

    def test_rejects_bad_m(self):
        with pytest.raises(ValidationError):
            TwoStageWeightedClusterSampling(m=0)


class TestUpdateAndEvidence:
    def _filled_state(self, kg, units, seed=0, m=3):
        twcs = TwoStageWeightedClusterSampling(m=m)
        state = twcs.new_state()
        rng = np.random.default_rng(seed)
        batch = twcs.draw(kg, state, units=units, rng=rng)
        twcs.update(state, batch, kg.labels(batch.indices))
        return twcs, state

    def test_cluster_means_recorded(self, medium_kg):
        twcs, state = self._filled_state(medium_kg, units=15)
        assert len(state.cluster_means) == 15
        assert all(0.0 <= m <= 1.0 for m in state.cluster_means)

    def test_evidence_needs_two_clusters(self, medium_kg):
        twcs, state = self._filled_state(medium_kg, units=1)
        with pytest.raises(InsufficientSampleError):
            twcs.evidence(state)

    def test_evidence_point_estimate(self, medium_kg):
        twcs, state = self._filled_state(medium_kg, units=40)
        ev = twcs.evidence(state)
        assert ev.mu_hat == pytest.approx(np.mean(state.cluster_means))
        assert ev.n_annotated == state.n_annotated

    def test_estimator_unbiased_on_kg(self, medium_kg):
        estimates = []
        for seed in range(250):
            twcs, state = self._filled_state(medium_kg, units=40, seed=seed)
            estimates.append(twcs.evidence(state).mu_hat)
        assert np.mean(estimates) == pytest.approx(medium_kg.accuracy, abs=0.015)

    def test_update_requires_twcs_state(self, medium_kg, rng):
        from repro.sampling.srs import SimpleRandomSampling

        twcs = TwoStageWeightedClusterSampling(m=3)
        srs_state = SimpleRandomSampling().new_state()
        batch = twcs.draw(medium_kg, twcs.new_state(), units=1, rng=rng)
        with pytest.raises(SamplingError):
            twcs.update(srs_state, batch, medium_kg.labels(batch.indices))

    def test_min_units_is_two(self):
        assert TwoStageWeightedClusterSampling(m=3).min_units == 2


class TestWCS:
    def test_annotates_whole_clusters(self, medium_kg, rng):
        wcs = WeightedClusterSampling()
        batch = wcs.draw(medium_kg, wcs.new_state(), units=5, rng=rng)
        for unit in batch.unit_slices:
            chunk = batch.indices[unit]
            cluster = int(medium_kg.subjects(chunk[:1])[0])
            assert chunk.size == medium_kg.cluster_size(cluster)

    def test_is_twcs_with_unbounded_m(self):
        wcs = WeightedClusterSampling()
        assert wcs.m is None
        assert wcs.name == "WCS"


class TestVectorisedStageTwo:
    def test_capped_members_uniform(self, medium_kg):
        # Every triple of an oversized cluster must be equally likely in
        # the random-keys m-subset.  Find a cluster larger than m and
        # count member appearances over repeated conditional draws.
        twcs = TwoStageWeightedClusterSampling(m=2)
        sizes = medium_kg.cluster_sizes
        target = int(np.argmax(sizes))
        size = int(sizes[target])
        assert size > 2
        counts = np.zeros(size)
        lo = int(medium_kg.cluster_offsets[target])
        rng = np.random.default_rng(9)
        hits = 0
        while hits < 400:
            batch = twcs.draw(medium_kg, twcs.new_state(), units=8, rng=rng)
            for unit in batch.unit_slices:
                chunk = batch.indices[unit]
                if int(medium_kg.subjects(chunk[:1])[0]) == target:
                    hits += 1
                    for index in chunk:
                        counts[int(index) - lo] += 1
        freq = counts / counts.sum()
        assert np.allclose(freq, 1.0 / size, atol=0.035)

    def test_memory_fallback_equivalent_invariants(self, medium_kg, rng):
        # Force the per-cluster fallback path and check it obeys the
        # same cap/no-dup/one-cluster invariants as the batched path.
        twcs = TwoStageWeightedClusterSampling(m=3)
        twcs._KEYS_BUDGET = 0
        batch = twcs.draw(medium_kg, twcs.new_state(), units=25, rng=rng)
        for unit in batch.unit_slices:
            chunk = batch.indices[unit]
            assert 1 <= chunk.size <= 3
            assert len(set(chunk.tolist())) == chunk.size
            assert len(set(batch.subjects[unit].tolist())) == 1

    def test_update_means_match_slice_recompute(self, medium_kg, rng):
        twcs = TwoStageWeightedClusterSampling(m=3)
        state = twcs.new_state()
        batch = twcs.draw(medium_kg, state, units=30, rng=rng)
        labels = medium_kg.labels(batch.indices)
        twcs.update(state, batch, labels)
        reference = [float(labels[unit].mean()) for unit in batch.unit_slices]
        assert state.cluster_means == reference


def reference_evidence(cluster_means, n_annotated: int) -> Evidence:
    """The TWCS evidence as array formulas: ``mean()``, ``np.sum``,
    ``np.clip`` and a validated :class:`Evidence`."""
    means = np.asarray(cluster_means, dtype=float)
    n_c = means.size
    mu_hat = float(means.mean())
    variance = float(np.sum((means - mu_hat) ** 2) / (n_c * (n_c - 1)))
    if mu_hat <= 0.0 or mu_hat >= 1.0:
        deff = 1.0
    elif variance <= 0.0:
        deff = 1e-3
    else:
        srs_variance = mu_hat * (1.0 - mu_hat) / n_annotated
        deff = float(np.clip(variance / srs_variance, 1e-3, 1e3))
    n_effective = n_annotated / deff
    return Evidence(
        mu_hat=mu_hat,
        variance=variance,
        n_effective=float(n_effective),
        tau_effective=float(mu_hat * n_effective),
        n_annotated=int(n_annotated),
    )


def evidence_hex(evidence: Evidence) -> tuple:
    return (
        evidence.mu_hat.hex(),
        evidence.variance.hex(),
        evidence.n_effective.hex(),
        evidence.tau_effective.hex(),
        evidence.n_annotated,
    )


class TestOneUnitRound:
    """Algorithm 1's one-cluster round runs in scalars, with the bytes
    and generator stream of the array code."""

    @settings(max_examples=200, deadline=None)
    @given(
        kg_name=st.sampled_from(["FACTBENCH", "synthetic"]),
        m=st.sampled_from([1, 3, 5, None]),
        seed=st.integers(0, 2**63 - 1),
        rounds=st.integers(1, 6),
        small_budget=st.booleans(),
    )
    def test_one_unit_draw_is_the_array_code(
        self, draw_kgs, kg_name, m, seed, rounds, small_budget
    ):
        kg = draw_kgs[kg_name]
        twcs = TwoStageWeightedClusterSampling(m=m)
        if small_budget:
            # Every capped cluster (wider than m >= 1) is over this
            # budget, so its m-subset comes from rng.choice.
            twcs._KEYS_BUDGET = 1
        scalar = np.random.default_rng(seed)
        arrays = copy.deepcopy(scalar)
        for _ in range(rounds):
            got = twcs.draw(kg, twcs.new_state(), 1, scalar)
            want = twcs._draw_arrays(kg, 1, arrays)
            assert got.indices.dtype == want.indices.dtype
            assert got.indices.tobytes() == want.indices.tobytes()
            assert got.subjects.dtype == want.subjects.dtype
            assert got.subjects.tobytes() == want.subjects.tobytes()
            assert got.unit_slices == want.unit_slices
            assert scalar.bit_generator.state == arrays.bit_generator.state

    @settings(max_examples=100, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 13), min_size=1, max_size=60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_update_means_are_the_reduceat_means(self, sizes, seed):
        rng = np.random.default_rng(seed)
        labels = rng.random(sum(sizes)) < rng.random()
        bounds = np.concatenate(([0], np.cumsum(sizes)))
        batch = Batch(
            indices=np.arange(bounds[-1], dtype=np.int64),
            unit_slices=tuple(
                slice(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:])
            ),
            subjects=np.repeat(np.arange(len(sizes)), sizes),
        )
        twcs = TwoStageWeightedClusterSampling(m=3)
        state = twcs.new_state()
        twcs.update(state, batch, labels)
        starts = bounds[:-1]
        sums = np.add.reduceat(labels.astype(np.float64), starts)
        want = (sums / np.diff(np.append(starts, labels.size))).tolist()
        assert [mean.hex() for mean in state.cluster_means] == [
            mean.hex() for mean in want
        ]
        assert state.n_correct == int(labels.sum())

    @settings(max_examples=40, deadline=None)
    @given(
        kg_name=st.sampled_from(["FACTBENCH", "synthetic"]),
        m=st.sampled_from([1, 3, 5, None]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_evidence_is_twcs_evidence_and_the_array_formulas(
        self, draw_kgs, kg_name, m, seed
    ):
        kg = draw_kgs[kg_name]
        twcs = TwoStageWeightedClusterSampling(m=m)
        state = twcs.new_state()
        rng = np.random.default_rng(seed)
        for clusters in range(1, 201):
            batch = twcs.draw(kg, state, 1, rng)
            twcs.update(state, batch, kg.labels(batch.indices))
            if clusters < 2 or clusters % 9:
                continue
            got = twcs.evidence(state)
            means = list(state.cluster_means)
            assert evidence_hex(got) == evidence_hex(
                twcs_evidence(means, state.n_annotated)
            )
            assert evidence_hex(got) == evidence_hex(
                reference_evidence(means, state.n_annotated)
            )

    @pytest.mark.parametrize(
        ("means", "n_annotated"),
        [([0.5, 1.5], 6), ([0.5, -0.5], 6), ([0.5, float("nan")], 6), ([0.5, 0.5], 0)],
    )
    def test_a_hand_built_state_is_still_checked(self, means, n_annotated):
        # TWCSState is public: means that update() did not make must not
        # come back as an invalid Evidence.
        twcs = TwoStageWeightedClusterSampling(m=3)
        state = twcs.new_state()
        state.cluster_means.extend(means)
        state.n_annotated = n_annotated
        with pytest.raises(ValidationError):
            twcs.evidence(state)
