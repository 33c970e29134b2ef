"""Unit tests for the per-predicate partitioned audit."""

from __future__ import annotations

import numpy as np
import pytest

from repro.evaluation.partitioned import audit_by_predicate
from repro.exceptions import ValidationError
from repro.kg.graph import KnowledgeGraph
from repro.kg.synthetic import SyntheticKG
from repro.kg.triple import Triple


@pytest.fixture(scope="module")
def mixed_quality_kg() -> KnowledgeGraph:
    """Two large predicates with very different error rates."""
    rng = np.random.default_rng(0)
    triples: list[Triple] = []
    labels: list[bool] = []
    for i in range(1_200):
        triples.append(Triple(f"e:{i % 400}", "reliable", f"v:{i}"))
        labels.append(bool(rng.random() < 0.97))
    for i in range(800):
        triples.append(Triple(f"e:{i % 300}", "flaky", f"w:{i}"))
        labels.append(bool(rng.random() < 0.55))
    return KnowledgeGraph(triples, labels)


class TestAuditByPredicate:
    @pytest.fixture(scope="class")
    def result(self, mixed_quality_kg):
        return audit_by_predicate(mixed_quality_kg, rng=0)

    def test_one_audit_per_predicate(self, result):
        assert {p.partition for p in result.partitions} == {"reliable", "flaky"}

    def test_partition_estimates_near_truth(self, result, mixed_quality_kg):
        from repro.kg.queries import TripleIndex

        profiles = TripleIndex(mixed_quality_kg).predicate_profiles()
        for audit in result.partitions:
            truth = profiles[audit.partition].accuracy
            assert audit.mu_hat == pytest.approx(truth, abs=0.12)
            assert audit.interval.contains(audit.mu_hat)

    def test_partitions_converged(self, result):
        for audit in result.partitions:
            assert audit.converged
            assert audit.interval.moe <= 0.05 or audit.n_annotated == 0

    def test_weights_sum_to_one(self, result):
        assert sum(p.weight for p in result.partitions) == pytest.approx(1.0)

    def test_worst_partition_identified(self, result):
        assert result.worst_partition.partition == "flaky"

    def test_global_estimate_consistent(self, result, mixed_quality_kg):
        assert result.global_mu_hat == pytest.approx(
            mixed_quality_kg.accuracy, abs=0.06
        )
        assert result.global_interval.contains(result.global_mu_hat)

    def test_cost_accounts_all_annotations(self, result):
        total = sum(p.n_annotated for p in result.partitions)
        assert result.cost.num_triples == total
        assert result.cost_hours > 0

    def test_by_name_lookup(self, result):
        assert result.by_name()["flaky"].partition == "flaky"


class TestEdgeCases:
    def test_small_partition_exhausted(self):
        triples = [Triple(f"e:{i}", "big", f"v:{i}") for i in range(500)]
        labels = [True] * 500
        triples += [Triple("e:rare", "rare", f"v:{i}") for i in range(4)]
        labels += [True, False, True, True]
        kg = KnowledgeGraph(triples, labels)
        result = audit_by_predicate(kg, rng=1)
        rare = result.by_name()["rare"]
        # The 4-fact partition is annotated exhaustively and converged.
        assert rare.n_annotated == 4
        assert rare.converged
        assert rare.mu_hat == pytest.approx(0.75)

    def test_budget_limits_annotations(self, mixed_quality_kg):
        result = audit_by_predicate(
            mixed_quality_kg, epsilon=0.005, max_triples=200, rng=0
        )
        total = sum(p.n_annotated for p in result.partitions)
        assert total == 200
        assert not all(p.converged for p in result.partitions)

    def test_requires_materialised_kg(self):
        with pytest.raises(ValidationError):
            audit_by_predicate(SyntheticKG(100, 10, accuracy=0.9, seed=0))

    @pytest.mark.parametrize("epsilon", [0.0, -0.1])
    def test_rejects_non_positive_epsilon(self, mixed_quality_kg, epsilon):
        # No interval can meet epsilon <= 0: the audit would annotate the
        # whole KG and report every partition converged by exhaustion.
        with pytest.raises(ValidationError, match="epsilon"):
            audit_by_predicate(mixed_quality_kg, epsilon=epsilon, rng=0)

    def test_unannotated_partition_reports_ignorance(self):
        triples = [Triple(f"e:{i}", "p1", f"v:{i}") for i in range(100)]
        triples.append(Triple("e:q", "p2", "v:q"))
        kg = KnowledgeGraph(triples, [True] * 100 + [False])
        result = audit_by_predicate(kg, max_triples=5, rng=0)
        starved = result.by_name()["p2"]
        assert starved.n_annotated == 0
        assert not starved.converged
        assert starved.interval.width == 1.0  # total ignorance, no fabrication


class TestEvolutionBuilder:
    def test_snapshot_growth(self):
        from repro.kg.evolution import UpdateBatchSpec, build_evolving_kg

        snapshots = build_evolving_kg(
            base_facts=600,
            base_accuracy=0.9,
            updates=[
                UpdateBatchSpec(num_facts=300, accuracy=0.8),
                UpdateBatchSpec(num_facts=300, accuracy=0.4),
            ],
            seed=0,
        )
        assert [kg.num_triples for kg in snapshots] == [600, 900, 1_200]
        # Blended accuracy moves with each batch.
        assert snapshots[1].accuracy == pytest.approx((0.9 * 600 + 0.8 * 300) / 900, abs=0.01)
        assert snapshots[2].accuracy < snapshots[1].accuracy

    def test_deterministic(self):
        from repro.kg.evolution import UpdateBatchSpec, build_evolving_kg

        spec = [UpdateBatchSpec(num_facts=100, accuracy=0.5)]
        a = build_evolving_kg(200, 0.9, spec, seed=5)
        b = build_evolving_kg(200, 0.9, spec, seed=5)
        assert a[-1].triples == b[-1].triples

    def test_validates_specs(self):
        from repro.kg.evolution import UpdateBatchSpec

        with pytest.raises(Exception):
            UpdateBatchSpec(num_facts=0, accuracy=0.5)
