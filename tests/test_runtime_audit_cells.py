"""Runtime routing of the dynamic & partitioned audits.

Three contracts are pinned down here:

* **bit-identical sharding** — for ANY chunking (hypothesis-drawn, 1,
  ragged, oversized) and any worker count, the merged result of a
  ``DynamicAuditCell`` / ``PartitionedAuditCell`` equals the serial
  run exactly, including resume from a partial set of shard entries
  and the carried-prior round boundary inside dynamic streams;
* **golden regression** — the routed paths reproduce the committed
  pre-refactor serial outputs (``tests/fixtures/golden_*.json``)
  bit for bit, guarding the refactor itself, not just internal
  consistency;
* **one implementation** — a cell carrying any encodable method
  (informative-prior aHPD included) equals the library call it runs
  (``audit_by_predicate``, ``empirical_coverage``).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from repro.evaluation.coverage import empirical_coverage
from repro.evaluation.dynamic import DynamicAuditor
from repro.evaluation.partitioned import audit_by_predicate
from repro.exceptions import ValidationError
from repro.experiments.config import ExperimentSettings
from repro.intervals.agresti_coull import AgrestiCoullInterval
from repro.intervals.ahpd import AdaptiveHPD
from repro.intervals.clopper_pearson import ClopperPearsonInterval
from repro.intervals.et import ETCredibleInterval
from repro.intervals.hpd import HPDCredibleInterval
from repro.intervals.priors import KERMAN, UNINFORMATIVE_PRIORS, BetaPrior
from repro.intervals.transforms import ArcsineInterval, LogitInterval
from repro.intervals.wald import WaldInterval
from repro.intervals.wilson import WilsonInterval
from repro.kg.datasets import load_dataset
from repro.kg.evolution import UpdateBatchSpec, build_evolving_kg
from repro.runtime import (
    CellShard,
    CoverageCell,
    DynamicAuditCell,
    ParallelExecutor,
    PartitionedAuditCell,
    ResultStore,
    RunContext,
    StudyPlan,
    build_method_from_payload,
    cache_token,
    kind_for,
    method_payload,
    shard_ranges,
    shard_token,
)
from repro.sampling.twcs import TwoStageWeightedClusterSampling

FIXTURES = Path(__file__).parent / "fixtures"

#: The golden dynamic scenario (must stay in sync with the fixture).
GOLDEN_STREAM = dict(base_facts=900, base_accuracy=0.85, seed=7)
GOLDEN_UPDATES = ((450, 0.85, 0.3), (450, 0.5, 0.3))
GOLDEN_AUDIT_SEED = 123


def golden_snapshots():
    return build_evolving_kg(
        base_facts=GOLDEN_STREAM["base_facts"],
        base_accuracy=GOLDEN_STREAM["base_accuracy"],
        updates=[
            UpdateBatchSpec(
                num_facts=facts, accuracy=mu, intra_cluster_correlation=corr
            )
            for facts, mu, corr in GOLDEN_UPDATES
        ],
        seed=GOLDEN_STREAM["seed"],
    )


def dynamic_cell(**overrides) -> DynamicAuditCell:
    base = dict(
        key=("dyn",),
        label="dyn",
        method="aHPD",
        base_facts=600,
        base_accuracy=0.85,
        updates=((300, 0.8, 0.3),),
        stream_seed=5,
        strategy="TWCS:3",
        carryover=1.0,
        seed=17,
        repetitions=3,
    )
    base.update(overrides)
    return DynamicAuditCell(**base)


def partitioned_cell(**overrides) -> PartitionedAuditCell:
    base = dict(
        key=("part",),
        label="part",
        method="Wilson",
        dataset="NELL",
        epsilon=0.05,
        seed=11,
    )
    base.update(overrides)
    return PartitionedAuditCell(**base)


def plan_of(cells, repetitions=3, seed=0):
    settings = ExperimentSettings(repetitions=repetitions, seed=seed)
    return StudyPlan(settings=settings, cells=tuple(cells), name="audit-cells")


def merged_whole(cell, settings):
    """``merge([run(rep_range=None)])``: the unsplit cell, computed directly."""
    kind = kind_for(cell)
    return kind.merge(cell, settings, [kind.run(cell, settings, None)])


def assert_records_equal(a, b) -> None:
    assert a.round_index == b.round_index
    assert a.carried_prior == b.carried_prior
    assert a.posterior_prior == b.posterior_prior
    assert a.result == b.result


def assert_studies_equal(a, b) -> None:
    assert a.label == b.label
    assert len(a.streams) == len(b.streams)
    for stream_a, stream_b in zip(a.streams, b.streams):
        assert len(stream_a) == len(stream_b)
        for rec_a, rec_b in zip(stream_a, stream_b):
            assert_records_equal(rec_a, rec_b)


class TestDynamicAuditStudyAPI:
    def test_repetition_zero_reproduces_audit_stream(self):
        snapshots = golden_snapshots()
        auditor = DynamicAuditor(strategy=TwoStageWeightedClusterSampling(m=3))
        stream = auditor.audit_stream(snapshots, seed=GOLDEN_AUDIT_SEED)
        study = auditor.audit_study(
            snapshots, repetitions=2, seed=GOLDEN_AUDIT_SEED
        )
        assert len(study.streams) == 2
        for legacy, routed in zip(stream, study.streams[0]):
            assert_records_equal(legacy, routed)

    def test_rep_range_windows_concatenate_to_full(self):
        snapshots = golden_snapshots()[:2]
        auditor = DynamicAuditor(strategy=TwoStageWeightedClusterSampling(m=3))
        full = auditor.audit_study(snapshots, repetitions=3, seed=9)
        windows = [
            auditor.audit_study(snapshots, repetitions=3, seed=9, rep_range=w)
            for w in ((0, 1), (1, 3))
        ]
        stitched = tuple(s for part in windows for s in part.streams)
        assert stitched == full.streams

    def test_summary_arrays_shape(self):
        snapshots = golden_snapshots()[:2]
        auditor = DynamicAuditor(strategy=TwoStageWeightedClusterSampling(m=3))
        study = auditor.audit_study(snapshots, repetitions=2, seed=1)
        assert study.repetitions == 2
        assert study.rounds == 2
        for array in (study.triples, study.cost_hours, study.estimates, study.converged):
            assert array.shape == (2, 2)
        assert study.converged.dtype == bool
        assert (study.triples > 0).all()


class TestDynamicCellSharding:
    def test_registered_and_counted(self):
        settings = ExperimentSettings(repetitions=6)
        cell = dynamic_cell(repetitions=None)
        count = kind_for(cell).repetitions
        assert count is not None
        assert count(cell, settings) == 6
        assert count(dynamic_cell(repetitions=4), settings) == 4

    @given(
        seed=st.integers(0, 2**16),
        repetitions=st.integers(2, 4),
        chunk=st.integers(1, 5),
    )
    @hyp_settings(max_examples=5, deadline=None)
    def test_property_any_chunking(self, seed, repetitions, chunk):
        cell = dynamic_cell(seed=seed, repetitions=repetitions)
        plan = plan_of([cell])
        serial = ParallelExecutor(RunContext(workers=1)).run(plan)
        chunked = ParallelExecutor(RunContext(workers=1, chunk_size=chunk)).run(plan)
        assert_studies_equal(serial.results[cell.key], chunked.results[cell.key])
        assert_studies_equal(
            merged_whole(cell, plan.settings), chunked.results[cell.key]
        )

    def test_parallel_workers_match_serial(self):
        cell = dynamic_cell(repetitions=4)
        plan = plan_of([cell])
        serial = ParallelExecutor(RunContext(workers=1)).run(plan)
        parallel = ParallelExecutor(RunContext(workers=2, chunk_size=1)).run(plan)
        assert_studies_equal(serial.results[cell.key], parallel.results[cell.key])

    def test_carried_prior_round_boundary_survives_sharding(self):
        # Within every repetition of the merged result, round i+1 must
        # carry exactly round i's distilled posterior — the boundary a
        # buggy reducer (reordering or re-running rounds) would break.
        cell = dynamic_cell(repetitions=4, updates=((300, 0.8, 0.3), (300, 0.7, 0.3)))
        plan = plan_of([cell])
        outcome = ParallelExecutor(RunContext(workers=2, chunk_size=1)).run(plan)
        study = outcome.results[cell.key]
        assert outcome.cells[0].shards == 4
        for stream in study.streams:
            assert [rec.round_index for rec in stream] == [0, 1, 2]
            assert stream[0].carried_prior is None
            for previous, record in zip(stream, stream[1:]):
                assert record.carried_prior == previous.posterior_prior

    def test_independent_streams_do_not_carry(self):
        cell = dynamic_cell(carryover=0.0, repetitions=2)
        plan = plan_of([cell])
        study = ParallelExecutor(
            RunContext(workers=1, chunk_size=1)
        ).run(plan).results[cell.key]
        for stream in study.streams:
            assert all(rec.carried_prior is None for rec in stream)

    def test_resume_from_partial_shards(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        settings = ExperimentSettings(repetitions=3, seed=2)
        cell = dynamic_cell(repetitions=4)
        plan = StudyPlan(settings=settings, cells=(cell,), name="dyn-resume")
        ranges = shard_ranges(4, 1)
        group = cache_token(cell, settings)
        for index in (0, 2):  # non-contiguous subset, as a kill would leave
            start, stop = ranges[index]
            shard = CellShard(
                cell=cell, index=index, shards=len(ranges),
                rep_start=start, rep_stop=stop,
            )
            value = kind_for(cell).run(cell, settings, shard.rep_range)
            store.save(
                shard_token(shard, settings, 4),
                {"value": value, "label": shard.label, "seconds": 1.0},
                group=group,
            )

        outcome = ParallelExecutor(
            RunContext(workers=1, store=store, chunk_size=1)
        ).run(plan)
        entry = outcome.cells[0]
        assert entry.shards == 4
        assert entry.shards_cached == 2
        assert not entry.cached
        reference = ParallelExecutor(RunContext(workers=1)).run(plan)
        assert_studies_equal(reference.results[cell.key], outcome.results[cell.key])
        # The carried-prior boundary survives the resume too.
        for stream in outcome.results[cell.key].streams:
            for previous, record in zip(stream, stream[1:]):
                assert record.carried_prior == previous.posterior_prior


class TestDynamicGolden:
    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads((FIXTURES / "golden_dynamic_audit.json").read_text())

    @staticmethod
    def assert_matches(record, expected) -> None:
        result = record.result
        assert record.round_index == expected["round_index"]
        assert result.mu_hat == expected["mu_hat"]
        assert result.interval.lower == expected["lower"]
        assert result.interval.upper == expected["upper"]
        assert result.n_annotated == expected["n_annotated"]
        assert result.n_triples == expected["n_triples"]
        assert result.n_entities == expected["n_entities"]
        assert result.n_units == expected["n_units"]
        assert result.iterations == expected["iterations"]
        assert result.converged == expected["converged"]
        assert result.cost_hours == expected["cost_hours"]
        posterior = expected["posterior_prior"]
        assert record.posterior_prior.a == posterior["a"]
        assert record.posterior_prior.b == posterior["b"]
        carried = expected["carried_prior"]
        if carried is None:
            assert record.carried_prior is None
        else:
            assert record.carried_prior.a == carried["a"]
            assert record.carried_prior.b == carried["b"]

    def test_serial_auditor_still_matches_prerefactor(self, golden):
        snapshots = golden_snapshots()
        for regime, carryover in (("carried", 1.0), ("independent", 0.0)):
            auditor = DynamicAuditor(
                strategy=TwoStageWeightedClusterSampling(m=3),
                carryover=carryover,
            )
            records = auditor.audit_stream(snapshots, seed=GOLDEN_AUDIT_SEED)
            for record, expected in zip(records, golden["regimes"][regime]):
                self.assert_matches(record, expected)

    @pytest.mark.parametrize("chunk_size", [None, 1, 2])
    def test_routed_cells_reproduce_prerefactor(self, golden, chunk_size):
        cells = tuple(
            DynamicAuditCell(
                key=(regime,),
                label=f"golden/{regime}",
                method="aHPD",
                base_facts=GOLDEN_STREAM["base_facts"],
                base_accuracy=GOLDEN_STREAM["base_accuracy"],
                updates=GOLDEN_UPDATES,
                stream_seed=GOLDEN_STREAM["seed"],
                strategy="TWCS:3",
                carryover=carryover,
                seed=GOLDEN_AUDIT_SEED,
                repetitions=3,
            )
            for regime, carryover in (("carried", 1.0), ("independent", 0.0))
        )
        plan = plan_of(cells)
        executor = ParallelExecutor(RunContext(workers=2, chunk_size=chunk_size))
        results = executor.run(plan).results
        for regime in ("carried", "independent"):
            stream = results[(regime,)].streams[0]  # rep 0 == legacy stream
            assert len(stream) == len(golden["regimes"][regime])
            for record, expected in zip(stream, golden["regimes"][regime]):
                self.assert_matches(record, expected)


class TestPartitionedCellSharding:
    def test_partition_count_is_the_shard_dimension(self):
        settings = ExperimentSettings()
        cell = partitioned_cell()
        count = kind_for(cell).repetitions
        assert count is not None
        assert count(cell, settings) == 10  # NELL's predicates

    @given(chunk=st.integers(1, 12))
    @hyp_settings(max_examples=6, deadline=None)
    def test_property_any_partition_chunking(self, chunk):
        cell = partitioned_cell()
        plan = plan_of([cell])
        serial = ParallelExecutor(RunContext(workers=1)).run(plan)
        chunked = ParallelExecutor(RunContext(workers=1, chunk_size=chunk)).run(plan)
        assert serial.results[cell.key] == chunked.results[cell.key]
        assert merged_whole(cell, plan.settings) == chunked.results[cell.key]

    def test_parallel_workers_match_serial_function(self):
        kg = load_dataset("NELL", seed=42)
        informative = AdaptiveHPD(
            priors=UNINFORMATIVE_PRIORS + (BetaPrior(85.0, 15.0, name="Similar"),)
        )
        for method, cell in (
            (WilsonInterval(), partitioned_cell()),
            (
                informative,
                partitioned_cell(
                    method="aHPD", method_payload=method_payload(informative)
                ),
            ),
        ):
            serial = audit_by_predicate(kg, method=method, rng=11)
            plan = plan_of([cell])
            executor = ParallelExecutor(RunContext(workers=2, chunk_size=3))
            assert executor.run(plan).results[cell.key] == serial

    def test_budget_starved_audit_shards_identically(self):
        kg = load_dataset("NELL", seed=42)
        serial = audit_by_predicate(
            kg, method=WilsonInterval(), epsilon=0.02, max_triples=400, rng=11
        )
        cell = partitioned_cell(epsilon=0.02, max_triples=400)
        plan = plan_of([cell])
        routed = ParallelExecutor(
            RunContext(workers=2, chunk_size=1)
        ).run(plan).results[cell.key]
        assert routed == serial
        assert sum(p.n_annotated for p in routed.partitions) == 400

    def test_resume_from_partial_partition_shards(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        settings = ExperimentSettings(repetitions=3, seed=0)
        cell = partitioned_cell()
        plan = StudyPlan(settings=settings, cells=(cell,), name="part-resume")
        ranges = shard_ranges(10, 3)
        group = cache_token(cell, settings)
        for index in (1, 3):
            start, stop = ranges[index]
            shard = CellShard(
                cell=cell, index=index, shards=len(ranges),
                rep_start=start, rep_stop=stop,
            )
            value = kind_for(cell).run(cell, settings, shard.rep_range)
            store.save(
                shard_token(shard, settings, 10),
                {"value": value, "label": shard.label, "seconds": 1.0},
                group=group,
            )

        outcome = ParallelExecutor(
            RunContext(workers=1, store=store, chunk_size=3)
        ).run(plan)
        entry = outcome.cells[0]
        assert entry.shards == 4
        assert entry.shards_cached == 2
        reference = ParallelExecutor(RunContext(workers=1)).run(plan)
        assert reference.results[cell.key] == outcome.results[cell.key]


class TestPartitionedGolden:
    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads((FIXTURES / "golden_partitioned_audit.json").read_text())

    @pytest.fixture(scope="class")
    def kg(self):
        return load_dataset("NELL", seed=42)

    @staticmethod
    def assert_matches(result, expected) -> None:
        assert len(result.partitions) == len(expected["partitions"])
        for audit, gold in zip(result.partitions, expected["partitions"]):
            assert audit.partition == gold["partition"]
            assert audit.weight == gold["weight"]
            assert audit.n_annotated == gold["n_annotated"]
            assert audit.mu_hat == gold["mu_hat"]
            assert audit.interval.lower == gold["lower"]
            assert audit.interval.upper == gold["upper"]
            assert audit.converged == gold["converged"]
        assert result.global_mu_hat == expected["global_mu_hat"]
        assert result.global_interval.lower == expected["global_lower"]
        assert result.global_interval.upper == expected["global_upper"]
        assert result.cost.hours == expected["cost_hours"]
        assert result.cost.num_triples == expected["cost_triples"]
        assert result.cost.num_entities == expected["cost_entities"]

    def test_serial_function_still_matches_prerefactor(self, golden, kg):
        self.assert_matches(
            audit_by_predicate(kg, alpha=0.05, epsilon=0.05, rng=11),
            golden["converged"],
        )
        self.assert_matches(
            audit_by_predicate(
                kg, alpha=0.05, epsilon=0.02, max_triples=400, rng=11
            ),
            golden["starved"],
        )

    @pytest.mark.parametrize("chunk_size", [None, 4])
    def test_routed_cell_reproduces_prerefactor(self, golden, chunk_size):
        cell = partitioned_cell(method="aHPD", epsilon=0.05, seed=11)
        plan = plan_of([cell])
        executor = ParallelExecutor(RunContext(workers=2, chunk_size=chunk_size))
        self.assert_matches(
            executor.run(plan).results[cell.key], golden["converged"]
        )


class TestMethodPayload:
    STOCK = (
        WaldInterval(),
        WilsonInterval(),
        AgrestiCoullInterval(),
        ClopperPearsonInterval(),
        ArcsineInterval(),
        LogitInterval(),
        ETCredibleInterval(prior=KERMAN),
        HPDCredibleInterval(prior=BetaPrior(3.0, 2.0, name="Custom")),
        AdaptiveHPD(),
        AdaptiveHPD(
            priors=UNINFORMATIVE_PRIORS + (BetaPrior(80.0, 20.0, name="Similar"),)
        ),
    )

    @pytest.mark.parametrize("method", STOCK, ids=lambda m: m.name)
    def test_roundtrip(self, method):
        payload = method_payload(method)
        assert payload is not None
        rebuilt = build_method_from_payload(payload)
        assert type(rebuilt) is type(method)
        assert rebuilt.name == method.name
        assert getattr(rebuilt, "prior", None) == getattr(method, "prior", None)
        assert getattr(rebuilt, "priors", None) == getattr(method, "priors", None)

    def test_payload_is_primitive_and_hashable(self):
        payload = method_payload(self.STOCK[-1])
        hash(payload)  # cells must stay hashable / cache-tokenable
        json.dumps(payload)  # primitives only

    def test_subclass_is_not_encodable(self):
        class Custom(WilsonInterval):
            name = "Custom"

        assert method_payload(Custom()) is None

    def test_unknown_payload_kind_raises(self):
        with pytest.raises(ValidationError):
            build_method_from_payload(("nope",))

    def test_payload_feeds_the_cache_token(self):
        settings = ExperimentSettings()
        bare = CoverageCell(key=("c",), label="c", method="aHPD")
        informative = CoverageCell(
            key=("c",),
            label="c",
            method="aHPD",
            method_payload=method_payload(self.STOCK[-1]),
        )
        assert cache_token(bare, settings) != cache_token(informative, settings)


class TestCoverageCellMatchesLibrary:
    @pytest.mark.parametrize(
        "method",
        [
            WilsonInterval(),
            AdaptiveHPD(
                priors=UNINFORMATIVE_PRIORS
                + (BetaPrior(80.0, 20.0, name="Similar"),)
            ),
        ],
        ids=["stock", "informative-ahpd"],
    )
    def test_cells_equal_empirical_coverage(self, method):
        mus = (0.5, 0.9)
        cells = tuple(
            CoverageCell(
                key=(mu,),
                label=f"cov/{mu}",
                method=method.name,
                method_payload=method_payload(method),
                mu=mu,
                n=20,
                seed=3 + i,
                repetitions=100,
            )
            for i, mu in enumerate(mus)
        )
        results = ParallelExecutor(RunContext(workers=2)).run(plan_of(cells)).results
        for i, mu in enumerate(mus):
            assert results[(mu,)] == empirical_coverage(
                method, mu, 20, repetitions=100, rng=3 + i
            )

