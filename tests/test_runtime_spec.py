"""Unit tests for the runtime cell/plan description layer."""

from __future__ import annotations

import pytest

from repro.exceptions import ValidationError
from repro.experiments.config import ExperimentSettings
from repro.experiments._studies import strategy_spec
from repro.experiments.coverage_audit import coverage_audit_plan
from repro.experiments.dynamic_audit import dynamic_audit_plan
from repro.experiments.partitioned_audit import partitioned_audit_plan
from repro.experiments.sequential_coverage import sequential_coverage_plan
from repro.experiments.table3 import table3_plan
from repro.intervals.ahpd import AdaptiveHPD
from repro.intervals.clopper_pearson import ClopperPearsonInterval
from repro.intervals.et import ETCredibleInterval
from repro.intervals.hpd import HPDCredibleInterval
from repro.intervals.priors import KERMAN, BetaPrior
from repro.intervals.wald import WaldInterval
from repro.runtime import (
    CACHE_VERSION,
    CoverageCell,
    StudyCell,
    StudyPlan,
    build_kg,
    build_method,
    build_strategy,
    cache_token,
    cell_method,
    method_payload,
)
from repro.sampling.srs import SimpleRandomSampling
from repro.sampling.stratified import StratifiedPredicateSampling
from repro.sampling.twcs import TwoStageWeightedClusterSampling
from repro.sampling.wcs import WeightedClusterSampling

SETTINGS = ExperimentSettings(repetitions=5)

#: One plan cell per built-in kind with its ``cache_token``, pinned:
#: ``(plan builder, repetitions, cell key, kind, token)``.  A store
#: written under these tokens stays valid only while they hold, so a
#: change that moves one must bump ``CACHE_VERSION``.
GOLDEN_TOKENS = (
    (
        table3_plan, 3, ("YAGO", "SRS", "Wald"), "StudyCell",
        "759e9f84860186f9092875e17ceae544e000d4202e90d88e63d114c881b45fdd",
    ),
    (
        coverage_audit_plan, 10, ("Wald", 0.99), "CoverageCell",
        "a6ab57d3905fcbb65430e98730d0af74d565b55cede73e9069511b239a20904a",
    ),
    (
        sequential_coverage_plan, 10, ("Wald", 0.99), "SequentialCoverageCell",
        "5e621ecb05f5ebad84c91ebccbbfb8664fd14bae5e26a9bc20eceb49536460bd",
    ),
    (
        dynamic_audit_plan, 10, ("stable", "carried"), "DynamicAuditCell",
        "74aaeebbb7b4e363fa883cca7c8ff2c2e8cd7b40390d45b4894bfe0f53dd968e",
    ),
    (
        partitioned_audit_plan, 10, ("partitions", "NELL"), "PartitionedAuditCell",
        "37cf9351801fd3e55081bc7d6f8970c4ff4387df985ba284d1992914de841024",
    ),
)


def _cell(**overrides) -> StudyCell:
    base = dict(
        key=("NELL", "SRS", "aHPD"),
        label="NELL/SRS/aHPD",
        method="aHPD",
        dataset="NELL",
        strategy="SRS",
        seed_stream=(7,),
    )
    base.update(overrides)
    return StudyCell(**base)


class TestStudyPlan:
    def test_rejects_duplicate_keys(self):
        cell = _cell()
        with pytest.raises(ValidationError):
            StudyPlan(settings=SETTINGS, cells=(cell, cell), name="dup")

    def test_len(self):
        plan = StudyPlan(
            settings=SETTINGS,
            cells=(_cell(), _cell(key=("other",))),
        )
        assert len(plan) == 2


class TestCacheToken:
    def test_deterministic(self):
        assert cache_token(_cell(), SETTINGS) == cache_token(_cell(), SETTINGS)

    def test_covers_cell_fields(self):
        base = cache_token(_cell(), SETTINGS)
        assert cache_token(_cell(seed_stream=(8,)), SETTINGS) != base
        assert cache_token(_cell(method="Wilson"), SETTINGS) != base
        assert cache_token(_cell(strategy="TWCS:3"), SETTINGS) != base
        assert cache_token(_cell(alpha=0.01), SETTINGS) != base
        informative = AdaptiveHPD(priors=(BetaPrior(80.0, 20.0, name="p"),))
        assert (
            cache_token(
                _cell(method_payload=method_payload(informative)), SETTINGS
            )
            != base
        )

    def test_covers_settings_fields(self):
        base = cache_token(_cell(), SETTINGS)
        for change in (
            {"repetitions": 6},
            {"seed": 1},
            {"dataset_seed": 43},
            {"alpha": 0.01},
            {"epsilon": 0.04},
        ):
            settings = ExperimentSettings(
                **{"repetitions": 5, **change}  # type: ignore[arg-type]
            )
            assert cache_token(_cell(), settings) != base, change

    def test_kind_disambiguates(self):
        # A coverage cell and a study cell must never collide, even if
        # their shared fields agree.
        study = _cell()
        coverage = CoverageCell(
            key=study.key, label=study.label, method=study.method
        )
        assert cache_token(study, SETTINGS) != cache_token(coverage, SETTINGS)

    def test_version_pinned(self):
        # Bumping CACHE_VERSION is the documented way to invalidate old
        # payloads; this guards against accidental bumps.  2: cells grew
        # the picklable method_payload field.  3: the HPD solver left
        # settings and method payloads.  4: StudyCell.priors left
        # (informative priors travel as method_payload), changing every
        # study cell's token.
        assert CACHE_VERSION == 4

    @pytest.mark.parametrize(
        "builder, repetitions, key, kind, token",
        GOLDEN_TOKENS,
        ids=[entry[3] for entry in GOLDEN_TOKENS],
    )
    def test_golden_tokens(self, builder, repetitions, key, kind, token):
        settings = ExperimentSettings(repetitions=repetitions, seed=0)
        plan = builder(settings)
        cell = next(cell for cell in plan.cells if cell.key == key)
        assert type(cell).__name__ == kind
        assert cache_token(cell, settings) == token


class TestBuildStrategy:
    def test_srs(self):
        assert isinstance(build_strategy("SRS"), SimpleRandomSampling)

    def test_twcs_with_cap(self):
        strategy = build_strategy("TWCS:5")
        assert isinstance(strategy, TwoStageWeightedClusterSampling)
        assert strategy.m == 5

    def test_twcs_requires_cap(self):
        with pytest.raises(ValidationError):
            build_strategy("TWCS")

    def test_wcs_and_strat(self):
        assert isinstance(build_strategy("WCS"), WeightedClusterSampling)
        assert isinstance(build_strategy("STRAT"), StratifiedPredicateSampling)

    def test_unknown(self):
        with pytest.raises(ValidationError):
            build_strategy("BOGUS")

    def test_strategy_spec_resolves_paper_m(self):
        assert strategy_spec("TWCS", "NELL") == "TWCS:3"
        assert strategy_spec("TWCS", "SYN100M") == "TWCS:5"
        assert strategy_spec("SRS", "NELL") == "SRS"


class TestBuildMethod:
    def test_plain_families(self):
        assert isinstance(build_method("Wald"), WaldInterval)
        assert isinstance(build_method("cp"), ClopperPearsonInterval)
        assert build_method("wilson").name == "Wilson"

    def test_priors(self):
        et = build_method("ET:Kerman")
        assert isinstance(et, ETCredibleInterval)
        assert et.name == "ET[Kerman]"
        hpd = build_method("HPD:Kerman")
        assert isinstance(hpd, HPDCredibleInterval)
        assert hpd.prior == KERMAN

    def test_ahpd_informative(self):
        informative = AdaptiveHPD(priors=(BetaPrior(80.0, 20.0, name="Similar"),))
        method = cell_method(_cell(method_payload=method_payload(informative)))
        assert isinstance(method, AdaptiveHPD)
        assert [p.name for p in method.priors] == ["Similar"]

    def test_unknown(self):
        with pytest.raises(ValidationError):
            build_method("madeup")
        with pytest.raises(ValidationError):
            build_method("ET:NotAPrior")


class TestBuildKG:
    def test_profile_memoised(self):
        first = build_kg("YAGO", 42)
        again = build_kg("YAGO", 42)
        assert first is again

    def test_seed_part_of_memo_key(self):
        assert build_kg("YAGO", 42) is not build_kg("YAGO", 7)

    def test_file_spec(self, tmp_path, tiny_kg):
        from repro.kg.io import save_kg

        path = tmp_path / "kg.tsv"
        save_kg(tiny_kg, path)
        kg = build_kg(f"file:{path}", 0)
        assert kg.num_triples == tiny_kg.num_triples
