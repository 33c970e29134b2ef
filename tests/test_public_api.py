"""Public-API surface tests.

These guard the contract downstream users rely on: everything in
``__all__`` is importable, the quickstart in the package docstring runs,
importing the package leaves ``scipy.optimize`` unloaded until a scalar
HPD solver needs it, and the core value types behave like values
(hashable / comparable where documented).
"""

from __future__ import annotations

import doctest
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro


class TestAllExports:
    def test_every_name_in_all_is_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    @pytest.mark.parametrize(
        "name",
        [
            "KnowledgeGraph",
            "SyntheticKG",
            "SimpleRandomSampling",
            "TwoStageWeightedClusterSampling",
            "StratifiedPredicateSampling",
            "WaldInterval",
            "WilsonInterval",
            "AdaptiveHPD",
            "KGAccuracyEvaluator",
            "SampleSizePlanner",
            "AnnotationLedger",
            "TripleIndex",
        ],
    )
    def test_key_classes_exported(self, name):
        assert name in repro.__all__

    def test_subpackages_importable(self):
        import repro.annotation
        import repro.estimators
        import repro.evaluation
        import repro.experiments
        import repro.intervals
        import repro.kg
        import repro.sampling
        import repro.stats

        for module in (
            repro.annotation,
            repro.estimators,
            repro.evaluation,
            repro.experiments,
            repro.intervals,
            repro.kg,
            repro.sampling,
            repro.stats,
        ):
            assert module.__doc__


class TestImportFootprint:
    def test_scipy_optimize_loads_only_when_a_scalar_solver_runs(self):
        # scipy.optimize costs every process that imports it ~0.2 s and
        # ~24 MB; only the SLSQP and Brent solvers (test oracles, the
        # ablation, the rare per-row fallback) need it.
        script = (
            "import sys\n"
            "import repro, repro.runtime, repro.experiments, repro.cli\n"
            "print('scipy.optimize' in sys.modules)\n"
            "from repro.intervals import BetaPosterior, JEFFREYS, hpd_bounds\n"
            "posterior = BetaPosterior(a=8.5, b=3.5, prior=JEFFREYS)\n"
            "hpd_bounds(posterior, 0.05, solver='scalar')\n"
            "print('scipy.optimize' in sys.modules)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).parents[1]) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True"]


class TestPackageDoctest:
    def test_quickstart_docstring_runs(self):
        results = doctest.testmod(repro, verbose=False)
        assert results.failed == 0
        assert results.attempted >= 2


class TestValueSemantics:
    def test_triple_usable_as_dict_key(self):
        t = repro.Triple("s", "p", "o")
        assert {t: 1}[repro.Triple("s", "p", "o")] == 1

    def test_interval_equality(self):
        a = repro.Interval(lower=0.1, upper=0.2, alpha=0.05, method="x")
        b = repro.Interval(lower=0.1, upper=0.2, alpha=0.05, method="x")
        assert a == b

    def test_priors_are_constants(self):
        assert repro.KERMAN.name == "Kerman"
        assert repro.UNINFORMATIVE_PRIORS[-1] is repro.UNIFORM
