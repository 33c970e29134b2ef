"""Unit tests for the user-facing audit CLI (``python -m repro``)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.kg.io import save_kg


@pytest.fixture
def kg_file(tmp_path, medium_kg):
    path = tmp_path / "kg.tsv"
    save_kg(medium_kg, path)
    return str(path)


class TestStats:
    def test_prints_statistics(self, kg_file, capsys):
        assert main(["stats", kg_file]) == 0
        out = capsys.readouterr().out
        assert "facts            : 3000" in out
        assert "gold accuracy" in out

    def test_missing_file(self, capsys):
        assert main(["stats", "/nonexistent/kg.tsv"]) == 1
        assert "error" in capsys.readouterr().err


class TestGenerate:
    def test_writes_profiled_dataset(self, tmp_path, capsys):
        out_path = tmp_path / "yago.tsv"
        assert main(["generate", "--dataset", "YAGO", "--out", str(out_path)]) == 0
        assert out_path.exists()
        assert "1386" in capsys.readouterr().out


#: ``audit --seed 1`` on the medium KG for every ``--strategy`` x
#: ``--method`` choice: the printed estimate, interval and annotated
#: triple count.  Pinned so the choices keep building the same sampling
#: designs and interval methods.
AUDIT_GOLDEN = {
    ("srs", "ahpd"): ("0.7928", "aHPD[Kerman] [0.7415, 0.8413]", 251),
    ("srs", "wilson"): ("0.7928", "Wilson [0.7385, 0.8384]", 251),
    ("srs", "wald"): ("0.7937", "Wald [0.7437, 0.8436]", 252),
    ("twcs", "ahpd"): ("0.9211", "aHPD[Kerman] [0.8669, 0.9657]", 153),
    ("twcs", "wilson"): ("0.9194", "Wilson [0.8566, 0.9562]", 162),
    ("twcs", "wald"): ("0.9224", "Wald [0.8727, 0.9721]", 156),
    ("wcs", "ahpd"): ("0.7599", "aHPD[Uniform] [0.7076, 0.8074]", 580),
    ("wcs", "wilson"): ("0.7599", "Wilson [0.7064, 0.8063]", 580),
    ("wcs", "wald"): ("0.7615", "Wald [0.7116, 0.8115]", 587),
    ("strat", "ahpd"): ("0.7817", "aHPD[Uniform] [0.7290, 0.8290]", 252),
    ("strat", "wilson"): ("0.7826", "Wilson [0.7286, 0.8284]", 253),
    ("strat", "wald"): ("0.7835", "Wald [0.7336, 0.8334]", 254),
}


class TestAudit:
    @pytest.mark.parametrize("strategy, method", list(AUDIT_GOLDEN), ids="-".join)
    def test_every_choice_prints_its_pinned_audit(
        self, kg_file, strategy, method, capsys
    ):
        argv = ["audit", kg_file, "--strategy", strategy, "--method", method]
        assert main([*argv, "--seed", "1"]) == 0
        out = capsys.readouterr().out
        estimate, interval, triples = AUDIT_GOLDEN[strategy, method]
        assert f"estimated accuracy : {estimate}\n" in out
        assert f"interval           : {interval} (1-alpha=0.95)\n" in out
        assert f"annotated triples  : {triples}\n" in out

    def test_default_audit(self, kg_file, capsys):
        assert main(["audit", kg_file, "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "estimated accuracy" in out
        assert "annotation cost" in out

    @pytest.mark.parametrize("strategy", ["srs", "twcs", "wcs", "strat"])
    def test_every_strategy(self, kg_file, strategy, capsys):
        assert main(["audit", kg_file, "--strategy", strategy, "--seed", "1"]) == 0
        assert "margin of error" in capsys.readouterr().out

    @pytest.mark.parametrize("method", ["ahpd", "wilson", "wald"])
    def test_every_method(self, kg_file, method, capsys):
        assert main(["audit", kg_file, "--method", method, "--seed", "1"]) == 0
        capsys.readouterr()

    def test_ledger_written(self, kg_file, tmp_path, capsys):
        ledger_path = tmp_path / "ledger.tsv"
        assert main(["audit", kg_file, "--ledger", str(ledger_path), "--seed", "2"]) == 0
        assert ledger_path.exists()
        assert "judgement ledger" in capsys.readouterr().out

    def test_custom_precision(self, kg_file, capsys):
        assert main(
            ["audit", kg_file, "--alpha", "0.1", "--epsilon", "0.08", "--seed", "1"]
        ) == 0
        assert "threshold 0.08" in capsys.readouterr().out


class TestPlan:
    def test_plan_output(self, capsys):
        assert main(["plan", "--mu", "0.9"]) == 0
        out = capsys.readouterr().out
        assert "aHPD" in out and "Wilson" in out and "triples" in out

    def test_twcs_style_entities(self, capsys):
        assert main(["plan", "--mu", "0.9", "--entities-per-triple", "0.4"]) == 0
        capsys.readouterr()


class TestStudy:
    def test_grid_runs_and_prints_table(self, capsys):
        assert main(
            [
                "study",
                "--datasets", "YAGO",
                "--strategies", "srs",
                "--methods", "wald,ahpd",
                "--reps", "3",
                "--quiet",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "dataset" in out and "cost_hours" in out
        assert "wald" in out and "ahpd" in out
        assert "2 cells" in out

    def test_parallel_matches_serial_and_caches(self, tmp_path, capsys):
        args = [
            "study",
            "--datasets", "YAGO",
            "--strategies", "srs,twcs",
            "--methods", "ahpd",
            "--reps", "3",
            "--quiet",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(args + ["--workers", "2"]) == 0
        first = capsys.readouterr().out
        assert main(args) == 0  # serial re-run, served from cache
        second = capsys.readouterr().out
        # identical numbers, fully cached second time
        assert first.splitlines()[:3] == second.splitlines()[:3]
        assert "2 cached" in second

    def test_unknown_strategy_errors(self, capsys):
        assert main(["study", "--strategies", "bogus", "--reps", "2"]) == 1
        assert "unknown strategy" in capsys.readouterr().err


class TestRuntimeOptions:
    @pytest.mark.parametrize(
        "command", (["study"], ["partition-audit", "kg.tsv"], ["serve"], ["submit"])
    )
    def test_chunk_seconds_flag_is_gone(self, command, capsys):
        # --chunk-size is the one shard-size flag.
        with pytest.raises(SystemExit):
            main([*command, "--chunk-seconds", "1"])
        assert "--chunk-seconds" in capsys.readouterr().err

    def test_worker_subcommand_is_gone(self, capsys):
        # Units run in process or on a local pool; nothing serves a queue.
        with pytest.raises(SystemExit) as info:
            main(["worker"])
        assert info.value.code == 2
        assert "invalid choice: 'worker'" in capsys.readouterr().err

    def test_an_unknown_backend_is_an_error_line(self, capsys):
        argv = ["study", "--reps", "2", "--quiet", "--backend", "teleport:/tmp/q"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "unknown execution backend 'teleport:/tmp/q'" in err
        assert "chaos, process, serial" in err

    def test_a_bad_pool_size_is_an_error_line(self, capsys):
        argv = ["study", "--reps", "2", "--quiet", "--backend", "process:abc"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: process backend pool size must be an integer, got 'abc'"
        ]

    def test_the_product_has_no_chaos_backend(self):
        # A fresh interpreter: the suite's own ``chaos`` spec is not
        # registered there, whatever REPRO_BACKEND this run exports.
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "study", "--reps", "2", "--quiet",
             "--backend", "chaos"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "error: unknown execution backend 'chaos'; "
            "expected one of: process, serial"
        ]


@pytest.fixture
def nell_file(tmp_path, nell_kg):
    path = tmp_path / "nell.tsv"
    save_kg(nell_kg, path)
    return str(path)


class TestPartitionAudit:
    def test_split_run_prints_the_unsplit_stdout(self, nell_file, capsys):
        assert main(["partition-audit", nell_file, "--quiet"]) == 0
        unsplit = capsys.readouterr().out
        assert "curation priority" in unsplit
        split = ["--workers", "2", "--chunk-size", "3"]
        assert main(["partition-audit", nell_file, "--quiet", *split]) == 0
        assert capsys.readouterr().out == unsplit

    @pytest.mark.parametrize(
        "on_error, marker", [("raise", "error:"), ("continue", "FAILED")]
    )
    def test_non_positive_epsilon_errors(self, nell_file, on_error, marker, capsys):
        argv = ["partition-audit", nell_file, "--quiet", "--epsilon", "-1"]
        assert main(argv + ["--on-error", on_error]) == 1
        err = capsys.readouterr().err
        assert marker in err and "epsilon" in err

    def test_relative_kg_path_becomes_an_absolute_spec(
        self, nell_file, tmp_path, monkeypatch, capsys
    ):
        # The path is a cell field and so part of the cache token: the
        # cell names the KG by absolute path, so the same file keys the
        # same results from any working directory.
        import repro.cli as cli

        plans = []
        real_execute = cli.execute

        def recording_execute(plan, context=None):
            plans.append(plan)
            return real_execute(plan, context)

        monkeypatch.setattr(cli, "execute", recording_execute)
        monkeypatch.chdir(tmp_path)
        assert main(["partition-audit", "nell.tsv", "--quiet"]) == 0
        capsys.readouterr()
        (cell,) = plans[0].cells
        assert cell.dataset == f"file:{Path.cwd() / 'nell.tsv'}"
