"""Unit tests for the experiments CLI."""

from __future__ import annotations

import pytest

from repro.experiments.__main__ import main


class TestCLI:
    def test_no_args_lists_experiments(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "table3" in out
        assert "figure4" in out

    def test_unknown_experiment_errors(self, capsys):
        assert main(["not-an-experiment"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiments" in err

    def test_runs_fast_experiment(self, capsys):
        assert main(["figure2", "--reps", "3"]) == 0
        out = capsys.readouterr().out
        assert "figure2" in out
        assert "completed in" in out

    def test_solver_flag(self, capsys):
        # Every HPD method runs the one Newton solver; the flag is gone
        # (the solver ablation is its own experiment, ablation-hpd).
        with pytest.raises(SystemExit):
            main(["figure2", "--reps", "3", "--solver", "slsqp"])
        assert "--solver" in capsys.readouterr().err

    def test_chunk_seconds_flag(self, capsys):
        # --chunk-size is the one shard-size flag.
        with pytest.raises(SystemExit):
            main(["figure2", "--reps", "3", "--chunk-seconds", "1"])
        assert "--chunk-seconds" in capsys.readouterr().err

    def test_multiple_experiments(self, capsys):
        assert main(["table1", "figure2", "--reps", "3"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "figure2" in out

    @pytest.mark.parametrize(
        "flags",
        [("--workers", "0"), ("--reps", "0"), ("--chunk-size", "0")],
    )
    def test_bad_input_is_an_error_line_not_a_traceback(self, capsys, flags):
        assert main(["table1", *flags]) == 1
        assert capsys.readouterr().err.startswith("error:")
