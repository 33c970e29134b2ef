"""Unit tests for experiment settings."""

from __future__ import annotations

import pytest

from repro.exceptions import ValidationError
from repro.experiments.config import (
    DEFAULT_SETTINGS,
    FAST_SETTINGS,
    TWCS_M,
    ExperimentSettings,
)


class TestSettings:
    def test_paper_protocol_defaults(self):
        assert DEFAULT_SETTINGS.repetitions == 1_000
        assert DEFAULT_SETTINGS.alpha == 0.05
        assert DEFAULT_SETTINGS.epsilon == 0.05
        assert DEFAULT_SETTINGS.datasets == ("YAGO", "NELL", "DBPEDIA", "FACTBENCH")

    def test_twcs_m_per_paper(self):
        assert TWCS_M["YAGO"] == 3
        assert TWCS_M["FACTBENCH"] == 3
        assert TWCS_M["SYN100M"] == 5

    def test_fast_profile(self):
        assert FAST_SETTINGS.repetitions == 100

    def test_evaluation_config_alpha_override(self):
        config = DEFAULT_SETTINGS.evaluation_config(alpha=0.01)
        assert config.alpha == 0.01
        assert config.epsilon == DEFAULT_SETTINGS.epsilon

    def test_with_repetitions(self):
        derived = DEFAULT_SETTINGS.with_repetitions(5)
        assert derived.repetitions == 5
        assert derived.seed == DEFAULT_SETTINGS.seed

    def test_rejects_unknown_solver(self):
        # Settings carry no HPD solver: every method runs Newton.
        with pytest.raises(TypeError):
            ExperimentSettings(solver="nope")
        with pytest.raises(TypeError):
            ExperimentSettings(solver="newton")

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValidationError):
            ExperimentSettings(alpha=0.0)
