"""Shared experiment settings.

The paper's evaluation protocol (Sec. 5) in one value object: which
datasets, how many Monte-Carlo repetitions, and which significance /
precision levels.  Every experiment module accepts an
:class:`ExperimentSettings` so that benchmarks can dial the repetition
count down while the CLI reproduces the paper's 1,000.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

from .._validation import check_alpha, check_positive, check_positive_int
from ..evaluation.framework import EvaluationConfig

__all__ = ["ExperimentSettings", "DEFAULT_SETTINGS", "FAST_SETTINGS"]

#: TWCS second-stage sizes per dataset (paper Sec. 5: m=3 for the small
#: datasets with small clusters, m=5 for SYN 100M).
TWCS_M: Mapping[str, int] = {
    "YAGO": 3,
    "NELL": 3,
    "DBPEDIA": 3,
    "FACTBENCH": 3,
    "SYN100M": 5,
}


@dataclass(frozen=True)
class ExperimentSettings:
    """Evaluation-protocol parameters shared by all experiments.

    Attributes
    ----------
    repetitions:
        Monte-Carlo repetitions per configuration (paper: 1,000).
    seed:
        Base seed; every (experiment, configuration, repetition) derives
        an independent stream from it.
    dataset_seed:
        Seed of the profiled dataset generators, fixed separately so
        every configuration audits the *same* realised KG.
    alpha / epsilon:
        Default significance level and MoE threshold (both 0.05).
    datasets:
        Small-dataset roster for the real-data experiments.
    """

    repetitions: int = 1_000
    seed: int = 0
    dataset_seed: int = 42
    alpha: float = 0.05
    epsilon: float = 0.05
    datasets: tuple[str, ...] = ("YAGO", "NELL", "DBPEDIA", "FACTBENCH")

    def __post_init__(self) -> None:
        check_positive_int(self.repetitions, "repetitions")
        check_alpha(self.alpha)
        check_positive(self.epsilon, "epsilon")

    def evaluation_config(self, alpha: float | None = None) -> EvaluationConfig:
        """The evaluation-loop config at (optionally overridden) alpha."""
        return EvaluationConfig(
            alpha=self.alpha if alpha is None else alpha,
            epsilon=self.epsilon,
        )

    def with_repetitions(self, repetitions: int) -> "ExperimentSettings":
        """A copy with a different repetition count."""
        return replace(self, repetitions=repetitions)


#: The paper's protocol: 1,000 repetitions.
DEFAULT_SETTINGS = ExperimentSettings()

#: A fast profile for benchmarks and CI (same protocol, fewer reps).
FAST_SETTINGS = ExperimentSettings(repetitions=100)
