"""Evidence: the bridge between sampling and interval estimation.

Every interval method in the library consumes the same summary of the
annotated sample — an :class:`Evidence` value.  Sampling strategies know
how to compute it (including design-effect adjustment for clustered
samples, paper Algorithm 1 lines 10-14), and interval methods never see
raw samples.
"""

from __future__ import annotations

from dataclasses import dataclass

from .._validation import check_non_negative, check_probability
from ..exceptions import ValidationError

__all__ = ["Evidence"]


@dataclass(frozen=True)
class Evidence:
    """Design-aware summary of an annotated sample.

    Attributes
    ----------
    mu_hat:
        The unbiased point estimate of the KG accuracy.
    variance:
        The estimated variance of ``mu_hat`` under the sampling design
        (used directly by the Wald interval).
    n_effective:
        Effective sample size after design-effect correction; equals the
        raw count under SRS.  May be fractional under complex designs.
    tau_effective:
        Effective number of correct triples, ``mu_hat * n_effective``.
    n_annotated:
        Raw number of annotated triples (used for reporting).
    """

    mu_hat: float
    variance: float
    n_effective: float
    tau_effective: float
    n_annotated: int

    def __post_init__(self) -> None:
        check_probability(self.mu_hat, "mu_hat")
        check_non_negative(self.variance, "variance")
        if self.n_effective <= 0:
            raise ValidationError(
                f"n_effective must be > 0, got {self.n_effective!r}"
            )
        if not 0.0 <= self.tau_effective <= self.n_effective + 1e-9:
            raise ValidationError(
                "tau_effective must lie in [0, n_effective], got "
                f"{self.tau_effective!r} with n_effective={self.n_effective!r}"
            )
        if self.n_annotated < 0:
            raise ValidationError(
                f"n_annotated must be >= 0, got {self.n_annotated!r}"
            )

    @property
    def all_correct(self) -> bool:
        """Whether the annotation outcome was unanimously correct."""
        return self.mu_hat >= 1.0

    @property
    def all_incorrect(self) -> bool:
        """Whether the annotation outcome was unanimously incorrect."""
        return self.mu_hat <= 0.0

    @classmethod
    def from_counts(cls, successes: int, trials: int) -> "Evidence":
        """Evidence for a plain SRS outcome of *successes* / *trials*."""
        if trials <= 0:
            raise ValidationError(f"trials must be > 0, got {trials}")
        if not 0 <= successes <= trials:
            raise ValidationError(
                f"successes must be in [0, trials], got {successes}/{trials}"
            )
        mu_hat = successes / trials
        return cls(
            mu_hat=mu_hat,
            variance=mu_hat * (1.0 - mu_hat) / trials,
            n_effective=float(trials),
            tau_effective=float(successes),
            n_annotated=trials,
        )

    @classmethod
    def from_counts_fast(cls, successes: int, trials: int) -> "Evidence":
        """Non-validating :meth:`from_counts` for trusted hot loops.

        Skips ``__post_init__``'s range checks entirely; Monte-Carlo
        loops that draw ``successes ~ Bin(trials, mu)`` construct
        millions of evidences whose invariants hold by construction.
        Callers with untrusted inputs must use :meth:`from_counts`, the
        public default.
        """
        mu_hat = successes / trials
        variance = mu_hat * (1.0 - mu_hat) / trials
        return cls._unchecked(
            mu_hat, variance, float(trials), float(successes), trials
        )

    @classmethod
    def _unchecked(
        cls,
        mu_hat: float,
        variance: float,
        n_effective: float,
        tau_effective: float,
        n_annotated: int,
    ) -> "Evidence":
        """An evidence whose fields are valid by construction.

        Skips ``__post_init__``: for :meth:`from_counts_fast` and for
        :func:`~repro.estimators.cluster.twcs_evidence`, whose checked
        inputs make every field valid.
        """
        evidence = object.__new__(cls)
        object.__setattr__(evidence, "mu_hat", mu_hat)
        object.__setattr__(evidence, "variance", variance)
        object.__setattr__(evidence, "n_effective", n_effective)
        object.__setattr__(evidence, "tau_effective", tau_effective)
        object.__setattr__(evidence, "n_annotated", n_annotated)
        return evidence
