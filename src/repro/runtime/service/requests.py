"""Study requests: the one definition of "a study grid", CLI and service.

``python -m repro study`` and the service's ``submit`` op both build
their plans through :class:`StudyRequest` and render their results
through :func:`render_study_table`, so a request submitted to the
service is *guaranteed* to produce the same plan — same cells, same
plan-time seeds, same cache tokens — and the same rendered table,
byte for byte, as the equivalent standalone CLI run.  That shared code
path is what makes the service's results verifiable against batch runs
and lets service requests hit cache entries a CLI run left behind (and
vice versa).

The request JSON schema accepted by the service's ``submit`` op::

    {
      "op": "submit",
      "request": {
        "datasets":   "NELL,YAGO",        # or ["NELL", "YAGO"]
        "strategies": "srs,twcs",          # srs | twcs | wcs | strat
        "methods":    "wald,wilson,ahpd",
        "repetitions": 100,
        "m": 3,                            # TWCS stage-2 cap
        "alpha": 0.05,
        "epsilon": 0.05,
        "seed": 0
      },
      "context": {                         # all optional, per-request
        "workers": 2,
        "backend": "serial",               # serial | process[:n] | chaos[:inner]
        "chunk_size": 5,                   # repetitions per shard
        "max_retries": 2,
        "on_error": "continue"             # raise | continue
      }
    }
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Iterable, Union

from ...exceptions import ReproError, ValidationError
from ..spec import StudyCell, StudyPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..scheduler import PlanOutcome

__all__ = [
    "STUDY_COLUMNS",
    "StudyRequest",
    "render_study_table",
    "study_rows",
]

#: Sampling-strategy names accepted in requests, mapped to the spec
#: template the cell carries (``{m}`` is the TWCS stage-2 cap).
STRATEGY_SPECS = {
    "srs": "SRS",
    "twcs": "TWCS:{m}",
    "wcs": "WCS",
    "strat": "STRAT",
}

#: Column order of the rendered study table.
STUDY_COLUMNS = (
    "dataset", "strategy", "method", "triples", "cost_hours", "converged",
)


def _name_list(value: Union[str, Iterable[str], None], fold: str) -> tuple[str, ...]:
    """Normalise a comma-separated string or iterable of names."""
    if value is None:
        return ()
    if isinstance(value, str):
        parts = value.split(",")
    else:
        parts = [str(part) for part in value]
    folded = (
        part.strip().upper() if fold == "upper" else part.strip().lower()
        for part in parts
    )
    return tuple(part for part in folded if part)


@dataclass(frozen=True)
class StudyRequest:
    """One study grid: the unit of work a client submits to the service.

    Field for field the ``python -m repro study`` options; see the
    module docstring for the JSON form.  Immutable, like the
    :class:`~repro.runtime.settings.RunContext` it executes under.
    """

    datasets: tuple[str, ...] = ("NELL",)
    strategies: tuple[str, ...] = ("srs", "twcs")
    methods: tuple[str, ...] = ("wald", "wilson", "ahpd")
    repetitions: int = 100
    m: int = 3
    alpha: float = 0.05
    epsilon: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "datasets", _name_list(self.datasets, "upper"))
        object.__setattr__(
            self, "strategies", _name_list(self.strategies, "lower")
        )
        object.__setattr__(self, "methods", _name_list(self.methods, "lower"))
        if not self.datasets or not self.strategies or not self.methods:
            raise ReproError(
                "study needs at least one dataset, strategy, and method"
            )
        for strategy in self.strategies:
            if strategy not in STRATEGY_SPECS:
                raise ReproError(f"unknown strategy {strategy!r}")
        if int(self.repetitions) < 1:
            raise ValidationError(
                f"repetitions must be >= 1, got {self.repetitions}"
            )

    @classmethod
    def from_payload(cls, payload: Any) -> "StudyRequest":
        """Build a request from its JSON payload, with strict keys.

        Unknown keys are an error (a typo'd knob must not silently run
        the default grid); ``reps`` is accepted as the CLI-flag-flavoured
        alias of ``repetitions``.
        """
        if payload is None:
            payload = {}
        if not isinstance(payload, dict):
            raise ValidationError(
                f"request must be a JSON object, got {type(payload).__name__}"
            )
        payload = dict(payload)
        if "reps" in payload:
            payload.setdefault("repetitions", payload.pop("reps"))
        known = {
            "datasets", "strategies", "methods", "repetitions",
            "m", "alpha", "epsilon", "seed",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValidationError(
                f"unknown request field(s) {', '.join(unknown)}; "
                f"expected a subset of: {', '.join(sorted(known))}"
            )
        try:
            return cls(**payload)
        except TypeError as exc:
            raise ValidationError(f"bad study request: {exc}") from None

    def to_payload(self) -> dict:
        """The JSON-ready form of this request (round-trips through
        :meth:`from_payload`)."""
        payload = asdict(self)
        for key in ("datasets", "strategies", "methods"):
            payload[key] = list(payload[key])
        return payload

    def build_plan(self) -> StudyPlan:
        """The deterministic :class:`StudyPlan` of this request.

        Cell order, labels, and plan-time seed streams are a pure
        function of the request fields — the same function ``python -m
        repro study`` applies — so equal requests get equal cache
        tokens no matter where they were submitted from.
        """
        from ...experiments.config import ExperimentSettings

        cells = []
        for di, dataset in enumerate(self.datasets):
            for si, strategy in enumerate(self.strategies):
                spec = STRATEGY_SPECS[strategy].format(m=self.m)
                for method in self.methods:
                    cells.append(
                        StudyCell(
                            key=(dataset, strategy, method),
                            label=f"{dataset}/{strategy}/{method}",
                            method=method,
                            dataset=dataset,
                            strategy=spec,
                            # One stream per (dataset, strategy): methods
                            # are paired on the same sample paths, as in
                            # the paper.
                            seed_stream=(20_000 + 10 * di + si,),
                        )
                    )
        settings = ExperimentSettings(
            repetitions=int(self.repetitions),
            seed=int(self.seed),
            alpha=float(self.alpha),
            epsilon=float(self.epsilon),
        )
        return StudyPlan(settings=settings, cells=tuple(cells), name="study")


def study_rows(plan: StudyPlan, outcome: "PlanOutcome") -> list[list[str]]:
    """The study table's rows, plan-ordered, quarantined cells omitted."""
    results = outcome.results
    rows = []
    for dataset, strategy, method in (cell.key for cell in plan.cells):
        # Quarantined cells (on_error="continue") have no result row;
        # callers report outcome.failures separately.
        study = results.get((dataset, strategy, method))
        if study is None:
            continue
        rows.append(
            [
                dataset,
                strategy,
                method,
                study.triples_summary.format(0),
                study.cost_summary.format(2),
                f"{study.convergence_rate:.0%}",
            ]
        )
    return rows


def render_study_table(plan: StudyPlan, outcome: "PlanOutcome") -> str:
    """The study result table exactly as ``python -m repro study``
    prints it — deterministic fields only, so service and CLI renderings
    of the same request are byte-identical."""
    from ...experiments.report import render_table

    return render_table(STUDY_COLUMNS, study_rows(plan, outcome))
