"""Internal helpers shared by the study-based experiment modules.

Experiment modules describe their Monte-Carlo grids as
:class:`~repro.runtime.spec.StudyCell` tuples and run them with
``execute(plan)``, so every grid-shaped workload gets worker-process
parallelism, disk caching, and resume from the run context
(``REPRO_WORKERS`` / ``REPRO_CACHE_DIR``, or one installed with
:func:`~repro.runtime.use_context`).  :func:`strategy_spec`
names a cell's sampling strategy.
"""

from __future__ import annotations

from ..exceptions import ValidationError
from .config import TWCS_M

__all__ = ["strategy_spec"]


def strategy_spec(kind: str, dataset: str) -> str:
    """The runtime spec string for *kind* on *dataset*.

    Resolves the paper's per-dataset TWCS stage-2 cap at plan-build
    time so cells stay self-contained (``"TWCS:3"``, not ``"TWCS"``).
    """
    kind = kind.upper()
    if kind == "TWCS":
        m = TWCS_M.get(dataset.upper())
        if m is None:
            raise ValidationError(f"no TWCS second-stage size configured for {dataset!r}")
        return f"TWCS:{m}"
    if kind in ("SRS", "WCS", "STRAT"):
        return kind
    raise ValidationError(f"unknown sampling strategy {kind!r}")
