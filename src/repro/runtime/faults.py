"""Fault model for plan execution: retries, failure records, quarantine.

Long Monte-Carlo campaigns fail for two very different reasons.  A
*transient* fault — a pool worker OOM-killed under memory pressure,
which fails every unit in flight on that pool until the retry runs on a
fresh one — disappears when the unit of work runs again; a
*persistent* fault (a bug in a cell runner, a poison payload) does
not, no matter how often it is retried.  This module gives the runtime
the vocabulary to tell them apart:

* :func:`retry_delay` — the backoff before each resubmission of a
  failed unit of work (the run's ``max_retries`` says how many there
  may be).  The backoff jitter is derived **deterministically** from
  the unit's token, so two reruns of the same plan retry on exactly the
  same schedule — reproducibility extends to the failure path.
* :class:`TaskFailure` — the durable record of one failed attempt:
  unit label and token, attempt number, exception summary, the
  worker-side traceback when one crossed the process boundary, and the
  backend the attempt ran on.
* :class:`PlanExecutionError` — what a run raises once a unit exhausts
  its retries under ``on_error="raise"``; carries the full
  :class:`TaskFailure` history of the run so post-mortems do not
  depend on scraping logs.

Under ``on_error="continue"`` the executor instead *quarantines* the
failed cell — the scheduler keeps draining every other unit and the
:class:`~repro.runtime.scheduler.PlanOutcome` returns the surviving
cells plus the ``failures`` tuple.

Because every cell is seeded at plan-build time, a retried unit
recomputes byte-identical numbers; retrying is therefore always safe,
and the test suite's seeded fault injector leans on exactly that
property to prove the whole failure path end to end.
"""

from __future__ import annotations

import hashlib
import traceback as _traceback
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..exceptions import ReproError, ValidationError
from .spec import CellShard, cache_token

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiments.config import ExperimentSettings

__all__ = [
    "PlanExecutionError",
    "TaskFailure",
    "failure_from",
    "retry_delay",
    "unit_token",
]

def unit_token(shard: CellShard, settings: "ExperimentSettings") -> str:
    """Stable hex identity of one unit of work under *settings*.

    The whole-cell unit uses its cell's ordinary cache token; a window
    of a split cell extends it with its repetition window.  The token
    seeds the retry jitter, so the retry schedule is reproducible
    across reruns — it is a *fault identity*, deliberately independent
    of the backend and of which attempt is executing.
    """
    token = cache_token(shard.cell, settings)
    if shard.rep_range is None:
        return token
    blob = f"{token}:unit:{shard.rep_start}:{shard.rep_stop}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _unit_fraction(text: str) -> float:
    """Deterministic float in ``[0, 1)`` from *text* (sha256-derived)."""
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return int(digest[:12], 16) / float(16**12)


#: Delay before the first retry, in seconds; each further retry doubles
#: it (exponential backoff).
RETRY_BACKOFF_BASE = 0.05

#: Upper bound on any single retry delay, in seconds, so deep retry
#: chains do not wait minutes between attempts.
RETRY_BACKOFF_CAP = 2.0

#: Fraction of the exponential delay the deterministic jitter may
#: subtract, so distinct units that fail together de-synchronise.
RETRY_JITTER = 0.5


def retry_delay(failures: int, token: str) -> float:
    """Seconds to wait before the retry following failure *failures*.

    ``failures`` counts the attempts of the unit that have already
    failed (``1`` = about to issue the first retry).  The exponential
    delay is capped at :data:`RETRY_BACKOFF_CAP` and shaved by a jitter
    that is a pure function of the unit *token* and *failures*, so
    reruns of a plan retry on an identical schedule.
    """
    if failures < 1:
        raise ValidationError(f"failures must be >= 1, got {failures}")
    raw = min(RETRY_BACKOFF_CAP, RETRY_BACKOFF_BASE * (2.0 ** (failures - 1)))
    shave = RETRY_JITTER * _unit_fraction(f"{token}:retry:{failures}")
    return raw * (1.0 - shave)


@dataclass(frozen=True)
class TaskFailure:
    """The record of one failed attempt at one unit of work.

    Attributes
    ----------
    label:
        Human-readable unit label (cell label, or the parent label plus
        repetition window for a shard).
    token:
        The unit's :func:`unit_token` — stable across attempts and
        backends, so failures of the same unit correlate across runs.
    attempts:
        Which attempt this was (1 = the first execution).
    error:
        One-line exception summary, ``"TypeName: message"``.
    traceback:
        The traceback text, worker-side when the failure crossed a
        process boundary (pool workers ship theirs); ``None`` when none
        was available.
    backend:
        Name of the backend the attempt dispatched through.
    """

    label: str
    token: str
    attempts: int
    error: str
    traceback: str | None
    backend: str

    def summary(self) -> str:
        """One line for logs: label, attempt count, exception."""
        plural = "s" if self.attempts != 1 else ""
        return f"{self.label}: {self.error} (after {self.attempts} attempt{plural})"


class PlanExecutionError(ReproError):
    """A plan execution aborted after a unit exhausted its retries.

    ``failures`` carries the complete :class:`TaskFailure` history of
    the run — every failed attempt of every unit, fatal one last — so
    callers can reconstruct what happened without logs.
    """

    def __init__(self, message: str, failures: tuple[TaskFailure, ...] = ()):
        super().__init__(message)
        self.failures = failures


def _worker_traceback(exc: BaseException) -> str | None:
    """Best-available traceback text for *exc*, worker-side preferred.

    :mod:`concurrent.futures` chains a pool worker's traceback through
    ``__cause__``; failing that, the local traceback of the exception
    object itself is formatted.
    """
    cause = exc.__cause__
    if cause is not None and type(cause).__name__ == "_RemoteTraceback":
        return str(cause)
    if exc.__traceback__ is not None:
        return "".join(
            _traceback.format_exception(type(exc), exc, exc.__traceback__)
        )
    return None


def failure_from(
    shard: CellShard,
    token: str,
    attempts: int,
    exc: BaseException,
    backend: str,
) -> TaskFailure:
    """Build the :class:`TaskFailure` record for one failed attempt."""
    return TaskFailure(
        label=shard.label,
        token=token,
        attempts=attempts,
        error=f"{type(exc).__name__}: {exc}",
        traceback=_worker_traceback(exc),
        backend=backend,
    )
