"""Chaos backend: deterministic fault injection around any real backend.

``chaos:<inner-spec>`` wraps another backend (``chaos:serial``,
``chaos:process:4``, ``chaos:spool:/tmp/q`` — the inner spec is
everything after the first colon) and injects faults into a
reproducible subset of the units flowing through it:

* **raise-before** — the unit fails without ever reaching the inner
  backend (a submit-side crash);
* **raise-after** — the unit executes on the inner backend, then its
  result is replaced by an error (a crash between compute and
  delivery);
* **drop** — the computed result is discarded once, as if the
  transport lost it;
* **delay** — the unit is held for a deterministic few milliseconds
  before clean submission (no fault, just schedule perturbation).

The schedule is a pure function of ``(seed, unit token)`` —
``REPRO_CHAOS_SEED`` / ``REPRO_CHAOS_RATE`` — so a chaotic run is
*exactly* repeatable: same seed, same faults, same retry schedule.
Each unit is faulted at most once per run (its first submission), so
any retry policy with at least one retry is guaranteed to converge.

This is the executable proof of the runtime's central claim: because
every cell is seeded at plan-build time and retries recompute
byte-identical numbers, a run under injected faults plus retries must
produce bit-identical results and cache state to a fault-free serial
run.  The hypothesis suite drives exactly that property.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Union

from ...exceptions import ReproError
from ..faults import _unit_fraction, unit_token
from ..settings import resolve_chaos_rate, resolve_chaos_seed
from ..spec import CellShard
from .base import BackendFuture, ExecutionBackend, make_backend, register_backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...experiments.config import ExperimentSettings

__all__ = ["ChaosBackend", "ChaosFault"]

#: Fault kinds, in hash-bucket order (index chosen by the unit's hash).
_FAULT_KINDS = ("before", "after", "drop", "delay")

#: Longest injected delay, seconds (the "delay" fault kind).
_MAX_DELAY = 0.05


class ChaosFault(ReproError):
    """An injected fault from the chaos backend — always transient:
    the same unit is never faulted twice in one run."""


class _FailedFuture(BackendFuture):
    """Already-failed future: the raise-before fault."""

    def __init__(self, error: Exception):
        self._error = error

    def done(self) -> bool:
        return True

    def result(self) -> tuple[Any, float]:
        raise self._error


class _ChaosFuture(BackendFuture):
    """Wraps an inner future; optionally swallows its result once."""

    def __init__(self, inner: BackendFuture, fault: Exception | None = None):
        self._inner = inner
        self._fault = fault

    def done(self) -> bool:
        return self._inner.done()

    def result(self) -> tuple[Any, float]:
        value = self._inner.result()
        if self._fault is not None:
            # The unit really executed; chaos loses the answer in
            # transit (raise-after / drop).  Retries recompute it.
            raise self._fault
        return value


@register_backend("chaos")
def _make_chaos(arg: str) -> "ChaosBackend":
    return ChaosBackend(arg or None)


class ChaosBackend(ExecutionBackend):
    """Injects deterministic faults around an inner backend.

    Parameters
    ----------
    inner:
        Inner backend spec (``"serial"``, ``"process:4"``,
        ``"spool:/dir"``) or a constructed :class:`ExecutionBackend`;
        ``None`` wraps a serial backend.
    seed:
        Fault-schedule seed; ``None`` reads ``REPRO_CHAOS_SEED``
        (default 0).  Same seed ⇒ identical fault schedule.
    rate:
        Fraction of units faulted, in ``[0, 1]``; ``None`` reads
        ``REPRO_CHAOS_RATE`` (default 0.25).
    """

    def __init__(
        self,
        inner: Union[str, ExecutionBackend, None] = None,
        seed: int | None = None,
        rate: float | None = None,
    ):
        if isinstance(inner, ExecutionBackend):
            self.inner = inner
        else:
            self.inner = make_backend(inner or "serial")
        self.seed = resolve_chaos_seed(seed)
        self.rate = resolve_chaos_rate(rate)
        self.name = f"chaos:{self.inner.name}"
        self._injected: set[str] = set()

    def open(self, workers: int, tasks: int, settings, telemetry=None) -> None:
        super().open(workers, tasks, settings, telemetry)
        self._injected = set()
        # Forward the run's telemetry bus so the inner backend's own
        # events (spool worker spans, lease reclaims) still surface
        # when wrapped in chaos.
        self.inner.open(workers, tasks, settings, telemetry=telemetry)

    def close(self) -> None:
        self.inner.close()
        super().close()

    def _fault_for(self, token: str) -> str | None:
        """The fault kind scheduled for *token*, or ``None`` for a
        clean pass — a pure function of (seed, token)."""
        if _unit_fraction(f"chaos:{self.seed}:{token}:gate") >= self.rate:
            return None
        bucket = _unit_fraction(f"chaos:{self.seed}:{token}:kind")
        return _FAULT_KINDS[int(bucket * len(_FAULT_KINDS)) % len(_FAULT_KINDS)]

    def submit(self, task: CellShard, settings: "ExperimentSettings") -> BackendFuture:
        token = unit_token(task, settings)
        kind = None
        if token not in self._injected:
            kind = self._fault_for(token)
        if kind is not None:
            # At most one fault per unit per run, so retries converge.
            self._injected.add(token)
        label = task.label
        if kind is not None and self.telemetry is not None:
            self.telemetry.emit("chaos_inject", kind=kind, token=token, label=label)
        if kind == "before":
            return _FailedFuture(
                ChaosFault(f"injected fault before executing {label}")
            )
        if kind == "delay":
            time.sleep(_MAX_DELAY * _unit_fraction(f"chaos:{self.seed}:{token}:delay"))
            return _ChaosFuture(self.inner.submit(task, settings))
        fault: Exception | None = None
        if kind == "after":
            fault = ChaosFault(f"injected fault after executing {label}")
        elif kind == "drop":
            fault = ChaosFault(f"injected result drop for {label}")
        return _ChaosFuture(self.inner.submit(task, settings), fault)

    def wait_any(self, outstanding):
        failed = {
            future for future in outstanding if isinstance(future, _FailedFuture)
        }
        if failed:
            return failed, outstanding - failed
        wrappers = {future._inner: future for future in outstanding}
        done_inner, _ = self.inner.wait_any(set(wrappers))
        done = {wrappers[future] for future in done_inner}
        return done, outstanding - done

    def __repr__(self) -> str:
        return (
            f"ChaosBackend(inner={self.inner!r}, seed={self.seed}, "
            f"rate={self.rate})"
        )
