"""Seeded fault injection for the test suite: the ``chaos`` backend spec.

``chaos:<inner-spec>`` wraps a real backend (``chaos:serial``,
``chaos:process:4`` — the inner spec is everything after the first
colon) and injects faults into a reproducible subset of the units
flowing through it:

* **before** — the unit fails without ever reaching the inner backend
  (a submit-side crash);
* **after** — the unit executes on the inner backend, then its result
  is replaced by an error (a crash between compute and delivery);
* **drop** — the computed result is discarded once, as if the
  transport lost it;
* **delay** — the unit is held for a deterministic few milliseconds
  before clean submission (no fault, just schedule perturbation).

The schedule is a pure function of ``(seed, unit token)``, so a chaotic
run is *exactly* repeatable: same seed, same faults, same retry
schedule.  Each unit is faulted at most once per run (its first
submission), so any retry policy with at least one retry converges.

This is the executable proof of the runtime's central claim: because
every cell is seeded at plan-build time and retries recompute
byte-identical numbers, a run under injected faults plus retries must
produce bit-identical results and cache state to a fault-free serial
run.

The product knows only the ``serial`` and ``process`` specs.
``tests/conftest.py`` registers ``chaos`` through
:func:`repro.runtime.register_backend` for the test session, at the
fixed schedule :data:`SEED` / :data:`RATE`, so
``REPRO_BACKEND=chaos:process`` runs every plan of the suite under
the same injected faults locally and in CI.  The journal records the
failures and retries an injection causes, not the injection itself:
each backend keeps its run's injections in
:attr:`ChaosBackend.injections`.
"""

from __future__ import annotations

import time
from typing import Any, Union

from repro.exceptions import ReproError
from repro.runtime import (
    BackendFuture,
    CellShard,
    ExecutionBackend,
    make_backend,
    unit_token,
)
from repro.runtime.faults import _unit_fraction

__all__ = ["FAULT_KINDS", "RATE", "SEED", "ChaosBackend", "ChaosFault"]

#: Fault-schedule seed and rate of the ``chaos`` spec (and the
#: constructor's defaults).
SEED = 1234
RATE = 0.2

#: Fault kinds, in hash-bucket order (index chosen by the unit's hash).
FAULT_KINDS = ("before", "after", "drop", "delay")

#: Longest injected delay, seconds (the "delay" fault kind).
_MAX_DELAY = 0.05


class ChaosFault(ReproError):
    """An injected fault — always transient: the same unit is never
    faulted twice in one run."""


class _FailedFuture(BackendFuture):
    """Already-failed future: the raise-before fault."""

    def __init__(self, error: Exception):
        self._error = error

    def done(self) -> bool:
        return True

    def result(self) -> tuple[Any, float, dict | None]:
        raise self._error


class _ChaosFuture(BackendFuture):
    """Wraps an inner future; optionally swallows its result once."""

    def __init__(self, inner: BackendFuture, fault: Exception | None = None):
        self._inner = inner
        self._fault = fault

    def done(self) -> bool:
        return self._inner.done()

    def result(self) -> tuple[Any, float, dict | None]:
        value = self._inner.result()
        if self._fault is not None:
            # The unit really executed; chaos loses the answer in
            # transit (after / drop).  Retries recompute it.
            raise self._fault
        return value


class ChaosBackend(ExecutionBackend):
    """Injects deterministic faults around an inner backend.

    Parameters
    ----------
    inner:
        Inner backend spec (``"serial"``, ``"process:4"``) or a
        constructed :class:`~repro.runtime.ExecutionBackend`; ``None``
        wraps a serial backend.
    seed:
        Fault-schedule seed.  Same seed ⇒ identical fault schedule.
    rate:
        Fraction of units faulted, in ``[0, 1]``.

    Attributes
    ----------
    injections:
        The current (or last) run's injections, in submit order, as
        ``(kind, token, label)`` triples.
    """

    def __init__(
        self,
        inner: Union[str, ExecutionBackend, None] = None,
        seed: int = SEED,
        rate: float = RATE,
    ):
        if isinstance(inner, ExecutionBackend):
            self.inner = inner
        else:
            self.inner = make_backend(inner or "serial")
        self.seed = int(seed)
        self.rate = float(rate)
        self.name = f"chaos:{self.inner.name}"
        self.injections: list[tuple[str, str, str]] = []
        self._injected: set[str] = set()

    def open(self, workers: int, tasks: int, settings) -> None:
        self.injections = []
        self._injected = set()
        self.inner.open(workers, tasks, settings)

    def close(self) -> None:
        self.inner.close()

    def fault_for(self, token: str) -> str | None:
        """The fault kind scheduled for *token*, or ``None`` for a
        clean pass — a pure function of (seed, token)."""
        if _unit_fraction(f"chaos:{self.seed}:{token}:gate") >= self.rate:
            return None
        bucket = _unit_fraction(f"chaos:{self.seed}:{token}:kind")
        return FAULT_KINDS[int(bucket * len(FAULT_KINDS)) % len(FAULT_KINDS)]

    def submit(self, task: CellShard, settings) -> BackendFuture:
        token = unit_token(task, settings)
        kind = None
        if token not in self._injected:
            kind = self.fault_for(token)
        label = task.label
        if kind is not None:
            # At most one fault per unit per run, so retries converge.
            self._injected.add(token)
            self.injections.append((kind, token, label))
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
