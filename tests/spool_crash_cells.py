"""Cells for spool worker-crash tests, importable by worker subprocesses.

Lives in ``tests/`` as a plain top-level module (pytest puts this
directory on ``sys.path``), so a task pickled by the test process
unpickles inside a detached ``python -m repro worker`` subprocess as
long as that worker's ``PYTHONPATH`` includes this directory — the
import re-runs the ``register_cell_runner`` decorator there.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from repro.runtime import CellSpec, register_cell_runner


@dataclass(frozen=True)
class SlowCell(CellSpec):
    """Announces each execution start via a marker file, then sleeps.

    The marker lets a test know the moment a claimant began executing
    (so it can SIGKILL that claimant mid-task), and counting markers
    afterwards shows exactly how many executions the task consumed.
    """

    marker_dir: str = ""
    sleep_seconds: float = 1.0


@register_cell_runner(SlowCell)
def _run_slow(cell, settings, rep_range):
    root = Path(cell.marker_dir)
    root.mkdir(parents=True, exist_ok=True)
    start = 1
    while True:
        try:
            (root / f"start-{start:03d}").touch(exist_ok=False)
            break
        except FileExistsError:
            start += 1
    time.sleep(cell.sleep_seconds)
    return ("slow-done", cell.key, settings.repetitions)


def starts_recorded(marker_dir) -> int:
    return len(list(Path(marker_dir).glob("start-*")))
