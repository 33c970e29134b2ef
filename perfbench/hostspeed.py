"""Host-speed probe: scales measured times to a fixed reference speed.

The benchmark's reference host is two shared vCPUs whose speed drops by
up to 40% for one to several seconds at a time while other tenants load
the machine, in CPU time as much as in wall time.  How many of those
dips fall into one run swings a run's raw wall time by 20-40%, more
than any change worth measuring.

A probe process of its own (this file, run as a script) times a fixed
pure-Python loop by its CPU time every ``PERIOD_S`` for the whole
invocation, so it measures how fast the CPU runs, not how the scheduler
shares it, and no thread of the driver disturbs it.  A measured
interval is then reported as its length times its mean speed relative
to ``REFERENCE_COST_S`` (see ``HostSpeed.factor``): the seconds it
would have taken on a host where one probe costs exactly that.  The
reference is a constant, about the fastest decile of probe costs on the
reference host; that decile ranged 0.62-0.70 ms between invocations,
so a reference taken from each invocation's own probes moved scaled
times by as much.  A typical invocation there reports a slowdown of
1.5-1.7 against it.  The probe costs about 3% of one core.  Over ten same-seed
plan runs on the reference host, raw walls spread 0.30 (table3-serial)
and 0.26 (seqcov-workers2) as IQR/median, scaled walls 0.05 and 0.08.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import threading
import time

PERIOD_S = 0.02
WINDOW_S = 0.5
REFERENCE_COST_S = 0.00065


def _probe_loop() -> None:
    counts: dict[int, int] = {}
    for i in range(6000):
        key = i & 1023
        counts[key] = counts.get(key, 0) + i


def probe_forever() -> None:
    """Print ``<monotonic start> <CPU seconds>`` per probe until killed."""
    while True:
        started = time.monotonic()
        cpu = time.thread_time()
        _probe_loop()
        print(started, time.thread_time() - cpu, flush=True)
        time.sleep(PERIOD_S)


class HostSpeed:
    """Probe samples over one invocation; a context manager runs the probe."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.costs: list[float] = []
        self._proc: subprocess.Popen | None = None
        self._reader: threading.Thread | None = None

    def _read(self) -> None:
        for line in self._proc.stdout:
            started, cost = map(float, line.split())
            self.costs.append(cost)
            self.starts.append(started)

    def __enter__(self) -> "HostSpeed":
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdout=subprocess.PIPE, text=True
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        return self

    def __exit__(self, *exc) -> None:
        self._proc.kill()
        self._proc.wait()
        self._reader.join()
        self._proc.stdout.close()
        if exc[0] is None and not self.costs:
            raise RuntimeError("the host-speed probe reported nothing")

    def _window_cost(self, start: float, end: float) -> float:
        """The median probe in ``[start, end)``, or the nearest one."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        if hi > lo:
            return statistics.median(self.costs[lo:hi])
        middle = (start + end) / 2
        i = min(lo, len(self.starts) - 1)
        if i > 0 and middle - self.starts[i - 1] < self.starts[i] - middle:
            i -= 1
        return self.costs[i]

    def factor(self, start: float, end: float) -> float:
        """Mean speed over ``[start, end]`` as a share of the reference.

        The interval is cut into windows of ``WINDOW_S``, and each
        window's speed is that of its median probe: a probe that shares
        a core with the measured program's own processes now and then
        runs slow on its own, but the host's slow spells last seconds,
        longer than a window, so most probes in one show them.
        """
        windows = max(1, round((end - start) / WINDOW_S))
        step = (end - start) / windows
        return statistics.fmean(
            REFERENCE_COST_S / self._window_cost(start + i * step, start + (i + 1) * step)
            for i in range(windows)
        )

    def seconds(self, start: float, end: float) -> float:
        """``end - start`` scaled to the reference speed."""
        return (end - start) * self.factor(start, end)

    def slowdown(self) -> float:
        """How much slower than the reference the whole invocation ran."""
        return 1.0 / self.factor(self.starts[0], self.starts[-1])


if __name__ == "__main__":
    probe_forever()
