"""A fixed computation that measures how fast the machine runs right now.

The CPU this benchmark shares with other tenants switches, within seconds,
between a quiet state and a contended one in which pure-Python code runs up
to 1.8 times slower; every wall time moves with it.  The probe, run next to
the operations of a workload, tells the two states apart.  Two estimators
use it:

- calibrated seconds: an operation's time scaled by the probes around and
  inside it to a machine on which the probe takes its nominal time.  This
  is exact for work that slows down as the probe does: exact rational
  arithmetic (the 2k-gon ladder) and whole CLI processes (measured against
  a probe child);
- quiet seconds: the raw time of an operation during which every probe
  read the quiet state.  This suits short operations of any kind of work,
  such as a call into numpy or ``linprog``, which slows down less than the
  probe does.

The probe is part of the benchmark, never of the program, so a change to
the program moves these seconds as it moves wall seconds.  The raw wall
seconds are printed beside them.

In-process, a timer signal runs the probe every ``INTERVAL_S`` of wall time,
inside long operations too; the probe's own time is taken out of the
operation it interrupted.  ``python3 perfbench/probe.py`` runs the probe as
a child process, which also pays interpreter start-up; the CLI workload
runs one after each invocation and calibrates with those.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
from fractions import Fraction
from time import perf_counter

#: Nominal seconds of one in-process probe.
PROBE_S = 0.002
#: Wall time between two in-process probes while sampling.
INTERVAL_S = 0.05
#: Runs of ``work`` in the child probe.
CHILD_REPS = 30
#: Nominal wall seconds of the child probe, start-up included.
CHILD_PROBE_S = 0.12
#: An operation ran on a quiet machine when every probe inside and next to
#: it took at most this multiple of the run's fastest probe.
QUIET_RATIO = 1.3


def work() -> Fraction:
    """Exact rational arithmetic, like the certifier's own inner loops."""
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    return acc


class Calibration:
    """Probe samples taken over a run, and operation times rescaled by the
    samples taken inside and just around each operation."""

    def __init__(self, nominal: float) -> None:
        self.nominal = nominal
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.values: list[float] = []
        self.fastest = float("inf")
        self._probing = False

    def add(self, start: float, end: float, value: float) -> None:
        """Record a probe that ran from ``start`` to ``end`` and measured
        ``value`` seconds."""
        self.starts.append(start)
        self.ends.append(end)
        self.values.append(value)
        self.fastest = min(self.fastest, value)

    def sample(self) -> None:
        """Probe in this process now."""
        if self._probing:
            return
        self._probing = True
        try:
            start = perf_counter()
            work()
            end = perf_counter()
            self.add(start, end, end - start)
        finally:
            self._probing = False

    @contextlib.contextmanager
    def sampling(self):
        """Probe now, every ``INTERVAL_S`` from a timer signal, and at exit."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def _around(self, start: float, end: float) -> tuple[float, list[float]]:
        """The time of an operation that ran from ``start`` to ``end``,
        minus the probes that interrupted it, and the values of those probes
        and of the nearest one on either side."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_right(self.ends, end)
        inside = range(first, last)
        near = [i for i in (first - 1, last) if 0 <= i < len(self.values)] + list(inside)
        busy = (end - start) - sum(self.ends[i] - self.starts[i] for i in inside)
        return busy, [self.values[i] for i in near]

    def seconds(self, start: float, end: float) -> float:
        """Calibrated seconds of an operation: its time scaled by the
        probes around it.  Right for work the probe resembles."""
        busy, near = self._around(start, end)
        return busy * self.nominal / statistics.fmean(near)

    def quiet_seconds(self, start: float, end: float) -> float | None:
        """Raw seconds of an operation that ran while the machine was quiet,
        else ``None``.  Right for short operations whatever their work."""
        busy, near = self._around(start, end)
        return busy if max(near) <= QUIET_RATIO * self.fastest else None


if __name__ == "__main__":
    for _ in range(CHILD_REPS):
        work()
