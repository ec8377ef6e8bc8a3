"""Speed-corrected timing for a machine whose speed drifts while it runs.

On a shared two-core virtual machine the same work can take 60% longer for tens
of seconds at a time, and process CPU time drifts with wall time, so raw
timings of whole runs scatter far beyond any useful regression bound. The
benchmark therefore times a fixed reference computation (stdlib only, no
hypident code, so no change to the program can move it) every
``PROBE_INTERVAL_S`` between workload calls, and rescales each stretch of
work between two probes by ``REFERENCE_S / (mean of the two probe times)``.
A corrected time reads as the time the work would have taken at the
reference speed, the speed at which one probe takes ``REFERENCE_S``.
Both raw and corrected figures are reported.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

__all__ = ["SpeedClock", "probe"]

# one probe at the fast speed of a shared two-core x86 virtual machine, Python 3.11
REFERENCE_S = 0.44e-3
PROBE_INTERVAL_S = 0.05
PROBE_REPEATS = 2

_A = [Fraction(k * k + 1, 2 * k + 3) for k in range(14)]
_B = [Fraction(3 * k + 1, k * k + 7) for k in range(14)]


def _reference() -> tuple[Fraction, float]:
    """A small exact Cauchy product plus a float recurrence: the program's two kinds of work."""
    acc = Fraction(0)
    for k in range(len(_A)):
        for t in range(k + 1):
            acc += _A[t] * _B[k - t]
    x = 0.0
    for k in range(1500):
        x += (0.5 * k + 1.0) / (k + 2.0)
    return acc, x


def probe() -> float:
    """Fastest of a few timed runs of the reference computation, in seconds."""
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        start = perf_counter()
        _reference()
        best = min(best, perf_counter() - start)
    return best


class SpeedClock:
    """Splits a run into stretches of work bracketed by speed probes.

    Call :meth:`tick` before each timed call (it probes once the current
    stretch is ``PROBE_INTERVAL_S`` long) and :meth:`finish` after the last.
    :meth:`stretch` names the stretch a call ran in, for :meth:`factor`.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []
        self.stretches: list[float] = []
        self._start = 0.0
        self._probe()

    def _probe(self) -> None:
        if self.probes:
            self.stretches.append(perf_counter() - self._start)
        self.probes.append(probe())
        self._start = perf_counter()

    def tick(self) -> None:
        if perf_counter() - self._start >= PROBE_INTERVAL_S:
            self._probe()

    def finish(self) -> None:
        self._probe()

    def stretch(self) -> int:
        return len(self.stretches)

    def factor(self, stretch: int) -> float:
        """Raw-to-corrected time factor of one finished stretch."""
        return REFERENCE_S / ((self.probes[stretch] + self.probes[stretch + 1]) / 2)

    def raw_s(self) -> float:
        return sum(self.stretches)

    def corrected_s(self) -> float:
        return sum(d * self.factor(k) for k, d in enumerate(self.stretches))
