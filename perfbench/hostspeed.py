"""Host speed, sampled through a run, to take other tenants' load out of timings.

On a shared VM the same code runs up to 2x slower while other tenants load
the host, in stretches that last from a second to minutes; a stretch can
cover a whole run, so no choice among a run's own repeats removes it.  A
Sampler therefore runs a small fixed *reference routine* (the benchmark's
own code, not evote's) every INTERVAL seconds from a SIGALRM handler in the
main thread, and records how long it took.  The timings the benchmark
reports are *reference seconds*:

    wall seconds of the step, less the sampler's own time inside it,
    x NOMINAL / (mean time of the reference routine around the step)

that is, how long the step takes when the host runs the reference routine
in its NOMINAL time.  A change to evote moves a step's wall time and
leaves the reference routine alone, so it moves reference seconds in the
same proportion.

The routine matches the kind of work the workload spends its time on,
because contention slows interpreted Python more than big-integer
arithmetic: "interp" builds small objects, fills a dict and hashes short
byte strings; "bigint" computes a modular exponentiation with 3072-bit
numbers.
"""

from __future__ import annotations

import bisect
import hashlib
import signal
from time import perf_counter

INTERVAL = 0.1  # seconds between samples
WINDOW = 0.3  # a step is scaled by the samples from WINDOW s before it to its end


class _Item:
    __slots__ = ("key", "tag")

    def __init__(self, key, tag):
        self.key = key
        self.tag = tag


def _interp() -> None:
    table = {}
    for i in range(500):
        item = _Item(i, (i * 7919) % 23)
        table[item.key, item.tag] = hashlib.sha256(
            item.key.to_bytes(8, "big") + b"|" + str(item.tag).encode()
        ).digest()
    sorted(table.values())


# A 3072-bit modulus and base, as in the prod3072 group, with a 40-bit
# exponent, so that one sample is short.
_MODULUS = (1 << 3071) + 1155
_BASE = _MODULUS // 3
_EXPONENT = (1 << 39) + 0x4F6CDD1D


def _bigint() -> None:
    pow(_BASE, _EXPONENT, _MODULUS)


# routine, and its time in seconds on a quiet 2-vCPU Xeon VM (CPython 3.11.7)
ROUTINES = {
    "interp": (_interp, 0.95e-3),
    "bigint": (_bigint, 1.9e-3),
}


class Sampler:
    """While entered, samples the host's speed; stamps and converts timings.

    A stamp is (perf_counter, seconds the sampler had used so far)."""

    def __init__(self, routine: str):
        self.routine = routine
        self._routine, self._nominal = ROUTINES[routine]
        self.times: list[float] = []  # midpoint of each sample
        self.samples: list[float] = []  # the routine's wall seconds
        self.busy = 0.0  # seconds spent in the handler

    def _sample(self, *_signal) -> None:
        start = perf_counter()
        self._routine()
        end = perf_counter()
        self.times.append((start + end) / 2)
        self.samples.append(end - start)
        self.busy += perf_counter() - start

    def __enter__(self) -> "Sampler":
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def stamp(self) -> tuple[float, float]:
        while True:
            busy = self.busy
            now = perf_counter()
            if busy == self.busy:  # no sample ran between the two reads
                return now, busy

    def seconds(self, start, end=None) -> float:
        """Reference seconds from stamp `start` to stamp `end` (default: now)."""
        if end is None:
            end = self.stamp()
        wall = (end[0] - start[0]) - (end[1] - start[1])
        lo = bisect.bisect_left(self.times, start[0] - WINDOW)
        hi = bisect.bisect_right(self.times, end[0])
        around = self.samples[lo:hi] or self.samples[max(0, lo - 1):lo]
        return wall * self._nominal * len(around) / sum(around)

    def slowdown(self) -> float:
        """Median sample over nominal: how slow the host ran, for the record."""
        ordered = sorted(self.samples)
        return ordered[len(ordered) // 2] / self._nominal
