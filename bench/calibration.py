"""Host-speed calibration for the benchmark's timings.

Run-to-run noise on a shared host comes from the host's speed changing
under the process, not from preemption: CPU time tracks wall time, yet the
same campaign runs 10-20% faster or slower from one minute to the next.  A
fixed pure-Python loop timed just before and just after each piece of
measured work sees the same change, so scaling by its time cancels most of
it.  The loop shares no code with the program under test, so a change to
the program cannot move it.

Scaling: a calibration that took `c` seconds against the nominal
`NOMINAL_S` means the host ran at `NOMINAL_S / c` of reference speed, so a
duration is divided by `c / NOMINAL_S` and a rate, work over a calibrated
duration, is multiplied by it.
"""

from __future__ import annotations

import statistics
import time

# Median calibration time on the reference machine (2-core x86-64 VM,
# CPython 3.11); it only fixes the scale in which calibrated values read.
NOMINAL_S = 0.0028
LOOP_ROUNDS = 12_000
CELLS = 64


class _Cell:
    __slots__ = ("key", "total")

    def __init__(self, key: int) -> None:
        self.key = key
        self.total = 0

    def step(self, value: int) -> int:
        self.total += value ^ self.key
        return self.total


def calibration_loop(rounds: int = LOOP_ROUNDS) -> int:
    """Method calls and attribute updates on a few small objects.

    Of the loops tried on the reference machine, this one's time tracked
    the fuzzer's campaigns most closely as the host's speed changed: the
    log-log slope of campaign time against loop time was 0.9-1.1 on all
    three workloads, where a tight arithmetic loop gave 0.6-0.8 and so
    over-corrected.
    """
    cells = [_Cell(i) for i in range(CELLS)]
    total = 0
    for i in range(rounds):
        total += cells[i % CELLS].step(i) & 0xFFFF
    return total


class Calibrator:
    """Times the calibration loop on demand and keeps every sample."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> float:
        start = time.perf_counter()
        calibration_loop()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def spread(self) -> float:
        """Inter-quartile range of all samples as a share of their median."""
        if len(self.samples) < 2:
            return 0.0
        q1, median, q3 = statistics.quantiles(self.samples, n=4)
        return (q3 - q1) / median


def speed_factor(before: float, after: float) -> float:
    """Calibration time around a piece of work, relative to nominal."""
    return (before + after) / 2.0 / NOMINAL_S


def scale_duration(raw_seconds: float, factor: float) -> float:
    return raw_seconds / factor
