"""Rescaling measured times to a reference machine speed.

On the shared 2-vCPU machine this benchmark was written on, the same
deterministic operation takes anywhere from 120 ms to 280 ms of wall
(and CPU) time: the host's load changes the speed of this machine in
phases of 10-30 s.  Raw times of runs a minute apart therefore differ by
far more than any change worth detecting.

A fixed calibration loop (exact rational 8x8 matrix products, the same
kind of interpreter-bound Fraction arithmetic that monadcalc does) is
timed every quarter second between operations.  Each operation's wall
time is multiplied by ``(REFERENCE_S / calibration) ** ELASTICITY``.
The loop slows down more than monadcalc does when the machine slows:
regressing log(operation time) on log(loop time) over 90 s of
interleaved samples gave slopes of 0.5-0.7 for in-process operations,
and runs rescaled with exponents 0.7-0.8 spread least, so the exponent
is 0.7.  The result reads "seconds on a machine where the loop takes
REFERENCE_S".  The program under test never runs the loop, so no change
to it can move the scale.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 0.004   # calibration loop duration at reference speed
EVERY_S = 0.25        # recalibrate when the last sample is this old
REPEATS = 3           # best of this many loops per sample
ELASTICITY = 0.7      # d log(operation time) / d log(loop time), measured

_A = [[Fraction(i * 7 + j - 20, (i + 2 * j) % 5 + 1) for j in range(8)]
      for i in range(8)]


def _loop() -> float:
    start = time.perf_counter()
    M = _A
    for _ in range(2):
        M = [[sum((M[i][l] * _A[l][j] for l in range(8)), Fraction(0))
              for j in range(8)] for i in range(8)]
    return time.perf_counter() - start


def factor() -> float:
    """The scale factor for a time measured now."""
    return (REFERENCE_S / min(_loop() for _ in range(REPEATS))) ** ELASTICITY


class Speed:
    """The current scale factor, refreshed at most every EVERY_S."""

    def __init__(self):
        self._at = float("-inf")
        self.current = 1.0
        self.samples: list = []

    def refresh(self) -> float:
        now = time.perf_counter()
        if now - self._at >= EVERY_S:
            self.current = factor()
            self.samples.append(self.current)
            self._at = time.perf_counter()
        return self.current
