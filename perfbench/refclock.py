"""Wall time scaled to a fixed reference speed.

Shared hosts change the speed of one core by a factor of two within
seconds (other tenants, frequency scaling), which swamps the differences
the benchmark must resolve.  A short fixed kernel of pure-Python work,
written here and never touched by padicspec, is timed between problems;
each problem's wall time is multiplied by NOMINAL_S over the kernel's
duration around it.  The result reads as the time the problem would take
on a host where the kernel takes exactly NOMINAL_S.  Raw wall times are
kept beside the scaled ones in the run record.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from time import perf_counter

from . import zp

NOMINAL_S = 0.0015  # about the kernel's duration on an idle 2-vCPU Xeon VM
SAMPLE_EVERY_S = 0.05
_Q = 3**8
_MATRIX = [[(7 * i + 3 * j + 1) % _Q for j in range(10)] for i in range(10)]


@dataclass(frozen=True)
class _Unit:
    """A small immutable scalar, so the kernel also allocates objects."""

    v: int
    u: int

    def __mul__(self, other):
        return _Unit(self.v + other.v, self.u * other.u % _Q)

    def __add__(self, other):
        return _Unit(min(self.v, other.v), (self.u + other.u) % _Q)


_ROW = [_Unit(i % 3, 3 * i + 1) for i in range(10)]


def kernel():
    """Residue matrix products and small-object arithmetic, about 1.5 ms in all."""
    x = _MATRIX
    for _ in range(5):
        x = zp.matmul(x, _MATRIX, _Q)
    acc = _Unit(0, 1)
    for _ in range(6):
        for a in _ROW:
            for b in _ROW:
                acc = acc + a * b
    return x, acc


class ReferenceClock:
    """Kernel samples taken between measured intervals, by end time."""

    def __init__(self):
        self.ends = []
        self.durations = []

    def sample(self):
        start = perf_counter()
        kernel()
        end = perf_counter()
        self.ends.append(end)
        self.durations.append(end - start)

    def maybe_sample(self):
        if not self.ends or perf_counter() - self.ends[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the mean kernel time just before start and just after end."""
        before = bisect.bisect_right(self.ends, start) - 1
        after = min(bisect.bisect_left(self.ends, end), len(self.ends) - 1)
        local = (self.durations[max(before, 0)] + self.durations[after]) / 2
        return NOMINAL_S / local
