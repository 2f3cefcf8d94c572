"""Host-speed reference: a fixed kernel timed between workload items.

On a shared host the speed one thread sees moves by 15-30 % over tens of
seconds to minutes, slowly enough that no run of a few seconds averages it
out.  So the worker runs a fixed reference kernel at checkpoints (the end
of each workload item, and where a workload asks for it, the return of
some pwlab function inside an item) and scales the work between two
checkpoints by how fast that kernel ran at both.  Work that took 2.0 s
while the kernel ran 20 % slower than its reference time counts as
2.0 / 1.2 s.

The kernel does not touch pwlab, so a change to the lab cannot move it.
Its mix follows the lab's own: interpreter loops, many numpy calls on
small arrays, and a small matrix product.
"""

from __future__ import annotations

import time

import numpy as np

# Median time of one reference_slice() on the reference host, a 2-vCPU
# Intel Xeon at 2.1 GHz with Python 3.11 and numpy 2.4, one BLAS thread.
# It only fixes the unit: scaled times read as seconds on that host.
SLICE_REF_S = 0.0102
# Each gap lasts this share of the work since the previous checkpoint, so
# the kernel samples the host in step with the work.
GAP_SHARE = 0.25
# The first gap, before any timed work, and the gap after set-up.
FIRST_GAP_S = 1.0

_rng = np.random.default_rng(20240501)
_MATRIX = _rng.standard_normal((96, 96))
_VECTOR = _rng.standard_normal(300)
_POINTS = _rng.standard_normal((40, 3))


def reference_slice() -> float:
    """About 10 ms of fixed work; returns a checksum so nothing is skipped."""
    acc: dict[int, float] = {}
    for i in range(12000):
        acc[i & 63] = acc.get(i & 63, 0.0) + i * 0.5
    total = sum(acc.values())
    for _ in range(600):
        x = _VECTOR * 1.0001 + 0.5
        total += float(np.max(np.abs(x - _VECTOR)))
        y = _POINTS @ _POINTS[0]
        total += float(y[np.argmax(y)])
    for _ in range(24):
        total += float((_MATRIX @ _MATRIX)[0, 0])
    return total


def gap(seconds: float) -> tuple[float, int]:
    """Run whole slices for at least `seconds` (at least one slice);
    returns (time taken, slices run)."""
    t0 = time.perf_counter()
    end = t0 + seconds
    slices = 0
    while True:
        reference_slice()
        slices += 1
        now = time.perf_counter()
        if now >= end:
            return now - t0, slices


def slowdown(*gaps: tuple[float, int]) -> float:
    """How much slower than the reference host the kernel ran over the
    given gaps: above 1 when slower."""
    seconds = sum(g[0] for g in gaps)
    slices = sum(g[1] for g in gaps)
    return seconds / (slices * SLICE_REF_S)


class Scaler:
    """Times the work between checkpoints, with a gap at each, and sums it
    both as measured and scaled by the slowdown over the gaps on either
    side.  Gap time is not counted."""

    def __init__(self):
        self.before = gap(FIRST_GAP_S)
        self.wall = self.scaled = 0.0
        self.mark = time.perf_counter()

    def start(self) -> None:
        """Work counts from here, not from the last checkpoint."""
        self.mark = time.perf_counter()

    def checkpoint(self) -> None:
        took = time.perf_counter() - self.mark
        after = gap(GAP_SHARE * took)
        self.wall += took
        self.scaled += took / slowdown(self.before, after)
        self.before = after
        self.mark = time.perf_counter()

    def take(self) -> tuple[float, float]:
        """(measured, scaled) seconds since the last take."""
        out = (self.wall, self.scaled)
        self.wall = self.scaled = 0.0
        return out
