"""Machine-speed probe: a fixed kernel that does not call prelab, timed
between measured units (set-ups, train steps, analyze stages).

The hosts this benchmark runs on are shared. While neighbours are busy,
every process runs up to 1.6 times slower, a cache-resident numpy loop as
much as a train step, and such a period can last for minutes. Multiplying
a unit's time by REFERENCE_S / (the mean of the probes just before and just
after it) gives its time at the reference speed: the machine's current
speed cancels out, and the program's own cost stays, since the probe never
runs prelab code.
"""

from __future__ import annotations

import time

import numpy as np

# The probe's time on the reference machine (2-core x86_64, idle). It only
# sets the scale: adjusted times read as seconds on that machine.
REFERENCE_S = 0.001


class SpeedProbe:
    """Call it to time the kernel; every result is kept in `samples`."""

    def __init__(self):
        rng = np.random.default_rng(0)
        # an attention-sized block: a GEMM, a softmax, and interpreter work
        self.x = rng.standard_normal((8, 80, 64))
        self.w = rng.standard_normal((64, 192))
        self.samples = []
        self()  # the first call in a process runs cold; keep it out
        self.samples.clear()

    def __call__(self) -> float:
        """The fastest of three runs of the kernel: noise only adds time."""
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            h = self.x @ self.w
            e = np.exp(h - h.max(axis=-1, keepdims=True))
            (e / e.sum(axis=-1, keepdims=True)).sum()
            acc = 0
            for i in range(3000):
                acc += i
            best = min(best, time.perf_counter() - t0)
        self.samples.append(best)
        return best


def at_reference_speed(times, probes) -> list:
    """Each time scaled to the reference speed. probes[i] was taken just
    before times[i] and probes[i + 1] just after it."""
    return [t * REFERENCE_S * 2.0 / (probes[i] + probes[i + 1]) for i, t in enumerate(times)]
