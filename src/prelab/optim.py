"""Adam with bias correction and the fixed LLaVA-1.5 recipe's schedule:
linear warmup over the first WARMUP_FRAC of steps, then cosine decay to
zero. There is no weight decay."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WARMUP_FRAC = 0.03
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class WarmupCosine:
    """lr(t) for 1-based step t: linear ramp to base_lr over the warmup
    steps, then cosine decay to 0 at total_steps."""

    base_lr: float
    total_steps: int

    def __post_init__(self):
        self.warmup_steps = max(1, int(math.ceil(WARMUP_FRAC * self.total_steps)))

    def lr(self, t: int) -> float:
        if t <= self.warmup_steps:
            return self.base_lr * t / self.warmup_steps
        if self.total_steps <= self.warmup_steps:
            return self.base_lr
        progress = (t - self.warmup_steps) / (self.total_steps - self.warmup_steps)
        return 0.5 * self.base_lr * (1.0 + math.cos(math.pi * min(progress, 1.0)))


class AdamW:
    """Adam with bias correction, stepped at schedule.lr(t); no weight decay.

    m <- b1 m + (1-b1) g;  v <- b2 v + (1-b2) g^2
    p <- p - lr_t * [ mhat / (sqrt(vhat) + eps) ]
    with b1, b2 and eps the constants BETA1, BETA2 and ADAM_EPS.
    """

    def __init__(self, params, schedule: WarmupCosine):
        self.params = list(params)
        self.schedule = schedule
        self.step_count = 0
        self.m = {p.name: np.zeros_like(p.value) for p in self.params}
        self.v = {p.name: np.zeros_like(p.value) for p in self.params}

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> float:
        """One update from the accumulated gradients; returns the lr used."""
        self.step_count += 1
        lr_t = self.schedule.lr(self.step_count)
        b1, b2 = BETA1, BETA2
        bc1 = 1.0 - b1 ** self.step_count
        bc2 = 1.0 - b2 ** self.step_count
        for p in self.params:
            g = p.grad
            m = self.m[p.name]
            v = self.v[p.name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            if lr_t == 0.0:
                continue  # moments advance, parameters stay bitwise put
            mhat = m / bc1
            vhat = v / bc2
            p.value -= lr_t * (mhat / (np.sqrt(vhat) + ADAM_EPS))
        return lr_t


def grad_norm(params) -> float:
    """Global L2 norm over all parameter gradients."""
    total = 0.0
    for p in params:
        total += float(np.sum(p.grad * p.grad))
    return math.sqrt(total)
