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

    It adopts its parameters' storage: their values and gradients are
    copied into flat_value and flat_grad, in the order given, and p.value
    and p.grad become views of those. The moments flat_m and flat_v follow
    the same order. step() passes over the flat buffers CHUNK values at a
    time; zero_grad() is one fill.
    """

    CHUNK = 1 << 15  # values per pass, so that no temporary is full size

    def __init__(self, params, schedule: WarmupCosine):
        params = list(params)
        self.schedule = schedule
        self.step_count = 0
        self.flat_value = np.concatenate([p.value.ravel() for p in params])
        self.flat_grad = np.concatenate([p.grad.ravel() for p in params])
        self.flat_m, self.flat_v = np.zeros_like(self.flat_value), np.zeros_like(self.flat_value)
        offset = 0
        for p in params:
            span, shape = slice(offset, offset + p.value.size), p.value.shape
            p.value = self.flat_value[span].reshape(shape)
            p.grad = self.flat_grad[span].reshape(shape)
            offset = span.stop

    def zero_grad(self) -> None:
        self.flat_grad.fill(0.0)

    def step(self) -> float:
        """One update from the accumulated gradients; returns the lr used."""
        self.step_count += 1
        lr_t = self.schedule.lr(self.step_count)
        b1, b2 = BETA1, BETA2
        bc1 = 1.0 - b1 ** self.step_count
        bc2 = 1.0 - b2 ** self.step_count
        for lo in range(0, self.flat_value.size, self.CHUNK):
            w, g, m, v = (a[lo:lo + self.CHUNK] for a in
                          (self.flat_value, self.flat_grad, self.flat_m, self.flat_v))
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            if lr_t == 0.0:
                continue  # moments advance, parameters stay bitwise put
            mhat = m / bc1
            vhat = v / bc2
            w -= lr_t * (mhat / (np.sqrt(vhat) + ADAM_EPS))
        return lr_t


def grad_norm(grad: np.ndarray) -> float:
    """Global L2 norm of a flat gradient (AdamW.flat_grad): one reduction,
    its squares summed in float64."""
    return math.sqrt(np.einsum("i,i->", grad, grad, dtype=np.float64))
