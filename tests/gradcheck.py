"""Central finite-difference verification of reverse-mode gradients, shared
by the gradient tests of the engine and of the model."""

from __future__ import annotations

import numpy as np

from prelab import autodiff as ad

REL_FLOOR = 1e-10


def mul(a: ad.Node, b: ad.Node) -> ad.Node:
    """Elementwise product of two same-shape nodes, a test-only op for
    building weighted scalar losses; the package itself never multiplies
    two graph values elementwise."""
    if a.value.shape != b.value.shape:
        raise ValueError(f"mul of shapes {a.value.shape} and {b.value.shape}")
    return ad.record("mul", a.value * b.value, (a, b), lambda g: (g * b.value, g * a.value))


def mean(a: ad.Node) -> ad.Node:
    """Mean of every entry of a node, the scalar loss of several gradient
    tests, as the package's PRe loss takes its mean (its LM loss is the
    fused ad.cross_entropy)."""
    return ad.scale(ad.sum_all(a), 1.0 / a.value.size)


def relative_error(a: float, b: float) -> float:
    """|a-b| / max(|a|, |b|, 1e-10); 0 when both magnitudes are < 1e-10."""
    if abs(a) < REL_FLOOR and abs(b) < REL_FLOOR:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b), REL_FLOOR)


def select_coords(flat_grad: np.ndarray, k: int) -> np.ndarray:
    """Flat indices of the k largest-|gradient| coordinates (all when the
    tensor has at most k entries), deterministic under ties."""
    n = flat_grad.size
    if n <= k:
        return np.arange(n)
    return np.argsort(-np.abs(flat_grad), kind="stable")[:k]


def cast_to_float64(params) -> None:
    """Widen each Parameter's value and grad to float64 in place, so that
    forward and backward run in float64: central differences at a small h
    need float64's precision, and models train in float32."""
    for p in params:
        p.value = p.value.astype(np.float64)
        p.grad = np.zeros_like(p.value)


def finite_diff_check(loss_fn, params, h: float = 1e-5, coords_per_param: int = 64) -> float:
    """Compare backward gradients of a scalar loss against central finite
    differences and return the max relative error over probed coordinates.

    loss_fn rebuilds the graph from the parameters' current values and
    returns the scalar loss node. Per parameter tensor the coordinates with
    the largest |gradient| are probed (all of them when the tensor has at
    most coords_per_param entries): central differences at step h cannot
    resolve coordinates whose derivative is far below |loss|*eps/h, so the
    check concentrates where it has signal.
    """
    for p in params:
        p.grad[...] = 0.0
    loss = loss_fn()
    ad.backward(loss)
    grads = {p.name: p.grad.copy() for p in params}

    def eval_loss() -> float:
        with ad.no_grad():
            return float(loss_fn().value)

    worst = 0.0
    for p in params:
        flat_grad = grads[p.name].ravel()
        flat_val = p.value.reshape(-1)
        for i in select_coords(flat_grad, coords_per_param):
            orig = flat_val[i]
            flat_val[i] = orig + h
            f_plus = eval_loss()
            flat_val[i] = orig - h
            f_minus = eval_loss()
            flat_val[i] = orig
            fd = (f_plus - f_minus) / (2.0 * h)
            err = relative_error(float(flat_grad[i]), fd)
            if err > worst:
                worst = err
    return worst
