import math

import numpy as np

from prelab.autodiff import Parameter
from prelab.optim import AdamW, WarmupCosine, grad_norm


class Constant:
    """A schedule that holds the learning rate at a fixed value."""

    def __init__(self, value):
        self.value = value

    def lr(self, t):
        return self.value


def test_zero_grad_no_decay_is_fixed_point():
    p = Parameter("w", np.array([1.0, -2.0]))
    opt = AdamW([p], Constant(0.1))
    before = p.value.copy()
    opt.step()
    assert np.array_equal(p.value, before)


def test_lr_zero_leaves_parameters_bitwise():
    p = Parameter("w", np.array([0.123456789, -9.87654321]))
    p.grad[...] = [1.0, -2.0]
    before = p.value.copy()
    AdamW([p], Constant(0.0)).step()
    assert np.array_equal(p.value, before)


def test_five_steps_match_hand_stepped_reference():
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    p = Parameter("w", np.array([1.5]))
    opt = AdamW([p], Constant(lr))

    w_ref = 1.5
    m = v = 0.0
    for t in range(1, 6):
        g = 2.0 * p.value[0]  # loss w^2, evaluated at the engine's state
        p.grad[...] = g
        opt.step()
        g_ref = 2.0 * w_ref
        m = b1 * m + (1 - b1) * g_ref
        v = b2 * v + (1 - b2) * g_ref * g_ref
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        w_ref = w_ref - lr * (mhat / (math.sqrt(vhat) + eps))
        assert abs(p.value[0] - w_ref) < 1e-12, t


def test_bias_correction_first_step_size():
    # with constant gradient g, the first bias-corrected step is lr * g/(|g|+eps)
    p = Parameter("w", np.array([0.0]))
    p.grad[...] = [3.0]
    AdamW([p], Constant(0.1)).step()
    assert abs(p.value[0] + 0.1 * (3.0 / (3.0 + 1e-8))) < 1e-12


def test_warmup_then_cosine_to_zero():
    sched = WarmupCosine(base_lr=1.0, total_steps=100)
    assert sched.warmup_steps == 3
    assert sched.lr(1) == 1.0 / 3
    assert sched.lr(3) == 1.0
    assert sched.lr(100) < 1e-15
    mid = sched.lr(51)
    assert 0.4 < mid < 0.6
    lrs = [sched.lr(t) for t in range(3, 101)]
    assert all(a >= b for a, b in zip(lrs, lrs[1:]))  # monotone decay


def test_schedule_is_used_by_optimizer():
    p = Parameter("w", np.array([1.0]))
    opt = AdamW([p], WarmupCosine(1.0, 100))
    p.grad[...] = [1.0]
    assert [opt.step() for _ in range(4)] == [1.0 / 3, 2.0 / 3, 1.0, WarmupCosine(1.0, 100).lr(4)]


def test_grad_norm():
    a = Parameter("a", np.zeros(2))
    b = Parameter("b", np.zeros(2))
    a.grad[...] = [3.0, 0.0]
    b.grad[...] = [0.0, 4.0]
    assert abs(grad_norm(AdamW([a, b], Constant(0.1)).flat_grad) - 5.0) < 1e-12


def float32_params(seed):
    rng = np.random.default_rng(seed)
    return [Parameter(name, rng.normal(size=shape).astype(np.float32))
            for name, shape in (("w", (3, 5)), ("b", (5,)), ("big", (AdamW.CHUNK + 7,)))]


def test_parameters_are_views_of_the_flat_buffers():
    params = float32_params(0)
    params[1].grad[...] = 2.0  # accumulated before the optimizer adopts it
    values = [p.value.copy() for p in params]
    opt = AdamW(params, Constant(0.1))
    for p, value in zip(params, values):
        assert np.array_equal(p.value, value) and p.value.dtype == np.float32
        for array, flat in ((p.value, opt.flat_value), (p.grad, opt.flat_grad)):
            assert np.shares_memory(array, flat), p.name
    for moment in (opt.flat_m, opt.flat_v):
        assert moment.shape == opt.flat_value.shape and moment.dtype == np.float32
        assert not moment.any()
    assert np.all(params[1].grad == 2.0) and opt.flat_grad.sum() == 10.0
    opt.zero_grad()
    assert not any(p.grad.any() for p in params)


def test_flat_step_is_bitwise_the_per_tensor_update():
    # the per-tensor loop the flat step replaced, as the reference
    params, ref = float32_params(1), float32_params(1)
    opt = AdamW(params, WarmupCosine(0.01, 10))
    m = {p.name: np.zeros_like(p.value) for p in ref}
    v = {p.name: np.zeros_like(p.value) for p in ref}
    rng = np.random.default_rng(2)
    for t in range(1, 6):
        for p, r in zip(params, ref):
            p.grad[...] = r.grad[...] = rng.normal(size=p.value.shape).astype(np.float32)
        lr_t = opt.step()
        bc1, bc2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
        for r in ref:
            g, mr, vr = r.grad, m[r.name], v[r.name]
            mr *= 0.9
            mr += (1.0 - 0.9) * g
            vr *= 0.999
            vr += (1.0 - 0.999) * (g * g)
            r.value -= lr_t * ((mr / bc1) / (np.sqrt(vr / bc2) + 1e-8))
        for p, r in zip(params, ref):
            assert p.value.tobytes() == r.value.tobytes(), (t, p.name)
        # the moments are the reference's, concatenated in parameter order
        assert opt.flat_m.tobytes() == np.concatenate([m[r.name].ravel() for r in ref]).tobytes()
        assert opt.flat_v.tobytes() == np.concatenate([v[r.name].ravel() for r in ref]).tobytes()
