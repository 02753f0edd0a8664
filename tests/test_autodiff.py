"""Engine-level tests: every primitive's gradient against central finite
differences, stop-gradient semantics, and backward bookkeeping."""

import numpy as np
import pytest

from prelab import autodiff as ad
from prelab.autodiff import Node, Parameter, backward, no_grad, stop_gradient
from prelab.numerics import ShapeError

RNG = np.random.default_rng(20)


def numeric_grad(f, x, h=1e-6):
    """Dense central differences of scalar f at array x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def params_in_graph(loss):
    """Parameters reachable from loss along parent links. stop_gradient cuts
    those links, so a parameter behind one never appears here."""
    out, seen, stack = set(), set(), [loss]
    while stack:
        node = stack.pop()
        if node.id in seen:
            continue
        seen.add(node.id)
        if node.param is not None:
            out.add(node.param)
        stack.extend(node.parents)
    return out


def attention_reference(qkv, heads):
    """Causal attention in plain numpy, one batch entry and head at a time."""
    b, t, d3 = qkv.shape
    d = d3 // 3
    dh = d // heads
    out = np.zeros((b, t, d))
    for i in range(b):
        for h in range(heads):
            cols = slice(h * dh, (h + 1) * dh)
            q, k, v = (qkv[i, :, j * d:(j + 1) * d][:, cols] for j in range(3))
            scores = q @ k.T / np.sqrt(dh)
            scores[np.triu_indices(t, 1)] = -np.inf
            weights = np.exp(scores - scores.max(axis=1, keepdims=True))
            out[i, :, cols] = (weights / weights.sum(axis=1, keepdims=True)) @ v
    return out


def check_grad(make_loss, x_val, h=1e-6, tol=1e-4):
    """Backward gradient of make_loss(param) vs finite differences."""
    p = Parameter("x", x_val.copy())
    loss = make_loss(p.node())
    backward(loss)
    analytic = p.grad.copy()

    def f():
        with no_grad():
            return float(make_loss(p.node()).value)

    numeric = numeric_grad(f, p.value, h)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
    rel = np.max(np.abs(analytic - numeric) / scale)
    assert rel < tol, f"gradient mismatch {rel:.3g}"


class TestPrimitiveGradients:
    def test_add_broadcast(self):
        b = ad.constant(RNG.normal(size=(3,)))
        check_grad(lambda x: ad.sum_all(ad.mul(ad.add(x, b), ad.add(x, b))),
                   RNG.normal(size=(4, 3)))

    def test_mul(self):
        other = ad.constant(RNG.normal(size=(4, 3)))
        check_grad(lambda x: ad.sum_all(ad.mul(x, other)), RNG.normal(size=(4, 3)))

    def test_scale(self):
        check_grad(lambda x: ad.sum_all(ad.scale(x, -2.5)), RNG.normal(size=(5,)))

    def test_linear_2d(self):
        w = ad.constant(RNG.normal(size=(3, 4)))
        b = ad.constant(RNG.normal(size=(4,)))
        check_grad(lambda x: ad.sum_all(ad.mul(ad.linear(x, w, b), ad.linear(x, w, b))),
                   RNG.normal(size=(2, 3)))

    def test_linear_3d(self):
        w = RNG.normal(size=(3, 2))
        check_grad(lambda x: ad.sum_all(ad.linear(x, ad.constant(w))),
                   RNG.normal(size=(2, 4, 3)))

    def test_linear_weight_side(self):
        a = ad.constant(RNG.normal(size=(2, 5, 3)))
        check_grad(lambda x: ad.mean_all(ad.mul(ad.linear(a, x), ad.linear(a, x))),
                   RNG.normal(size=(3, 4)))

    def test_linear_bias_side(self):
        a = ad.constant(RNG.normal(size=(2, 5, 3)))
        w = ad.constant(RNG.normal(size=(3, 4)))
        check_grad(lambda b: ad.mean_all(ad.mul(ad.linear(a, w, b), ad.linear(a, w, b))),
                   RNG.normal(size=(4,)))

    def test_linear_is_matmul_plus_bias(self):
        x, w, b = RNG.normal(size=(2, 5, 3)), RNG.normal(size=(3, 4)), RNG.normal(size=(4,))
        out = ad.linear(ad.constant(x), ad.constant(w), ad.constant(b)).value
        assert out.shape == (2, 5, 4)
        assert np.allclose(out, np.matmul(x, w) + b, rtol=1e-14, atol=0)

    def test_linear_shape_errors(self):
        x = ad.constant(np.ones((2, 3)))
        with pytest.raises(ShapeError):
            ad.linear(x, ad.constant(np.ones((4, 2))))
        with pytest.raises(ShapeError):
            ad.linear(x, ad.constant(np.ones((3, 2))), ad.constant(np.ones(3)))

    def test_reshape(self):
        w = ad.constant(RNG.normal(size=(6, 2)))
        check_grad(lambda x: ad.sum_all(ad.mul(ad.reshape(x, (6, 2)), w)),
                   RNG.normal(size=(3, 2, 2)))

    def test_concat_narrow(self):
        other = ad.constant(RNG.normal(size=(2, 3)))

        def loss(x):
            joined = ad.concat([x, other], axis=1)
            piece = ad.narrow(joined, 1, 1, 3)
            return ad.sum_all(ad.mul(piece, piece))

        check_grad(loss, RNG.normal(size=(2, 2)))

    def test_softmax_uniform_on_zeros(self):
        # q = 0 makes every score 0: row i weights v_0..v_i uniformly
        qkv = RNG.normal(size=(1, 4, 6))
        qkv[..., :2] = 0.0
        out = ad.causal_attention(ad.constant(qkv), 1).value
        v = qkv[0, :, 4:]
        means = np.cumsum(v, axis=0) / np.arange(1, 5)[:, None]
        assert np.allclose(out[0], means, rtol=1e-14, atol=1e-15)

    def test_causal_attention(self):
        # 2 heads of width 2 over T = 5
        w = ad.constant(RNG.normal(size=(2, 5, 4)))
        check_grad(lambda x: ad.sum_all(ad.mul(ad.causal_attention(x, 2), w)),
                   RNG.normal(size=(2, 5, 12)))

    def test_causal_attention_matches_numpy_reference(self):
        qkv = RNG.normal(size=(2, 6, 18))
        out = ad.causal_attention(ad.constant(qkv), 3).value
        ref = attention_reference(qkv, 3)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_causal_attention_masked_entries_exact_zero(self):
        # Position 0 may attend only to itself: its weight is exactly 1 and
        # every masked weight exactly 0, so its output is v_0 bit for bit.
        # A loss on the first s positions sends exactly zero gradient to the
        # k and v rows after s.
        heads, d, s = 2, 4, 2
        p = Parameter("qkv", RNG.normal(size=(2, 5, 3 * d)))
        out = ad.causal_attention(p.node(), heads)
        assert np.array_equal(out.value[:, 0], p.value[:, 0, 2 * d:])
        w = np.zeros((2, 5, d))
        w[:, :s] = RNG.normal(size=(2, s, d))
        backward(ad.sum_all(ad.mul(out, ad.constant(w))))
        assert np.all(p.grad[:, s:, d:] == 0.0)
        assert np.all(p.grad[:, :s, d:] != 0.0)

    def test_causal_attention_shape_errors(self):
        with pytest.raises(ShapeError):
            # 3d = 12 is not a multiple of 3 * heads = 9
            ad.causal_attention(ad.constant(np.ones((1, 4, 12))), 3)
        with pytest.raises(ShapeError):
            ad.causal_attention(ad.constant(np.ones((4, 12))), 2)

    def test_log_softmax(self):
        w = ad.constant(RNG.normal(size=(3, 6)))
        check_grad(lambda x: ad.sum_all(ad.mul(ad.log_softmax(x), w)),
                   RNG.normal(size=(3, 6)))

    def test_layer_norm(self):
        gamma = ad.constant(RNG.normal(size=(6,)) + 1.0)
        beta = ad.constant(RNG.normal(size=(6,)))
        w = ad.constant(RNG.normal(size=(4, 6)))
        check_grad(lambda x: ad.sum_all(ad.mul(ad.layer_norm(x, gamma, beta), w)),
                   RNG.normal(size=(4, 6)))

    def test_layer_norm_affine_grads(self):
        x = ad.constant(RNG.normal(size=(5, 4)))
        w = ad.constant(RNG.normal(size=(5, 4)))
        check_grad(lambda g: ad.sum_all(ad.mul(
            ad.layer_norm(x, g, ad.constant(np.zeros(4))), w)),
            RNG.normal(size=(4,)) + 1.0)

    def test_layer_norm_statistics(self):
        x = ad.constant(RNG.normal(size=(10, 32)))
        out = ad.layer_norm(x, ad.constant(np.ones(32)), ad.constant(np.zeros(32))).value
        assert np.max(np.abs(out.mean(axis=-1))) < 1e-12
        assert np.max(np.abs(out.var(axis=-1) - 1.0)) < 1e-9

    def test_gelu(self):
        check_grad(lambda x: ad.sum_all(ad.gelu(x)), RNG.normal(size=(30,)) * 2)

    def test_embedding(self):
        ids = np.array([[0, 2], [2, 1]])
        w = ad.constant(RNG.normal(size=(2, 2, 4)))
        check_grad(lambda t: ad.sum_all(ad.mul(ad.embedding(t, ids), w)),
                   RNG.normal(size=(3, 4)))

    def test_take_along_last(self):
        idx = np.array([[0, 2], [1, 1]])
        check_grad(lambda x: ad.sum_all(ad.take_along_last(x, idx)),
                   RNG.normal(size=(2, 2, 3)))

    def test_mean_all(self):
        check_grad(lambda x: ad.mean_all(ad.mul(x, x)), RNG.normal(size=(3, 3)))

    def test_cosine_rows(self):
        z = ad.constant(RNG.normal(size=(5, 4)))
        check_grad(lambda x: ad.mean_all(ad.cosine_rows(x, z)),
                   RNG.normal(size=(5, 4)) + 0.5)

    def test_cosine_rows_both_sides(self):
        p_val = RNG.normal(size=(4, 3))
        check_grad(lambda x: ad.sum_all(ad.cosine_rows(ad.constant(p_val), x)),
                   RNG.normal(size=(4, 3)) + 0.2)

    def test_cosine_rows_zero_row_floored(self):
        p = Parameter("p", np.array([[0.0, 0.0], [1.0, 0.0]]))
        z = ad.constant(np.array([[1.0, 1.0], [1.0, 0.0]]))
        out = ad.cosine_rows(p.node(), z)
        assert out.value[0] == 0.0
        assert out.value[1] == 1.0
        backward(ad.sum_all(out))
        assert np.array_equal(p.grad[0], [0.0, 0.0])

    def test_cosine_rows_non_finite_row_is_nan(self):
        # a NaN or Inf row is not floored, even against a zero row
        p = ad.constant(np.array([[np.nan, 1.0], [np.inf, 0.0], [np.nan, 0.0], [0.0, 0.0]]))
        z = ad.constant(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]))
        with np.errstate(invalid="ignore"):  # inf / inf
            out = ad.cosine_rows(p, z).value
        assert np.all(np.isnan(out[:3])) and out[3] == 0.0


class TestStopGradient:
    def test_forward_identity_bitwise(self):
        x = ad.constant(RNG.normal(size=(4, 4)))
        assert stop_gradient(x).value is x.value

    def test_x_times_stopgrad_x(self):
        p = Parameter("x", np.array(3.0))
        xn = p.node()
        backward(ad.mul(xn, stop_gradient(xn)))
        assert p.grad == 3.0  # not 6: the detached factor contributes nothing

    def test_loss_through_stopgrad_only_gives_exact_zero(self):
        p = Parameter("w", RNG.normal(size=(3, 3)))
        loss = ad.sum_all(ad.mul(stop_gradient(p.node()), stop_gradient(p.node())))
        backward(loss)
        assert np.array_equal(p.grad, np.zeros((3, 3)))

    def test_params_in_graph_excludes_detached(self):
        a = Parameter("a", np.ones(2))
        b = Parameter("b", np.ones(2))
        loss = ad.sum_all(ad.mul(a.node(), stop_gradient(b.node())))
        reachable = params_in_graph(loss)
        assert a in reachable and b not in reachable


class TestBackward:
    def test_quadratic(self):
        p = Parameter("w", np.array([1.0, -2.0, 0.5]))
        backward(ad.sum_all(ad.mul(p.node(), p.node())))
        assert np.array_equal(p.grad, 2 * p.value)

    def test_non_scalar_loss_rejected(self):
        p = Parameter("w", np.ones(3))
        with pytest.raises(ShapeError):
            backward(ad.mul(p.node(), p.node()))

    def test_accumulation_doubles(self):
        p = Parameter("w", RNG.normal(size=(4,)))
        loss = ad.sum_all(ad.mul(p.node(), p.node()))
        backward(loss)
        once = p.grad.copy()
        backward(loss)
        assert np.array_equal(p.grad, 2 * once)

    def test_linearity(self):
        p = Parameter("w", RNG.normal(size=(5,)))
        c = ad.constant(RNG.normal(size=(5,)))

        def grads_of(a, b):
            p.zero_grad()
            l1 = ad.sum_all(ad.mul(p.node(), p.node()))
            l2 = ad.sum_all(ad.mul(p.node(), c))
            backward(ad.add(ad.scale(l1, a), ad.scale(l2, b)))
            return p.grad.copy()

        p.zero_grad()
        backward(ad.sum_all(ad.mul(p.node(), p.node())))
        g1 = p.grad.copy()
        p.zero_grad()
        backward(ad.sum_all(ad.mul(p.node(), c)))
        g2 = p.grad.copy()
        combo = grads_of(2.0, -3.0)
        assert np.max(np.abs(combo - (2.0 * g1 - 3.0 * g2))) < 1e-12

    def test_shared_node_fan_out(self):
        p = Parameter("w", np.array([2.0]))
        xn = p.node()
        y = ad.mul(xn, xn)  # w^2 via a shared node
        backward(ad.sum_all(ad.mul(y, xn)))  # w^3 -> 3 w^2 = 12
        assert abs(p.grad[0] - 12.0) < 1e-12

    def test_no_grad_blocks_recording(self):
        p = Parameter("w", np.ones(2))
        with no_grad():
            loss = ad.sum_all(ad.mul(p.node(), p.node()))
        assert not loss.requires_grad
        assert loss.parents == ()
