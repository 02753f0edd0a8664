"""Engine-level tests: every primitive's gradient against central finite
differences, stop-gradient semantics, and backward bookkeeping."""

import math

import numpy as np
import pytest
from scipy.special import erf

from prelab import autodiff as ad
from prelab.autodiff import Node, Parameter, backward, no_grad, stop_gradient
from prelab.numerics import ShapeError
from gradcheck import mean, mul

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


def attention_reference_grad(qkv, heads, g):
    """d sum(attention_reference(qkv) * g) / d qkv over the dense T x T
    scores, one batch entry and head at a time."""
    b, t, d3 = qkv.shape
    d = d3 // 3
    dh = d // heads
    grad = np.zeros_like(qkv)
    for i in range(b):
        for h in range(heads):
            cols = [slice(j * d + h * dh, j * d + (h + 1) * dh) for j in range(3)]
            q, k, v = (qkv[i, :, c] for c in cols)
            scores = q @ k.T / np.sqrt(dh)
            scores[np.triu_indices(t, 1)] = -np.inf
            weights = np.exp(scores - scores.max(axis=1, keepdims=True))
            weights /= weights.sum(axis=1, keepdims=True)
            go = g[i, :, h * dh:(h + 1) * dh]
            dp = go @ v.T
            ds = weights * (dp - np.sum(dp * weights, axis=1, keepdims=True)) / np.sqrt(dh)
            grad[i, :, cols[0]] = ds @ k
            grad[i, :, cols[1]] = ds.T @ q
            grad[i, :, cols[2]] = weights.T @ go
    return grad


def gelu_op(a):
    """The erf GELU as a tape op of its own, with the expressions
    ad.linear fuses given gelu=True: x * Phi(x) forward, g * (Phi(x) + x *
    pdf(x)) backward."""
    x = a.value
    phi = 0.5 * (1.0 + ad._erf(x / math.sqrt(2.0)))

    def bk(g):
        pdf = (1.0 / math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * x * x)
        return (g * (phi + x * pdf),)

    return ad.record("gelu", x * phi, (a,), bk)


def layer_norm_op(a, gamma, beta):
    """Layer norm as a tape op of its own, with the expressions ad.linear
    fuses given a norm, keeping x-hat for backward."""
    x = a.value
    d = x.shape[-1]
    avg = np.full(d, 1.0 / d, dtype=x.dtype)
    x2 = x.reshape(-1, d)
    mean = (x2 @ avg)[:, None]
    xhat = x2 - mean
    inv = (1.0 / np.sqrt((xhat * xhat) @ avg + ad.LAYER_NORM_EPS))[:, None]
    xhat *= inv

    def bk(g):
        g = g.reshape(xhat.shape)
        gh = g * gamma.value
        dot = (gh * xhat) @ avg
        gh -= (gh @ avg)[:, None]
        gh -= xhat * dot[:, None]
        gh *= inv
        return gh.reshape(x.shape), (g * xhat).sum(axis=0), g.sum(axis=0)

    return ad.record("layer_norm", (xhat * gamma.value + beta.value).reshape(x.shape),
                     (a, gamma, beta), bk)


def values_and_grads(build, arrays, g, dtype):
    """The value of build({name: node}) over fresh parameters cast to dtype,
    then each parameter's gradient of sum(value * g)."""
    params = {name: Parameter(name, a.astype(dtype)) for name, a in arrays.items()}
    out = build({name: p.node() for name, p in params.items()})
    backward(ad.sum_all(mul(out, ad.constant(g.astype(dtype)))))
    return [out.value] + [p.grad for p in params.values()]


def rel_err(a, ref):
    return np.max(np.abs(a - ref)) / np.max(np.abs(ref))


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
        check_grad(lambda x: ad.sum_all(mul(ad.add(x, b), ad.add(x, b))),
                   RNG.normal(size=(4, 3)))

    def test_mul(self):
        other = ad.constant(RNG.normal(size=(4, 3)))
        check_grad(lambda x: ad.sum_all(mul(x, other)), RNG.normal(size=(4, 3)))

    def test_scale(self):
        check_grad(lambda x: ad.sum_all(ad.scale(x, -2.5)), RNG.normal(size=(5,)))

    def test_linear_2d(self):
        w = ad.constant(RNG.normal(size=(3, 4)))
        b = ad.constant(RNG.normal(size=(4,)))
        check_grad(lambda x: ad.sum_all(mul(ad.linear(x, w, b), ad.linear(x, w, b))),
                   RNG.normal(size=(2, 3)))

    def test_linear_3d(self):
        w = RNG.normal(size=(3, 2))
        check_grad(lambda x: ad.sum_all(ad.linear(x, ad.constant(w))),
                   RNG.normal(size=(2, 4, 3)))

    def test_linear_weight_side(self):
        a = ad.constant(RNG.normal(size=(2, 5, 3)))
        check_grad(lambda x: mean(mul(ad.linear(a, x), ad.linear(a, x))),
                   RNG.normal(size=(3, 4)))

    def test_linear_bias_side(self):
        a = ad.constant(RNG.normal(size=(2, 5, 3)))
        w = ad.constant(RNG.normal(size=(3, 4)))
        check_grad(lambda b: mean(mul(ad.linear(a, w, b), ad.linear(a, w, b))),
                   RNG.normal(size=(4,)))

    def test_linear_is_matmul_plus_bias(self):
        x, w, b = RNG.normal(size=(2, 5, 3)), RNG.normal(size=(3, 4)), RNG.normal(size=(4,))
        out = ad.linear(ad.constant(x), ad.constant(w), ad.constant(b)).value
        assert out.shape == (2, 5, 4)
        assert np.allclose(out, np.matmul(x, w) + b, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("arg", range(4))
    def test_linear_with_residual(self, arg):
        # each of x, w, b and the residual in turn, the others fixed
        args = [RNG.normal(size=s) for s in ((2, 3, 4), (4, 5), (5,), (2, 3, 5))]
        w = ad.constant(RNG.normal(size=(2, 3, 5)))
        check_grad(lambda node: ad.sum_all(mul(ad.linear(
            *(node if i == arg else ad.constant(a) for i, a in enumerate(args))), w)), args[arg])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_linear_with_residual_is_bitwise_linear_then_add(self, dtype):
        arrays = {"x": RNG.normal(size=(2, 5, 8)), "w": RNG.normal(size=(8, 6)),
                  "b": RNG.normal(size=(6,)), "r": RNG.normal(size=(2, 5, 6))}
        g = RNG.normal(size=(2, 5, 6))
        fused = values_and_grads(lambda n: ad.linear(n["x"], n["w"], n["b"], n["r"]),
                                 arrays, g, dtype)
        chain = values_and_grads(lambda n: ad.add(n["r"], ad.linear(n["x"], n["w"], n["b"])),
                                 arrays, g, dtype)
        assert [a.tobytes() for a in fused] == [a.tobytes() for a in chain]
        assert all(a.dtype == dtype for a in fused)

    @pytest.mark.parametrize("input_map", ["x", "norm", "gelu"])
    def test_linear_shape_errors(self, input_map):
        # the projection's shapes, and a residual += would broadcast (the
        # first two) or round down from float64, refused under every map
        f32 = np.float32
        kw = {"x": {}, "gelu": {"gelu": True},
              "norm": {"norm": (ad.constant(np.ones(4, f32)), ad.constant(np.zeros(4, f32)))}}
        x = ad.constant(np.ones((2, 3, 4), f32))
        w, b = ad.constant(np.ones((4, 5), f32)), ad.constant(np.zeros(5, f32))
        ad.linear(x, w, b, ad.constant(np.ones((2, 3, 5), f32)), **kw[input_map])
        for bad in ((x, ad.constant(np.ones((5, 5), f32)), b), (x, w, ad.constant(np.ones(4, f32))),
                    (x, ad.constant(np.ones((4, 5, 1), f32)), b), (ad.constant(f32(1.0)), w, b)):
            with pytest.raises(ShapeError):
                ad.linear(*bad, **kw[input_map])
        for shape, dtype in (((5,), f32), ((1, 3, 5), f32), ((2, 3, 5), np.float64)):
            for bias in (None, b):
                with pytest.raises(ShapeError, match="residual"):
                    ad.linear(x, w, bias, ad.constant(np.ones(shape, dtype)), **kw[input_map])

    def test_linear_refuses_a_norm_and_the_gelu_together(self):
        x, g = ad.constant(np.ones((2, 3))), ad.constant(np.ones(3))
        w = ad.constant(np.ones((3, 4)))
        with pytest.raises(ValueError, match="not both"):
            ad.linear(x, w, norm=(g, g), gelu=True)

    def test_reshape(self):
        w = ad.constant(RNG.normal(size=(6, 2)))
        check_grad(lambda x: ad.sum_all(mul(ad.reshape(x, (6, 2)), w)),
                   RNG.normal(size=(3, 2, 2)))

    def test_concat_narrow(self):
        other = ad.constant(RNG.normal(size=(2, 3)))

        def loss(x):
            joined = ad.concat([x, other], axis=1)
            piece = ad.narrow(joined, 1, 1, 3)
            return ad.sum_all(mul(piece, piece))

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
        check_grad(lambda x: ad.sum_all(mul(ad.causal_attention(x, 2), w)),
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
        backward(ad.sum_all(mul(out, ad.constant(w))))
        assert np.all(p.grad[:, s:, d:] == 0.0)
        assert np.all(p.grad[:, :s, d:] != 0.0)

    def test_float32_causal_attention_matches_numpy_reference(self):
        qkv = RNG.normal(size=(2, 6, 18)).astype(np.float32)
        out = ad.causal_attention(ad.constant(qkv), 3).value
        assert out.dtype == np.float32
        ref = attention_reference(qkv.astype(np.float64), 3)
        assert np.max(np.abs(out - ref)) <= 1e-6 * np.max(np.abs(ref))

    def test_float32_causal_attention_masked_entries_exact_zero(self):
        # the float64 test above, in float32: row 0 is v_0 bit for bit, and a
        # loss on the first s rows sends exactly zero gradient to later k, v
        heads, d, s = 2, 4, 2
        p = Parameter("qkv", RNG.normal(size=(2, 5, 3 * d)).astype(np.float32))
        out = ad.causal_attention(p.node(), heads)
        assert out.value.dtype == np.float32
        assert np.array_equal(out.value[:, 0], p.value[:, 0, 2 * d:])
        w = np.zeros((2, 5, d), dtype=np.float32)
        w[:, :s] = RNG.normal(size=(2, s, d))
        backward(ad.sum_all(mul(out, ad.constant(w))))
        assert p.grad.dtype == np.float32
        assert np.all(p.grad[:, s:, d:] == 0.0)
        assert np.all(p.grad[:, :s, d:] != 0.0)

    @pytest.mark.parametrize("first_row", [0, 5])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_nan_v_reaches_only_the_gradient_of_rows_that_read_it(self, dtype, first_row):
        # T = 6, one head, v_4 NaN. dP = gO v^T has a NaN column 4, and
        # 0 * NaN would carry it into dS of rows that pass no gradient.
        # first_row 5 is the answer-row block: row 5 alone, which reads v_4.
        qkv = RNG.normal(size=(1, 6, 6)).astype(dtype)
        w = RNG.normal(size=(1, 6, 2)).astype(dtype)

        def grad(v4, rows):
            x = qkv.copy()
            x[0, 4, 4:] = v4
            p = Parameter("qkv", x)
            loss_w = np.zeros_like(w)
            loss_w[:, rows] = w[:, rows]
            with np.errstate(invalid="ignore"):
                backward(ad.sum_all(mul(ad.causal_attention(p.node(), 1, first_row),
                                        ad.constant(loss_w[:, first_row:]))))
            return p.grad

        early = grad(np.nan, slice(0, 2))
        assert early.dtype == dtype
        assert np.array_equal(early, grad(0.0, slice(0, 2)))
        late = grad(np.nan, slice(5, 6))
        assert np.all(np.isnan(late[0, 5, :2]))  # row 5 reads v_4: its q gradient
        assert np.all(late[0, :first_row, :2] == 0.0)  # rows before first_row: no q gradient

    def test_causal_attention_shape_errors(self):
        with pytest.raises(ShapeError):
            # 3d = 12 is not a multiple of 3 * heads = 9
            ad.causal_attention(ad.constant(np.ones((1, 4, 12))), 3)
        with pytest.raises(ShapeError):
            ad.causal_attention(ad.constant(np.ones((4, 12))), 2)
        with pytest.raises(ShapeError):  # the first query row must be a row
            ad.causal_attention(ad.constant(np.ones((1, 4, 12))), 2, 4)

    def test_cross_entropy(self):
        targets = np.array([0, 5, 2, 5])
        check_grad(lambda x: ad.cross_entropy(x, targets), RNG.normal(size=(4, 6)) * 3)

    def test_float32_cross_entropy_is_bitwise_the_unfused_chain(self):
        # -mean(log_softmax(x)[r, t_r]) as log_softmax, a pick of each target,
        # a sum and a scale would compute it, each op's forward and backward
        # written out in numpy. The sum over rows can hide a change of
        # rounding in one row, so each row is also checked alone.
        def unfused(x, targets):
            m = x.max(axis=-1, keepdims=True)
            e = np.exp(x - m)
            z = e.sum(axis=-1, keepdims=True)
            logp = (x - m) - np.log(z)
            c = -1.0 / len(x)
            picked = np.take_along_axis(logp, targets[:, None], axis=-1)[:, 0]
            g = np.ones((), dtype=x.dtype) * c  # scale's backward of the seed 1
            onehot = np.zeros_like(x)
            np.put_along_axis(onehot, targets[:, None], np.broadcast_to(g, (len(x), 1)), axis=-1)
            return (np.asarray(picked.sum()) * c,
                    onehot - (e / z) * np.sum(onehot, axis=-1, keepdims=True))

        x = (RNG.normal(size=(8, 64)) * 4).astype(np.float32)
        targets = RNG.integers(0, 64, size=8)
        for rows in [slice(None)] + [slice(r, r + 1) for r in range(8)]:
            p = Parameter("x", x[rows])
            loss = ad.cross_entropy(p.node(), targets[rows])
            backward(loss)
            want, want_grad = unfused(x[rows], targets[rows])
            assert loss.value.dtype == p.grad.dtype == np.float32
            assert loss.value.tobytes() == want.tobytes()
            assert p.grad.tobytes() == want_grad.tobytes()

    def test_cross_entropy_shape_errors(self):
        with pytest.raises(ShapeError):
            ad.cross_entropy(ad.constant(np.ones((2, 3))), np.zeros(3, dtype=int))
        with pytest.raises(ShapeError):
            ad.cross_entropy(ad.constant(np.ones((2, 2, 3))), np.zeros(2, dtype=int))

    @staticmethod
    def check_linear_with_norm(arg, x, **tolerance):
        # argument arg of x, gamma, beta, w and b varies, the others fixed
        args = [x] + [RNG.normal(size=s) for s in ((6,), (6,), (6, 4), (4,))]
        args[1] += 1.0
        w = ad.constant(RNG.normal(size=x.shape[:-1] + (4,)))

        def op(x, gamma, beta, w, b):
            return ad.linear(x, w, b, norm=(gamma, beta))

        check_grad(lambda node: ad.sum_all(mul(op(
            *(node if i == arg else ad.constant(a) for i, a in enumerate(args))), w)),
            args[arg], **tolerance)

    @pytest.mark.parametrize("arg", range(5))
    def test_linear_with_norm(self, arg):
        x = RNG.normal(size=(2, 3, 6))
        if arg:  # a constant row, whose x-hat is 0; x's own check is below
            x[0, 1] = 0.7
        self.check_linear_with_norm(arg, x)

    def test_linear_with_norm_x_at_a_constant_row(self):
        # x-hat 0 and 1/sigma 1e6 (the eps's), so x's gradient is about 1e6
        # and is linear only over a step far below 1e-6, whose rounding the
        # looser tolerance allows
        self.check_linear_with_norm(0, np.full((1, 6), 0.7), h=1e-8, tol=1e-3)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows, bias", [((2, 5), True), ((10,), False)])
    def test_linear_with_norm_is_bitwise_the_unfused_chain(self, dtype, rows, bias):
        # the decoder block's [B, T, d] into a projection with a bias, and
        # 2-D rows into one without: value and every gradient, byte for byte
        arrays = {"x": RNG.normal(size=rows + (8,)) * 2.0 + 0.5,
                  "gamma": RNG.normal(size=(8,)) + 1.0, "beta": RNG.normal(size=(8,)),
                  "w": RNG.normal(size=(8, 6))}
        if bias:
            arrays["b"] = RNG.normal(size=(6,))
        g = RNG.normal(size=rows + (6,))

        def chain(n):
            return ad.linear(layer_norm_op(n["x"], n["gamma"], n["beta"]), n["w"], n.get("b"))

        fused = values_and_grads(lambda n: ad.linear(
            n["x"], n["w"], n.get("b"), norm=(n["gamma"], n["beta"])), arrays, g, dtype)
        unfused = values_and_grads(chain, arrays, g, dtype)
        assert [a.tobytes() for a in fused] == [a.tobytes() for a in unfused]
        assert all(a.dtype == dtype for a in fused)

    def test_float32_linear_with_norm_within_1e_6_of_float64(self):
        arrays = {"x": RNG.normal(size=(3, 5, 64)) * 2.0 + 0.5,
                  "gamma": RNG.normal(size=(64,)) + 1.0, "beta": RNG.normal(size=(64,)),
                  "w": RNG.normal(size=(64, 16)), "b": RNG.normal(size=(16,))}
        arrays = {name: a.astype(np.float32) for name, a in arrays.items()}
        g = RNG.normal(size=(3, 5, 16)).astype(np.float32)
        runs = {dtype: values_and_grads(lambda n: ad.linear(
                    n["x"], n["w"], n["b"], norm=(n["gamma"], n["beta"])), arrays, g, dtype)
                for dtype in (np.float32, np.float64)}
        for got, ref in zip(runs[np.float32], runs[np.float64], strict=True):
            assert got.dtype == np.float32
            assert rel_err(got, ref) <= 1e-6

    def test_linear_with_norm_statistics(self):
        # through an identity projection, the normed rows themselves
        x = ad.constant(RNG.normal(size=(10, 32)))
        out = ad.linear(x, ad.constant(np.eye(32)),
                        norm=(ad.constant(np.ones(32)), ad.constant(np.zeros(32)))).value
        assert np.max(np.abs(out.mean(axis=-1))) < 1e-12
        assert np.max(np.abs(out.var(axis=-1) - 1.0)) < 1e-9

    @pytest.mark.parametrize("arg, residual", [(i, True) for i in range(4)]
                             + [(i, False) for i in range(3)])
    def test_linear_with_gelu(self, arg, residual):
        # each of h, w, b and the residual in turn, the others fixed
        shapes = ((2, 3, 4), (4, 5), (5,)) + (((2, 3, 5),) if residual else ())
        args = [RNG.normal(size=s) for s in shapes]
        args[0] *= 2.0  # well into the GELU's curve
        w = ad.constant(RNG.normal(size=(2, 3, 5)))
        check_grad(lambda node: ad.sum_all(mul(ad.linear(
            *(node if i == arg else ad.constant(a) for i, a in enumerate(args)), gelu=True), w)),
            args[arg])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows, d_out, residual", [((2, 5), 8, True), ((10,), 6, False)])
    def test_mlp_is_bitwise_the_unfused_chain(self, dtype, rows, d_out, residual):
        # the decoder block's [B, T, d] with its residual, and the prediction
        # head's 2-D rows without one: value and every gradient, byte for byte
        arrays = {"x": RNG.normal(size=rows + (8,)) * 2.0, "w1": RNG.normal(size=(8, 16)),
                  "b1": RNG.normal(size=(16,)), "w2": RNG.normal(size=(16, d_out)),
                  "b2": RNG.normal(size=(d_out,))}
        if residual:
            arrays["r"] = RNG.normal(size=rows + (d_out,))
        g = RNG.normal(size=rows + (d_out,))

        def chain(n):
            out = ad.linear(gelu_op(ad.linear(n["x"], n["w1"], n["b1"])), n["w2"], n["b2"])
            return ad.add(n["r"], out) if residual else out

        fused = values_and_grads(lambda n: ad.linear(
            ad.linear(n["x"], n["w1"], n["b1"]), n["w2"], n["b2"], n.get("r"), gelu=True),
            arrays, g, dtype)
        unfused = values_and_grads(chain, arrays, g, dtype)
        assert [a.tobytes() for a in fused] == [a.tobytes() for a in unfused]
        assert all(a.dtype == dtype for a in fused)

    def test_embedding(self):
        ids = np.array([[0, 2], [2, 1]])
        w = ad.constant(RNG.normal(size=(2, 2, 4)))
        check_grad(lambda t: ad.sum_all(mul(ad.embedding(t, ids), w)),
                   RNG.normal(size=(3, 4)))

    def test_cosine_rows(self):
        z = ad.constant(RNG.normal(size=(5, 4)))
        check_grad(lambda x: mean(ad.cosine_rows(x, z)),
                   RNG.normal(size=(5, 4)) + 0.5)

    def test_cosine_rows_both_sides(self):
        p_val = RNG.normal(size=(4, 3))
        check_grad(lambda x: ad.sum_all(ad.cosine_rows(ad.constant(p_val), x)),
                   RNG.normal(size=(4, 3)) + 0.2)

    def test_cosine_rows_of_batched_rows(self):
        # [B, N, D] rows against finite differences in float64, with a row
        # floored by a zero anchor (value and gradient 0) and a NaN anchor
        # row, whose value and gradient are NaN and stay in that row
        z = RNG.normal(size=(2, 3, 4))
        z[0, 1] = 0.0
        z[1, 2, 0] = np.nan
        w = RNG.normal(size=(2, 3))
        w[1, 2] = 0.0
        finite = np.isfinite(z).all(axis=-1)
        p = Parameter("p", RNG.normal(size=(2, 3, 4)))
        out = ad.cosine_rows(p.node(), ad.constant(z))
        backward(ad.sum_all(mul(out, ad.constant(w))))

        def f():  # the same loss over the finite rows
            with no_grad():
                c = ad.cosine_rows(p.node(), ad.constant(z)).value
            return float(np.sum(np.where(finite, w * c, 0.0)))

        assert out.shape == (2, 3) and out.value[0, 1] == 0.0
        assert np.isnan(out.value[1, 2]) and np.isfinite(out.value[finite]).all()
        assert not p.grad[0, 1].any() and np.isnan(p.grad[1, 2]).all()
        numeric = numeric_grad(f, p.value)
        np.testing.assert_allclose(p.grad[finite], numeric[finite], rtol=1e-6, atol=1e-9)

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


# T = 1 leaves the first row half empty; odd T makes the halves unequal
ATTENTION_LENGTHS = (1, 2, 3, 5, 67, 68, 104)


class TestCausalAttentionLengths:
    @pytest.mark.parametrize("t", ATTENTION_LENGTHS)
    def test_forward_and_gradient_match_dense_reference(self, t):
        heads = 2
        qkv = RNG.normal(size=(2, t, 3 * heads * 3))
        g = RNG.normal(size=(2, t, heads * 3))
        p = Parameter("qkv", qkv.copy())
        out = ad.causal_attention(p.node(), heads)
        assert rel_err(out.value, attention_reference(qkv, heads)) <= 1e-12
        backward(ad.sum_all(mul(out, ad.constant(g))))
        assert rel_err(p.grad, attention_reference_grad(qkv, heads, g)) <= 1e-12

    @pytest.mark.parametrize("t", ATTENTION_LENGTHS)
    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-6)])
    def test_forward_without_backward_matches_dense_reference(self, t, dtype, tol):
        # without a backward to serve, the scores are laid out keys first
        qkv = RNG.normal(size=(3, t, 24)).astype(dtype)
        p = Parameter("qkv", qkv)
        with no_grad():
            bare = ad.causal_attention(p.node(), 2)
        recorded = ad.causal_attention(p.node(), 2)
        assert recorded.parents and not bare.parents
        ref = attention_reference(qkv.astype(np.float64), 2)
        for out in (bare.value, recorded.value):
            assert out.dtype == dtype
            assert rel_err(out, ref) <= tol

    @pytest.mark.parametrize("t", ATTENTION_LENGTHS)
    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-6)])
    def test_last_row_alone_is_the_full_ops_last_row(self, t, dtype, tol):
        # first_row T - 1, in both layouts; backward against the full op's
        # with a gradient on the last row only
        heads = 2
        qkv = RNG.normal(size=(2, t, 3 * heads * 3)).astype(dtype)
        g = np.zeros((2, t, heads * 3), dtype=dtype)
        g[:, -1] = RNG.normal(size=(2, heads * 3))
        full, last = Parameter("full", qkv.copy()), Parameter("last", qkv.copy())
        want = ad.causal_attention(full.node(), heads)
        with no_grad():
            bare = ad.causal_attention(last.node(), heads, t - 1)
        got = ad.causal_attention(last.node(), heads, t - 1)
        for out in (bare.value, got.value):
            assert out.shape == (2, 1, heads * 3) and out.dtype == dtype
            assert rel_err(out, want.value[:, -1:]) <= tol
        backward(ad.sum_all(mul(want, ad.constant(g))))
        backward(ad.sum_all(mul(got, ad.constant(g[:, -1:]))))
        assert last.grad.dtype == dtype
        assert rel_err(last.grad, full.grad) <= tol
        assert not last.grad[:, :t - 1, :heads * 3].any()  # q rows before T - 1

    @pytest.mark.parametrize("t", [t for t in ATTENTION_LENGTHS if t <= 5])
    def test_gradcheck(self, t):
        w = ad.constant(RNG.normal(size=(2, t, 4)))
        check_grad(lambda x: ad.sum_all(mul(ad.causal_attention(x, 2), w)),
                   RNG.normal(size=(2, t, 12)))

    @pytest.mark.parametrize("t", [t for t in ATTENTION_LENGTHS if t > 1])
    def test_nan_in_a_later_position_leaves_earlier_rows_bitwise(self, t):
        # a masked weight is 0.0, and 0 * NaN = NaN: a later v must stay out
        # of the P v product, not only out of the softmax
        heads, d = 2, 4
        qkv = RNG.normal(size=(2, t, 3 * d))
        base = ad.causal_attention(ad.constant(qkv), heads).value
        for j in {1, t // 2, t - 1}:
            for part, value in ((0, np.nan), (1, np.nan), (2, np.nan), (2, np.inf)):
                bad = qkv.copy()
                bad[1, j, part * d:(part + 1) * d] = value
                with np.errstate(invalid="ignore"):
                    out = ad.causal_attention(ad.constant(bad), heads).value
                assert np.array_equal(out[1, :j], base[1, :j]), (j, "qkv"[part], value)
                assert np.array_equal(out[0], base[0])
                assert not np.any(np.isfinite(out[1, j]))


class TestFloat32Erf:
    def test_within_5e_7_of_float64_erf(self):
        grid = np.linspace(-6.0, 6.0, 2_000_001, dtype=np.float32)
        tiny = (10.0 ** -np.arange(1, 39)).astype(np.float32)  # down to 1e-38
        x = np.concatenate([grid, tiny, -tiny])
        got = ad._erf(x)
        assert got.dtype == np.float32
        assert np.max(np.abs(got.astype(np.float64) - erf(x.astype(np.float64)))) <= 5e-7

    def test_signed_zero_infinities_and_nan(self):
        got = ad._erf(np.array([0.0, -0.0, np.inf, -np.inf, np.nan], dtype=np.float32))
        assert got[0] == 0.0 and not np.signbit(got[0])
        assert got[1] == 0.0 and np.signbit(got[1])
        assert got[2] == 1.0 and got[3] == -1.0
        assert np.isnan(got[4])

    def test_float64_signed_zero_infinities_and_nan(self):
        got = ad._erf(np.array([0.0, -0.0, np.inf, -np.inf, np.nan]))
        assert got.dtype == np.float64 and got.shape == (5,)
        assert got[0] == 0.0 and not np.signbit(got[0])
        assert got[1] == 0.0 and np.signbit(got[1])
        assert got[2] == 1.0 and got[3] == -1.0
        assert np.isnan(got[4])

    def test_float64_is_math_erf_bitwise_and_within_2_ulp_of_scipy(self):
        x = RNG.normal(size=(3, 50)) * 3.0
        got = ad._erf(x)
        assert got.dtype == np.float64
        assert got.tobytes() == np.array([[math.erf(v) for v in row] for row in x]).tobytes()
        assert np.all(np.abs(got - erf(x)) <= 2 * np.spacing(np.abs(erf(x))))

    def test_float32_linear_with_gelu_stays_float32(self):
        # an identity weight and a zero bias make it the GELU, exactly
        x = (RNG.normal(size=(4, 8)) * 3.0).astype(np.float32)
        params = [Parameter(name, v) for name, v in
                  (("x", x), ("w", np.eye(8, dtype=np.float32)), ("b", np.zeros(8, np.float32)))]
        out = ad.linear(*(p.node() for p in params), gelu=True)
        backward(ad.sum_all(out))
        assert out.value.dtype == np.float32
        assert all(p.grad.dtype == np.float32 for p in params)
        ref = x.astype(np.float64) * 0.5 * (1.0 + erf(x.astype(np.float64) / np.sqrt(2.0)))
        assert np.max(np.abs(out.value - ref)) <= 1e-6 * np.max(np.abs(ref))


class TestStopGradient:
    def test_forward_identity_bitwise(self):
        x = ad.constant(RNG.normal(size=(4, 4)))
        assert stop_gradient(x).value is x.value

    def test_x_times_stopgrad_x(self):
        p = Parameter("x", np.array(3.0))
        xn = p.node()
        backward(mul(xn, stop_gradient(xn)))
        assert p.grad == 3.0  # not 6: the detached factor contributes nothing

    def test_loss_through_stopgrad_only_gives_exact_zero(self):
        p = Parameter("w", RNG.normal(size=(3, 3)))
        loss = ad.sum_all(mul(stop_gradient(p.node()), stop_gradient(p.node())))
        backward(loss)
        assert np.array_equal(p.grad, np.zeros((3, 3)))

    def test_params_in_graph_excludes_detached(self):
        a = Parameter("a", np.ones(2))
        b = Parameter("b", np.ones(2))
        loss = ad.sum_all(mul(a.node(), stop_gradient(b.node())))
        reachable = params_in_graph(loss)
        assert a in reachable and b not in reachable


class TestBackward:
    def test_quadratic(self):
        p = Parameter("w", np.array([1.0, -2.0, 0.5]))
        backward(ad.sum_all(mul(p.node(), p.node())))
        assert np.array_equal(p.grad, 2 * p.value)

    def test_non_scalar_loss_rejected(self):
        p = Parameter("w", np.ones(3))
        with pytest.raises(ShapeError):
            backward(mul(p.node(), p.node()))

    def test_accumulation_doubles(self):
        p = Parameter("w", RNG.normal(size=(4,)))
        loss = ad.sum_all(mul(p.node(), p.node()))
        backward(loss)
        once = p.grad.copy()
        backward(loss)
        assert np.array_equal(p.grad, 2 * once)

    def test_linearity(self):
        p = Parameter("w", RNG.normal(size=(5,)))
        c = ad.constant(RNG.normal(size=(5,)))

        def grads_of(a, b):
            p.grad[...] = 0.0
            l1 = ad.sum_all(mul(p.node(), p.node()))
            l2 = ad.sum_all(mul(p.node(), c))
            backward(ad.add(ad.scale(l1, a), ad.scale(l2, b)))
            return p.grad.copy()

        p.grad[...] = 0.0
        backward(ad.sum_all(mul(p.node(), p.node())))
        g1 = p.grad.copy()
        p.grad[...] = 0.0
        backward(ad.sum_all(mul(p.node(), c)))
        g2 = p.grad.copy()
        combo = grads_of(2.0, -3.0)
        assert np.max(np.abs(combo - (2.0 * g1 - 3.0 * g2))) < 1e-12

    def test_shared_node_fan_out(self):
        p = Parameter("w", np.array([2.0]))
        xn = p.node()
        y = mul(xn, xn)  # w^2 via a shared node
        backward(ad.sum_all(mul(y, xn)))  # w^3 -> 3 w^2 = 12
        assert abs(p.grad[0] - 12.0) < 1e-12

    def test_no_grad_blocks_recording(self):
        p = Parameter("w", np.ones(2))
        with no_grad():
            loss = ad.sum_all(mul(p.node(), p.node()))
        assert not loss.requires_grad
        assert loss.parents == ()
