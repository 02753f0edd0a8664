import numpy as np

from prelab import autodiff as ad
from prelab.autodiff import backward, constant
from prelab.layers import CausalSelfAttention, DecoderBlock, Embedding, LayerNorm, Linear, Mlp
from prelab.numerics import RngStream

RNG = np.random.default_rng(31)


def test_linear_init_distribution():
    lin = Linear("l", 200, 200, RngStream(0))
    w = lin.w.value
    assert np.max(np.abs(w)) <= 0.04  # truncated at 2 sigma
    # resampling inside +-2 sigma shrinks the std to ~0.880 sigma
    assert abs(w.std() - 0.88 * 0.02) < 0.001
    assert np.array_equal(lin.b.value, np.zeros(200))


def test_linear_named_substreams_are_stable():
    a = Linear("same", 8, 8, RngStream(5).split("here"))
    b = Linear("same", 8, 8, RngStream(5).split("here"))
    assert np.array_equal(a.w.value, b.w.value)


def test_linear_flattens_leading_axes():
    lin = Linear("l", 6, 3, RngStream(8))
    lin.b.value[:] = RNG.normal(size=3)
    x = RNG.normal(size=(2, 4, 6))
    out = lin(constant(x)).value
    assert out.shape == (2, 4, 3)
    flat = lin(constant(x.reshape(8, 6))).value
    assert np.array_equal(out.reshape(8, 3), flat)


def test_attention_matches_numpy_reference():
    attn = CausalSelfAttention("a", 12, 3, RngStream(9))
    x = RNG.normal(size=(2, 5, 12))
    out = attn(constant(x)).value
    d, dh = 12, 4
    upper = np.where(np.triu(np.ones((5, 5), dtype=bool), 1), -np.inf, 0.0)
    qkv = x @ attn.wqkv.w.value
    ref = np.zeros((2, 5, d))
    for h in range(3):
        q, k, v = (qkv[..., j * d + h * dh: j * d + (h + 1) * dh] for j in range(3))
        scores = q @ k.transpose(0, 2, 1) / 2.0 + upper
        weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
        ref[..., h * dh:(h + 1) * dh] = weights / weights.sum(axis=-1, keepdims=True) @ v
    ref = ref @ attn.wo.w.value
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_attention_causality_bitwise():
    attn = CausalSelfAttention("a", 16, 4, RngStream(2))
    x = RNG.normal(size=(2, 6, 16))
    base = attn(constant(x)).value.copy()
    x2 = x.copy()
    x2[:, -1, :] = RNG.normal(size=(2, 16))  # perturb only the last position
    pert = attn(constant(x2)).value
    assert np.array_equal(base[:, :-1, :], pert[:, :-1, :])
    assert not np.array_equal(base[:, -1, :], pert[:, -1, :])


def test_attention_gradients_flow_to_all_projections():
    attn = CausalSelfAttention("a", 8, 2, RngStream(3))
    out = attn(constant(RNG.normal(size=(1, 5, 8))))
    backward(ad.sum_all(out))
    for p in attn.params():
        assert np.any(p.grad != 0), p.name


def test_block_changes_input():
    block = DecoderBlock("b", 16, 2, 32, RngStream(4))
    x = RNG.normal(size=(1, 4, 16))
    out = block(constant(x)).value
    assert out.shape == (1, 4, 16)
    assert not np.array_equal(out, x)


def test_embedding_lookup_rows():
    emb = Embedding("e", 10, 6, RngStream(5))
    ids = np.array([[1, 1, 4]])
    out = emb(ids).value
    assert np.array_equal(out[0, 0], emb.table.value[1])
    assert np.array_equal(out[0, 1], emb.table.value[1])
    assert np.array_equal(out[0, 2], emb.table.value[4])


def test_mlp_and_prediction_head_shapes():
    # a decoder block's MLP keeps the width; a prediction head maps to d_out
    mlp = Mlp("m", 8, 16, 8, RngStream(6))
    assert mlp(constant(RNG.normal(size=(3, 8)))).value.shape == (3, 8)
    head = Mlp("p", 8, 8, 5, RngStream(7))
    assert head(constant(RNG.normal(size=(3, 8)))).value.shape == (3, 5)
    assert len(head.params()) == 4


def test_layer_norm_module_stats():
    ln = LayerNorm("n", 12)
    out = ln(constant(RNG.normal(size=(7, 12)))).value
    assert np.max(np.abs(out.mean(axis=-1))) < 1e-12
    assert np.max(np.abs(out.var(axis=-1) - 1.0)) < 1e-9
