"""End-to-end gradient checks of the training loss on a tiny model, and the
hidden-state dump round trip, which holds the states once on either side."""

import tracemalloc

import numpy as np
import pytest

from prelab import autodiff as ad
from prelab import model
from prelab.data import PROMPT_LEN
from gradcheck import cast_to_float64, finite_diff_check
from prelab.archive import read_archive
from prelab.model import (MllmConfig, MllmParams, dump_hidden_states, encode_image,
                          llm_forward, read_hidden_states, total_loss)
from prelab.numerics import ShapeError

# tiny() casts the model to float64, as central differences need. Central
# differences at h=1e-6 against backward, seed 0: the max relative error
# measured 3.6e-4 for both anchors, and at most 6.6e-4 over seeds 0-4. At
# seed 0 (pre-proj) it reads 4.3e-4 at h=1e-5 and 2.7e-3 at h=1e-7.
# Scaling causal_attention's backward by 1.01 reads 1.4e-2 (pre-proj) and
# 1.5e-2 (pre-llm).
H = 1e-6
TOL = 2e-3


def tiny(anchor, lam=0.5, seed=0, float64=True):
    cfg = MllmConfig(grid=2, d_l=8, layers=2, heads=2, target_layer=1, anchor=anchor,
                     lam=lam, seed=seed)
    params = MllmParams(cfg)
    if float64:
        cast_to_float64(params.trainable())
    rng = np.random.default_rng(seed)
    z = encode_image(params, rng.uniform(size=(3, 8, 8)))
    prompts = rng.integers(0, 32, size=(3, PROMPT_LEN))
    answers = rng.integers(0, 32, size=3)
    return params, z, prompts, answers


def anchored_at(trace, layer0):
    """trace, with layers[0] replaced by a constant of the value layer0:
    the decoder has already read the real one, so only the pre-llm anchor,
    layer 0's visual rows, changes, and no gradient leaves it."""
    trace.layers[0] = ad.constant(layer0)
    return trace


def test_gradcheck_total_loss_pre_proj():
    # the anchor is the frozen encoder output, a constant already
    params, z, prompts, answers = tiny(model.ANCHOR_PRE_PROJ)

    def loss():
        return total_loss(llm_forward(params, z, prompts), answers, params)[0]

    assert finite_diff_check(loss, params.trainable(), h=H) < TOL


def test_gradcheck_total_loss_pre_llm():
    # The anchor is the projector output behind a stop-gradient, so backward
    # gives the partial derivative with the anchor held fixed. Finite
    # differences measure the same thing only with the anchor pinned at its
    # base value.
    params, z, prompts, answers = tiny(model.ANCHOR_PRE_LLM)
    with ad.no_grad():
        base = llm_forward(params, z, prompts)
        base_total = total_loss(base, answers, params)[0].value

    def pinned_loss():
        return total_loss(anchored_at(llm_forward(params, z, prompts), base.layers[0].value),
                          answers, params)[0]

    with ad.no_grad():
        assert pinned_loss().value == base_total
    assert finite_diff_check(pinned_loss, params.trainable(), h=H) < TOL


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_gradcheck_answer_row_forward(lam):
    # the forward train_step runs when no loss reads layer L's other rows
    # (target_layer 1 < layers 2); the pre-proj anchor is a constant already
    params, z, prompts, answers = tiny(model.ANCHOR_PRE_PROJ, lam=lam)

    def loss():
        trace = llm_forward(params, z, prompts, answer_row_only=True)
        assert trace.layers[-1].value.shape == (3, 1, params.cfg.d_l)
        return total_loss(trace, answers, params)[0]

    assert finite_diff_check(loss, params.trainable(), h=H) < TOL


@pytest.mark.parametrize("float64, tol", [(True, 1e-12), (False, 1e-5)])
@pytest.mark.parametrize("anchor, lam", [(model.ANCHOR_PRE_LLM, 0.0), (model.ANCHOR_PRE_LLM, 0.5),
                                         (model.ANCHOR_PRE_PROJ, 0.5)])
def test_answer_row_forward_gives_the_full_logits_and_gradients(anchor, lam, float64, tol):
    # a single query row takes other GEMM shapes, so it may round apart
    params, z, prompts, answers = tiny(anchor, lam=lam, float64=float64)

    def run(answer_row_only):
        for p in params.trainable():
            p.grad[...] = 0.0
        trace = llm_forward(params, z, prompts, answer_row_only=answer_row_only)
        ad.backward(total_loss(trace, answers, params)[0])
        return trace.logits.value, [p.grad.copy() for p in params.trainable()]

    full_logits, full_grads = run(False)
    logits, grads = run(True)
    assert logits.dtype == (np.float64 if float64 else np.float32)
    assert np.max(np.abs(logits - full_logits)) <= tol * np.max(np.abs(full_logits))
    for p, got, want in zip(params.trainable(), grads, full_grads):
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want)), p.name
    assert any(g.any() for g in grads)


def test_reading_other_rows_of_an_answer_row_layer_fails():
    params, z, prompts, answers = tiny(model.ANCHOR_PRE_LLM)
    params.cfg.target_layer = params.cfg.layers
    trace = llm_forward(params, z, prompts, answer_row_only=True)
    assert trace.visual(1).value.shape == (3, params.cfg.n_patches, params.cfg.d_l)
    for read in (lambda: trace.visual(2), lambda: model.pre_loss(trace, params)):
        with pytest.raises(ValueError, match="^layer 2 holds only the answer row"):
            read()


@pytest.mark.parametrize("float64", [True, False])
def test_layer_0_visual_rows_are_bitwise_the_projector_output(float64):
    # the pre-llm anchor reads layer 0's visual rows as the projected tokens;
    # the rows before them are the prompt's token plus position embeddings
    params, z, prompts, _ = tiny(model.ANCHOR_PRE_LLM, float64=float64)
    with ad.no_grad():
        trace = llm_forward(params, z, prompts)
        projected = params.proj(ad.constant(trace.z)).value
        _, visual_start = model.embed(params, trace.z, prompts)
    assert projected.dtype == (np.float64 if float64 else np.float32)
    assert trace.visual(0).value.tobytes() == projected.tobytes()
    assert trace.visual_start == visual_start
    embedded = params.tok_emb.table.value[prompts] + params.pos_emb.table.value[:PROMPT_LEN]
    assert trace.layers[0].value[:, :visual_start].tobytes() == embedded.tobytes()


@pytest.mark.parametrize("prompts", [np.zeros(PROMPT_LEN, dtype=np.int64),
                                     np.zeros((2, PROMPT_LEN), dtype=np.int64)],
                         ids=["1-d", "other-batch"])
def test_forward_refuses_prompts_of_another_shape(prompts):
    params, z, _, _ = tiny(model.ANCHOR_PRE_LLM)
    with pytest.raises(ShapeError) as err:
        llm_forward(params, z, prompts)
    assert str(prompts.shape) in str(err.value) and str(z.shape) in str(err.value)


@pytest.mark.parametrize("anchor", [model.ANCHOR_PRE_LLM, model.ANCHOR_PRE_PROJ])
def test_lambda_zero_total_is_lm(anchor):
    params, z, prompts, answers = tiny(anchor, lam=0.0)
    total, lm, pre = total_loss(llm_forward(params, z, prompts), answers, params)
    assert total is lm
    assert pre is None


def test_forward_is_causal_over_prompt_visual():
    # Causality over [prompt | visual], through every recorded layer: a new
    # image leaves the prompt rows bitwise unchanged and reaches the rows
    # after them.
    params, z, prompts, _ = tiny(model.ANCHOR_PRE_LLM)
    other_z = encode_image(params, np.random.default_rng(1).uniform(size=(3, 8, 8)))
    with ad.no_grad():
        base = llm_forward(params, z, prompts)
        new_image = llm_forward(params, other_z, prompts)
    cfg = params.cfg
    start = base.visual_start
    assert len(base.layers) == cfg.layers + 1
    for layer in range(cfg.layers + 1):
        before = base.layers[layer].value
        assert before.shape[1] == PROMPT_LEN + cfg.n_patches
        assert new_image.layers[layer].value[:, :start].tobytes() == before[:, :start].tobytes()
        assert not np.array_equal(new_image.layers[layer].value[:, start:], before[:, start:])


def test_lm_loss_matches_numpy_reference():
    # -mean(log_softmax(head(ln_f(h_L[:, -1])))[answer]) in float64: the
    # answer is predicted from the last visual row, and only from it.
    params, z, prompts, answers = tiny(model.ANCHOR_PRE_LLM)
    rng = np.random.default_rng(2)
    gamma, beta = params.head.norm
    for p in (gamma, beta):  # move the final norm off its identity init
        p.value[...] = rng.normal(size=p.value.shape)
    with ad.no_grad():
        trace = llm_forward(params, z, prompts)
        got = ad.cross_entropy(trace.logits, answers).value
    last = trace.layers[-1].value[:, -1]
    mu = last.mean(axis=-1, keepdims=True)
    var = ((last - mu) ** 2).mean(axis=-1, keepdims=True)
    normed = (last - mu) / np.sqrt(var + ad.LAYER_NORM_EPS) * gamma.value + beta.value
    logits = normed @ params.head.w.value + params.head.b.value
    logp = logits - logits.max(axis=-1, keepdims=True)
    logp -= np.log(np.exp(logp).sum(axis=-1, keepdims=True))
    want = -logp[np.arange(len(answers)), answers].mean()
    assert trace.logits.value.shape == (3, 64)
    assert abs(got - want) <= 1e-12 * abs(want)


def test_trainable_names_and_order_are_the_checkpoints():
    # the checkpoint's entries, AdamW's flat layout and grad_norm's order:
    # each norm's gain and shift come before the projection it feeds
    params = MllmParams(MllmConfig(grid=2, d_l=8, layers=1, heads=2, target_layer=1))
    assert [p.name for p in params.trainable()] == [
        "proj.w", "proj.b", "tok_emb.table", "pos_emb.table",
        "block0.ln1.gamma", "block0.ln1.beta", "block0.attn.qkv.w", "block0.attn.o.w",
        "block0.ln2.gamma", "block0.ln2.beta", "block0.mlp.fc1.w", "block0.mlp.fc1.b",
        "block0.mlp.fc2.w", "block0.mlp.fc2.b", "ln_f.gamma", "ln_f.beta", "head.w", "head.b",
        "pred_head.fc1.w", "pred_head.fc1.b", "pred_head.fc2.w", "pred_head.fc2.b"]


def test_pre_llm_anchor_passes_exactly_zero_gradient():
    # The stop-gradient anchor must act as a constant: backward(total) gives
    # every parameter, bitwise, the gradient of the same loss with the anchor
    # replaced by a constant copy of layer 0's visual rows.
    params, z, prompts, answers = tiny(model.ANCHOR_PRE_LLM)

    def grads(loss):
        for p in params.trainable():
            p.grad[...] = 0.0
        ad.backward(loss)
        return [p.grad.copy() for p in params.trainable()]

    trace = llm_forward(params, z, prompts)
    total = total_loss(trace, answers, params)[0]
    with_stop_gradient = grads(total)

    trace = llm_forward(params, z, prompts)
    pinned = total_loss(anchored_at(trace, trace.layers[0].value.copy()), answers, params)[0]
    assert pinned.value == total.value
    with_constant = grads(pinned)
    for p, a, b in zip(params.trainable(), with_stop_gradient, with_constant):
        assert a.tobytes() == b.tobytes(), p.name


def flat_pre_loss(trace, params):
    """pre_loss as computed on rows flattened to [B * N_p, d]: the target
    layer's visual rows and the anchor each reshaped before the prediction
    head and the cosine."""
    cfg = params.cfg
    n_rows = trace.z.shape[0] * trace.z.shape[1]
    rows = ad.reshape(trace.visual(cfg.target_layer), (n_rows, cfg.d_l))
    if cfg.anchor == model.ANCHOR_PRE_LLM:
        anchor = ad.reshape(ad.stop_gradient(trace.visual(0)), (n_rows, cfg.d_l))
    else:
        anchor = ad.constant(trace.z.reshape(n_rows, model.D_V))
    sims = ad.cosine_rows(params.pred_head(rows), anchor)
    return ad.scale(ad.sum_all(sims), -1.0 / sims.value.size)


@pytest.mark.parametrize("anchor", model.ANCHORS)
@pytest.mark.parametrize("target_layer", [1, 2])
def test_pre_loss_on_the_trace_rows_is_bitwise_the_flattened_rows(anchor, target_layer):
    params, z, prompts, _ = tiny(anchor, float64=False)
    params.cfg.target_layer = target_layer

    def value_and_grads(loss_fn):
        for p in params.trainable():
            p.grad[...] = 0.0
        loss = loss_fn(llm_forward(params, z, prompts), params)
        ad.backward(loss)
        return [loss.value] + [p.grad.copy() for p in params.trainable()]

    got, want = value_and_grads(model.pre_loss), value_and_grads(flat_pre_loss)
    assert got[0].dtype == np.float32
    for p, a, b in zip(["value"] + params.trainable(), got, want):
        assert a.tobytes() == b.tobytes(), p
    assert any(g.any() for g in got[1:])


def test_dump_round_trip_reads_the_given_id_order_and_the_float32_states(tmp_path):
    # dump writes probe-train before probe-test, so ids arrive out of order
    rng = np.random.default_rng(0)
    ids = [7, 2, 11, 3]
    z = rng.normal(size=(4, 16, model.D_V)).astype(np.float32)
    hv = rng.normal(size=(3, 4, 16, 6)).astype(np.float32)
    path = tmp_path / "hidden.prea"
    dump_hidden_states(path, 4, ids, z, hv)
    assert list(read_archive(path)) == ["meta/grid"] + [
        f"ex{i:08d}/{kind}" for i in ids for kind in ("z", "hv00", "hv01", "hv02")]
    got = read_hidden_states(path, [2, 3, 7, 11], 2, (16, 6))
    assert got.dtype == np.float32 and got.shape == (3, 4, 16, 6)
    assert got.tobytes() == hv[:, [1, 3, 0, 2]].tobytes()


MIB = 1 << 20


@pytest.fixture(scope="module")
def big_dump(tmp_path_factory):
    """An 11.8 MB dump of 160 examples through 3 layers, grid 8 and d_l 64,
    with the ids out of order as dump writes them."""
    rng = np.random.default_rng(1)
    ids = list(range(80, 160)) + list(range(80))
    z = rng.standard_normal((160, 64, model.D_V), dtype=np.float32)
    hv = rng.standard_normal((4, 160, 64, 64), dtype=np.float32)
    path = tmp_path_factory.mktemp("dump") / "hidden.prea"
    dump_hidden_states(path, 8, ids, z, hv)
    return path, ids, z, hv


def traced_peak(fn, *args):
    """(fn's result, the peak bytes traced while it ran)."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reading_a_dump_holds_the_states_once(big_dump):
    # and not the z entries, which all go through one [N_p, D_V] row
    path, ids, z, hv = big_dump
    got, peak = traced_peak(read_hidden_states, path, sorted(ids), 3, (64, 64))
    assert got.tobytes() == hv[:, np.argsort(ids)].tobytes()
    assert peak < got.nbytes + 2 * MIB - z.nbytes, (peak, got.nbytes)


def test_writing_a_dump_copies_no_state(big_dump, tmp_path):
    path, ids, z, hv = big_dump
    _, peak = traced_peak(dump_hidden_states, tmp_path / "hidden.prea", 8, ids, z, hv)
    assert peak < 2 * MIB, peak
    assert (tmp_path / "hidden.prea").read_bytes() == path.read_bytes()
