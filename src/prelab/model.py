"""Toy multimodal decoder: frozen linear patch encoder -> learned projector
-> causal transformer decoder, with a language-modeling loss over answer
tokens and an auxiliary patch-prediction loss that anchors intermediate-layer
visual hidden states to their pre-decoder (or pre-projection) values through
a stop-gradient.

Sequence layout is [prompt tokens, visual tokens, answer tokens] under causal
attention, so answers condition on both the prompt and the image. Learned
position embeddings are added to text positions only; visual tokens carry a
fixed 2-D sinusoidal code from the encoder, which keeps the recorded layer-0
visual segment bitwise equal to the projector output.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Node, stop_gradient
from .archive import write_archive, read_archive
from .data import IGNORE_ID, VOCAB_SIZE
from .layers import DecoderBlock, Embedding, LayerNorm, Linear, Mlp
from .numerics import RngStream, ShapeError

ANCHOR_PRE_LLM = "pre-llm"
ANCHOR_PRE_PROJ = "pre-proj"
POS_CODE_SCALE = 0.5


class NonFiniteLossError(RuntimeError):
    """A loss component became NaN/Inf; the message names the component."""


@dataclass
class MllmConfig:
    grid: int = 8
    patch: int = 4
    d_v: int = 32
    d_l: int = 64
    layers: int = 8
    heads: int = 4
    vocab: int = VOCAB_SIZE
    lam: float = 0.5
    target_layer: int = 4
    anchor: str = ANCHOR_PRE_LLM
    prompt_len: int = 4
    max_answer: int = 12
    mlp_ratio: int = 2
    seed: int = 0

    def validate(self) -> None:
        if self.lam < 0:
            raise ValueError(f"lambda must be >= 0, got {self.lam}")
        if not 1 <= self.target_layer <= self.layers:
            raise ValueError(
                f"target_layer {self.target_layer} outside [1, {self.layers}]")
        if self.d_l % self.heads != 0:
            raise ValueError(f"d_l {self.d_l} not divisible by heads {self.heads}")
        if self.d_v % 4 != 0:
            raise ValueError(f"d_v must be a multiple of 4 for the 2-D position code")
        if self.anchor not in (ANCHOR_PRE_LLM, ANCHOR_PRE_PROJ):
            raise ValueError(f"unknown anchor source {self.anchor!r}")
        if self.vocab < 32:
            raise ValueError(f"vocab {self.vocab} too small for the QA token set")

    @property
    def n_patches(self) -> int:
        return self.grid * self.grid

    @property
    def seq_len(self) -> int:
        return self.prompt_len + self.n_patches + self.max_answer

    @property
    def d_anchor(self) -> int:
        return self.d_l if self.anchor == ANCHOR_PRE_LLM else self.d_v

    def to_dict(self) -> dict:
        return asdict(self)


def sincos_position_code(grid: int, d: int) -> np.ndarray:
    """Fixed 2-D sinusoidal code for a grid x grid patch layout, row-major.

    Half the channels encode the row index, half the column, each as
    interleaved sin/cos banks with geometrically spaced frequencies.
    """
    if d % 4 != 0:
        raise ValueError(f"position code width must be a multiple of 4, got {d}")
    half = d // 2
    n_freq = half // 2
    omega = 1.0 / (10000.0 ** (np.arange(n_freq) / n_freq))
    pos = np.arange(grid)
    angles = pos[:, None] * omega[None, :]  # [grid, n_freq]
    axis_code = np.concatenate([np.sin(angles), np.cos(angles)], axis=1)  # [grid, half]
    rows = np.repeat(axis_code, grid, axis=0)  # row code for patch r*grid+c
    cols = np.tile(axis_code, (grid, 1))
    return np.concatenate([rows, cols], axis=1)


class MllmParams:
    """All weights of the toy model.

    The vision encoder matrix is a frozen random linear patch embedder (it is
    not a Parameter and never receives updates). Every submodule initializes
    from a substream keyed by its own name, so construction order cannot
    shift any other module's draws; in particular the prediction head is
    always constructed, even when the auxiliary loss weight is zero, and is
    simply skipped in the forward pass.
    """

    def __init__(self, cfg: MllmConfig):
        cfg.validate()
        self.cfg = cfg
        rng = RngStream(cfg.seed).split("params")
        d_patch = cfg.patch * cfg.patch
        self.wv = rng.split("vision").normal((d_patch, cfg.d_v), std=1.0 / np.sqrt(d_patch))
        self.pos_code = POS_CODE_SCALE * sincos_position_code(cfg.grid, cfg.d_v)
        self.proj = Linear("proj", cfg.d_v, cfg.d_l, rng.split("proj"))
        self.tok_emb = Embedding("tok_emb", cfg.vocab, cfg.d_l, rng.split("tok_emb"))
        self.pos_emb = Embedding("pos_emb", cfg.seq_len, cfg.d_l, rng.split("pos_emb"))
        self.blocks = [
            DecoderBlock(f"block{i}", cfg.d_l, cfg.heads, cfg.mlp_ratio * cfg.d_l,
                         rng.split(f"block{i}"))
            for i in range(cfg.layers)
        ]
        self.ln_f = LayerNorm("ln_f", cfg.d_l)
        self.head = Linear("head", cfg.d_l, cfg.vocab, rng.split("head"))
        self.pred_head = Mlp("pred_head", cfg.d_l, cfg.d_l, cfg.d_anchor, rng.split("pred_head"))

    def trainable(self) -> list:
        out = self.proj.params() + self.tok_emb.params() + self.pos_emb.params()
        for block in self.blocks:
            out += block.params()
        out += self.ln_f.params() + self.head.params() + self.pred_head.params()
        return out


@dataclass
class ForwardTrace:
    """Recorded forward pass: layer-0..L hidden states with segment offsets,
    the projected visual tokens, the raw encoder features, and the logits."""

    z: np.ndarray            # [B, N_p, d_v] frozen encoder output
    hv0: Node                # [B, N_p, d_l] projected visual tokens
    layers: list             # L+1 nodes of [B, T, d_l]; index 0 = decoder input
    logits: Node             # [B, T, vocab]
    prompt_len: int
    n_patches: int
    answer_len: int

    @property
    def visual_start(self) -> int:
        return self.prompt_len

    def visual_values(self, layer: int) -> np.ndarray:
        return self.layers[layer].value[:, self.visual_start : self.visual_start + self.n_patches, :]


def encode_image(params: MllmParams, images: np.ndarray) -> np.ndarray:
    """Frozen vision encoder: non-overlapping patchify, flatten, multiply by
    the fixed random embedding matrix, add the 2-D sinusoidal code. Pure
    numpy; no gradients ever flow here."""
    cfg = params.cfg
    imgs = np.asarray(images, dtype=np.float64)
    if imgs.ndim != 3:
        raise ShapeError(f"encode_image expects [B, H, W], got {imgs.shape}")
    b, hpix, wpix = imgs.shape
    p = cfg.patch
    if hpix % p or wpix % p:
        raise ShapeError(f"image size {hpix}x{wpix} not divisible by patch size {p}")
    g = hpix // p
    if g != cfg.grid or wpix // p != cfg.grid:
        raise ShapeError(f"image implies a {g}x{wpix // p} grid, model expects "
                         f"{cfg.grid}x{cfg.grid}")
    patches = imgs.reshape(b, g, p, g, p).transpose(0, 1, 3, 2, 4).reshape(b, g * g, p * p)
    return patches @ params.wv + params.pos_code


def llm_forward(params: MllmParams, z: np.ndarray, prompts: np.ndarray,
                answers: np.ndarray) -> ForwardTrace:
    """Run the decoder over [prompt, visual, answer] and record every layer.

    prompts: [B, prompt_len] token ids; answers: [B, K] token ids padded with
    the ignore id. Attention is causal over the whole sequence. z is cast to
    the parameters' dtype, so the whole forward runs in that dtype.
    """
    cfg = params.cfg
    z = np.asarray(z, dtype=params.proj.w.value.dtype)
    prompts = np.asarray(prompts, dtype=np.int64)
    answers = np.asarray(answers, dtype=np.int64)
    if z.ndim != 3 or z.shape[1:] != (cfg.n_patches, cfg.d_v):
        raise ShapeError(f"visual features must be [B, {cfg.n_patches}, {cfg.d_v}], got {z.shape}")
    if prompts.shape[1] != cfg.prompt_len:
        raise ShapeError(f"prompt length {prompts.shape[1]} != configured {cfg.prompt_len}")
    if answers.shape[1] > cfg.max_answer:
        raise ShapeError(f"answer block {answers.shape[1]} exceeds max {cfg.max_answer}")
    k = answers.shape[1]
    t = cfg.prompt_len + cfg.n_patches + k
    if t > cfg.seq_len:
        raise ShapeError(f"sequence length {t} exceeds configured max {cfg.seq_len}")

    hv0 = params.proj(ad.constant(z))
    prompt_pos = np.arange(cfg.prompt_len)
    answer_pos = np.arange(cfg.prompt_len + cfg.n_patches, t)
    prompt_emb = ad.add(params.tok_emb(prompts), params.pos_emb(prompt_pos))
    answer_emb = ad.add(params.tok_emb(answers), params.pos_emb(answer_pos))
    h = ad.concat([prompt_emb, hv0, answer_emb], axis=1)

    recorded = [h]
    for block in params.blocks:
        h = block(h)
        recorded.append(h)
    logits = params.head(params.ln_f(h))
    return ForwardTrace(z=z, hv0=hv0, layers=recorded, logits=logits,
                        prompt_len=cfg.prompt_len, n_patches=cfg.n_patches,
                        answer_len=k)


def _answer_nll(logits: Node, answers: np.ndarray, answer_start: int) -> Node:
    k = answers.shape[1]
    pred_logits = ad.narrow(logits, 1, answer_start - 1, k)
    logp = ad.log_softmax(pred_logits)
    picked = ad.take_along_last(logp, answers)
    mask = (answers != IGNORE_ID).astype(logits.value.dtype)
    n_tokens = mask.sum()
    if n_tokens == 0:
        raise ValueError("no answer tokens to score (all positions are ignore-id)")
    return ad.scale(ad.sum_all(ad.mul(picked, ad.constant(mask))), -1.0 / n_tokens)


def lm_loss(trace: ForwardTrace, answers: np.ndarray) -> Node:
    """Mean negative log-likelihood of the answer tokens.

    The prediction for answer position j comes from the logits one position
    earlier (next-token shift), so the first answer token is predicted from
    the last visual token. Ignore-id positions are masked out; the mean is
    over all unmasked answer tokens in the batch. (The raw objective sums
    per token; the mean keeps the loss scale, and hence the auxiliary-loss
    weight, comparable across answer lengths.)
    """
    answers = np.asarray(answers, dtype=np.int64)
    if answers.shape[1] != trace.answer_len:
        raise ShapeError(f"answers shape {answers.shape} != recorded block {trace.answer_len}")
    return _answer_nll(trace.logits, answers, trace.prompt_len + trace.n_patches)


def _patch_pred_loss(visual_rows: Node, anchor: Node, pred_head) -> Node:
    preds = pred_head(visual_rows)
    sims = ad.cosine_rows(preds, anchor)
    return ad.neg(ad.mean_all(sims))


def _visual_rows(trace_layer: Node, visual_start: int, n_patches: int, d: int) -> Node:
    b = trace_layer.value.shape[0]
    seg = ad.narrow(trace_layer, 1, visual_start, n_patches)
    return ad.reshape(seg, (b * n_patches, d))


def pre_loss(trace: ForwardTrace, params: MllmParams) -> Node:
    """Negative mean per-patch cosine between the predicted features of the
    target layer's visual hidden states and the detached anchor features.

    The anchor (projected visual tokens, or raw encoder features for the
    pre-projection source) enters through a stop-gradient, so it is a fixed
    target: no gradient ever reaches the projector or encoder through it.
    """
    cfg = params.cfg
    if not 1 <= cfg.target_layer <= len(trace.layers) - 1:
        raise ValueError(f"target layer {cfg.target_layer} outside [1, {len(trace.layers) - 1}]")
    b = trace.z.shape[0]
    n_rows = b * trace.n_patches
    hvl = _visual_rows(trace.layers[cfg.target_layer], trace.visual_start,
                       trace.n_patches, cfg.d_l)
    if cfg.anchor == ANCHOR_PRE_LLM:
        anchor_node = stop_gradient(ad.reshape(trace.hv0, (n_rows, cfg.d_l)))
    else:
        anchor_node = stop_gradient(ad.constant(trace.z.reshape(n_rows, cfg.d_v)))
    return _patch_pred_loss(hvl, anchor_node, params.pred_head)


def total_loss(trace: ForwardTrace, answers: np.ndarray, params: MllmParams):
    """L = lm + lam * pre. With lam == 0 the prediction head is skipped
    entirely and the returned total IS the lm node (bitwise equal).

    Returns (total, lm, pre) with pre None when skipped.
    """
    lm = lm_loss(trace, answers)
    lam = params.cfg.lam
    if lam == 0.0:
        return lm, lm, None
    pre = pre_loss(trace, params)
    return ad.add(lm, ad.scale(pre, lam)), lm, pre


def dump_hidden_states(traces, example_ids, path, grid: int) -> None:
    """Write encoder features and per-layer visual hidden states to a tensor
    archive: entries ex<ID>/z and ex<ID>/hv<LL> (layer index in the name),
    plus a meta/grid entry with the patch grid shape. traces is a list of
    batched traces; ids map to their rows in order."""
    entries = [("meta/grid", np.array([grid, grid], dtype=np.float32))]
    flat = []
    for trace in traces:
        b = trace.z.shape[0]
        flat.extend((trace, row) for row in range(b))
    if len(flat) != len(example_ids):
        raise ValueError(f"{len(example_ids)} ids for {len(flat)} traced examples")
    for (trace, row), ex_id in zip(flat, example_ids):
        key = f"ex{ex_id:08d}"
        entries.append((f"{key}/z", trace.z[row]))
        for layer in range(len(trace.layers)):
            entries.append((f"{key}/hv{layer:02d}", trace.visual_values(layer)[row]))
    write_archive(path, entries)


def read_hidden_states(path):
    """Inverse of dump_hidden_states: returns (grid, {example_id: {"z": arr,
    "layers": [arr per layer]}}) with float64 arrays."""
    raw = read_archive(path)
    grid = int(raw["meta/grid"][0])
    by_ex: dict = {}
    for name, arr in raw.items():
        if name == "meta/grid":
            continue
        key, kind = name.split("/")
        ex_id = int(key[2:])
        by_ex.setdefault(ex_id, {})[kind] = arr.astype(np.float64)
    out = {}
    for ex_id, parts in sorted(by_ex.items()):
        layer_keys = sorted(k for k in parts if k.startswith("hv"))
        out[ex_id] = {"z": parts["z"], "layers": [parts[k] for k in layer_keys]}
    return grid, out


def save_checkpoint(params: MllmParams, path) -> None:
    write_archive(path, [(p.name, p.value) for p in params.trainable()])


def load_checkpoint(cfg: MllmConfig, path) -> MllmParams:
    """Rebuild parameters from a checkpoint archive (float32 on disk).

    Trainable parameters keep their own dtype, float32 (layers.PARAM_DTYPE),
    so a trained model round-trips bit for bit. The frozen encoder matrix is
    not stored: MllmParams(cfg) draws it from the seed, the same float64
    matrix that training used. Entries the model has no parameter for are
    ignored.
    """
    params = MllmParams(cfg)
    raw = read_archive(path)
    for p in params.trainable():
        if p.name not in raw:
            raise KeyError(f"checkpoint missing parameter {p.name!r}")
        stored = raw[p.name]
        if stored.shape != p.value.shape:
            raise ShapeError(f"checkpoint shape {stored.shape} != {p.value.shape} "
                             f"for {p.name!r}")
        p.value[...] = stored
    return params
