"""Toy multimodal decoder: frozen linear patch encoder -> learned projector
-> causal transformer decoder, with a language-modeling loss on the answer
token and an auxiliary patch-prediction loss that anchors intermediate-layer
visual hidden states to their pre-decoder (or pre-projection) values through
a stop-gradient.

Sequence layout, decided in `embed` alone, is [prompt tokens, visual
tokens] under causal attention. Every answer is one token, predicted from
the last visual position (the next-token shift), so it conditions on both
the prompt and the image and is never an input. Learned position
embeddings are added to the prompt only; visual tokens carry a fixed 2-D
sinusoidal code from the encoder, which keeps the recorded layer-0 visual
segment bitwise equal to the projector output.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Node, stop_gradient
from .archive import write_archive, read_archive
from .data import PATCH, PROMPT_LEN, VOCAB_SIZE
from .layers import DecoderBlock, Embedding, Linear, Mlp
from .numerics import ConfigError, RngStream, ShapeError

ANCHOR_PRE_LLM = "pre-llm"
ANCHOR_PRE_PROJ = "pre-proj"
ANCHORS = (ANCHOR_PRE_LLM, ANCHOR_PRE_PROJ)
POS_CODE_SCALE = 0.5
D_V = 32  # encoder feature width, a multiple of 4 for the 2-D position code
MLP_RATIO = 2  # decoder MLP hidden width over d_l


class NonFiniteLossError(RuntimeError):
    """A loss component became NaN/Inf; the message names the component."""


@dataclass
class MllmConfig:
    """A run's whole config, written flat to its config.json: its dataset
    and output directories, its schedule and diagnostics cadence, and the
    model. The rest of the recipe is fixed: warmup + cosine from lr over
    `steps`, no weight decay (see training.Trainer). validate raises
    ConfigError for an invalid setting."""

    dataset: str = ""
    out_dir: str = ""
    steps: int = 500
    batch_size: int = 8
    lr: float = 3e-4
    diag_every: int = 0
    grid: int = 8
    d_l: int = 64
    layers: int = 8
    heads: int = 4
    lam: float = 0.5
    target_layer: int = 4
    anchor: str = ANCHOR_PRE_LLM
    seed: int = 0

    def validate(self) -> None:
        if not 0 <= self.lam < np.inf:  # written so that NaN fails too
            raise ConfigError(f"lambda must be finite and >= 0, got {self.lam}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 1 <= self.target_layer <= self.layers:
            raise ConfigError(
                f"target_layer {self.target_layer} outside [1, {self.layers}]")
        # a layer norm over one feature outputs beta whatever its input
        for name, least in (("d_l", 2), ("heads", 1)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if self.d_l % self.heads != 0:
            raise ConfigError(f"d_l {self.d_l} not divisible by heads {self.heads}")
        if self.anchor not in ANCHORS:
            raise ConfigError(f"unknown anchor source {self.anchor!r}")
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
        if not 0 <= self.lr < np.inf:
            raise ConfigError(f"learning rate must be finite and >= 0, got {self.lr}")
        if self.diag_every < 0:
            raise ConfigError(f"diag cadence must be >= 0, got {self.diag_every}")

    @property
    def n_patches(self) -> int:
        return self.grid * self.grid

    @property
    def d_anchor(self) -> int:
        return self.d_l if self.anchor == ANCHOR_PRE_LLM else D_V

    def to_dict(self) -> dict:
        return asdict(self)


def sincos_position_code(grid: int, d: int) -> np.ndarray:
    """Fixed 2-D sinusoidal code for a grid x grid patch layout, row-major.

    Half the channels encode the row index, half the column, each as
    interleaved sin/cos banks with geometrically spaced frequencies, so d
    is a multiple of 4.
    """
    half = d // 2
    n_freq = half // 2
    omega = 1.0 / (10000.0 ** (np.arange(n_freq) / n_freq))
    pos = np.arange(grid)
    angles = pos[:, None] * omega[None, :]  # [grid, n_freq]
    axis_code = np.concatenate([np.sin(angles), np.cos(angles)], axis=1)  # [grid, half]
    rows = np.repeat(axis_code, grid, axis=0)  # row code for patch r*grid+c
    cols = np.tile(axis_code, (grid, 1))
    return np.concatenate([rows, cols], axis=1)


class _NoDraws:
    """The init stream of MllmParams(cfg, draw=False): every draw is zeros."""

    def split(self, label) -> "_NoDraws":
        return self

    def normal(self, shape, std: float = 1.0) -> np.ndarray:
        return np.zeros(shape)

    truncated_normal = normal


class MllmParams:
    """All weights of the toy model.

    The vision encoder matrix is a frozen random linear patch embedder (it is
    not a Parameter and never receives updates). Every submodule initializes
    from a substream keyed by its own name, so construction order cannot
    shift any other module's draws; in particular the prediction head is
    always constructed, even when the auxiliary loss weight is zero, and is
    simply skipped in the forward pass.
    """

    def __init__(self, cfg: MllmConfig, draw: bool = True):
        cfg.validate()
        self.cfg = cfg
        rng = RngStream(cfg.seed).split("params")
        d_patch = PATCH * PATCH
        self.wv = rng.split("vision").normal((d_patch, D_V), std=1.0 / np.sqrt(d_patch))
        rng = rng if draw else _NoDraws()
        self.pos_code = POS_CODE_SCALE * sincos_position_code(cfg.grid, D_V)
        self.proj = Linear("proj", D_V, cfg.d_l, rng.split("proj"))
        self.tok_emb = Embedding("tok_emb", VOCAB_SIZE, cfg.d_l, rng.split("tok_emb"))
        self.pos_emb = Embedding("pos_emb", PROMPT_LEN, cfg.d_l, rng.split("pos_emb"))
        self.blocks = [
            DecoderBlock(f"block{i}", cfg.d_l, cfg.heads, MLP_RATIO * cfg.d_l,
                         rng.split(f"block{i}"))
            for i in range(cfg.layers)
        ]
        self.head = Linear("head", cfg.d_l, VOCAB_SIZE, rng.split("head"), norm="ln_f")
        self.pred_head = Mlp("pred_head", cfg.d_l, cfg.d_l, cfg.d_anchor, rng.split("pred_head"))

    def trainable(self) -> list:
        out = self.proj.params() + self.tok_emb.params() + self.pos_emb.params()
        for block in self.blocks:
            out += block.params()
        out += self.head.params() + self.pred_head.params()
        return out


@dataclass
class ForwardTrace:
    """Recorded forward pass over the sequence that embed lays out: the raw
    encoder features z, whose N_p = z.shape[1] visual rows start at row
    visual_start, the layer-0..L hidden states, and the answer logits read
    at the last row. visual(l) reads layer l's visual rows as a
    [B, N_p, d_l] view; layer 0's are bitwise the projector output. With
    answer_row_only, layers[L] is [B, 1, d_l], the answer row alone."""

    z: np.ndarray            # [B, N_p, D_V] frozen encoder output
    layers: list             # L+1 nodes of [B, T, d_l]; 0 = decoder input
    logits: Node             # [B, vocab], predicting the answer token
    visual_start: int        # the first visual row, as embed placed it

    def visual(self, layer: int) -> Node:
        """Layer `layer`'s visual rows, [B, N_p, d_l]; ValueError if the
        layer holds only the answer row."""
        node = self.layers[layer]
        if node.value.shape[1] != self.layers[0].value.shape[1]:
            raise ValueError(f"layer {layer} holds only the answer row: "
                             f"the forward ran with answer_row_only")
        return ad.narrow(node, 1, self.visual_start, self.z.shape[1])


def encode_image(params: MllmParams, images: np.ndarray) -> np.ndarray:
    """Frozen vision encoder: non-overlapping patchify, flatten, multiply by
    the fixed random embedding matrix, add the 2-D sinusoidal code. Pure
    numpy; no gradients ever flow here."""
    cfg = params.cfg
    imgs = np.asarray(images, dtype=np.float64)
    if imgs.ndim != 3:
        raise ShapeError(f"encode_image expects [B, H, W], got {imgs.shape}")
    b, hpix, wpix = imgs.shape
    p = PATCH
    if hpix % p or wpix % p:
        raise ShapeError(f"image size {hpix}x{wpix} not divisible by patch size {p}")
    g = hpix // p
    if g != cfg.grid or wpix // p != cfg.grid:
        raise ShapeError(f"image implies a {g}x{wpix // p} grid, model expects "
                         f"{cfg.grid}x{cfg.grid}")
    patches = imgs.reshape(b, g, p, g, p).transpose(0, 1, 3, 2, 4).reshape(b, g * g, p * p)
    return patches @ params.wv + params.pos_code


def embed(params: MllmParams, z: np.ndarray, prompts: np.ndarray) -> tuple:
    """The layer-0 sequence [prompt | proj(z)], [B, PROMPT_LEN + N_p, d_l],
    and the row where its visual rows start: the one place that decides the
    sequence layout. prompts: [B, PROMPT_LEN] token ids, z as in the trace."""
    cfg = params.cfg
    prompts = np.asarray(prompts, dtype=np.int64)
    if z.ndim != 3 or z.shape[1:] != (cfg.n_patches, D_V):
        raise ShapeError(f"visual features must be [B, {cfg.n_patches}, {D_V}], got {z.shape}")
    if prompts.shape != (z.shape[0], PROMPT_LEN):
        raise ShapeError(f"prompts must be [{z.shape[0]}, {PROMPT_LEN}] for visual features "
                         f"of shape {z.shape}, got {prompts.shape}")
    prompt_emb = ad.add(params.tok_emb(prompts), params.pos_emb(np.arange(PROMPT_LEN)))
    return ad.concat([prompt_emb, params.proj(ad.constant(z))], axis=1), PROMPT_LEN


def run_blocks(params: MllmParams, h: Node, answer_row_only: bool = False) -> list:
    """Every block's output over h, in order. With answer_row_only the last
    block computes h's last row alone, [B, 1, d_l]."""
    out = []
    for block in params.blocks:
        h = block(h, h.value.shape[1] - 1 if answer_row_only and block is params.blocks[-1] else 0)
        out.append(h)
    return out


def answer_logits(params: MllmParams, h: Node) -> Node:
    """The answer logits [B, vocab], read from h's last row through the
    head and its norm ln_f."""
    b, t, d = h.value.shape
    return params.head(ad.reshape(ad.narrow(h, 1, t - 1, 1), (b, d)))


def llm_forward(params: MllmParams, z: np.ndarray, prompts: np.ndarray,
                answer_row_only: bool = False) -> ForwardTrace:
    """Run the decoder over the sequence that embed lays out, causal over
    all of it, and record every layer and the answer logits of its last row.
    z is cast to the parameters' dtype, so the whole forward runs in that
    dtype. With answer_row_only, for callers that read no row of layer L but
    the answer row, the last block computes that row alone."""
    z = np.asarray(z, dtype=params.proj.w.value.dtype)
    h, visual_start = embed(params, z, prompts)
    layers = [h] + run_blocks(params, h, answer_row_only)
    return ForwardTrace(z=z, layers=layers, logits=answer_logits(params, layers[-1]),
                        visual_start=visual_start)


def pre_loss(trace: ForwardTrace, params: MllmParams) -> Node:
    """Negative mean per-patch cosine between the prediction head's output
    on the target layer's visual rows and the anchor features, both
    [B, N_p, ·] as the trace holds them.

    The anchor is a fixed target that no gradient leaves: layer 0's visual
    rows, which are the projector output, through a stop-gradient, or the
    raw encoder features for the pre-projection source, a constant already.
    """
    cfg = params.cfg
    if cfg.anchor == ANCHOR_PRE_LLM:
        anchor = stop_gradient(trace.visual(0))
    else:
        anchor = ad.constant(trace.z)
    sims = ad.cosine_rows(params.pred_head(trace.visual(cfg.target_layer)), anchor)
    return ad.scale(ad.sum_all(sims), -1.0 / sims.value.size)


def total_loss(trace: ForwardTrace, answers: np.ndarray, params: MllmParams):
    """L = lm + lam * pre. With lam == 0 the prediction head is skipped
    entirely and the returned total IS the lm node (bitwise equal).

    Returns (total, lm, pre) with pre None when skipped.
    """
    lm = ad.cross_entropy(trace.logits, answers)
    lam = params.cfg.lam
    if lam == 0.0:
        return lm, lm, None
    pre = pre_loss(trace, params)
    return ad.add(lm, ad.scale(pre, lam)), lm, pre


def _dump_entries(grid, ids, z, hv) -> dict:
    """The dump's layout: meta/grid (the 2-vector grid), then for each id in
    order ex<ID>/z and ex<ID>/hv00..hv<L> (layer index in the name), each
    name mapped to its row of z (N rows of [N_p, D_V]) or hv [L+1, N, N_p,
    d_l]."""
    entries = {"meta/grid": grid}
    for row, ex_id in enumerate(ids):
        entries[f"ex{ex_id:08d}/z"] = z[row]
        entries.update((f"ex{ex_id:08d}/hv{l:02d}", states[row]) for l, states in enumerate(hv))
    return entries


def dump_hidden_states(path, grid: int, ids, z, hv) -> None:
    """Write encoder features z [N, N_p, D_V] and visual hidden states hv
    [L+1, N, N_p, d_l], rows in the order of ids, to a tensor archive laid
    out by _dump_entries."""
    if not len(ids) == len(z) == hv.shape[1]:
        raise ValueError(f"{len(ids)} ids for {len(z)} z and {hv.shape[1]} hv rows")
    write_archive(path, _dump_entries(np.array([grid, grid], dtype=np.float32), ids, z, hv))


def read_hidden_states(path, ids, layers: int, shape: tuple) -> np.ndarray:
    """Read the dump of the examples `ids` through `layers` blocks: returns
    the [layers+1, N, *shape] visual states, rows in the order of ids, in the
    dump's float32, bit for bit the values written. The archive reads each
    hv entry straight into its row of the returned array, so the states are
    held once, and every z entry, which no caller reads, into one reused
    [N_p, D_V] row.

    Raises ValueError unless the archive holds exactly the _dump_entries of
    ids, each hv of shape `shape` and each z of shape (shape[0], D_V), and
    the grid covers shape[0] patches.
    """
    hv = np.empty((layers + 1, len(ids), *shape), dtype=np.float32)
    z = [np.empty((shape[0], D_V), dtype=np.float32)] * len(ids)
    grid = np.empty(2, dtype=np.float32)
    read_archive(path, into=_dump_entries(grid, ids, z, hv))
    if grid.prod() != shape[0]:
        raise ValueError(f"meta/grid {grid.tolist()} is not {shape[0]} patches")
    return hv


def save_checkpoint(params: MllmParams, path) -> None:
    write_archive(path, {p.name: p.value for p in params.trainable()})


def load_checkpoint(cfg: MllmConfig, path) -> MllmParams:
    """Rebuild parameters from a checkpoint archive (float32 on disk).

    Trainable parameters keep their own dtype, float32 (layers.PARAM_DTYPE),
    so a trained model round-trips bit for bit. The frozen encoder matrix is
    not stored: it is the only draw, from the seed's substream, the same
    float64 matrix that training used. Each stored tensor is read straight
    into its parameter's array. A missing parameter, an entry the model has
    no parameter for (say, a block of a deeper model), or an entry of
    another shape raises ValueError.
    """
    params = MllmParams(cfg, draw=False)
    read_archive(path, into={p.name: p.value for p in params.trainable()})
    return params
