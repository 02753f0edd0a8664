"""Neural layers over the autodiff engine.

Dtype rule: every trainable parameter is created as PARAM_DTYPE (float32),
so a train step runs forward, tape, backward and AdamW in float32. Random
draws are taken in float64 and rounded once.

Initialization: linear weights N(0, 0.02^2) truncated at 2 sigma (resampled,
not clipped), biases zero, embedding tables N(0, 0.02^2) untruncated. Every
layer draws from its own named RngStream substream, so adding or removing a
sibling layer never shifts another layer's draws.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Node, Parameter
from .numerics import RngStream

INIT_STD = 0.02
PARAM_DTYPE = np.float32


class Linear:
    """x @ w + b over the last axis as one ad.linear tape op: any leading
    axes of x become the rows of a single 2-D GEMM."""

    def __init__(self, name: str, d_in: int, d_out: int, rng: RngStream, bias: bool = True):
        w = rng.split("w").truncated_normal((d_in, d_out), INIT_STD)
        self.w = Parameter(f"{name}.w", w.astype(PARAM_DTYPE))
        self.b = Parameter(f"{name}.b", np.zeros(d_out, PARAM_DTYPE)) if bias else None

    def __call__(self, x: Node) -> Node:
        return ad.linear(x, self.w.node(), None if self.b is None else self.b.node())

    def params(self):
        return [self.w] if self.b is None else [self.w, self.b]


class LayerNorm:
    def __init__(self, name: str, d: int):
        self.gamma = Parameter(f"{name}.gamma", np.ones(d, PARAM_DTYPE))
        self.beta = Parameter(f"{name}.beta", np.zeros(d, PARAM_DTYPE))

    def __call__(self, x: Node) -> Node:
        return ad.layer_norm(x, self.gamma.node(), self.beta.node())

    def params(self):
        return [self.gamma, self.beta]


class Embedding:
    def __init__(self, name: str, num: int, d: int, rng: RngStream):
        table = rng.split("table").normal((num, d), INIT_STD)
        self.table = Parameter(f"{name}.table", table.astype(PARAM_DTYPE))

    def __call__(self, ids: np.ndarray) -> Node:
        return ad.embedding(self.table.node(), ids)

    def params(self):
        return [self.table]


class Mlp:
    """Two-layer feed-forward map with GELU between and no norm: the decoder
    block's MLP (d_out = d_in) and the prediction head that maps hidden
    states to the anchor feature space."""

    def __init__(self, name: str, d_in: int, d_hidden: int, d_out: int, rng: RngStream):
        self.fc1 = Linear(f"{name}.fc1", d_in, d_hidden, rng.split("fc1"))
        self.fc2 = Linear(f"{name}.fc2", d_hidden, d_out, rng.split("fc2"))

    def __call__(self, x: Node) -> Node:
        return self.fc2(ad.gelu(self.fc1(x)))

    def params(self):
        return self.fc1.params() + self.fc2.params()


class CausalSelfAttention:
    """Multi-head causal self-attention: a fused q/k/v projection, the
    attention core as one tape op (ad.causal_attention: heads split, scaled,
    masked, softmaxed, applied to v and merged again) and an output
    projection. Neither projection has a bias."""

    def __init__(self, name: str, d: int, heads: int, rng: RngStream):
        if d % heads != 0:
            raise ValueError(f"model width {d} not divisible by {heads} heads")
        self.heads = heads
        self.wqkv = Linear(f"{name}.qkv", d, 3 * d, rng.split("qkv"), bias=False)
        self.wo = Linear(f"{name}.o", d, d, rng.split("o"), bias=False)

    def __call__(self, x: Node) -> Node:
        return self.wo(ad.causal_attention(self.wqkv(x), self.heads))

    def params(self):
        return self.wqkv.params() + self.wo.params()


class DecoderBlock:
    """Pre-norm transformer decoder block: x + attn(ln(x)), x + mlp(ln(x))."""

    def __init__(self, name: str, d: int, heads: int, mlp_hidden: int, rng: RngStream):
        self.ln1 = LayerNorm(f"{name}.ln1", d)
        self.attn = CausalSelfAttention(f"{name}.attn", d, heads, rng.split("attn"))
        self.ln2 = LayerNorm(f"{name}.ln2", d)
        self.mlp = Mlp(f"{name}.mlp", d, mlp_hidden, d, rng.split("mlp"))

    def __call__(self, x: Node) -> Node:
        x = ad.add(x, self.attn(self.ln1(x)))
        x = ad.add(x, self.mlp(self.ln2(x)))
        return x

    def params(self):
        return self.ln1.params() + self.attn.params() + self.ln2.params() + self.mlp.params()
