"""Neural layers over the autodiff engine.

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


class Linear:
    def __init__(self, name: str, d_in: int, d_out: int, rng: RngStream, bias: bool = True):
        self.w = Parameter(f"{name}.w", rng.split("w").truncated_normal((d_in, d_out), INIT_STD))
        self.b = Parameter(f"{name}.b", np.zeros(d_out)) if bias else None

    def __call__(self, x: Node) -> Node:
        out = ad.matmul(x, self.w.node())
        if self.b is not None:
            out = ad.add(out, self.b.node())
        return out

    def params(self):
        return [self.w] if self.b is None else [self.w, self.b]


class LayerNorm:
    def __init__(self, name: str, d: int):
        self.gamma = Parameter(f"{name}.gamma", np.ones(d))
        self.beta = Parameter(f"{name}.beta", np.zeros(d))

    def __call__(self, x: Node) -> Node:
        return ad.layer_norm(x, self.gamma.node(), self.beta.node())

    def params(self):
        return [self.gamma, self.beta]


class Embedding:
    def __init__(self, name: str, num: int, d: int, rng: RngStream):
        self.table = Parameter(f"{name}.table", rng.split("table").normal((num, d), INIT_STD))

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


def causal_mask(t: int) -> np.ndarray:
    """Boolean [t, t] mask, True where position i may attend to j (j <= i)."""
    return np.tril(np.ones((t, t), dtype=bool))


def additive_causal_mask(t: int) -> np.ndarray:
    """Float [t, t] mask: 0 where attention is allowed, -inf above the
    diagonal. Precomputed once so every attention call just adds it."""
    return np.where(causal_mask(t), 0.0, -np.inf)


class CausalSelfAttention:
    """Multi-head causal self-attention with a fused q/k/v projection and no
    projection biases."""

    def __init__(self, name: str, d: int, heads: int, rng: RngStream):
        if d % heads != 0:
            raise ValueError(f"model width {d} not divisible by {heads} heads")
        self.d = d
        self.heads = heads
        self.d_head = d // heads
        self.wqkv = Linear(f"{name}.qkv", d, 3 * d, rng.split("qkv"), bias=False)
        self.wo = Linear(f"{name}.o", d, d, rng.split("o"), bias=False)

    def _split_heads(self, x: Node, b: int, t: int) -> Node:
        x = ad.reshape(x, (b, t, self.heads, self.d_head))
        return ad.transpose(x, (0, 2, 1, 3))  # [B, H, T, dh]

    def __call__(self, x: Node, mask: np.ndarray) -> Node:
        b, t, _ = x.value.shape
        qkv = self.wqkv(x)  # [B, T, 3d], columns [q | k | v]
        q = self._split_heads(ad.narrow(qkv, 2, 0, self.d), b, t)
        k = self._split_heads(ad.narrow(qkv, 2, self.d, self.d), b, t)
        v = self._split_heads(ad.narrow(qkv, 2, 2 * self.d, self.d), b, t)
        scores = ad.scale(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))),
                          1.0 / np.sqrt(self.d_head))
        attn = ad.masked_softmax(scores, mask)
        out = ad.matmul(attn, v)  # [B, H, T, dh]
        out = ad.reshape(ad.transpose(out, (0, 2, 1, 3)), (b, t, self.d))
        return self.wo(out)

    def params(self):
        return self.wqkv.params() + self.wo.params()


class DecoderBlock:
    """Pre-norm transformer decoder block: x + attn(ln(x)), x + mlp(ln(x))."""

    def __init__(self, name: str, d: int, heads: int, mlp_hidden: int, rng: RngStream):
        self.ln1 = LayerNorm(f"{name}.ln1", d)
        self.attn = CausalSelfAttention(f"{name}.attn", d, heads, rng.split("attn"))
        self.ln2 = LayerNorm(f"{name}.ln2", d)
        self.mlp = Mlp(f"{name}.mlp", d, mlp_hidden, d, rng.split("mlp"))

    def __call__(self, x: Node, mask: np.ndarray) -> Node:
        x = ad.add(x, self.attn(self.ln1(x), mask))
        x = ad.add(x, self.mlp(self.ln2(x)))
        return x

    def params(self):
        return self.ln1.params() + self.attn.params() + self.ln2.params() + self.mlp.params()
