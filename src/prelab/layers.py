"""Neural layers over the autodiff engine.

Dtype rule: every trainable parameter is created as PARAM_DTYPE (float32),
so a train step runs forward, tape, backward and AdamW in float32. Random
draws are taken in float64 and rounded once.

Initialization: linear weights N(0, 0.02^2) truncated at numerics.TRUNC_SIGMAS
(2) sigma, resampled and not clipped; biases zero; a layer norm's gain one
and shift zero, held by the Linear whose input map the norm is; embedding
tables N(0, 0.02^2) untruncated. Every layer draws from its own named
RngStream substream, so adding or removing a sibling layer never shifts
another layer's draws.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Node, Parameter
from .numerics import RngStream

INIT_STD = 0.02
PARAM_DTYPE = np.float32


class Linear:
    """a @ w + b (+ residual) over the last axis of x as one ad.linear tape
    op, any leading axes of x the rows of a single 2-D GEMM. The input map a,
    fixed when the layer is built, is x, or x layer-normed by the layer's
    own <norm>.gamma and <norm>.beta (listed before w), or the GELU of x
    (gelu=True); the op rebuilds the normed rows or GELU output in backward."""

    def __init__(self, name: str, d_in: int, d_out: int, rng: RngStream, bias: bool = True,
                 norm: str = None, gelu: bool = False):
        if norm is not None and gelu:
            raise ValueError("a Linear takes a layer norm or the GELU as its input map, "
                             "not both")
        self.norm = () if norm is None else (
            Parameter(f"{norm}.gamma", np.ones(d_in, PARAM_DTYPE)),
            Parameter(f"{norm}.beta", np.zeros(d_in, PARAM_DTYPE)))
        self.gelu = gelu
        w = rng.split("w").truncated_normal((d_in, d_out), INIT_STD)
        self.w = Parameter(f"{name}.w", w.astype(PARAM_DTYPE))
        self.b = Parameter(f"{name}.b", np.zeros(d_out, PARAM_DTYPE)) if bias else None

    def __call__(self, x: Node, residual: Node = None) -> Node:
        b = None if self.b is None else self.b.node()
        norm = tuple(p.node() for p in self.norm) or None
        return ad.linear(x, self.w.node(), b, residual, norm, self.gelu)

    def params(self):
        return [p for p in (*self.norm, self.w, self.b) if p is not None]


class Embedding:
    def __init__(self, name: str, num: int, d: int, rng: RngStream):
        table = rng.split("table").normal((num, d), INIT_STD)
        self.table = Parameter(f"{name}.table", table.astype(PARAM_DTYPE))

    def __call__(self, ids: np.ndarray) -> Node:
        return ad.embedding(self.table.node(), ids)

    def params(self):
        return [self.table]


class Mlp:
    """Two-layer feed-forward map with GELU between, plus an optional norm
    before it and an optional residual: the decoder block's MLP (d_out =
    d_in, normed) and the prediction head that maps hidden states to the
    anchor feature space (no norm). Each layer is one ad.linear: fc1 with
    the norm named by norm= as its input map, and fc2 with the GELU as its
    input map and the residual added in, which keeps the fc1 output and Phi
    of it for backward, not the GELU output or its own."""

    def __init__(self, name: str, d_in: int, d_hidden: int, d_out: int, rng: RngStream,
                 norm: str = None):
        self.fc1 = Linear(f"{name}.fc1", d_in, d_hidden, rng.split("fc1"), norm=norm)
        self.fc2 = Linear(f"{name}.fc2", d_hidden, d_out, rng.split("fc2"), gelu=True)

    def __call__(self, x: Node, residual: Node = None) -> Node:
        return self.fc2(self.fc1(x), residual)

    def params(self):
        return self.fc1.params() + self.fc2.params()


class CausalSelfAttention:
    """Multi-head causal self-attention: a fused q/k/v projection, after the
    optional norm named by norm=, the attention core as one tape op
    (ad.causal_attention: heads split, scaled, masked, softmaxed, applied to
    v and merged again) and an output projection, which adds the residual
    in. Neither projection has a bias. The residual has x's rows; with
    first_row, its rows [first_row, T) are added to the output's."""

    def __init__(self, name: str, d: int, heads: int, rng: RngStream, norm: str = None):
        self.heads = heads
        self.wqkv = Linear(f"{name}.qkv", d, 3 * d, rng.split("qkv"), bias=False, norm=norm)
        self.wo = Linear(f"{name}.o", d, d, rng.split("o"), bias=False)

    def __call__(self, x: Node, first_row: int = 0, residual: Node = None) -> Node:
        qkv = self.wqkv(x)
        if first_row and residual is not None:
            residual = ad.narrow(residual, 1, first_row, residual.value.shape[1] - first_row)
        return self.wo(ad.causal_attention(qkv, self.heads, first_row), residual)

    def params(self):
        return self.wqkv.params() + self.wo.params()


class DecoderBlock:
    """Pre-norm transformer decoder block: x + attn(ln1(x)), x + mlp(ln2(x)).
    Each norm is the input map of the projection it feeds, attention's q/k/v
    and the MLP's fc1, so the tape keeps neither norm's output. Attention's
    output projection and the MLP's fc2 each add the residual into their own
    output, so the tape keeps the block's two sums and neither op's output
    apart from them.
    With first_row, it returns only the rows [first_row, T): LN1 and the
    q/k/v projection run on all rows, whose keys and values attention
    reads, and the rest of the block on the returned rows alone."""

    def __init__(self, name: str, d: int, heads: int, mlp_hidden: int, rng: RngStream):
        self.attn = CausalSelfAttention(f"{name}.attn", d, heads, rng.split("attn"),
                                        norm=f"{name}.ln1")
        self.mlp = Mlp(f"{name}.mlp", d, mlp_hidden, d, rng.split("mlp"), norm=f"{name}.ln2")

    def __call__(self, x: Node, first_row: int = 0) -> Node:
        x = self.attn(x, first_row, residual=x)
        return self.mlp(x, residual=x)

    def params(self):
        return self.attn.params() + self.mlp.params()
