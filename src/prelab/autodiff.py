"""Reverse-mode automatic differentiation over floating numpy arrays.

Every op keeps the floating dtype of its inputs, forward and backward: a
float32 model trains in float32 and a float64 one stays float64. Scalar
constants inside ops are Python floats, which never widen an array.

A Node wraps an eagerly computed value plus a backward closure; the graph
formed by parent references is the tape for one forward pass and is
discarded after backward(). Node ids increase monotonically and parents are
always created before children, so iterating reachable nodes by descending
id is a deterministic reverse-topological order.

stop_gradient() is a first-class primitive: it re-wraps a value as a
parentless constant node, so nothing upstream of it can ever receive
gradient -- the exact zeros are structural, not numerical.

Importing this module sets glibc's malloc policy so that the memory one
tape frees is reused by the next (_keep_freed_heap_mapped).
"""

from __future__ import annotations

import ctypes
import itertools
import math
import platform
from contextlib import contextmanager

import numpy as np
from scipy.special import erf

from .numerics import COSINE_NORM_FLOOR, ShapeError

_ids = itertools.count()
_grad_enabled = True

LAYER_NORM_EPS = 1e-12

_M_TRIM_THRESHOLD = -1  # mallopt(3) parameter numbers, from glibc's malloc.h
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_MAX = 32 << 20  # glibc's largest mmap threshold on 64-bit


def _keep_freed_heap_mapped() -> None:
    """Stop glibc returning freed pages to the kernel: each train step frees
    a tape of tens of MB, and by default the next step faults it all back
    in. Trimming off plus the 64-bit maximum mmap threshold keep every array
    under 32 MiB on a heap that stays mapped; either one alone faults more."""
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, -1)  # -1: never trim
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)


_keep_freed_heap_mapped()


@contextmanager
def no_grad():
    """Disable graph recording inside the block (values only)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Parameter:
    """A named trainable tensor with a persistent gradient accumulator of
    the same dtype."""

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = np.asarray(value)
        self.grad = np.zeros_like(self.value)

    def node(self) -> "Node":
        """Fresh leaf node for the current tape, bound to this parameter."""
        return Node(self.value, requires_grad=True, param=self, op="param")

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self):
        return f"Parameter({self.name}, shape={self.value.shape})"


class Node:
    __slots__ = ("id", "value", "parents", "backward_fn", "requires_grad", "param", "op")

    def __init__(self, value, parents=(), backward_fn=None, requires_grad=False,
                 param=None, op="const"):
        self.id = next(_ids)
        if type(value) is not np.ndarray:
            value = np.asarray(value)  # a numpy scalar keeps its dtype
        self.value = value
        self.parents = parents if type(parents) is tuple else tuple(parents)
        self.backward_fn = backward_fn
        self.requires_grad = requires_grad
        self.param = param
        self.op = op

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node({self.op}, shape={self.value.shape}, grad={self.requires_grad})"


def constant(value) -> Node:
    return Node(np.asarray(value), op="const")


def as_node(x) -> Node:
    return x if isinstance(x, Node) else constant(x)


def record(op: str, value, parents, backward_fn) -> Node:
    """Register one primitive application on the tape.

    If recording is disabled or no parent requires gradient, the node is
    emitted as a constant with no parents: the graph is pruned at exactly
    the points where no gradient can flow.
    """
    needs = _grad_enabled and any(p.requires_grad for p in parents)
    if not needs:
        return Node(value, op=op)
    return Node(value, parents=parents, backward_fn=backward_fn,
                requires_grad=True, op=op)


def stop_gradient(x: Node) -> Node:
    """Identity in value (same array, bitwise), zero in gradient."""
    return Node(x.value, op="stopgrad")


def backward(loss: Node) -> None:
    """Accumulate d(loss)/d(param) into every reachable Parameter's .grad.

    loss must be scalar. Gradients add onto whatever is already in .grad,
    so calling backward twice without zeroing doubles them.
    """
    if loss.value.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.value.shape}")
    # collect reachable grad-requiring nodes
    seen = {loss.id: loss}
    stack = [loss]
    while stack:
        node = stack.pop()
        for p in node.parents:
            if p.requires_grad and p.id not in seen:
                seen[p.id] = p
                stack.append(p)
    grads = {loss.id: np.ones_like(loss.value)}
    for node in sorted(seen.values(), key=lambda n: n.id, reverse=True):
        g = grads.pop(node.id, None)
        if g is None:
            continue
        if node.param is not None:
            node.param.grad += g.reshape(node.param.value.shape)
        if node.backward_fn is None:
            continue
        for parent, pg in zip(node.parents, node.backward_fn(g)):
            if pg is None or not parent.requires_grad:
                continue
            if parent.id in grads:
                grads[parent.id] = grads[parent.id] + pg
            else:
                grads[parent.id] = pg


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum g down to `shape`, inverting numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def add(a: Node, b: Node) -> Node:
    a, b = as_node(a), as_node(b)
    v = a.value + b.value

    def bk(g):
        return _unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)

    return record("add", v, (a, b), bk)


def mul(a: Node, b: Node) -> Node:
    a, b = as_node(a), as_node(b)
    v = a.value * b.value

    def bk(g):
        return (_unbroadcast(g * b.value, a.value.shape),
                _unbroadcast(g * a.value, b.value.shape))

    return record("mul", v, (a, b), bk)


def scale(a: Node, c: float) -> Node:
    c = float(c)
    v = a.value * c

    def bk(g):
        return (g * c,)

    return record("scale", v, (a,), bk)


def neg(a: Node) -> Node:
    return scale(a, -1.0)


def linear(x: Node, w: Node, b: Node = None) -> Node:
    """x @ w (+ b) over the last axis of x. Leading axes are flattened into
    the rows of one 2-D GEMM, so the weight gradient x2.T @ g2 is one GEMM
    too, not one per batch entry plus a sum over the batch."""
    xv, wv = x.value, w.value
    if wv.ndim != 2 or xv.ndim < 1 or xv.shape[-1] != wv.shape[0]:
        raise ShapeError(f"linear expects [..., d_in] and [d_in, d_out], "
                         f"got {x.shape} and {w.shape}")
    if b is not None and b.value.shape != wv.shape[1:]:
        raise ShapeError(f"linear bias shape {b.shape} != ({wv.shape[1]},)")
    x2 = xv.reshape(-1, wv.shape[0])
    v = x2 @ wv
    if b is not None:
        v += b.value

    def bk(g):
        g2 = g.reshape(v.shape)
        gx = (g2 @ wv.T).reshape(xv.shape)
        gw = x2.T @ g2
        return (gx, gw) if b is None else (gx, gw, g2.sum(axis=0))

    parents = (x, w) if b is None else (x, w, b)
    return record("linear", v.reshape(xv.shape[:-1] + wv.shape[1:]), parents, bk)


def reshape(a: Node, shape) -> Node:
    shape = tuple(shape)
    v = a.value.reshape(shape)
    orig = a.value.shape

    def bk(g):
        return (g.reshape(orig),)

    return record("reshape", v, (a,), bk)


def concat(nodes, axis: int) -> Node:
    nodes = [as_node(n) for n in nodes]
    v = np.concatenate([n.value for n in nodes], axis=axis)
    sizes = [n.value.shape[axis] for n in nodes]
    offsets = np.cumsum(sizes)[:-1]

    def bk(g):
        return tuple(np.split(g, offsets, axis=axis))

    return record("concat", v, tuple(nodes), bk)


def narrow(a: Node, axis: int, start: int, length: int) -> Node:
    """Contiguous slice [start, start+length) along one axis."""
    if start < 0 or start + length > a.value.shape[axis]:
        raise ShapeError(
            f"narrow [{start}:{start + length}) out of range for axis {axis} "
            f"of shape {a.shape}"
        )
    idx = [slice(None)] * a.value.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    v = a.value[idx]

    def bk(g):
        z = np.zeros_like(a.value)
        z[idx] = g
        return (z,)

    return record("narrow", v, (a,), bk)


def causal_attention(qkv: Node, heads: int) -> Node:
    """Multi-head causal self-attention core: softmax(q k^T / sqrt(d_h)) v,
    where position i attends to positions j <= i only.

    qkv is the fused [B, T, 3d] projection, columns [q | k | v], d = heads *
    d_h. Returns [B, T, d] with the heads merged back in order.

    Only allowed entries are exponentiated and masked weights are exactly
    0.0, so a later position leaks neither value nor gradient, bit for bit.
    Backward keeps only P, q, k and v and uses dS = P * (dP - rowsum(dP * P)),
    as FlashAttention does (Dao et al. 2022).
    """
    x = qkv.value
    if x.ndim != 3 or heads < 1 or x.shape[2] % (3 * heads) != 0:
        raise ShapeError(f"causal_attention expects [B, T, 3 * heads * d_h] with {heads} "
                         f"heads, got {qkv.shape}")
    bsz, t, d3 = x.shape
    d, dh = d3 // 3, d3 // (3 * heads)
    c = 1.0 / math.sqrt(dh)
    allowed = np.tri(t, dtype=bool)
    q, k, v = x.reshape(bsz, t, 3, heads, dh).transpose(2, 0, 3, 1, 4)  # views, [B, H, T, dh]
    p = q @ k.swapaxes(-1, -2)
    p *= c
    p -= np.max(p, axis=-1, keepdims=True, where=allowed, initial=-np.inf)
    np.exp(p, out=p, where=allowed)
    np.copyto(p, 0.0, where=~allowed)
    p /= p.sum(axis=-1, keepdims=True)
    out = (p @ v).transpose(0, 2, 1, 3).reshape(bsz, t, d)

    def bk(g):
        go = g.reshape(bsz, t, heads, dh).transpose(0, 2, 1, 3)
        gqkv = np.empty((bsz, t, 3, heads, dh), dtype=x.dtype)
        gq, gk, gv = gqkv.transpose(2, 0, 3, 1, 4)
        np.matmul(p.swapaxes(-1, -2), go, out=gv)
        ds = go @ v.swapaxes(-1, -2)  # dP, turned into dS in place
        ds -= np.einsum("bhij,bhij->bhi", ds, p)[..., None]
        ds *= p
        np.matmul(ds, k, out=gq)
        np.matmul(ds.swapaxes(-1, -2), q, out=gk)
        gqkv[:, :, :2] *= c  # the score scale, on [B, T, 2d] rather than [B, H, T, T]
        return (gqkv.reshape(bsz, t, d3),)

    return record("causal_attention", out, (qkv,), bk)


def log_softmax(a: Node) -> Node:
    x = a.value
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    z = e.sum(axis=-1, keepdims=True)
    v = (x - m) - np.log(z)
    s = e / z

    def bk(g):
        return (g - s * np.sum(g, axis=-1, keepdims=True),)

    return record("log_softmax", v, (a,), bk)


def layer_norm(a: Node, gamma: Node, beta: Node) -> Node:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x = a.value
    d = x.shape[-1]
    mu = x.mean(axis=-1, keepdims=True)
    xhat = x - mu
    var = np.mean(xhat * xhat, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat *= inv  # in place: one [.., d] buffer fewer at the peak
    v = xhat * gamma.value + beta.value

    def bk(g):
        gh = g * gamma.value
        gx = inv / d * (d * gh
                        - np.sum(gh, axis=-1, keepdims=True)
                        - xhat * np.sum(gh * xhat, axis=-1, keepdims=True))
        ggamma = _unbroadcast(g * xhat, gamma.value.shape)
        gbeta = _unbroadcast(g, beta.value.shape)
        return gx, ggamma, gbeta

    return record("layer_norm", v, (a, gamma, beta), bk)


_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(a: Node) -> Node:
    """Exact (erf-based) GELU: x * Phi(x)."""
    x = a.value
    phi_cdf = 0.5 * (1.0 + erf(x / _SQRT2))
    v = x * phi_cdf

    def bk(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
        return (g * (phi_cdf + x * pdf),)

    return record("gelu", v, (a,), bk)


def embedding(table: Node, ids: np.ndarray) -> Node:
    """Row lookup table[ids]; backward scatter-adds into the table."""
    ids = np.asarray(ids)
    v = table.value[ids]

    def bk(g):
        gt = np.zeros_like(table.value)
        np.add.at(gt, ids, g)
        return (gt,)

    return record("embedding", v, (table,), bk)


def take_along_last(a: Node, idx: np.ndarray) -> Node:
    """out[..., j] = a[..., j, idx[..., j]] -- select one entry per row of
    the last axis (used to pick the logit of the realized token)."""
    idx = np.asarray(idx)
    v = np.take_along_axis(a.value, idx[..., None], axis=-1)[..., 0]

    def bk(g):
        z = np.zeros_like(a.value)
        np.put_along_axis(z, idx[..., None], g[..., None], axis=-1)
        return (z,)

    return record("take_along_last", v, (a,), bk)


def sum_all(a: Node) -> Node:
    v = np.asarray(a.value.sum())
    shape = a.value.shape

    def bk(g):
        return (np.broadcast_to(g, shape),)

    return record("sum", v, (a,), bk)


def mean_all(a: Node) -> Node:
    return scale(sum_all(a), 1.0 / a.value.size)


def cosine_rows(p: Node, z: Node) -> Node:
    """Row-wise cosine similarity of two N x D matrices -> N vector.

    Rows with finite norms, either of them below COSINE_NORM_FLOOR, yield
    similarity 0 with zero gradient: a zero-length feature carries no
    alignment signal and must not poison the loss with NaN. Because of the
    floor, a row's result is invariant to scaling either operand only while
    both norms stay at or above it. A row with a non-finite norm yields NaN,
    so a broken operand shows in the loss instead of reading as 0.
    """
    pv, zv = p.value, z.value
    if pv.shape != zv.shape or pv.ndim != 2:
        raise ShapeError(f"cosine_rows expects matching N x D, got {pv.shape} vs {zv.shape}")
    pn = np.sqrt(np.sum(pv * pv, axis=1))
    zn = np.sqrt(np.sum(zv * zv, axis=1))
    ok = ((pn >= COSINE_NORM_FLOOR) & (zn >= COSINE_NORM_FLOOR)) | ~np.isfinite(pn + zn)
    denom = np.where(ok, pn * zn, 1.0)
    dots = np.sum(pv * zv, axis=1)
    c = np.where(ok, dots / denom, 0.0)

    def bk(g):
        gm = np.where(ok, g, 0.0)
        pn_safe = np.where(ok, pn, 1.0)
        zn_safe = np.where(ok, zn, 1.0)
        gp = gm[:, None] * (zv / denom[:, None] - c[:, None] * pv / (pn_safe * pn_safe)[:, None])
        gz = gm[:, None] * (pv / denom[:, None] - c[:, None] * zv / (zn_safe * zn_safe)[:, None])
        return gp, gz

    return record("cosine_rows", c, (p, z), bk)
