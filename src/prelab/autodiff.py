"""Reverse-mode automatic differentiation over floating numpy arrays.

Every op keeps the floating dtype of its inputs, forward and backward: a
float32 model trains in float32 and a float64 one stays float64. Scalar
constants inside ops are Python floats, which never widen an array.

A Node wraps an eagerly computed value plus a backward closure; the graph
formed by parent references is the tape for one forward pass and is
discarded after backward(). Node ids increase monotonically and parents are
always created before children, so iterating reachable nodes by descending
id is a deterministic reverse-topological order.

No op writes into an array it was given or has returned, so every node
value stays as it was made until backward has run. Backward closures rely
on it: they keep views of their inputs, and rebuild what is cheap to
rebuild rather than keep it: linear's rebuilds its input map, the normed
rows or the GELU output, from its input.

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
    v = a.value + b.value

    def bk(g):
        return _unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)

    return record("add", v, (a, b), bk)


def scale(a: Node, c: float) -> Node:
    c = float(c)
    v = a.value * c

    def bk(g):
        return (g * c,)

    return record("scale", v, (a,), bk)


def reshape(a: Node, shape) -> Node:
    shape = tuple(shape)
    v = a.value.reshape(shape)
    orig = a.value.shape

    def bk(g):
        return (g.reshape(orig),)

    return record("reshape", v, (a,), bk)


def concat(nodes, axis: int) -> Node:
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


def _redo_pv_with_nonfinite_v(o, v, blocks, probs, q0) -> tuple:
    """Redo o = P v, in place, for a v that holds NaN or Inf; o holds the
    rows from q0 on. In the plain product a masked weight meets a later v_j
    as 0 * NaN = NaN, which would reach the rows before j. Here the
    non-finite entries are left out and added back to the rows i >= j alone,
    so every other row keeps the bits of a finite v. Returns v with them
    zeroed, its o, and which of o's rows read a non-finite v_j."""
    bad = ~np.isfinite(v)
    clean = np.where(bad, 0.0, v)
    for (r0, r1), p in zip(blocks, probs):
        np.matmul(p, clean[:, :, :r1], out=o[:, :, r0 - q0:r1 - q0])
    o_clean = o.copy()
    for b, hd, j in zip(*np.nonzero(bad.any(axis=-1))):
        vj = np.where(bad[b, hd, j], v[b, hd, j], 0.0)
        for (r0, r1), p in zip(blocks, probs):
            if j < r1:
                o[b, hd, max(j, r0) - q0:r1 - q0] += p[b, hd, max(j - r0, 0):, j, None] * vj
    return clean, o_clean, np.logical_or.accumulate(bad.any(axis=-1), axis=-1)[:, :, q0:]


def causal_attention(qkv: Node, heads: int, first_row: int = 0) -> Node:
    """Multi-head causal self-attention core: softmax(q k^T / sqrt(d_h)) v,
    where position i attends to positions j <= i only.

    qkv is the fused [B, T, 3d] projection, columns [q | k | v], d = heads *
    d_h. Returns the query rows [first_row, T), [B, T - first_row, d], with
    the heads merged back in order; backward gives q's other rows exactly 0.

    The scores are formed in two row halves split at h = max(T // 2,
    first_row): rows [first_row, h) against columns [0, h) and rows [h, T)
    against all T columns, so the top-right quarter, which the mask removes
    whole, is never computed or kept. With no backward to serve, a half is
    laid out keys first, [j, B, H, i], so the softmax's max and sum over j
    are elementwise passes, not reductions along short rows; its sum then
    rounds apart from the row layout's. Masked entries are -inf before the
    max, so masked weights are exactly 0.0: a later position leaks neither
    value nor gradient, bit for bit. A NaN in a later q or k is overwritten
    by the -inf; a NaN or Inf in a later v, which 0 * NaN would spread,
    stays out of the earlier rows and out of the gradient of rows whose
    output gradient is 0 (_redo_pv_with_nonfinite_v).
    Backward keeps only the two blocks of P, q, k and v and uses
    dS = P * (dP - rowsum(gO * O)), as FlashAttention does (Dao et al. 2022).
    """
    x = qkv.value
    if (x.ndim != 3 or heads < 1 or x.shape[2] % (3 * heads) != 0
            or not 0 <= first_row < max(x.shape[1], 1)):
        raise ShapeError(f"causal_attention expects [B, T, 3 * heads * d_h] with {heads} "
                         f"heads and first row {first_row} < T, got {qkv.shape}")
    bsz, t, d3 = x.shape
    d, dh = d3 // 3, d3 // (3 * heads)
    c = 1.0 / math.sqrt(dh)
    q0, h = first_row, max(t // 2, first_row)
    # (r0, r1): rows [r0, r1) see columns [0, r1); o's row i - q0 is row i.
    # The full-width block comes first, so that backward writes gk and gv
    # whole before the other adds in.
    blocks = [(r0, r1) for r0, r1 in ((h, t), (q0, h)) if r1 > r0]
    q, k, v = x.reshape(bsz, t, 3, heads, dh).transpose(2, 0, 3, 1, 4)  # views, [B, H, T, dh]
    out = np.empty((bsz, t - q0, heads, dh), dtype=x.dtype)
    o = out.transpose(0, 2, 1, 3)
    probs = []
    for r0, r1 in blocks:
        if _grad_enabled and qkv.requires_grad:  # backward reads P by rows
            p = q[:, :, r0:r1] @ k[:, :, :r1].swapaxes(-1, -2)
        else:  # keys first, [j, B, H, i], viewed as [B, H, i, j]
            p = np.empty((r1, bsz, heads, r1 - r0), dtype=x.dtype).transpose(1, 2, 3, 0)
            np.matmul(k[:, :, :r1], q[:, :, r0:r1].swapaxes(-1, -2), out=p.swapaxes(-1, -2))
        p *= c
        np.copyto(p[..., r0:], -np.inf, where=~np.tri(r1 - r0, dtype=bool))  # columns j > i
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        np.matmul(p, v[:, :, :r1], out=o[:, :, r0 - q0:r1 - q0])
        probs.append(p)
    # the last row weighs every v_j, so a non-finite v shows there
    redone = (_redo_pv_with_nonfinite_v(o, v, blocks, probs, q0)
              if t and not np.isfinite(o[:, :, -1]).all() else None)

    def bk(g):
        go = g.reshape(bsz, t - q0, heads, dh).transpose(0, 2, 1, 3)
        gqkv = np.empty((bsz, t, 3, heads, dh), dtype=x.dtype)
        gq, gk, gv = gqkv.transpose(2, 0, 3, 1, 4)
        gq[:, :, :q0] = 0.0
        vv, oo, reads_bad = (v, o, None) if redone is None else redone
        rowsum = np.einsum("bhie,bhie->bhi", go, oo)[..., None]  # rowsum(dP * P) = gO . O
        for (r0, r1), p in zip(blocks, probs):
            rows = slice(r0 - q0, r1 - q0)
            gor, qr = go[:, :, rows], q[:, :, r0:r1]
            ds = gor @ vv[:, :, :r1].swapaxes(-1, -2)  # dP, turned into dS in place
            ds -= rowsum[:, :, rows]
            ds *= p
            if reads_bad is not None:  # rows i >= j of a non-finite v_j, if they pass gradient
                ds[reads_bad[:, :, rows] & go.any(axis=-1)[:, :, rows]] = np.nan
            np.matmul(ds, k[:, :, :r1], out=gq[:, :, r0:r1])
            if r1 == t:  # the full-width block: every row of gk and gv
                np.matmul(p.swapaxes(-1, -2), gor, out=gv)
                np.matmul(ds.swapaxes(-1, -2), qr, out=gk)
            else:
                gv[:, :, :r1] += p.swapaxes(-1, -2) @ gor
                gk[:, :, :r1] += ds.swapaxes(-1, -2) @ qr
        gqkv[:, :, :2] *= c  # the score scale, on [B, T, 2d] rather than [B, H, T, T]
        return (gqkv.reshape(bsz, t, d3),)

    return record("causal_attention", out.reshape(bsz, t - q0, d), (qkv,), bk)


_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# erf(x) = x P(x^2) / Q(x^2) on [-4, 4], highest power first: the
# coefficients of Eigen's generic_fast_erf_float
_ERF_P = (-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
          -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
          -1.60960333262415e-02)
_ERF_Q = (-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
          -7.37332916720468e-03, -1.42647390514189e-02)


def _poly(x2: np.ndarray, coeffs) -> np.ndarray:
    """coeffs[0] * x2^n + ... + coeffs[-1], by Horner's rule."""
    out = x2 * coeffs[0]
    for c in coeffs[1:-1]:
        out += c
        out *= x2
    out += coeffs[-1]
    return out


def _erf(x: np.ndarray) -> np.ndarray:
    """erf, elementwise. A float32 array gets a rational approximation in
    plain numpy passes, within 4.5e-7 of the float64 erf. Any other dtype
    gets math.erf of each element, as float64."""
    if x.dtype != np.float32:
        return np.asarray(np.frompyfunc(math.erf, 1, 1)(x), dtype=np.float64)
    x = np.clip(x, -4.0, 4.0)  # beyond +-4, erf rounds to +-1 in float32
    x2 = x * x
    p = _poly(x2, _ERF_P)
    p *= x
    p /= _poly(x2, _ERF_Q)
    return p


def linear(x: Node, w: Node, b: Node = None, residual: Node = None, norm: tuple = None,
           gelu: bool = False) -> Node:
    """a @ w (+ b) (+ residual) over the last axis of x, as one tape op. The
    input map a is x (op "linear"), its layer norm x-hat * gamma + beta given
    norm=(gamma, beta) nodes (op "norm_linear"), or its erf GELU x * Phi(x)
    given gelu=True (op "gelu_linear"): bitwise the chain of the map, the
    projection and an add of the residual as ops of their own. The leading
    axes of x become the rows of one 2-D GEMM, so the weight gradient is one
    GEMM too. The residual is added in place and takes g unchanged. Backward
    keeps x and w, which the graph holds anyway, and what the map's backward
    reads, the norm's row means and 1/sigma or the GELU's Phi(x); it rebuilds
    a from x with the forward's expressions (selective recomputation,
    Korthikanti et al. 2022). The norm's row moments are GEMVs of the rows
    with a 1/d vector, not numpy's reductions along each short row. Float32
    takes erf from _erf's approximation (within 4.5e-7), any other dtype
    from math.erf."""
    if norm is not None and gelu:
        raise ValueError("linear takes a layer norm or the GELU as its input map, not both")
    op = "norm_linear" if norm is not None else "gelu_linear" if gelu else "linear"
    xv, wv = x.value, w.value
    if wv.ndim != 2 or xv.ndim < 1 or xv.shape[-1] != wv.shape[0]:
        raise ShapeError(f"{op} expects [..., d_in] and [d_in, d_out], got {x.shape} and {w.shape}")
    if b is not None and b.shape != wv.shape[1:]:
        raise ShapeError(f"{op} bias shape {b.shape} != ({wv.shape[1]},)")
    x2 = xv.reshape(-1, wv.shape[0])
    if norm is not None:
        gamma, beta = norm[0].value, norm[1].value
        avg = np.full(x2.shape[1], 1.0 / x2.shape[1], dtype=x2.dtype)
        mean = (x2 @ avg)[:, None]
        a = x2 - mean
        inv = (1.0 / np.sqrt((a * a) @ avg + LAYER_NORM_EPS))[:, None]
        # x-hat, then y, in place in x2 - mean's buffer: the bits of the
        # expressions written out, and no other [.., d] array made
        a *= inv
        a *= gamma
        a += beta
        kept = (avg, mean, inv, gamma, beta)
    elif gelu:
        phi = 0.5 * (1.0 + _erf(x2 / _SQRT2))
        a = x2 * phi
        kept = phi
    else:
        a = x2
    v = a @ wv
    if b is not None:
        v += b.value
    out = v.reshape(xv.shape[:-1] + wv.shape[1:])
    if residual is not None:
        # += would broadcast a smaller residual, or round a float64 one down
        if (residual.shape, residual.value.dtype) != (out.shape, out.dtype):
            raise ShapeError(f"{op} residual {residual.value.dtype} {residual.shape} != "
                             f"output {out.dtype} {out.shape}")
        out += residual.value
    # one closure cell for the map's kept arrays and flags for b and residual
    has_b, has_residual = b is not None, residual is not None

    def bk(g):
        g2 = g.reshape(-1, wv.shape[1])
        ga = g2 @ wv.T  # a's gradient, made x's in place
        if op == "norm_linear":
            avg, mean, inv, gamma, beta = kept
            a = x2 - mean
            a *= inv
            grads = [ga, (ga * a).sum(axis=0), ga.sum(axis=0)]
            ga *= gamma
            dot = (ga * a) @ avg
            ga -= (ga @ avg)[:, None]
            ga -= a * dot[:, None]
            ga *= inv
            a *= gamma  # y, in x-hat's buffer, which is read no more
            a += beta
        elif op == "gelu_linear":
            phi = kept
            grads = [ga * (phi + x2 * (_INV_SQRT_2PI * np.exp(-0.5 * x2 * x2)))]
            a = x2 * phi
        else:
            a, grads = x2, [ga]
        grads[0] = grads[0].reshape(xv.shape)
        grads.append(a.T @ g2)
        if has_b:
            grads.append(g2.sum(axis=0))
        if has_residual:
            grads.append(g)
        return grads

    return record(op, out, (x, *(norm or ()), w, *(n for n in (b, residual) if n is not None)),
                  bk)


def embedding(table: Node, ids: np.ndarray) -> Node:
    """Row lookup table[ids]; backward scatter-adds into the table."""
    ids = np.asarray(ids)
    v = table.value[ids]

    def bk(g):
        gt = np.zeros_like(table.value)
        np.add.at(gt, ids, g)
        return (gt,)

    return record("embedding", v, (table,), bk)


def cross_entropy(logits: Node, targets) -> Node:
    """Mean negative log-likelihood of one target class per row of [B, V]
    logits, -mean_r log softmax(x_r)[t_r], as one tape node. Forward is
    (x[r, t_r] - m_r) - log z_r (m the row max, z the row sum of e = exp(x -
    m)) summed over rows, times c = -1/B; backward is onehot(g c) - (e / z)
    (g c). Those are the expressions, in that order, of log_softmax, a pick
    of each target and a mean taken as separate ops, so they round alike."""
    x = logits.value
    targets = np.asarray(targets, dtype=np.int64)
    if x.ndim != 2 or targets.shape != x.shape[:1]:
        raise ShapeError(f"cross_entropy expects [B, V] logits and [B] targets, "
                         f"got {logits.shape} and {targets.shape}")
    rows = np.arange(x.shape[0])
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    z = e.sum(axis=-1, keepdims=True)
    c = -1.0 / x.shape[0]
    picked = (x[rows, targets] - m[:, 0]) - np.log(z)[:, 0]
    v = np.asarray(picked.sum()) * c

    def bk(g):
        gc = g * c
        gx = np.zeros_like(x)
        gx[rows, targets] = gc
        gx -= (e / z) * gc
        return (gx,)

    return record("cross_entropy", v, (logits,), bk)


def sum_all(a: Node) -> Node:
    v = np.asarray(a.value.sum())
    shape = a.value.shape

    def bk(g):
        return (np.broadcast_to(g, shape),)

    return record("sum", v, (a,), bk)


def cosine_rows(p: Node, z: Node) -> Node:
    """Cosine similarity of each row of two same-shape [..., D] arrays, over
    the last axis -> [...].

    Rows with finite norms, either of them below COSINE_NORM_FLOOR, yield
    similarity 0 with zero gradient: a zero-length feature carries no
    alignment signal and must not poison the loss with NaN. Because of the
    floor, a row's result is invariant to scaling either operand only while
    both norms stay at or above it. A row with a non-finite norm yields NaN,
    so a broken operand shows in the loss instead of reading as 0.
    """
    pv, zv = p.value, z.value
    if pv.shape != zv.shape or pv.ndim < 1:
        raise ShapeError(f"cosine_rows expects matching [..., D], got {pv.shape} vs {zv.shape}")
    pn = np.sqrt(np.sum(pv * pv, axis=-1))
    zn = np.sqrt(np.sum(zv * zv, axis=-1))
    ok = ((pn >= COSINE_NORM_FLOOR) & (zn >= COSINE_NORM_FLOOR)) | ~np.isfinite(pn + zn)
    denom = np.where(ok, pn * zn, 1.0)
    dots = np.sum(pv * zv, axis=-1)
    c = np.where(ok, dots / denom, 0.0)

    def bk(g):
        gm = np.where(ok, g, 0.0)[..., None]
        d, cc = denom[..., None], c[..., None]
        pn2 = np.where(ok, pn * pn, 1.0)[..., None]
        zn2 = np.where(ok, zn * zn, 1.0)[..., None]
        return gm * (zv / d - cc * pv / pn2), gm * (pv / d - cc * zv / zn2)

    return record("cosine_rows", c, (p, z), bk)
