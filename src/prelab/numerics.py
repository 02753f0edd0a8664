"""Dense float64 statistics and the deterministic random stream.

All functions operate on numpy float64 arrays and are pure. The
covariance and correlation routines are written for bit-reproducibility:
their outputs are made exactly symmetric by mirroring the upper triangle.
COSINE_NORM_FLOOR is the norm below which every cosine in the package
(autodiff.cosine_rows, the diagnostics' unit rows) is defined as 0.
"""

from __future__ import annotations

import zlib
from functools import cached_property

import numpy as np

COSINE_NORM_FLOOR = 1e-12
TRUNC_SIGMAS = 2.0  # truncated_normal keeps draws within this many std


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class ConfigError(ValueError):
    """Invalid run configuration or command arguments."""


def covariance(x) -> np.ndarray:
    """Sample covariance (divisor N-1) of rows of x (shape N x D), centered
    per column. Output is made exactly symmetric by mirroring the upper
    triangle.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"covariance expects an N x D matrix, got {x.shape}")
    n = x.shape[0]
    if n < 2:
        raise ValueError(f"covariance needs at least 2 rows, got {n}")
    xc = x - x.mean(axis=0)
    c = (xc.T @ xc) / (n - 1)
    return np.triu(c) + np.triu(c, 1).T


def pearson_corr(x) -> np.ndarray:
    """Pearson correlation matrix of the columns of x (shape N x D).

    Columns whose centered norm is negligible relative to their raw scale
    (variance below 1e-24 of the raw second moment) are treated as
    zero-variance: their off-diagonal correlations are 0 and the diagonal
    is 1. The diagonal is set to exactly 1 for all columns and the matrix
    is exactly symmetric.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"pearson_corr expects an N x D matrix, got {x.shape}")
    n, d = x.shape
    if n < 2:
        raise ValueError(f"pearson_corr needs at least 2 rows, got {n}")
    xc = x - x.mean(axis=0)
    sq = np.sum(xc * xc, axis=0)
    raw = np.sum(x * x, axis=0)
    degenerate = sq <= 1e-24 * np.maximum(raw, 1.0)
    xn = np.zeros_like(xc)
    good = ~degenerate
    if np.any(good):
        xn[:, good] = xc[:, good] / np.sqrt(sq[good])
    c = xn.T @ xn
    c = np.triu(c) + np.triu(c, 1).T
    np.fill_diagonal(c, 1.0)
    return np.clip(c, -1.0, 1.0)


def _label_hash(label) -> int:
    if isinstance(label, (int, np.integer)):  # np.int64(3) keys the same stream as 3
        return int(label) & 0xFFFFFFFF
    return zlib.crc32(str(label).encode("utf-8"))


class RngStream:
    """Splittable deterministic random stream (PCG64 over a seed path).

    Identical seed and draw sequence give identical outputs on every
    platform. split(label) derives an independent child stream keyed by a
    stable hash of the label, so sibling streams never interact regardless
    of how many values each one draws.
    """

    def __init__(self, seed: int, _path: tuple = ()):
        self.seed = int(seed)
        self._path = tuple(_path)

    @cached_property
    def _gen(self) -> np.random.Generator:
        # built on the first draw, so a stream that is only split costs none
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self._path)
        return np.random.Generator(np.random.PCG64(ss))

    def split(self, label) -> "RngStream":
        return RngStream(self.seed, self._path + (_label_hash(label),))

    def normal(self, shape, std: float = 1.0) -> np.ndarray:
        return self._gen.normal(scale=std, size=shape)

    def truncated_normal(self, shape, std: float) -> np.ndarray:
        """Gaussian draws resampled (not clipped) until within TRUNC_SIGMAS."""
        out = self._gen.normal(scale=std, size=shape)
        bound = TRUNC_SIGMAS * std
        bad = np.abs(out) > bound
        while np.any(bad):
            out[bad] = self._gen.normal(scale=std, size=int(bad.sum()))
            bad = np.abs(out) > bound
        return out

    def integers(self, low, high=None, size=None) -> np.ndarray:
        return self._gen.integers(low, high, size=size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size=size)
