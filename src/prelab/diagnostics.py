"""Representation diagnostics for per-layer visual hidden states.

Patch-structure metrics against ground-truth patch labels:

    cohesion  = mean over classes of the mean pairwise cosine among
                same-class patches (unique unordered pairs, i != j)
    coupling  = mean over unordered class pairs of the mean pairwise cosine
                across the two classes
    contrast  = cohesion / max(coupling, 1e-6)

Statistical structure of pooled features:

    effective dimension = smallest k whose top-k eigenvalue mass of the
                          feature covariance reaches 95% of the total
    redundancy          = mean absolute off-diagonal Pearson correlation

Global function is measured by a closed-form ridge linear probe on frozen
pooled features; absolute accuracies depend on that protocol choice, only
layer-wise comparisons are meaningful. Background patches (class 0) are
excluded from the patch metrics throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .numerics import COSINE_NORM_FLOOR, ShapeError, covariance, pearson_corr

CONTRAST_FLOOR = 1e-6
PCA_VARIANCE_THRESHOLD = 0.95


class NoEligibleClassError(ValueError):
    """No class satisfies the metric's minimum patch/class count."""


def pool_global(features: np.ndarray) -> np.ndarray:
    """Arithmetic mean over patches: [N_p, d] -> [d]."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] < 1:
        raise ShapeError(f"pool_global expects a non-empty N x d matrix, got {features.shape}")
    return features.mean(axis=0)


def _unit_rows(x: np.ndarray) -> np.ndarray:
    """Rows scaled to unit norm; rows below the cosine floor become zero
    (their cosine with anything is defined as 0)."""
    norms = np.sqrt(np.sum(x * x, axis=1))
    out = np.zeros_like(x)
    ok = norms >= COSINE_NORM_FLOOR
    out[ok] = x[ok] / norms[ok, None]
    return out


def cohesion(features: np.ndarray, labels: np.ndarray) -> float:
    """Mean over non-background classes (with >= 2 patches) of the mean
    cosine over unique same-class patch pairs."""
    x = np.asarray(features, dtype=np.float64)
    lab = np.asarray(labels).ravel()
    if x.shape[0] != lab.shape[0]:
        raise ShapeError(f"{x.shape[0]} patch features vs {lab.shape[0]} labels")
    xn = _unit_rows(x)
    per_class = []
    for c in np.unique(lab):
        if c == 0:
            continue
        idx = np.nonzero(lab == c)[0]
        n = idx.size
        if n < 2:
            continue
        sub = xn[idx]
        gram = sub @ sub.T
        total = (gram.sum() - np.trace(gram)) / 2.0
        per_class.append(total / (n * (n - 1) / 2.0))
    if not per_class:
        raise NoEligibleClassError("no class with at least two patches")
    return float(np.mean(per_class))


def coupling(features: np.ndarray, labels: np.ndarray) -> float:
    """Mean over unordered pairs of distinct non-background classes of the
    mean cosine between their patches."""
    x = np.asarray(features, dtype=np.float64)
    lab = np.asarray(labels).ravel()
    if x.shape[0] != lab.shape[0]:
        raise ShapeError(f"{x.shape[0]} patch features vs {lab.shape[0]} labels")
    classes = [int(c) for c in np.unique(lab) if c != 0]
    if len(classes) < 2:
        raise NoEligibleClassError("coupling needs at least two distinct classes")
    xn = _unit_rows(x)
    members = {c: xn[lab == c] for c in classes}
    per_pair = []
    for i, c in enumerate(classes):
        for c2 in classes[i + 1 :]:
            cross = members[c] @ members[c2].T
            per_pair.append(cross.mean())
    return float(np.mean(per_pair))


def contrast(cohesion_value: float, coupling_value: float) -> float:
    """cohesion / max(coupling, 1e-6)."""
    return cohesion_value / max(coupling_value, CONTRAST_FLOOR)


def similarity_map(features: np.ndarray, probe_index: int, grid: int) -> np.ndarray:
    """Cosine from one probe patch to every patch, as a [grid, grid] array;
    self-similarity pinned to exactly 1."""
    x = np.asarray(features, dtype=np.float64)
    n = x.shape[0]
    if not 0 <= probe_index < n:
        raise IndexError(f"probe index {probe_index} outside [0, {n})")
    if grid * grid != n:
        raise ShapeError(f"{n} patches do not fill a {grid}x{grid} grid")
    xn = _unit_rows(x)
    sims = xn @ xn[probe_index]
    sims[probe_index] = 1.0
    return sims.reshape(grid, grid)


def pca_effective_dim(features: np.ndarray,
                      threshold: float = PCA_VARIANCE_THRESHOLD) -> int:
    """Minimum number of principal components explaining `threshold` of the
    variance. Tiny negative numerical eigenvalues are clamped to zero;
    all-zero variance returns 1."""
    eigvals = np.maximum(np.linalg.eigvalsh(covariance(features))[::-1], 0.0)
    total = eigvals.sum()
    if total <= 0.0:
        return 1
    ratio = np.cumsum(eigvals) / total
    k = int(np.searchsorted(ratio, threshold) + 1)
    return min(k, eigvals.size)


def redundancy(features: np.ndarray) -> float:
    """Mean absolute off-diagonal Pearson correlation across dimensions."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 2:
        raise ShapeError(f"redundancy needs at least 2 feature dimensions, got {x.shape}")
    c = pearson_corr(x)
    d = c.shape[0]
    off = np.abs(c).sum() - d  # diagonal is exactly 1
    return float(off / (d * (d - 1)))


# ---------------------------------------------------------------------------
# linear probing
# ---------------------------------------------------------------------------

def _ridge_probe_accuracy(x_train, y_train, x_test, y_test, alpha_scale=1e-3):
    classes = np.unique(y_train)
    if classes.size < 2:
        raise ValueError("linear probe needs at least 2 classes in the train split")
    mean = x_train.mean(axis=0)
    std = x_train.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    xt = (x_train - mean) / std
    xe = (x_test - mean) / std
    # intercept column: on degenerate (constant) features the probe then
    # falls back to predicting the majority class
    xt = np.hstack([xt, np.ones((xt.shape[0], 1))])
    xe = np.hstack([xe, np.ones((xe.shape[0], 1))])
    d = xt.shape[1]
    y = (y_train[:, None] == classes[None, :]).astype(np.float64)
    gram = xt.T @ xt
    alpha = alpha_scale * np.trace(gram) / d
    w = np.linalg.solve(gram + alpha * np.eye(d), xt.T @ y)
    pred = classes[np.argmax(xe @ w, axis=1)]
    return float(np.mean(pred == y_test))


def linear_probe(features_by_layer, labels, train_idx, test_idx) -> list:
    """Closed-form one-vs-rest ridge probe per layer; returns the test
    accuracy of each layer, in order.

    features_by_layer: sequence of [N, d] arrays (one per recorded layer).
    Features are standardized per dimension with train-split statistics;
    weights solve (X'X + aI) W = X'Y with a = 1e-3 tr(X'X)/d; prediction is
    the argmax score; accuracy is measured on the held-out test split.
    """
    labels = np.asarray(labels)
    train_idx = np.asarray(train_idx)
    test_idx = np.asarray(test_idx)
    accs = []
    for feats in features_by_layer:
        feats = np.asarray(feats, dtype=np.float64)
        accs.append(_ridge_probe_accuracy(feats[train_idx], labels[train_idx],
                                          feats[test_idx], labels[test_idx]))
    return accs


# ---------------------------------------------------------------------------
# logit lens
# ---------------------------------------------------------------------------

@dataclass
class LogitLensDist:
    layer: int
    distribution: np.ndarray  # [vocab], sums to 1
    top_tokens: list          # [(token_id, mass)] sorted by mass desc


def logit_lens(visual_by_layer, ln_gamma, ln_beta, head_w, head_b, top_k: int = 5) -> list:
    """Decode visual hidden states of every layer through the final norm and
    output head; per layer, softmax each patch and average the resulting
    distributions over all patches and examples. The norm is the model's own
    layer-norm forward, so the last layer decodes exactly as the model does.

    visual_by_layer: sequence over layers of [M, d] stacked patch states.
    """
    gamma, beta = ad.constant(ln_gamma), ad.constant(ln_beta)
    out = []
    for layer, states in enumerate(visual_by_layer):
        logits = ad.layer_norm(ad.constant(states), gamma, beta).value @ head_w + head_b
        shifted = logits - logits.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        probs = e / e.sum(axis=-1, keepdims=True)
        dist = probs.mean(axis=0)
        order = np.argsort(-dist, kind="stable")[:top_k]
        out.append(LogitLensDist(layer=layer, distribution=dist,
                                 top_tokens=[(int(t), float(dist[t])) for t in order]))
    return out


# ---------------------------------------------------------------------------
# dataset-level aggregation
# ---------------------------------------------------------------------------

@dataclass
class PatchMetrics:
    cohesion: float
    coupling: float
    contrast: float
    n_cohesion_images: int
    n_coupling_images: int
    n_floored: int


def patch_metrics_over_images(features_per_image, labels_per_image) -> PatchMetrics:
    """Cohesion and coupling computed per image, averaged with equal image
    weight; the dataset-level contrast is the ratio of those averages.

    (A mean of per-image ratios would be dominated by the floor rule
    whenever a single image's coupling crosses zero; the ratio of means
    stays finite and comparable across runs. n_floored still counts the
    images whose own coupling would have floored.)

    Cohesion averages over images with an eligible class; coupling over
    images with >= 2 distinct non-background classes.
    """
    cohesions, couplings = [], []
    n_floored = 0
    for feats, labs in zip(features_per_image, labels_per_image):
        labs = np.asarray(labs).ravel()
        try:
            coh = cohesion(feats, labs)
        except NoEligibleClassError:
            continue
        cohesions.append(coh)
        try:
            coup = coupling(feats, labs)
        except NoEligibleClassError:
            continue
        couplings.append(coup)
        n_floored += int(coup < CONTRAST_FLOOR)
    if not cohesions:
        raise NoEligibleClassError("no image with an eligible class")
    mean_cohesion = float(np.mean(cohesions))
    mean_coupling = float(np.mean(couplings)) if couplings else float("nan")
    return PatchMetrics(
        cohesion=mean_cohesion,
        coupling=mean_coupling,
        contrast=contrast(mean_cohesion, mean_coupling) if couplings else float("nan"),
        n_cohesion_images=len(cohesions),
        n_coupling_images=len(couplings),
        n_floored=n_floored,
    )
