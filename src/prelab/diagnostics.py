"""Representation diagnostics for per-layer visual hidden states.

Patch-structure metrics against ground-truth patch labels:

    cohesion  = mean over classes of the mean pairwise cosine among
                same-class patches (unique unordered pairs, i != j)
    coupling  = mean over unordered class pairs of the mean pairwise cosine
                across the two classes
    contrast  = cohesion / max(coupling, 1e-6)

Neither needs a pairwise Gram matrix. With unit rows u_i and the class sum
S_c = sum over i in c of u_i, the same-class pairs give
sum_{i != j} u_i . u_j = |S_c|^2 - sum_i |u_i|^2, and the mean cosine
across classes c and c' is S_c . S_c' / (n_c n_c').

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
RIDGE_ALPHA_SCALE = 1e-3
LOGIT_LENS_TOP_K = 5


class NoEligibleClassError(ValueError):
    """No class satisfies the metric's minimum patch/class count."""


def _unit_rows(x: np.ndarray) -> np.ndarray:
    """Rows scaled to unit norm; rows below the cosine floor become zero
    (their cosine with anything is defined as 0)."""
    norms = np.sqrt(np.sum(x * x, axis=1))
    out = np.zeros_like(x)
    ok = norms >= COSINE_NORM_FLOOR
    out[ok] = x[ok] / norms[ok, None]
    return out


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

def _ridge_probe_accuracy(x_train, y_train, x_test, y_test):
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
    alpha = RIDGE_ALPHA_SCALE * np.trace(gram) / d
    w = np.linalg.solve(gram + alpha * np.eye(d), xt.T @ y)
    pred = classes[np.argmax(xe @ w, axis=1)]
    return float(np.mean(pred == y_test))


def linear_probe(features_by_layer, labels, train_idx, test_idx) -> list:
    """Closed-form one-vs-rest ridge probe per layer; returns the test
    accuracy of each layer, in order.

    features_by_layer: sequence of [N, d] arrays (one per recorded layer).
    Features are standardized per dimension with train-split statistics;
    weights solve (X'X + aI) W = X'Y with a = RIDGE_ALPHA_SCALE tr(X'X)/d;
    prediction is the argmax score; accuracy is measured on the held-out
    test split.
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

def logit_lens(visual_by_layer, head) -> list:
    """Decode visual hidden states of every layer through the model's
    output head, the layers.Linear whose input map is the final norm; per
    layer, softmax each patch and average the resulting distributions over
    all patches and examples. Returns, per layer, the LOGIT_LENS_TOP_K most
    probable tokens as [(token_id, mass)], by falling mass (ties by token
    id). The head is the run's own, called as the model calls it, so the
    last layer decodes exactly as the model does; the decode runs in the
    dtype of the states given (float32 for a dump, as in the model). The
    average over patches accumulates in float64.

    visual_by_layer: sequence over layers of [M, d] stacked patch states.
    """
    out = []
    for states in visual_by_layer:
        with ad.no_grad():
            probs = head(ad.constant(states)).value  # softmaxed in place
        probs -= probs.max(axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=-1, keepdims=True)
        dist = probs.mean(axis=0, dtype=np.float64)
        order = np.argsort(-dist, kind="stable")[:LOGIT_LENS_TOP_K]
        out.append([(int(t), float(dist[t])) for t in order])
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
    those of them with >= 2 distinct non-background classes.

    features_per_image: [N, N_p, d]; labels_per_image: [N, N_p] or [N, g, g].
    All images are reduced at once through their class sums (module
    docstring). A row below the cosine floor, or with a non-finite norm,
    adds nothing to them.
    """
    x = np.asarray(features_per_image, dtype=np.float64)
    lab = np.asarray(labels_per_image)
    lab = lab.reshape(len(lab), -1)
    if x.ndim != 3 or lab.shape != x.shape[:2]:
        raise ShapeError(f"patch features of shape {x.shape} vs labels of shape {lab.shape}")
    norms = np.sqrt(np.einsum("npd,npd->np", x, x))
    finite = np.isfinite(norms)
    if not finite.all():  # a 0 weight alone would not drop the row: 0 * NaN is NaN
        x = np.where(finite[..., None], x, 0.0)
    unit = finite & (norms >= COSINE_NORM_FLOOR)
    classes, inverse = np.unique(lab, return_inverse=True)
    member = inverse.reshape(lab.shape)[..., None] == np.flatnonzero(classes != 0)
    inv_norm = np.divide(1.0, norms, out=np.zeros_like(norms), where=unit)
    sums = np.matmul((member * inv_norm[..., None]).transpose(0, 2, 1), x)  # [N, C, d]
    dots = np.matmul(sums, sums.transpose(0, 2, 1))  # [N, C, C]
    count = member.sum(axis=1)  # [N, C], floored rows included
    # |S_c|^2 - sum_i |u_i|^2, where each unit row adds 1 and a floored row 0
    same = np.diagonal(dots, axis1=1, axis2=2) - (member & unit[..., None]).sum(axis=1)
    eligible = count >= 2
    per_class = np.divide(same, count * (count - 1), out=np.zeros(same.shape), where=eligible)
    n_eligible = eligible.sum(axis=1)
    has_cohesion = n_eligible > 0
    cohesions = per_class.sum(axis=1)[has_cohesion] / n_eligible[has_cohesion]
    if not cohesions.size:
        raise NoEligibleClassError("no image with an eligible class")
    c = np.arange(count.shape[1])
    pairs = (count[:, :, None] > 0) & (count[:, None, :] > 0) & (c[:, None] < c)
    cross = np.divide(dots, count[:, :, None] * count[:, None, :], out=np.zeros(dots.shape),
                      where=pairs)
    n_pairs = pairs.sum(axis=(1, 2))
    has_coupling = has_cohesion & (n_pairs > 0)
    couplings = cross.sum(axis=(1, 2))[has_coupling] / n_pairs[has_coupling]
    mean_cohesion = float(np.mean(cohesions))
    mean_coupling = float(np.mean(couplings)) if couplings.size else float("nan")
    return PatchMetrics(
        cohesion=mean_cohesion,
        coupling=mean_coupling,
        contrast=contrast(mean_cohesion, mean_coupling) if couplings.size else float("nan"),
        n_cohesion_images=int(cohesions.size),
        n_coupling_images=int(couplings.size),
        n_floored=int(np.sum(couplings < CONTRAST_FLOOR)),
    )


def layer_metrics(hv, labels_per_image, probe_labels, train_idx, test_idx):
    """Per-layer diagnosis of visual states hv [L+1, N, N_p, d]: probe accuracy,
    effective dimension and redundancy of the patch means, and patch metrics.
    hv may be of any float dtype; the math of every layer runs in float64.
    Returns the metrics.csv rows and the PatchMetrics of each layer."""
    pooled = hv.mean(axis=2, dtype=np.float64)
    probe_accs = linear_probe(pooled, probe_labels, train_idx, test_idx)
    patch = [patch_metrics_over_images(h, labels_per_image) for h in hv]
    rows = [{"layer": layer, "probe_acc": acc, "cohesion": pm.cohesion,
             "coupling": pm.coupling, "contrast": pm.contrast,
             "eff_dim": pca_effective_dim(p), "redundancy": redundancy(p)}
            for layer, (acc, pm, p) in enumerate(zip(probe_accs, patch, pooled))]
    return rows, patch
