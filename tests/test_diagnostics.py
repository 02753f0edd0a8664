import copy

import numpy as np
import pytest

from gradcheck import cast_to_float64
from prelab import autodiff as ad
from prelab.diagnostics import (CONTRAST_FLOOR, NoEligibleClassError, PatchMetrics, contrast,
                                layer_metrics, linear_probe, logit_lens,
                                patch_metrics_over_images, pca_effective_dim, redundancy,
                                similarity_map)
from prelab.model import MllmConfig, MllmParams, encode_image, llm_forward
from prelab.numerics import COSINE_NORM_FLOOR, ShapeError

THRESHOLDS = (0.5, 0.8, 0.95, 0.99)


def features_with_spectrum(eigvals, n=40, seed=0, offset=5.0):
    """n x d features whose sample covariance has spectrum `eigvals` (up to
    rounding) along a random orthonormal basis, with every column shifted
    by `offset` so the centering is exercised."""
    rng = np.random.default_rng(seed)
    d = len(eigvals)
    u = rng.normal(size=(n, d))
    u -= u.mean(axis=0)
    q, _ = np.linalg.qr(u)  # orthonormal columns that still sum to zero
    v, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return q @ np.diag(np.sqrt((n - 1) * np.asarray(eigvals, dtype=np.float64))) @ v.T + offset


def reference_k(features, threshold):
    """Smallest k whose top-k variance reaches `threshold`, from the
    singular values of the centered features."""
    x = features - features.mean(axis=0)
    var = np.linalg.svd(x, compute_uv=False) ** 2 / (x.shape[0] - 1)
    cum = np.cumsum(var)
    return int(np.argmax(cum >= threshold * cum[-1]) + 1)


class TestPcaEffectiveDim:
    def test_hand_built_spectrum(self):
        # variances given out of order, summing to 100: the top-k mass is
        # 50, 80, 90, 96, 99, 100 only once they are sorted descending
        x = features_with_spectrum([1.0, 10.0, 50.0, 3.0, 30.0, 6.0])
        assert pca_effective_dim(x) == 4
        assert pca_effective_dim(x, threshold=0.45) == 1
        assert pca_effective_dim(x, threshold=0.85) == 3
        assert pca_effective_dim(x, threshold=0.995) == 6

    def test_rank_deficient(self):
        # rank 2 in 6 dimensions: the zero eigenvalues come back as rounding
        # noise of either sign, are clamped to 0, and add no mass
        x = features_with_spectrum([3.0, 2.0, 0.0, 0.0, 0.0, 0.0], seed=1)
        assert pca_effective_dim(x) == 2
        assert pca_effective_dim(x, threshold=0.999999) == 2

    def test_fewer_rows_than_dimensions(self):
        x = np.random.default_rng(2).normal(size=(5, 12))
        assert pca_effective_dim(x, threshold=0.999999) <= 4

    def test_all_equal_rows_are_degenerate(self):
        x = np.tile(np.array([1.5, -2.0, 0.25, 7.0]), (9, 1))
        assert pca_effective_dim(x) == 1

    def test_matches_svd_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.normal(size=(50, 10)) * rng.uniform(0.1, 3.0, size=10)
            for t in THRESHOLDS:
                assert pca_effective_dim(x, threshold=t) == reference_k(x, t)

    def test_invariant_under_permutation_and_rotation(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(60, 10)) * np.linspace(0.2, 3.0, 10)
        perm = rng.permutation(10)
        rot, _ = np.linalg.qr(rng.normal(size=(10, 10)))
        for t in THRESHOLDS:
            k = pca_effective_dim(x, threshold=t)
            assert pca_effective_dim(x[:, perm], threshold=t) == k
            assert pca_effective_dim(x @ rot, threshold=t) == k


def at_angle(cos):
    """A unit vector in the plane whose cosine with (1, 0) is `cos`."""
    return np.array([cos, np.sqrt(1.0 - cos * cos)])


def orthonormal_scene():
    """Two classes along orthonormal directions, rows scaled arbitrarily,
    plus background rows that point anywhere."""
    e = np.eye(3)
    labels = np.array([1, 1, 1, 2, 2, 0, 0, 0])
    feats = np.array([2.0 * e[0], 0.5 * e[0], 7.0 * e[0], 3.0 * e[1], 0.1 * e[1],
                      e[0] + e[1], -e[0], np.ones(3)])
    return feats, labels


def one_image(feats, labels):
    return patch_metrics_over_images([feats], [labels])


def reference_patch_metrics(features_per_image, labels_per_image):
    """The pairwise loop over images and classes that the class-sum form
    replaced: per image, cosines of unit rows (a row below the norm floor or
    not finite is zero) over unique same-class and cross-class pairs."""
    cohesions, couplings = [], []
    for feats, labs in zip(features_per_image, labels_per_image):
        labs = np.asarray(labs).ravel()
        norms = np.sqrt(np.sum(feats * feats, axis=1))
        ok = norms >= COSINE_NORM_FLOOR
        xn = np.zeros_like(feats)
        xn[ok] = feats[ok] / norms[ok, None]
        classes = [c for c in np.unique(labs) if c != 0]
        per_class = []
        for c in classes:
            sub = xn[labs == c]
            n = len(sub)
            if n >= 2:
                gram = sub @ sub.T
                per_class.append((gram.sum() - np.trace(gram)) / 2.0 / (n * (n - 1) / 2.0))
        if not per_class:
            continue
        cohesions.append(np.mean(per_class))
        if len(classes) < 2:
            continue
        couplings.append(np.mean([(xn[labs == c] @ xn[labs == c2].T).mean()
                                  for i, c in enumerate(classes) for c2 in classes[i + 1:]]))
    coh, coup = np.mean(cohesions), np.mean(couplings) if couplings else np.nan
    return PatchMetrics(coh, coup, contrast(coh, coup) if couplings else np.nan,
                        len(cohesions), len(couplings),
                        sum(int(c < CONTRAST_FLOOR) for c in couplings))


def random_scene(rng, n_images=24, n_patches=16, d=5, n_classes=4):
    """Images of class directions plus noise, with zero (floored) rows,
    lone-patch classes, single-class and background-only images, and a NaN
    in a background row and in an object row."""
    labels = rng.integers(0, n_classes + 1, size=(n_images, n_patches))
    labels[0] = 0                                  # background only
    labels[1] = np.where(labels[1] > 0, 2, 0)      # a single class
    labels[2] = 0
    labels[2, :3] = [1, 2, 3]                      # only lone-patch classes
    labels[3, :2] = [1, 1]
    labels[3, 2:] = np.where(labels[3, 2:] > 0, 3, 0)
    labels[3, 2] = 4                               # a lone patch beside pairs
    labels[4:6, 0] = [0, 1]
    directions = rng.normal(size=(n_classes + 1, d))
    feats = directions[labels] + rng.normal(scale=0.7, size=(n_images, n_patches, d))
    feats *= rng.uniform(0.1, 10.0, size=(n_images, n_patches, 1))
    feats[rng.random(size=(n_images, n_patches)) < 0.1] = 0.0
    feats[4, 0, 1] = feats[5, 0, 0] = np.nan
    return feats, labels


class TestPatchStructure:
    def test_orthonormal_classes(self):
        feats, labels = orthonormal_scene()
        pm = one_image(feats, labels)
        assert pm.cohesion == 1.0
        assert pm.coupling == 0.0
        assert contrast(1.0, 0.0) == 1.0 / CONTRAST_FLOOR
        assert contrast(1.0, 0.5) == 2.0

    def test_background_patches_are_excluded(self):
        feats, labels = orthonormal_scene()
        objects = labels > 0
        rng = np.random.default_rng(0)
        for _ in range(3):
            feats[~objects] = rng.normal(size=(np.sum(~objects), 3))
            assert one_image(feats, labels) == one_image(feats[objects], labels[objects])

    def test_no_eligible_class(self):
        feats = np.eye(4)
        with pytest.raises(NoEligibleClassError):
            one_image(feats, [1, 2, 0, 0])  # every class is a lone patch
        pm = one_image(feats, [1, 1, 1, 0])  # a single class: no coupling
        assert (pm.n_cohesion_images, pm.n_coupling_images) == (1, 0)
        assert np.isnan(pm.coupling) and np.isnan(pm.contrast)
        with pytest.raises(NoEligibleClassError):
            patch_metrics_over_images([feats, feats], [[1, 0, 0, 0], [0, 0, 0, 0]])

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_pairwise_reference(self, seed):
        feats, labels = random_scene(np.random.default_rng(seed))
        pm = patch_metrics_over_images(feats, labels)
        ref = reference_patch_metrics(feats, labels)
        for name in ("cohesion", "coupling", "contrast"):
            assert np.isclose(getattr(pm, name), getattr(ref, name), rtol=1e-12, atol=0.0)
        assert ((pm.n_cohesion_images, pm.n_coupling_images, pm.n_floored)
                == (ref.n_cohesion_images, ref.n_coupling_images, ref.n_floored))
        # the background-only, lone-patch-only and single-class images count
        # for neither, neither and cohesion only
        assert pm.n_cohesion_images == len(feats) - 2
        assert pm.n_coupling_images == len(feats) - 3
        assert np.isfinite(pm.contrast)

    def test_similarity_map(self):
        feats = np.array([[1.0, 0.0], [3.0, 0.0], [0.0, 2.0], [-1.0, 0.0]])
        sims = similarity_map(feats, 0, grid=2)
        assert sims.shape == (2, 2)
        assert np.array_equal(sims, [[1.0, 1.0], [0.0, -1.0]])
        # a zero row has cosine 0 with everything, itself included, yet the
        # probe's self-similarity is pinned to 1
        feats[2] = 0.0
        assert np.array_equal(similarity_map(feats, 2, grid=2), [[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ShapeError):
            similarity_map(feats, 0, grid=3)
        with pytest.raises(IndexError):
            similarity_map(feats, 4, grid=2)

    def test_dataset_contrast_is_ratio_of_means(self):
        u = at_angle(1.0)
        images = [  # (features, labels, cohesion, coupling)
            (np.array([u, u, at_angle(0.5), at_angle(0.5)]), [1, 1, 2, 2], 1.0, 0.5),
            (np.array([u, u, at_angle(-0.25), at_angle(-0.25)]), [1, 1, 2, 2], 1.0, -0.25),
            (np.array([u, at_angle(0.5), -u, u]), [1, 1, 0, 0], 0.5, None),
        ]
        for feats, labels, coh, coup in images:
            pm = one_image(feats, labels)
            assert pm.cohesion == pytest.approx(coh, abs=1e-12)
            if coup is not None:
                assert pm.coupling == pytest.approx(coup, abs=1e-12)
        pm = patch_metrics_over_images([i[0] for i in images], [i[1] for i in images])
        assert pm.cohesion == pytest.approx(2.5 / 3, abs=1e-12)
        assert pm.coupling == pytest.approx(0.125, abs=1e-12)
        # the mean of the per-image ratios would be (2 + 1e6) / 2, the second
        # image's coupling being floored
        assert pm.contrast == pytest.approx((2.5 / 3) / 0.125, rel=1e-12)
        assert (pm.n_cohesion_images, pm.n_coupling_images, pm.n_floored) == (3, 2, 1)

    def test_mismatched_labels_raise(self):
        feats, labels = orthonormal_scene()
        with pytest.raises(ShapeError):
            one_image(feats, labels[:-1])
        with pytest.raises(ShapeError):
            patch_metrics_over_images([feats, feats], [labels])


class TestLinearProbe:
    def test_separable_features_give_accuracy_one(self):
        rng = np.random.default_rng(0)
        labels = np.arange(60) % 3 + 1
        separable = 5.0 * np.eye(4)[labels] + 0.1 * rng.normal(size=(60, 4))
        shifted = separable @ rng.normal(size=(4, 6)) + 2.0  # still linearly separable
        accs = linear_probe([separable, shifted], labels, np.arange(40), np.arange(40, 60))
        assert accs == [1.0, 1.0]

    def test_constant_features_predict_the_majority_class(self):
        # train split: 6 of 10 examples are class 2; test split: 3 of 5
        labels = np.array([2, 2, 1, 2, 3, 2, 1, 2, 2, 3, 2, 1, 2, 3, 2])
        accs = linear_probe([np.ones((15, 3))], labels, np.arange(10), np.arange(10, 15))
        assert accs == [0.6]


def test_layer_metrics_matches_a_per_image_reference():
    # == pins the pooling: the patch mean of each image, summed in patch order
    rng = np.random.default_rng(3)
    hv = rng.normal(size=(3, 12, 16, 6))
    labels = [rng.integers(0, 4, size=(4, 4)) for _ in range(12)]
    probe_labels = np.arange(12) % 3
    train_idx, test_idx = np.arange(8), np.arange(8, 12)
    rows, patch = layer_metrics(hv, labels, probe_labels, train_idx, test_idx)
    pooled = [np.stack([features.mean(axis=0) for features in layer]) for layer in hv]
    accs = linear_probe(pooled, probe_labels, train_idx, test_idx)
    for layer in range(3):
        pm = patch_metrics_over_images(list(hv[layer]), labels)
        assert patch[layer] == pm
        assert rows[layer] == {"layer": layer, "probe_acc": accs[layer],
                               "cohesion": pm.cohesion, "coupling": pm.coupling,
                               "contrast": pm.contrast,
                               "eff_dim": pca_effective_dim(pooled[layer]),
                               "redundancy": redundancy(pooled[layer])}


def test_layer_metrics_rows_do_not_depend_on_the_states_dtype():
    # metrics reads the dump's float32 states; every layer's math is float64
    rng = np.random.default_rng(4)
    hv = rng.normal(size=(3, 12, 16, 6)).astype(np.float32)
    labels = [rng.integers(0, 4, size=(4, 4)) for _ in range(12)]
    probe_labels = np.arange(12) % 3
    split = (np.arange(8), np.arange(8, 12))
    rows32, patch32 = layer_metrics(hv, labels, probe_labels, *split)
    rows64, patch64 = layer_metrics(hv.astype(np.float64), labels, probe_labels, *split)
    assert rows32 == rows64 and patch32 == patch64


def _lens_states():
    """A tiny random model with its final norm off the identity init, and
    its float32 visual states of every layer, [M, d] each."""
    cfg = MllmConfig(grid=2, d_l=8, layers=2, heads=2, target_layer=1)
    params = MllmParams(cfg)
    rng = np.random.default_rng(1)
    for p in params.head.norm:
        p.value[...] = rng.normal(size=p.value.shape)
    z = encode_image(params, rng.uniform(size=(3, 8, 8)))
    with ad.no_grad():
        trace = llm_forward(params, z, rng.integers(0, 32, size=(3, 4)))
        visual = [trace.visual(l).value.reshape(-1, cfg.d_l) for l in range(cfg.layers + 1)]
    return params, visual


class TestLogitLens:
    def test_last_layer_decodes_as_the_model(self):
        params, visual = _lens_states()
        with ad.no_grad():
            logits = params.head(ad.constant(visual[-1])).value
        lens = logit_lens(visual, params.head)
        assert len(lens) == 3
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        expected = (e / e.sum(axis=-1, keepdims=True)).mean(axis=0, dtype=np.float64)
        top = np.argsort(-expected, kind="stable")[:5]
        assert [t for t, _ in lens[-1]] == list(top)
        assert np.max(np.abs([mass for _, mass in lens[-1]] - expected[top])) < 1e-12
        assert all(a[1] >= b[1] for a, b in zip(lens[-1], lens[-1][1:]))

    def test_float32_decode_matches_a_float64_decode(self):
        params, visual = _lens_states()
        assert all(v.dtype == np.float32 for v in visual)
        head64 = copy.deepcopy(params.head)
        cast_to_float64(head64.params())
        lens32 = logit_lens(visual, params.head)
        lens64 = logit_lens([v.astype(np.float64) for v in visual], head64)
        for top32, top64 in zip(lens32, lens64, strict=True):
            assert [t for t, _ in top32] == [t for t, _ in top64]
            mass32, mass64 = (np.array([mass for _, mass in top]) for top in (top32, top64))
            assert np.all(np.abs(mass32 - mass64) <= 1e-6 * mass64)
