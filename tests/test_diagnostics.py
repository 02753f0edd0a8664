import numpy as np
import pytest

from prelab import autodiff as ad
from prelab.diagnostics import (CONTRAST_FLOOR, NoEligibleClassError, cohesion, contrast,
                                coupling, linear_probe, logit_lens,
                                patch_metrics_over_images, pca_effective_dim, similarity_map)
from prelab.model import MllmConfig, MllmParams, encode_image, llm_forward
from prelab.numerics import ShapeError

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


class TestPatchStructure:
    def test_orthonormal_classes(self):
        feats, labels = orthonormal_scene()
        assert cohesion(feats, labels) == 1.0
        assert coupling(feats, labels) == 0.0
        assert contrast(1.0, 0.0) == 1.0 / CONTRAST_FLOOR
        assert contrast(1.0, 0.5) == 2.0

    def test_background_patches_are_excluded(self):
        feats, labels = orthonormal_scene()
        objects = labels > 0
        rng = np.random.default_rng(0)
        for _ in range(3):
            feats[~objects] = rng.normal(size=(np.sum(~objects), 3))
            assert cohesion(feats, labels) == cohesion(feats[objects], labels[objects])
            assert coupling(feats, labels) == coupling(feats[objects], labels[objects])

    def test_no_eligible_class(self):
        feats = np.eye(4)
        with pytest.raises(NoEligibleClassError):
            cohesion(feats, [1, 2, 0, 0])  # every class is a lone patch
        with pytest.raises(NoEligibleClassError):
            coupling(feats, [1, 1, 1, 0])  # a single class
        with pytest.raises(NoEligibleClassError):
            patch_metrics_over_images([feats, feats], [[1, 0, 0, 0], [0, 0, 0, 0]])

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
            assert cohesion(feats, labels) == pytest.approx(coh, abs=1e-12)
            if coup is not None:
                assert coupling(feats, labels) == pytest.approx(coup, abs=1e-12)
        pm = patch_metrics_over_images([i[0] for i in images], [i[1] for i in images])
        assert pm.cohesion == pytest.approx(2.5 / 3, abs=1e-12)
        assert pm.coupling == pytest.approx(0.125, abs=1e-12)
        # the mean of the per-image ratios would be (2 + 1e6) / 2, the second
        # image's coupling being floored
        assert pm.contrast == pytest.approx((2.5 / 3) / 0.125, rel=1e-12)
        assert (pm.n_cohesion_images, pm.n_coupling_images, pm.n_floored) == (3, 2, 1)


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


class TestLogitLens:
    def test_last_layer_decodes_as_the_model(self):
        cfg = MllmConfig(grid=2, patch=2, d_v=8, d_l=8, layers=2, heads=2, target_layer=1)
        params = MllmParams(cfg)
        rng = np.random.default_rng(1)
        for p in params.ln_f.params():  # move the final norm off its identity init
            p.value[...] = rng.normal(size=p.value.shape)
        z = encode_image(params, rng.uniform(size=(3, 4, 4)))
        answers = rng.integers(0, 32, size=(3, 2))
        with ad.no_grad():
            trace = llm_forward(params, z, rng.integers(0, 32, size=(3, 4)), answers)
        visual = [trace.visual_values(l).reshape(-1, cfg.d_l) for l in range(cfg.layers + 1)]
        lens = logit_lens(visual, params.ln_f.gamma.value, params.ln_f.beta.value,
                          params.head.w.value, params.head.b.value)
        assert [d.layer for d in lens] == [0, 1, 2]
        start = trace.visual_start
        logits = trace.logits.value[:, start:start + cfg.n_patches].reshape(-1, cfg.vocab)
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        expected = (e / e.sum(axis=-1, keepdims=True)).mean(axis=0)
        assert np.max(np.abs(lens[-1].distribution - expected)) < 1e-12
        tops = lens[-1].top_tokens
        assert [t for t, _ in tops] == list(np.argsort(-expected, kind="stable")[:5])
        assert all(a[1] >= b[1] for a, b in zip(tops, tops[1:]))
