import numpy as np

from prelab.diagnostics import EffectiveDim, pca_effective_dim

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
        assert pca_effective_dim(x) == EffectiveDim(4, False)
        assert pca_effective_dim(x, threshold=0.45) == EffectiveDim(1, False)
        assert pca_effective_dim(x, threshold=0.85) == EffectiveDim(3, False)
        assert pca_effective_dim(x, threshold=0.995) == EffectiveDim(6, False)

    def test_rank_deficient(self):
        # rank 2 in 6 dimensions: the zero eigenvalues come back as rounding
        # noise of either sign, are clamped to 0, and add no mass
        x = features_with_spectrum([3.0, 2.0, 0.0, 0.0, 0.0, 0.0], seed=1)
        assert pca_effective_dim(x) == EffectiveDim(2, False)
        assert pca_effective_dim(x, threshold=0.999999) == EffectiveDim(2, False)

    def test_fewer_rows_than_dimensions(self):
        x = np.random.default_rng(2).normal(size=(5, 12))
        eff = pca_effective_dim(x, threshold=0.999999)
        assert eff.k <= 4 and not eff.degenerate

    def test_all_equal_rows_are_degenerate(self):
        x = np.tile(np.array([1.5, -2.0, 0.25, 7.0]), (9, 1))
        assert pca_effective_dim(x) == EffectiveDim(1, True)

    def test_matches_svd_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.normal(size=(50, 10)) * rng.uniform(0.1, 3.0, size=10)
            for t in THRESHOLDS:
                assert pca_effective_dim(x, threshold=t).k == reference_k(x, t)

    def test_invariant_under_permutation_and_rotation(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(60, 10)) * np.linspace(0.2, 3.0, 10)
        perm = rng.permutation(10)
        rot, _ = np.linalg.qr(rng.normal(size=(10, 10)))
        for t in THRESHOLDS:
            k = pca_effective_dim(x, threshold=t)
            assert pca_effective_dim(x[:, perm], threshold=t) == k
            assert pca_effective_dim(x @ rot, threshold=t) == k
