import numpy as np
import pytest

from ilfo_lab import ConfigurationError
from ilfo_lab.discriminators import (
    MmdDiscriminator,
    RffFeatureMap,
    box_witness,
    mmd_update,
    project_ball,
    rff_featurize,
    tv_best_response,
)


class TestBoxBestResponse:
    def test_equal_marginals_zero(self):
        d = np.array([0.2, 0.5, 0.3])
        assert tv_best_response(d, d) == 0.0
        np.testing.assert_allclose(box_witness(d, d), 0.0)

    def test_disjoint_point_masses(self):
        p, q = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert tv_best_response(p, q) == 1.0
        np.testing.assert_array_equal(box_witness(p, q), [1.0, 0.0])

    def test_enumerated_positive_part(self):
        p, q = np.array([0.5, 0.3, 0.2]), np.array([0.2, 0.3, 0.5])
        val = tv_best_response(p, q)
        assert type(val) is float
        assert val == pytest.approx(0.3, abs=1e-15)
        np.testing.assert_allclose(box_witness(p, q), [1.0, 0.0, 0.0])

    def test_tie_gets_zero(self):
        d = np.array([0.5, 0.5])
        np.testing.assert_allclose(box_witness(d, d), 0.0)

    def test_dominates_random_witnesses(self):
        # f* = box_witness(p, q) attains the sup of f @ (p - q) over
        # f in [0, 1]^S, so no random witness beats its value
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rng.dirichlet(np.ones(6))
            q = rng.dirichlet(np.ones(6))
            best = tv_best_response(p, q)
            assert float(box_witness(p, q) @ (p - q)) == pytest.approx(
                best, abs=1e-15)
            for _ in range(50):
                f = rng.uniform(0, 1, size=6)
                assert float(f @ (p - q)) <= best + 1e-12


class TestRffFeatures:
    def test_deterministic_given_map(self):
        rng = np.random.default_rng(1)
        fmap, feats = rff_featurize(rng.normal(size=(5, 2)), m=16,
                                    bandwidth=1.0, rng=rng)
        s = np.array([0.3, -0.2])
        np.testing.assert_array_equal(fmap(s), fmap(s))

    def test_norm_bound(self):
        rng = np.random.default_rng(2)
        fmap, _ = rff_featurize(rng.normal(size=(3, 2)), m=64,
                                bandwidth=0.5, rng=rng)
        for _ in range(100):
            psi = fmap(rng.normal(size=2))
            assert np.linalg.norm(psi) <= np.sqrt(2) + 1e-12

    def test_kernel_approximation(self):
        # inner products of features estimate the Gaussian kernel
        rng = np.random.default_rng(3)
        bw = 0.8
        fmap, _ = rff_featurize(rng.normal(size=(2, 3)), m=4096,
                                bandwidth=bw, rng=rng)
        for _ in range(10):
            x = rng.normal(size=3)
            y = rng.normal(size=3)
            approx = float(fmap(x) @ fmap(y))
            exact = np.exp(-np.sum((x - y) ** 2) / (2 * bw**2))
            assert abs(approx - exact) < 0.05

    def test_auto_bandwidth_is_low_quantile(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(40, 2))
        from scipy.spatial.distance import pdist
        expected = float(np.quantile(pdist(pts), 0.1))
        fmap, _ = rff_featurize(pts, m=8, bandwidth="auto", rng=rng)
        assert fmap.bandwidth == pytest.approx(expected, rel=1e-12)

    def test_auto_bandwidth_needs_two_points(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ConfigurationError):
            rff_featurize(np.zeros((1, 2)), m=8, bandwidth="auto", rng=rng)

    def test_scalar_state_batches(self):
        rng = np.random.default_rng(6)
        fmap, feats = rff_featurize(np.array([0.0, 1.0, 2.0]), m=8,
                                    bandwidth=1.0, rng=rng)
        assert feats.shape == (3, 8)
        assert fmap(np.array([0.0, 1.0])).shape == (2, 8)


class TestMmdUpdates:
    @staticmethod
    def fresh_disc(rng, m=8, zeta=1.0):
        fmap, _ = rff_featurize(rng.normal(size=(4, 2)), m=m,
                                bandwidth=1.0, rng=rng)
        return MmdDiscriminator(feature_map=fmap, w=np.zeros(m), zeta=zeta)

    def test_exact_update_zero_on_matched_means(self):
        rng = np.random.default_rng(7)
        disc = self.fresh_disc(rng)
        mean = rng.normal(size=8)
        out = mmd_update(disc, mean, mean)
        np.testing.assert_allclose(out.w, 0.0)

    def test_projection_respects_zeta(self):
        rng = np.random.default_rng(10)
        disc = self.fresh_disc(rng, zeta=0.5)
        out = mmd_update(disc, rng.normal(size=8) * 10, np.zeros(8))
        assert np.linalg.norm(out.w) <= 0.5 + 1e-9

    def test_project_ball_identity_inside(self):
        w = np.array([0.3, 0.4])
        np.testing.assert_array_equal(project_ball(w, 1.0), w)
        shrunk = project_ball(np.array([3.0, 4.0]), 1.0)
        assert np.linalg.norm(shrunk) == pytest.approx(1.0, abs=1e-12)

    def test_sup_ipm_nonnegative_zero_iff_means_match(self):
        # symmetric class: the projected-difference witness attains
        # |diff|^2 inside the ball and zeta * |diff| on the boundary,
        # both nonnegative and zero exactly when the means coincide
        rng = np.random.default_rng(11)
        disc = self.fresh_disc(rng)
        a, b = rng.normal(size=8), rng.normal(size=8)
        best = mmd_update(disc, a, b)
        val = float(best.w @ (a - b))
        gap = float(np.linalg.norm(a - b))
        expected = gap**2 if gap <= 1.0 else gap
        assert val == pytest.approx(expected, rel=1e-12)
        assert val > 0
        matched = mmd_update(disc, a, a)
        assert float(matched.w @ (a - a)) == 0.0


class TestIpmEval:
    def test_best_response_dominates_on_eval(self):
        # the IPM of a box witness f between marginals p and q is
        # f @ (p - q); no witness in [0, 1]^S exceeds the best response
        rng = np.random.default_rng(13)
        p = rng.dirichlet(np.ones(5))
        q = rng.dirichlet(np.ones(5))
        best = tv_best_response(p, q)
        for _ in range(1000):
            f = rng.uniform(0, 1, size=5)
            assert float(f @ (p - q)) <= best + 1e-12
