import numpy as np
import pytest

from ilfo_lab import ConfigurationError
from ilfo_lab.discriminators import (
    BoxDiscriminator,
    MmdDiscriminator,
    RffFeatureMap,
    ipm_eval,
    mmd_update,
    project_ball,
    rff_featurize,
    tv_best_response,
)


class TestBoxBestResponse:
    def test_equal_marginals_zero(self):
        d = np.array([0.2, 0.5, 0.3])
        f, val = tv_best_response(d, d)
        assert val == 0.0
        np.testing.assert_allclose(f.values, 0.0)

    def test_disjoint_point_masses(self):
        f, val = tv_best_response(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert val == 1.0
        assert f(0) == 1.0 and f(1) == 0.0

    def test_enumerated_positive_part(self):
        f, val = tv_best_response(np.array([0.5, 0.3, 0.2]),
                                  np.array([0.2, 0.3, 0.5]))
        assert val == pytest.approx(0.3, abs=1e-15)
        np.testing.assert_allclose(f.values, [1.0, 0.0, 0.0])

    def test_tie_gets_zero(self):
        f, _ = tv_best_response(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        np.testing.assert_allclose(f.values, 0.0)

    def test_dominates_random_witnesses(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rng.dirichlet(np.ones(6))
            q = rng.dirichlet(np.ones(6))
            _, best = tv_best_response(p, q)
            for _ in range(50):
                f = BoxDiscriminator(values=rng.uniform(0, 1, size=6))
                assert float(p @ f.values - q @ f.values) <= best + 1e-12

    def test_values_validated(self):
        with pytest.raises(ConfigurationError):
            BoxDiscriminator(values=np.array([0.5, 1.2]))


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
    def test_zero_witness(self):
        f = BoxDiscriminator(values=np.zeros(3))
        assert ipm_eval(f, np.array([0.2, 0.3, 0.5]),
                        np.array([0, 1, 2, 2])) == 0.0

    def test_constant_witness_cancels(self):
        f = BoxDiscriminator(values=np.full(3, 0.7))
        val = ipm_eval(f, np.array([0.2, 0.3, 0.5]), np.array([0, 0, 1]))
        assert val == pytest.approx(0.0, abs=1e-15)

    def test_marginal_vs_samples(self):
        f = BoxDiscriminator(values=np.array([1.0, 0.0]))
        # marginal side: mass 0.8 on state 0; sample side: half on state 0
        val = ipm_eval(f, np.array([0.8, 0.2]), np.array([0, 1, 0, 1]))
        assert val == pytest.approx(0.8 - 0.5, abs=1e-15)

    def test_matched_empirical_distributions_small(self):
        rng = np.random.default_rng(12)
        p = rng.dirichlet(np.ones(4))
        a = rng.choice(4, size=10**4, p=p)
        b = rng.choice(4, size=10**4, p=p)
        f, _ = tv_best_response(np.bincount(a, minlength=4) / 1e4,
                                np.bincount(b, minlength=4) / 1e4)
        assert abs(ipm_eval(f, a, b)) <= 0.05

    def test_best_response_dominates_on_eval(self):
        rng = np.random.default_rng(13)
        p = rng.dirichlet(np.ones(5))
        q = rng.dirichlet(np.ones(5))
        _, best = tv_best_response(p, q)
        for _ in range(1000):
            f = BoxDiscriminator(values=rng.uniform(0, 1, size=5))
            assert ipm_eval(f, p, q) <= best + 1e-12

    def test_argmax_invariant_under_bonus_offset(self):
        # subtracting a witness-independent bonus term shifts every
        # objective value equally, so the maximizer cannot move
        rng = np.random.default_rng(14)
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        bonus_term = float(rng.uniform(0, 3))
        f_star, best = tv_best_response(p, q)
        candidates = [BoxDiscriminator(values=rng.uniform(0, 1, size=4))
                      for _ in range(200)] + [f_star]
        plain = [ipm_eval(f, p, q) for f in candidates]
        shifted = [v - bonus_term for v in plain]
        assert int(np.argmax(plain)) == int(np.argmax(shifted))
        assert candidates[int(np.argmax(shifted))] is f_star
