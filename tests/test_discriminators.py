import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

import ilfo_lab.discriminators as disc_mod
from ilfo_lab import ConfigurationError
from ilfo_lab.discriminators import (
    PAIR_BLOCK,
    RffFeatureMap,
    box_witness,
    mmd_update,
    pairwise_distances,
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
        expected = float(np.quantile(pdist(pts), 0.1))
        fmap, _ = rff_featurize(pts, m=8, bandwidth="auto", rng=rng)
        assert fmap.bandwidth == expected

    def test_auto_bandwidth_zero_quantile_falls_back_to_min_positive(self):
        # 10 of the 15 pairs coincide, so the 0.1 quantile is 0 and the
        # bandwidth is the smallest positive distance, |(3, 4)| = 5
        pts = np.array([[0.0, 0.0]] * 5 + [[3.0, 4.0]])
        assert np.quantile(pdist(pts), 0.1) == 0.0
        fmap, _ = rff_featurize(pts, m=8, bandwidth="auto",
                                rng=np.random.default_rng(0))
        assert fmap.bandwidth == 5.0

    def test_auto_bandwidth_rejects_a_batch_without_spread(self):
        with pytest.raises(ConfigurationError, match=re.escape(
                "auto bandwidth: reference batch has no spread")):
            rff_featurize(np.ones((4, 3)), m=8, bandwidth="auto",
                          rng=np.random.default_rng(0))

    def test_auto_bandwidth_needs_two_points(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ConfigurationError):
            rff_featurize(np.zeros((1, 2)), m=8, bandwidth="auto", rng=rng)

    def test_scalar_state_batches(self):
        # rff_featurize reads an (n,) batch as n scalar states; the map
        # itself takes them as (n, 1) rows, and one (1,) state as (m,)
        rng = np.random.default_rng(6)
        fmap, feats = rff_featurize(np.array([0.0, 1.0, 2.0]), m=8,
                                    bandwidth=1.0, rng=rng)
        assert feats.shape == (3, 8)
        x = np.array([[0.0], [1.0], [2.0]])
        assert np.array_equal(fmap(x), feats)
        assert np.array_equal(fmap(x[1]), fmap(x[1:2])[0])


class TestPairwiseDistances:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(2, 40), d=st.integers(1, 8),
           log_scale=st.floats(-3.0, 3.0), dups=st.integers(0, 3),
           block=st.sampled_from([1, 2, 7, PAIR_BLOCK]),
           seed=st.integers(0, 2**32 - 1))
    @example(n=2, d=1, log_scale=0.0, dups=0, block=PAIR_BLOCK, seed=0)
    @example(n=2, d=1, log_scale=-3.0, dups=1, block=1, seed=1)
    @example(n=9, d=3, log_scale=3.0, dups=3, block=PAIR_BLOCK, seed=2)
    def test_matches_scipy_pdist_bit_for_bit(self, n, d, log_scale, dups,
                                             block, seed):
        # smaller blocks split the rows the same way a large batch does
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d)) * 10.0**log_scale
        for _ in range(dups):
            x[rng.integers(n)] = x[rng.integers(n)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(disc_mod, "PAIR_BLOCK", block)
            got = pairwise_distances(x)
        assert np.array_equal(got, pdist(x))

    def test_memory_is_the_output_plus_one_block(self):
        n, d = 2000, 4
        x = np.random.default_rng(13).normal(size=(n, d))
        tracemalloc.start()
        try:
            dists = pairwise_distances(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A block holds at most PAIR_BLOCK pairs.  Its working set is two
        # float64 buffers, the gathered upper triangle (at most one more
        # float64 block) and a bool mask (an eighth of one); the
        # transposed copy of x is n*d float64, another eighth here.
        # Four float64 blocks cover that; a form that indexes all pairs
        # at once would add two int64 arrays the size of the output.
        assert n * d <= PAIR_BLOCK // 8
        assert peak <= n * (n - 1) // 2 * 8 + 4 * 8 * PAIR_BLOCK
        assert np.array_equal(dists, pdist(x))


class TestMmdUpdates:
    def test_exact_update_zero_on_matched_means(self):
        rng = np.random.default_rng(7)
        mean = rng.normal(size=8)
        np.testing.assert_allclose(mmd_update(mean, mean), 0.0)

    def test_project_ball_identity_inside(self):
        # inside the unit ball the weights are the difference itself;
        # outside, the difference scaled onto the sphere
        w = np.array([0.3, 0.4])
        np.testing.assert_array_equal(mmd_update(w, np.zeros(2)), w)
        shrunk = mmd_update(np.array([3.0, 4.0]), np.zeros(2))
        assert np.linalg.norm(shrunk) == pytest.approx(1.0, abs=1e-12)
        far = np.random.default_rng(10).normal(size=8) * 10
        assert np.linalg.norm(mmd_update(far, np.zeros(8))) <= 1.0 + 1e-12

    def test_sup_ipm_nonnegative_zero_iff_means_match(self):
        # symmetric class: the projected-difference witness attains
        # |diff|^2 inside the ball and |diff| on the boundary, both
        # nonnegative and zero exactly when the means coincide
        rng = np.random.default_rng(11)
        a, b = rng.normal(size=8), rng.normal(size=8)
        val = float(mmd_update(a, b) @ (a - b))
        gap = float(np.linalg.norm(a - b))
        expected = gap**2 if gap <= 1.0 else gap
        assert val == pytest.approx(expected, rel=1e-12)
        assert val > 0
        assert float(mmd_update(a, a) @ (a - a)) == 0.0


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
