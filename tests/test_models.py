import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ilfo_lab import ConfigurationError, Policy, rollout
from ilfo_lab.models import (
    BonusFunction,
    KnrModel,
    ReplayBuffer,
    SIGMA_CAP,
    bootstrap_buffers,
    ensemble_bonus,
    fit_knr_model,
    fit_knr_ridge,
    fit_tabular,
    knr_beta,
    knr_uncertainty,
    TabularModel,
    theory_bonus,
)
from ilfo_lab.worlds import make_knr_example, make_random_mdp, make_random_policy

# frozen from notes/oracles/model_oracle.py
SIGMA_S2_N50 = 0.45576120286352634
BETA_EMPTY = 1.8021461590691488
UNC_EMPTY = 32.9025367747822


def filled_buffer(rng, mdp, n_episodes=20):
    buf = ReplayBuffer(num_states=mdp.num_states, num_actions=mdp.num_actions)
    pol = make_random_policy(rng, mdp.num_states, mdp.num_actions, mdp.horizon)
    for _ in range(n_episodes):
        buf.extend_trajectory(rollout(mdp, pol, rng))
    return buf


class TestReplayBuffer:
    def test_counts_track_appends(self):
        buf = ReplayBuffer(num_states=3, num_actions=2)
        buf.append(0, 1, 0, 2)
        buf.append(1, 1, 0, 2)
        buf.append(0, 1, 0, 0)
        assert buf.counts_sas[1, 0].sum() == 3
        assert buf.counts_sas[1, 0, 2] == 2
        assert buf.counts_sas[1, 0, 0] == 1
        assert len(buf) == 3

    def test_fifo_eviction_updates_counts(self):
        buf = ReplayBuffer(capacity=2, num_states=2, num_actions=1)
        buf.append(0, 0, 0, 1)
        buf.append(0, 1, 0, 1)
        buf.append(0, 1, 0, 0)  # evicts the first triple
        assert len(buf) == 2
        np.testing.assert_array_equal(buf.counts_sas[:, 0].sum(axis=1), [0, 2])

    def test_capacity_zero_is_unbounded(self):
        buf = ReplayBuffer(num_states=2, num_actions=1)
        for _ in range(1000):
            buf.append(0, 0, 0, 1)
        assert len(buf) == 1000

    def test_non_tabular_buffer_rejects_counts(self):
        buf = ReplayBuffer()
        buf.append(0, np.zeros(2), 1, np.ones(2))
        with pytest.raises(ConfigurationError):
            buf.counts_sas

    @pytest.mark.parametrize("a", [1.7, -1, "1"],
                             ids=["fractional", "negative", "string"])
    def test_knr_append_rejects_bad_action(self, a):
        # 1.7 would light one-hot slot 1, -1 the last slot
        buf = ReplayBuffer(capacity=1)
        buf.append(0, np.zeros(2), 1, np.ones(2))
        with pytest.raises(ConfigurationError):
            buf.append(1, np.zeros(2), a, np.ones(2))
        assert len(buf) == 1 and list(buf)[0][2] == 1

    @pytest.mark.parametrize("s, a, s_next", [
        (-1, 0, 1),     # would be counted as state S-1
        (0, 0, 1.7),    # would be truncated to state 1
        (0, 0, 3),      # s' = S, past the last state
        (0, 2, 1),      # a = A, past the last action
    ], ids=["negative_state", "fractional_next_state",
            "next_state_equal_to_S", "action_equal_to_A"])
    def test_tabular_append_rejects_bad_index(self, s, a, s_next):
        # a full FIFO buffer, so an eviction before the check would show
        buf = ReplayBuffer(capacity=2, num_states=3, num_actions=2)
        buf.append(0, 1, 1, 2)
        buf.append(1, 2, 0, 0)
        before = buf.counts_sas
        with pytest.raises(ConfigurationError):
            buf.append(2, s, a, s_next)
        assert list(buf) == [(0, 1, 1, 2), (1, 2, 0, 0)]
        np.testing.assert_array_equal(buf.counts_sas, before)

    def test_bootstrap_preserves_size_and_dims(self):
        rng = np.random.default_rng(0)
        buf = ReplayBuffer(num_states=3, num_actions=2)
        for i in range(30):
            buf.append(0, i % 3, i % 2, (i + 1) % 3)
        pair = bootstrap_buffers(buf, rng)
        assert len(pair) == 2
        for b in pair:
            assert len(b) == 30
            assert b.tabular
        # resamples should differ from each other almost surely
        assert list(pair[0]) != list(pair[1])


class TestFitTabular:
    def test_unvisited_rows_are_uniform_with_max_width(self):
        buf = ReplayBuffer(num_states=4, num_actions=2)
        buf.append(0, 0, 0, 1)
        model = fit_tabular(buf, t=1, delta=0.1)
        np.testing.assert_allclose(model.p_hat[2, 1], 0.25)
        assert model.sigma(2, 1) == SIGMA_CAP
        np.testing.assert_allclose(model.p_hat[0, 0], [0, 1, 0, 0])

    def test_width_formula_frozen_value(self):
        buf = ReplayBuffer(num_states=2, num_actions=1)
        for i in range(50):
            buf.append(0, 0, 0, i % 2)
        model = fit_tabular(buf, t=3, delta=0.1)
        assert model.sigma(0, 0) == pytest.approx(SIGMA_S2_N50, abs=1e-12)

    def test_counts_identity_exact(self):
        rng = np.random.default_rng(3)
        mdp = make_random_mdp(rng, num_states=5, num_actions=3, horizon=4)
        buf = filled_buffer(rng, mdp, n_episodes=50)
        model = fit_tabular(buf, t=2, delta=0.05)
        counts = buf.counts_sas
        n_sa = counts.sum(axis=2)
        for s in range(5):
            for a in range(3):
                if n_sa[s, a] > 0:
                    recovered = model.p_hat[s, a] * n_sa[s, a]
                    np.testing.assert_allclose(recovered, counts[s, a],
                                               atol=1e-9)

    def test_width_shrinks_with_more_data(self):
        widths = []
        for n in (10, 40, 160):
            buf = ReplayBuffer(num_states=2, num_actions=1)
            for i in range(n):
                buf.append(0, 0, 0, i % 2)
            widths.append(fit_tabular(buf, t=5, delta=0.1).sigma(0, 0))
        assert widths[0] > widths[1] > widths[2]

    def test_t_zero_rejected(self):
        buf = ReplayBuffer(num_states=2, num_actions=1)
        with pytest.raises(ConfigurationError):
            fit_tabular(buf, t=0, delta=0.1)

    def test_calibration_coverage(self):
        # width should dominate the true L1 error in >= 1 - delta of draws
        rng = np.random.default_rng(11)
        delta = 0.1
        hits = 0
        trials = 200
        for _ in range(trials):
            mdp = make_random_mdp(rng, num_states=4, num_actions=2, horizon=3)
            buf = filled_buffer(rng, mdp, n_episodes=int(rng.integers(1, 30)))
            t = int(rng.integers(1, 50))
            model = fit_tabular(buf, t=t, delta=delta)
            s = int(rng.integers(4))
            a = int(rng.integers(2))
            l1 = float(np.abs(model.p_hat[s, a] - mdp.transitions[s, a]).sum())
            if l1 <= model.sigma(s, a):
                hits += 1
        assert hits / trials >= 1 - delta


class TestKnrRidge:
    def test_empty_buffer_gives_zero_weights(self):
        sys_ = make_knr_example()
        buf = ReplayBuffer()
        w, cov = fit_knr_ridge(buf, sys_.features, feature_dim=4,
                               state_dim=2, lam_ridge=0.5)
        np.testing.assert_allclose(w, 0.0)
        np.testing.assert_allclose(cov, 0.5 * np.eye(4))

    def test_noise_free_interpolation(self):
        sys_ = make_knr_example(noise_std=0.0)
        rng = np.random.default_rng(5)
        buf = ReplayBuffer()
        s = np.zeros(2)
        for h in range(200):
            a = int(rng.integers(sys_.num_actions))
            s_next = sys_.step_mean(s, a)
            buf.append(h % sys_.horizon, s, a, s_next)
            s = s_next if rng.random() > 0.3 else rng.normal(size=2) * 0.5
        w, _ = fit_knr_ridge(buf, sys_.features, feature_dim=4,
                             state_dim=2, lam_ridge=1e-12)
        np.testing.assert_allclose(w, sys_.weights, atol=1e-6)

    def test_rank_one_update_identity(self):
        sys_ = make_knr_example()
        rng = np.random.default_rng(7)
        buf = ReplayBuffer()
        states = [rng.normal(size=2) * 0.4 for _ in range(6)]
        for i, s in enumerate(states[:-1]):
            buf.append(0, s, i % 2, states[i + 1])
        _, cov_before = fit_knr_ridge(buf, sys_.features, 4, 2, 0.3)
        phi = sys_.features(states[-1], 1)
        buf.append(0, states[-1], 1, np.zeros(2))
        _, cov_after = fit_knr_ridge(buf, sys_.features, 4, 2, 0.3)
        np.testing.assert_allclose(cov_after, cov_before + np.outer(phi, phi),
                                   atol=1e-12)

    def test_empty_model_uncertainty_closed_form(self):
        sys_ = make_knr_example(noise_std=0.1)
        buf = ReplayBuffer()
        model = fit_knr_model(buf, sys_.features, feature_dim=4, state_dim=2,
                              lam_ridge=0.3, noise_std=0.1, w_max=2.0,
                              t=1, delta=0.05)
        assert model.beta == pytest.approx(BETA_EMPTY, abs=1e-12)
        # feature with unit norm: phi = features(0, a) has |phi| = 1/sqrt(2)
        phi = sys_.features(np.zeros(2), 0)
        expected = BETA_EMPTY / 0.1 * np.linalg.norm(phi) / np.sqrt(0.3)
        assert knr_uncertainty(model, np.zeros(2), 0) == pytest.approx(
            expected, rel=1e-10)

    def test_unit_feature_uncertainty_frozen_value(self):
        # direct check on a handmade unit feature map
        feats = lambda s, a: np.array([1.0, 0.0])
        buf = ReplayBuffer()
        model = fit_knr_model(buf, feats, feature_dim=2, state_dim=2,
                              lam_ridge=0.3, noise_std=0.1, w_max=2.0,
                              t=1, delta=0.05)
        assert knr_uncertainty(model, None, 0) == pytest.approx(
            UNC_EMPTY, rel=1e-10)

    def test_uncertainty_monotone_in_data(self):
        sys_ = make_knr_example(noise_std=0.05)
        rng = np.random.default_rng(13)
        buf = ReplayBuffer()
        probe = (np.array([0.2, -0.1]), 1)
        prev = None
        for round_ in range(1, 6):
            for _ in range(10):
                s = rng.normal(size=2) * 0.5
                a = int(rng.integers(2))
                buf.append(0, s, a, sys_.step_mean(s, a))
            w, cov = fit_knr_ridge(buf, sys_.features, 4, 2, 0.3)
            phi = sys_.features(*probe)
            quad = float(phi @ np.linalg.solve(cov, phi))
            if prev is not None:
                assert quad <= prev + 1e-12
            prev = quad

    def test_beta_ratio_dominates_one_under_default_lambda(self):
        # lam = noise^2 / w_max^2 forces beta^2 / noise^2 >= 2
        for noise, w_max in ((0.05, 1.0), (0.3, 2.0), (1.0, 0.5)):
            lam = noise**2 / w_max**2
            cov = lam * np.eye(3)
            beta = knr_beta(t=1, delta=0.1, lam_ridge=lam, noise_std=noise,
                            w_max=w_max, state_dim=2, cov=cov)
            assert beta**2 / noise**2 >= 1.0

    def test_t_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            knr_beta(t=0, delta=0.1, lam_ridge=0.1, noise_std=0.1,
                     w_max=1.0, state_dim=2, cov=np.eye(2))


class TestBonuses:
    def test_theory_bonus_zero_width(self):
        p = np.full((2, 1, 2), 0.5)
        model = TabularModel(t=1, delta=0.1, p_hat=p,
                             sigma_table=np.zeros((2, 1)))
        b = theory_bonus(model, horizon=3)
        assert b(0, 0) == 0.0
        assert b.upper == 6.0

    def test_theory_bonus_caps_width_at_two(self):
        p = np.full((2, 1, 2), 0.5)
        model = TabularModel(t=1, delta=0.1, p_hat=p,
                             sigma_table=np.array([[5.0], [0.5]]))
        b = theory_bonus(model, horizon=3)
        assert b(0, 0) == 6.0   # H * min(5, 2)
        assert b(1, 0) == 1.5   # H * 0.5

    def test_theory_bonus_range(self):
        rng = np.random.default_rng(23)
        mdp = make_random_mdp(rng, num_states=4, num_actions=3, horizon=3)
        buf = filled_buffer(rng, mdp, n_episodes=5)
        model = fit_tabular(buf, t=1, delta=0.1)
        b = theory_bonus(model, horizon=mdp.horizon)
        vals = [b(s, a) for s in range(4) for a in range(3)]
        assert all(0 <= v <= 2 * mdp.horizon for v in vals)

    def test_ensemble_identical_models_zero(self):
        rng = np.random.default_rng(29)
        mdp = make_random_mdp(rng, num_states=3, num_actions=2, horizon=3)
        buf = filled_buffer(rng, mdp, n_episodes=10)
        model = fit_tabular(buf, t=1, delta=0.1)
        b = ensemble_bonus(model, model, buf, lam_bonus=1.0)
        assert all(b(s, a) == 0.0 for s in range(3) for a in range(2))

    def test_ensemble_hits_lambda_at_buffer_max(self):
        rng = np.random.default_rng(31)
        mdp = make_random_mdp(rng, num_states=4, num_actions=2, horizon=3)
        buf = filled_buffer(rng, mdp, n_episodes=15)
        pair = bootstrap_buffers(buf, rng)
        m_a = fit_tabular(pair[0], t=1, delta=0.1)
        m_b = fit_tabular(pair[1], t=1, delta=0.1)
        lam = 0.7
        b = ensemble_bonus(m_a, m_b, buf, lam_bonus=lam)
        buffer_vals = [b(s, a) for _, s, a, _ in buf]
        assert max(buffer_vals) == pytest.approx(lam, abs=1e-12)
        all_vals = [b(s, a) for s in range(4) for a in range(2)]
        assert all(0 <= v <= lam + 1e-12 for v in all_vals)

    def test_ensemble_empty_buffer_zero(self):
        p = np.full((2, 1, 2), 0.5)
        q = np.zeros((2, 1, 2))
        q[:, :, 0] = 1.0
        m_a = TabularModel(t=1, delta=0.1, p_hat=p,
                           sigma_table=np.zeros((2, 1)))
        m_b = TabularModel(t=1, delta=0.1, p_hat=q,
                           sigma_table=np.zeros((2, 1)))
        buf = ReplayBuffer(num_states=2, num_actions=1)
        b = ensemble_bonus(m_a, m_b, buf, lam_bonus=1.0)
        assert b(0, 0) == 0.0

    def test_ensemble_ignores_evicted_pair(self):
        # state 0 has the largest gap, but FIFO eviction drops its pair
        p_a = np.array([[[1.0, 0.0, 0.0]], [[0.5, 0.5, 0.0]],
                        [[0.25, 0.75, 0.0]]])
        p_b = np.zeros((3, 1, 3))
        p_b[:, :, 1] = 1.0
        m_a, m_b = (TabularModel(t=1, delta=0.1, p_hat=p,
                                 sigma_table=np.zeros((3, 1)))
                    for p in (p_a, p_b))
        buf = ReplayBuffer(capacity=2, num_states=3, num_actions=1)
        for h, s in enumerate((0, 1, 2)):
            buf.append(h, s, 0, 1)
        assert buf.counts_sas[0, 0].sum() == 0
        lam = 0.8
        b = ensemble_bonus(m_a, m_b, buf, lam_bonus=lam)
        retained = [s for _, s, _, _ in buf]
        assert [s for s in retained if b(s, 0) == lam] == [1]
        assert b(2, 0) == pytest.approx(lam / 2, abs=1e-12)
        assert b(0, 0) == lam   # the evicted pair's ratio is capped at 1

    def test_ensemble_rejects_knr_models_on_two_feature_maps(self):
        sys_ = make_knr_example()
        buf = ReplayBuffer()
        buf.append(0, np.zeros(2), 1, np.ones(2))
        m_a, m_b = (fit_knr_model(buf, fmap, 4, 2, 0.3, 0.05, 2.0, t=1,
                                  delta=0.1)
                    for fmap in (sys_.features,
                                 lambda s, a: sys_.features(s, a)))
        with pytest.raises(ConfigurationError, match="one feature map"):
            ensemble_bonus(m_a, m_b, buf, lam_bonus=1.0)

    def test_bonus_table_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            BonusFunction(upper=1.0, table=np.array([[1.5]]))


class TestModelValidation:
    @staticmethod
    def tabular(**kw):
        args = dict(t=1, delta=0.1, p_hat=np.full((2, 1, 2), 0.5),
                    sigma_table=np.zeros((2, 1)))
        args.update(kw)
        return TabularModel(**args)

    @staticmethod
    def knr(**kw):
        args = dict(t=1, delta=0.1, w_hat=np.zeros((2, 3)), cov=np.eye(3),
                    lam_ridge=0.1, noise_std=0.1, w_max=1.0, beta=1.0,
                    features=lambda s, a: np.zeros(3))
        args.update(kw)
        return KnrModel(**args)

    def test_valid_models_construct(self):
        assert self.tabular().num_states == 2
        np.testing.assert_array_equal(self.knr().cov_inv, np.eye(3))

    @pytest.mark.parametrize("kw", [
        {"p_hat": np.array([[[0.5, 0.6]], [[0.5, 0.5]]])},    # row sum 1.1
        {"p_hat": np.array([[[1.5, -0.5]], [[0.5, 0.5]]])},   # negative
        {"p_hat": np.full((2, 1, 3), 1 / 3)},                 # not (S, A, S)
        {"sigma_table": np.zeros((2, 2))},
        {"sigma_table": np.array([[-0.1], [0.0]])},
        {"t": 0}, {"delta": 0.0}, {"delta": 1.0},
    ])
    def test_tabular_rejects(self, kw):
        with pytest.raises(ConfigurationError):
            self.tabular(**kw)

    @pytest.mark.parametrize("kw", [
        {"t": 0}, {"delta": -0.1}, {"delta": 1.5},
        {"cov": np.eye(2)},
        {"cov": np.diag([1.0, 0.0, 1.0])},
        {"cov": np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0],
                          [0.0, 0.0, 1.0]])},
    ])
    def test_knr_rejects(self, kw):
        with pytest.raises(ConfigurationError):
            self.knr(**kw)


class TestMeanPrediction:
    def test_tabular_mean_is_row(self):
        buf = ReplayBuffer(num_states=3, num_actions=2)
        buf.append(0, 0, 1, 2)
        model = fit_tabular(buf, t=1, delta=0.1)
        np.testing.assert_allclose(model.mean_prediction(0, 1), [0, 0, 1])

    def test_knr_mean_is_linear_map(self):
        sys_ = make_knr_example(noise_std=0.0)
        buf = ReplayBuffer()
        rng = np.random.default_rng(37)
        for _ in range(60):
            s = rng.normal(size=2) * 0.4
            a = int(rng.integers(2))
            buf.append(0, s, a, sys_.step_mean(s, a))
        model = fit_knr_model(buf, sys_.features, 4, 2, lam_ridge=1e-10,
                              noise_std=0.05, w_max=2.0, t=1, delta=0.1)
        s = np.array([0.1, 0.2])
        np.testing.assert_allclose(model.mean_prediction(s, 0),
                                   sys_.step_mean(s, 0), atol=1e-6)


def reference_bootstrap_buffers(buffer, rng):
    """Resampling by one ``append`` per drawn transition, as it was before
    the halves were built from counts."""
    items = list(buffer)
    out = []
    for _ in range(2):
        fresh = ReplayBuffer(capacity=0, num_states=buffer.num_states,
                             num_actions=buffer.num_actions)
        if items:
            idx = rng.integers(0, len(items), size=len(items))
            for i in idx:
                fresh.append(*items[i])
        out.append(fresh)
    return out


def reference_ensemble_bonus(model_a, model_b, buffer, lam_bonus):
    """delta_max over every transition in the buffer and the table filled
    one fn call per (s, a), as it was before the per-(s, a) gaps."""
    def gap(s, a):
        return float(np.linalg.norm(
            model_a.mean_prediction(s, a) - model_b.mean_prediction(s, a)))

    delta_max = 0.0
    for _, s, a, _ in buffer:
        delta_max = max(delta_max, gap(s, a))
    if delta_max == 0.0:
        fn = lambda s, a: 0.0
    else:
        fn = lambda s, a: lam_bonus * min(1.0, gap(s, a) / delta_max)
    if isinstance(model_a, TabularModel) and isinstance(model_b, TabularModel):
        table = np.zeros((model_a.num_states, model_a.num_actions))
        for s in range(model_a.num_states):
            for a in range(model_a.num_actions):
                table[s, a] = fn(s, a)
        return BonusFunction(upper=lam_bonus, table=table)
    return BonusFunction(upper=lam_bonus, fn=fn)


@st.composite
def tabular_buffers(draw):
    """A tabular buffer, unbounded or FIFO-bounded, possibly empty."""
    s_dim = draw(st.integers(1, 5))
    a_dim = draw(st.integers(1, 3))
    capacity = draw(st.sampled_from([0, 0, 1, 4, 13]))
    triples = draw(st.lists(st.tuples(st.integers(0, s_dim - 1),
                                      st.integers(0, a_dim - 1),
                                      st.integers(0, s_dim - 1)),
                            max_size=40))
    buf = ReplayBuffer(capacity=capacity, num_states=s_dim,
                       num_actions=a_dim)
    for h, (s, a, s_next) in enumerate(triples):
        buf.append(h % 3, s, a, s_next)
    return buf


def random_tabular_model(rng, s_dim, a_dim):
    """Dirichlet rows, some of them uniform, so that gaps tie and some
    unvisited pair usually has the largest gap."""
    p = rng.dirichlet(np.ones(s_dim), size=(s_dim, a_dim))
    p[rng.random((s_dim, a_dim)) < 0.3] = 1.0 / s_dim
    return TabularModel(t=1, delta=0.1, p_hat=p,
                        sigma_table=np.zeros((s_dim, a_dim)))


class TestEnsembleCountsDifferential:
    """The count-based bootstrap and ensemble bonus against the per-append
    and per-item references above."""

    @staticmethod
    def halves_and_generators(buf, seed):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        halves = bootstrap_buffers(buf, rng)
        ref = reference_bootstrap_buffers(buf, ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert len(halves) == len(ref) == 2
        return halves, ref

    @settings(max_examples=200, deadline=None)
    @given(buf=tabular_buffers(), seed=st.integers(0, 2**32 - 1),
           lam=st.floats(0.0, 3.0), random_models=st.booleans())
    def test_tabular(self, buf, seed, lam, random_models):
        halves, ref = self.halves_and_generators(buf, seed)
        for new, old in zip(halves, ref):
            assert np.array_equal(new.counts_sas, old.counts_sas)
            assert list(new) == list(old)
            assert len(new) == len(buf)
        s_dim, a_dim = buf.num_states, buf.num_actions
        if random_models:
            model_rng = np.random.default_rng(seed)
            m_a, m_b = (random_tabular_model(model_rng, s_dim, a_dim)
                        for _ in range(2))
        else:
            m_a, m_b = (fit_tabular(h, t=1, delta=0.1) for h in halves)
        got = ensemble_bonus(m_a, m_b, buf, lam_bonus=lam)
        want = reference_ensemble_bonus(m_a, m_b, buf, lam_bonus=lam)
        assert np.array_equal(got.table, want.table)
        assert got.upper == want.upper
        for s in range(s_dim):
            for a in range(a_dim):
                assert got(s, a) == want(s, a)

    @settings(max_examples=40, deadline=None)
    @given(n_items=st.integers(0, 30), capacity=st.sampled_from([0, 9]),
           seed=st.integers(0, 2**32 - 1), lam=st.floats(0.0, 3.0))
    def test_knr(self, n_items, capacity, seed, lam):
        sys_ = make_knr_example(noise_std=0.05)
        data_rng = np.random.default_rng(seed)
        buf = ReplayBuffer(capacity=capacity)
        for i in range(n_items):
            s = data_rng.normal(size=2) * 0.4
            a = int(data_rng.integers(sys_.num_actions))
            buf.append(i % 4, s, a, sys_.step_mean(s, a)
                       + sys_.noise_std * data_rng.normal(size=2))
        halves, ref = self.halves_and_generators(buf, seed)
        for new, old in zip(halves, ref):
            assert not new.tabular and len(new) == len(old) == len(buf)
            for (h0, s0, a0, n0), (h1, s1, a1, n1) in zip(new, old):
                assert h0 == h1 and a0 == a1
                assert np.array_equal(s0, s1) and np.array_equal(n0, n1)
        m_a, m_b = (fit_knr_model(h, sys_.features, sys_.feature_dim,
                                  sys_.state_dim, 0.3, sys_.noise_std, 2.0,
                                  t=1, delta=0.1) for h in halves)
        got = ensemble_bonus(m_a, m_b, buf, lam_bonus=lam)
        want = reference_ensemble_bonus(m_a, m_b, buf, lam_bonus=lam)
        assert got.table is None and want.table is None
        probes = [(s, a) for _, s, a, _ in buf] + [(np.zeros(2), 0),
                                                   (np.ones(2), 1)]
        for s, a in probes:
            assert got.fn(s, a) == want.fn(s, a)


def reference_fit_knr_ridge(buffer, features, feature_dim, state_dim,
                            lam_ridge):
    """The full refit: every transition's features and outer products, in
    FIFO order, on every call."""
    cov = lam_ridge * np.eye(feature_dim)
    moment = np.zeros((state_dim, feature_dim))
    for _, s, a, s_next in buffer:
        phi = np.asarray(features(s, a), dtype=float)
        cov += np.outer(phi, phi)
        moment += np.outer(np.atleast_1d(s_next), phi)
    w_hat = np.linalg.solve(cov, moment.T).T
    return w_hat, cov


class CountingMap:
    """A feature map that counts its calls."""

    def __init__(self, features):
        self.features, self.calls = features, 0

    def __call__(self, s, a):
        self.calls += 1
        return self.features(s, a)


ridge_ops = st.lists(st.one_of(
    st.tuples(st.just("append"), st.integers(1, 6)),
    st.tuples(st.just("fit"), st.sampled_from([0.3, 0.3, 1e-3, 2.0]),
              st.sampled_from([0, 0, 1])),
    st.tuples(st.just("boot"), st.integers(0, 2**32 - 1))), max_size=25)


class TestKnrRidgeSumsDifferential:
    """The buffer's running ridge sums against the full refit above."""

    @settings(max_examples=150, deadline=None)
    @given(ops=ridge_ops, capacity=st.sampled_from([0, 0, 3, 7]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_full_refit(self, ops, capacity, seed):
        sys_ = make_knr_example(noise_std=0.05)
        maps = [CountingMap(sys_.features),
                CountingMap(lambda s, a: 0.5 * sys_.features(s, a))]
        data_rng = np.random.default_rng(seed)
        buf = ReplayBuffer(capacity=capacity)
        fitted = (maps[0], 0.3)   # (map, lam) of the buffer's last fit
        cached = None       # the map of the buffer's cached features
        appended = 0        # transitions appended since they were cached

        def check_fit(b, fmap, lam):
            before = fmap.calls
            got = fit_knr_ridge(b, fmap, 4, 2, lam)
            want = reference_fit_knr_ridge(b, fmap.features, 4, 2, lam)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
            return fmap.calls - before

        for op in ops:
            if op[0] == "append":
                for _ in range(op[1]):
                    s = data_rng.normal(size=2) * 0.5
                    a = int(data_rng.integers(sys_.num_actions))
                    buf.append(appended % 4, s, a, sys_.step_mean(s, a)
                               + sys_.noise_std * data_rng.normal(size=2))
                    appended += 1
            elif op[0] == "fit":
                fmap = maps[op[2]]
                calls = check_fit(buf, fmap, op[1])
                # each transition's features once per map, refolds included
                if cached is fmap:
                    assert calls == min(appended, len(buf))
                else:
                    assert calls == len(buf)
                fitted, cached, appended = (fmap, op[1]), fmap, 0
            else:
                fmap, lam = fitted
                halves = bootstrap_buffers(buf, np.random.default_rng(op[1]))
                calls = sum(check_fit(h, fmap, lam) for h in halves)
                if cached is fmap and appended == 0:
                    assert calls == 0   # the halves carry the features
                if len(buf):
                    cached, appended = fmap, 0
                    m_a, m_b = (fit_knr_model(h, fmap, 4, 2, lam, 0.05, 2.0,
                                              t=1, delta=0.1) for h in halves)
                    got = ensemble_bonus(m_a, m_b, buf, lam_bonus=1.0)
                    want = reference_ensemble_bonus(m_a, m_b, buf, 1.0)
                    for _, s, a, _ in buf:
                        assert got(s, a) == want(s, a)
