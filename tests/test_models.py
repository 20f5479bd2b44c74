import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ilfo_lab import ConfigurationError, Policy, Trajectory, rollout
from ilfo_lab.models import (
    KnrBuffer,
    KnrModel,
    SIGMA_CAP,
    TabularBuffer,
    bootstrap_buffers,
    ensemble_bonus,
    fit_knr_model,
    fit_knr_ridge,
    fit_tabular,
    knr_beta,
    knr_uncertainty,
    mean_bonus_on_path,
    TabularModel,
    theory_bonus,
)
from ilfo_lab.worlds import make_knr_example, make_random_mdp, make_random_policy

# frozen from notes/oracles/model_oracle.py
SIGMA_S2_N50 = 0.45576120286352634
BETA_EMPTY = 1.8021461590691488
UNC_EMPTY = 32.9025367747822


def filled_buffer(rng, mdp, n_episodes=20):
    buf = TabularBuffer(mdp.num_states, mdp.num_actions)
    pol = make_random_policy(rng, mdp.num_states, mdp.num_actions, mdp.horizon)
    for _ in range(n_episodes):
        buf.extend_trajectory(rollout(mdp, pol, rng))
    return buf


class TestReplayBuffer:
    def test_counts_track_appends(self):
        buf = TabularBuffer(3, 2)
        buf.append(1, 0, 2)
        buf.append(1, 0, 2)
        buf.append(1, 0, 0)
        assert buf.counts_sas[1, 0].sum() == 3
        assert buf.counts_sas[1, 0, 2] == 2
        assert buf.counts_sas[1, 0, 0] == 1
        assert len(buf) == 3

    def test_fifo_eviction_updates_counts(self):
        buf = TabularBuffer(2, 1, capacity=2)
        buf.append(0, 0, 1)
        buf.append(1, 0, 1)
        buf.append(1, 0, 0)  # evicts the first triple
        assert len(buf) == 2
        np.testing.assert_array_equal(buf.counts_sas[:, 0].sum(axis=1), [0, 2])

    def test_capacity_zero_is_unbounded(self):
        buf = TabularBuffer(2, 1)
        for _ in range(1000):
            buf.append(0, 0, 1)
        assert len(buf) == 1000

    def test_non_tabular_buffer_rejects_counts(self):
        # a KNR buffer keeps feature rows and has no counts to read
        buf = KnrBuffer(make_knr_example().features, 4, 2, 0.3)
        buf.append(np.zeros(2), 1, np.ones(2))
        with pytest.raises(AttributeError):
            buf.counts_sas

    @pytest.mark.parametrize("a", [1.7, -1, "1"],
                             ids=["fractional", "negative", "string"])
    def test_knr_append_rejects_bad_action(self, a):
        # 1.7 would light one-hot slot 1, -1 the last slot
        sys_ = make_knr_example()
        buf = KnrBuffer(sys_.features, 4, 2, 0.3, capacity=1)
        buf.append(np.zeros(2), 1, np.ones(2))
        with pytest.raises(ConfigurationError):
            buf.append(np.zeros(2), a, np.ones(2))
        assert len(buf) == 1
        np.testing.assert_array_equal(buf.feature_rows(),
                                      [sys_.features(np.zeros(2), 1)])

    @pytest.mark.parametrize("s, a, s_next", [
        (-1, 0, 1),     # would be counted as state S-1
        (0, 0, 1.7),    # would be truncated to state 1
        (0, 0, 3),      # s' = S, past the last state
        (0, 2, 1),      # a = A, past the last action
    ], ids=["negative_state", "fractional_next_state",
            "next_state_equal_to_S", "action_equal_to_A"])
    def test_tabular_append_rejects_bad_index(self, s, a, s_next):
        # a full FIFO buffer, so an eviction before the check would show
        buf = TabularBuffer(3, 2, capacity=2)
        buf.append(1, 1, 2)
        buf.append(2, 0, 0)
        before = buf.counts_sas
        with pytest.raises(ConfigurationError):
            buf.append(s, a, s_next)
        assert list(buf) == [(1, 1, 2), (2, 0, 0)]
        np.testing.assert_array_equal(buf.counts_sas, before)

    @pytest.mark.parametrize("states", [[0, 1, 3], [0.0, 1.0, 2.0]],
                             ids=["next_state_equal_to_S", "float_states"])
    def test_tabular_episode_is_kept_whole_or_not_at_all(self, states):
        buf = TabularBuffer(3, 2, capacity=2)
        buf.append(1, 1, 2)
        with pytest.raises(ConfigurationError):
            buf.extend_trajectory(Trajectory(states=np.array(states),
                                             actions=[0, 1]))
        assert list(buf) == [(1, 1, 2)]
        buf.extend_trajectory(Trajectory(states=np.array([0, 1, 2]),
                                         actions=[0, 1]))
        assert list(buf) == [(0, 0, 1), (1, 1, 2)]

    def test_knr_episode_with_a_negative_action_is_not_kept(self):
        sys_ = make_knr_example()
        buf = KnrBuffer(sys_.features, 4, 2, 0.3)
        with pytest.raises(ConfigurationError):
            buf.extend_trajectory(Trajectory(states=np.zeros((3, 2)),
                                             actions=[1, -1]))
        assert len(buf) == 0

    def test_bootstrap_preserves_size_and_dims(self):
        rng = np.random.default_rng(0)
        buf = TabularBuffer(3, 2)
        for i in range(30):
            buf.append(i % 3, i % 2, (i + 1) % 3)
        pair = bootstrap_buffers(buf, rng)
        assert len(pair) == 2
        for b in pair:
            assert len(b) == 30
            assert isinstance(b, TabularBuffer)
            assert (b.num_states, b.num_actions) == (3, 2)
        # resamples should differ from each other almost surely
        assert list(pair[0]) != list(pair[1])


class TestFitTabular:
    def test_unvisited_rows_are_uniform_with_max_width(self):
        buf = TabularBuffer(4, 2)
        buf.append(0, 0, 1)
        model = fit_tabular(buf, t=1, delta=0.1)
        np.testing.assert_allclose(model.p_hat[2, 1], 0.25)
        assert model.sigma(2, 1) == SIGMA_CAP
        np.testing.assert_allclose(model.p_hat[0, 0], [0, 1, 0, 0])

    def test_width_formula_frozen_value(self):
        buf = TabularBuffer(2, 1)
        for i in range(50):
            buf.append(0, 0, i % 2)
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
            buf = TabularBuffer(2, 1)
            for i in range(n):
                buf.append(0, 0, i % 2)
            widths.append(fit_tabular(buf, t=5, delta=0.1).sigma(0, 0))
        assert widths[0] > widths[1] > widths[2]

    def test_t_zero_rejected(self):
        buf = TabularBuffer(2, 1)
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
        buf = KnrBuffer(sys_.features, feature_dim=4, state_dim=2,
                        lam_ridge=0.5)
        w, cov = fit_knr_ridge(buf)
        np.testing.assert_allclose(w, 0.0)
        np.testing.assert_allclose(cov, 0.5 * np.eye(4))

    def test_noise_free_interpolation(self):
        sys_ = make_knr_example(noise_std=0.0)
        rng = np.random.default_rng(5)
        buf = KnrBuffer(sys_.features, feature_dim=4, state_dim=2,
                        lam_ridge=1e-12)
        s = np.zeros(2)
        for _ in range(200):
            a = int(rng.integers(sys_.num_actions))
            s_next = sys_.step_mean(s, a)
            buf.append(s, a, s_next)
            s = s_next if rng.random() > 0.3 else rng.normal(size=2) * 0.5
        w, _ = fit_knr_ridge(buf)
        np.testing.assert_allclose(w, sys_.weights, atol=1e-6)

    def test_rank_one_update_identity(self):
        sys_ = make_knr_example()
        rng = np.random.default_rng(7)
        buf = KnrBuffer(sys_.features, 4, 2, 0.3)
        states = [rng.normal(size=2) * 0.4 for _ in range(6)]
        for i, s in enumerate(states[:-1]):
            buf.append(s, i % 2, states[i + 1])
        _, cov_before = fit_knr_ridge(buf)
        phi = sys_.features(states[-1], 1)
        buf.append(states[-1], 1, np.zeros(2))
        _, cov_after = fit_knr_ridge(buf)
        np.testing.assert_allclose(cov_after, cov_before + np.outer(phi, phi),
                                   atol=1e-12)

    def test_empty_model_uncertainty_closed_form(self):
        sys_ = make_knr_example(noise_std=0.1)
        buf = KnrBuffer(sys_.features, feature_dim=4, state_dim=2,
                        lam_ridge=0.3)
        model = fit_knr_model(buf, noise_std=0.1, w_max=2.0, t=1, delta=0.05)
        assert model.beta == pytest.approx(BETA_EMPTY, abs=1e-12)
        # feature with unit norm: phi = features(0, a) has |phi| = 1/sqrt(2)
        phi = sys_.features(np.zeros(2), 0)
        expected = BETA_EMPTY / 0.1 * np.linalg.norm(phi) / np.sqrt(0.3)
        assert knr_uncertainty(model, np.zeros(2), 0) == pytest.approx(
            expected, rel=1e-10)

    def test_unit_feature_uncertainty_frozen_value(self):
        # direct check on a handmade unit feature map
        feats = lambda s, a: np.array([1.0, 0.0])
        buf = KnrBuffer(feats, feature_dim=2, state_dim=2, lam_ridge=0.3)
        model = fit_knr_model(buf, noise_std=0.1, w_max=2.0, t=1, delta=0.05)
        assert knr_uncertainty(model, None, 0) == pytest.approx(
            UNC_EMPTY, rel=1e-10)

    def test_uncertainty_monotone_in_data(self):
        sys_ = make_knr_example(noise_std=0.05)
        rng = np.random.default_rng(13)
        buf = KnrBuffer(sys_.features, 4, 2, 0.3)
        probe = (np.array([0.2, -0.1]), 1)
        prev = None
        for round_ in range(1, 6):
            for _ in range(10):
                s = rng.normal(size=2) * 0.5
                a = int(rng.integers(2))
                buf.append(s, a, sys_.step_mean(s, a))
            w, cov = fit_knr_ridge(buf)
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
        model = TabularModel(p_hat=p,
                             sigma_table=np.zeros((2, 1)))
        b = theory_bonus(model, horizon=3)
        # the bonus is its frozen (S, A) table
        assert isinstance(b, np.ndarray) and b.shape == (2, 1)
        assert not b.flags.writeable
        assert b[0, 0] == 0.0

    def test_theory_bonus_caps_width_at_two(self):
        p = np.full((2, 1, 2), 0.5)
        model = TabularModel(p_hat=p,
                             sigma_table=np.array([[5.0], [0.5]]))
        b = theory_bonus(model, horizon=3)
        assert b[0, 0] == 6.0   # H * min(5, 2)
        assert b[1, 0] == 1.5   # H * 0.5

    def test_theory_bonus_range(self):
        rng = np.random.default_rng(23)
        mdp = make_random_mdp(rng, num_states=4, num_actions=3, horizon=3)
        buf = filled_buffer(rng, mdp, n_episodes=5)
        model = fit_tabular(buf, t=1, delta=0.1)
        b = theory_bonus(model, horizon=mdp.horizon)
        assert b.shape == (4, 3)
        assert ((0 <= b) & (b <= 2 * mdp.horizon)).all()

    def test_ensemble_identical_models_zero(self):
        rng = np.random.default_rng(29)
        mdp = make_random_mdp(rng, num_states=3, num_actions=2, horizon=3)
        buf = filled_buffer(rng, mdp, n_episodes=10)
        model = fit_tabular(buf, t=1, delta=0.1)
        b = ensemble_bonus(model, model, buf, lam_bonus=1.0)
        assert b.shape == (3, 2) and not b.flags.writeable
        assert (b == 0.0).all()

    def test_ensemble_hits_lambda_at_buffer_max(self):
        rng = np.random.default_rng(31)
        mdp = make_random_mdp(rng, num_states=4, num_actions=2, horizon=3)
        buf = filled_buffer(rng, mdp, n_episodes=15)
        pair = bootstrap_buffers(buf, rng)
        m_a = fit_tabular(pair[0], t=1, delta=0.1)
        m_b = fit_tabular(pair[1], t=1, delta=0.1)
        lam = 0.7
        b = ensemble_bonus(m_a, m_b, buf, lam_bonus=lam)
        buffer_vals = [b[s, a] for s, a, _ in buf]
        assert max(buffer_vals) == pytest.approx(lam, abs=1e-12)
        assert b.shape == (4, 2)
        assert ((0 <= b) & (b <= lam + 1e-12)).all()

    def test_ensemble_empty_buffer_zero(self):
        p = np.full((2, 1, 2), 0.5)
        q = np.zeros((2, 1, 2))
        q[:, :, 0] = 1.0
        m_a = TabularModel(p_hat=p,
                           sigma_table=np.zeros((2, 1)))
        m_b = TabularModel(p_hat=q,
                           sigma_table=np.zeros((2, 1)))
        buf = TabularBuffer(2, 1)
        b = ensemble_bonus(m_a, m_b, buf, lam_bonus=1.0)
        assert b.shape == (2, 1) and (b == 0.0).all()

    def test_ensemble_ignores_evicted_pair(self):
        # state 0 has the largest gap, but FIFO eviction drops its pair
        p_a = np.array([[[1.0, 0.0, 0.0]], [[0.5, 0.5, 0.0]],
                        [[0.25, 0.75, 0.0]]])
        p_b = np.zeros((3, 1, 3))
        p_b[:, :, 1] = 1.0
        m_a, m_b = (TabularModel(p_hat=p,
                                 sigma_table=np.zeros((3, 1)))
                    for p in (p_a, p_b))
        buf = TabularBuffer(3, 1, capacity=2)
        for s in (0, 1, 2):
            buf.append(s, 0, 1)
        assert buf.counts_sas[0, 0].sum() == 0
        lam = 0.8
        b = ensemble_bonus(m_a, m_b, buf, lam_bonus=lam)
        retained = [s for s, _, _ in buf]
        assert [s for s in retained if b[s, 0] == lam] == [1]
        assert b[2, 0] == pytest.approx(lam / 2, abs=1e-12)
        assert b[0, 0] == lam   # the evicted pair's ratio is capped at 1

    def test_ensemble_rejects_knr_models_on_two_feature_maps(self):
        sys_ = make_knr_example()
        bufs = [KnrBuffer(fmap, 4, 2, 0.3)
                for fmap in (sys_.features, lambda s, a: sys_.features(s, a))]
        for buf in bufs:
            buf.append(np.zeros(2), 1, np.ones(2))
        m_a, m_b = (fit_knr_model(b, 0.05, 2.0, t=1, delta=0.1)
                    for b in bufs)
        # two models on two maps, or one map that is not the buffer's
        for models_, buf in (((m_a, m_b), bufs[0]), ((m_b, m_b), bufs[0])):
            with pytest.raises(ConfigurationError, match="one feature map"):
                ensemble_bonus(*models_, buf, lam_bonus=1.0)

    def test_mean_bonus_on_path_indexes_a_table_and_calls_a_function(self):
        table = np.array([[0.5, 1.0], [2.0, 4.0]])
        states, actions = np.array([0, 1, 1]), np.array([1, 0])
        # the last state takes no action
        assert mean_bonus_on_path(table, states, actions) == 1.5
        calls = []

        def fn(s, a):
            calls.append((s.tolist(), a.tolist()))
            return table[s, a]

        assert mean_bonus_on_path(fn, states, actions) == 1.5
        assert calls == [([0, 1], [1, 0])]
        assert mean_bonus_on_path(None, states, actions) == 0.0


class TestModelValidation:
    @staticmethod
    def tabular(**kw):
        args = dict(p_hat=np.full((2, 1, 2), 0.5),
                    sigma_table=np.zeros((2, 1)))
        args.update(kw)
        return TabularModel(**args)

    @staticmethod
    def knr(**kw):
        args = dict(w_hat=np.zeros((2, 3)), cov=np.eye(3),
                    noise_std=0.1, beta=1.0,
                    features=lambda s, a: np.zeros(np.shape(a) + (3,)))
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
        # t and delta enter through fit_knr_model, cov through the record
        with pytest.raises(ConfigurationError):
            if "cov" in kw:
                self.knr(**kw)
            else:
                buf = KnrBuffer(lambda s, a: np.zeros(np.shape(a) + (3,)),
                                3, 2, 1.0)
                fit_knr_model(buf, 0.1, 2.0, **{"t": 1, "delta": 0.1, **kw})


class TestMeanPrediction:
    def test_knr_mean_is_linear_map(self):
        sys_ = make_knr_example(noise_std=0.0)
        buf = KnrBuffer(sys_.features, 4, 2, lam_ridge=1e-10)
        rng = np.random.default_rng(37)
        for _ in range(60):
            s = rng.normal(size=2) * 0.4
            a = int(rng.integers(2))
            buf.append(s, a, sys_.step_mean(s, a))
        model = fit_knr_model(buf, noise_std=0.05, w_max=2.0, t=1, delta=0.1)
        s = np.array([0.1, 0.2])
        np.testing.assert_allclose(model.mean_prediction(s, 0),
                                   sys_.step_mean(s, 0), atol=1e-6)


def reference_bootstrap_buffers(buffer, rng, empty):
    """Resampling by one ``append`` per drawn transition into a fresh
    ``empty()`` buffer, as it was before a tabular half was one bincount
    and a KNR half carried the rows it drew."""
    items = list(buffer)
    out = []
    for _ in range(2):
        fresh = empty()
        if items:
            idx = rng.integers(0, len(items), size=len(items))
            for i in idx:
                fresh.append(*items[i])
        out.append(fresh)
    return out


class ReferenceKnrBuffer:
    """The slow path of ``KnrBuffer``: the raw (s, a, s') transitions in a
    FIFO, featurized whenever they are read, and a half built by one
    ``append`` per transition drawn."""

    def __init__(self, features, feature_dim, state_dim, lam_ridge,
                 capacity=0):
        self.features, self.lam_ridge = features, lam_ridge
        self.feature_dim, self.state_dim = feature_dim, state_dim
        self.capacity, self.transitions = capacity, []

    def __len__(self):
        return len(self.transitions)

    def __iter__(self):
        return iter(self.transitions)

    def append(self, s, a, s_next):
        self.transitions.append((s, a, s_next))
        if self.capacity and len(self.transitions) > self.capacity:
            del self.transitions[0]

    def extend_trajectory(self, traj):
        for h in range(traj.horizon):
            self.append(traj.states[h], traj.actions[h], traj.states[h + 1])

    def feature_rows(self):
        return np.reshape([self.features(s, a) for s, a, _ in self],
                          (-1, self.feature_dim))

    def take(self, idx):
        fresh = ReferenceKnrBuffer(self.features, self.feature_dim,
                                   self.state_dim, self.lam_ridge)
        for i in idx:
            fresh.append(*self.transitions[i])
        return fresh


def one_row_at_a_time(fn):
    """A callable of one (s, a) on the last-axis contract: (..., d)
    states and (...) actions, one call of ``fn`` per row."""
    def batched(s, a):
        a = np.asarray(a)
        if a.ndim == 0:
            return fn(s, int(a))
        s = np.asarray(s)
        rows = s.reshape((a.size,) + s.shape[a.ndim:])
        return np.array([fn(x, int(y)) for x, y in zip(rows, a.ravel())]
                        ).reshape(a.shape)
    return batched


def reference_ensemble_bonus(model_a, model_b, buffer, lam_bonus):
    """delta_max over every (s, a, s') transition the buffer iterates (a
    ``TabularBuffer`` or a ``ReferenceKnrBuffer``) and the table filled
    one fn call per (s, a), as it was before the per-(s, a) gaps; a KNR
    bonus calls fn once per row.  A tabular model's mean prediction is its
    next-state row p_hat[s, a]."""
    def mean(model, s, a):
        if isinstance(model, TabularModel):
            return model.p_hat[s, a]
        return model.mean_prediction(s, a)

    def gap(s, a):
        return float(np.linalg.norm(mean(model_a, s, a) - mean(model_b, s, a)))

    delta_max = 0.0
    for s, a, _ in buffer:
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
        return table
    return one_row_at_a_time(fn)


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
    buf = TabularBuffer(s_dim, a_dim, capacity)
    for s, a, s_next in triples:
        buf.append(s, a, s_next)
    return buf


def random_tabular_model(rng, s_dim, a_dim):
    """Dirichlet rows, some of them uniform, so that gaps tie and some
    unvisited pair usually has the largest gap."""
    p = rng.dirichlet(np.ones(s_dim), size=(s_dim, a_dim))
    p[rng.random((s_dim, a_dim)) < 0.3] = 1.0 / s_dim
    return TabularModel(p_hat=p,
                        sigma_table=np.zeros((s_dim, a_dim)))


def bootstrap_against_reference(buf, ref, seed, empty):
    """``bootstrap_buffers(buf)`` and the per-append resampling of ``ref``,
    a buffer of the same transitions, on two Generators of one seed, which
    must end in the same state."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    halves = bootstrap_buffers(buf, rng)
    want = reference_bootstrap_buffers(ref, ref_rng, empty)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert len(halves) == len(want) == 2
    return halves, want


# (feature_dim, state_dim): with a dimension of 1 the ridge sums' stack
# is contiguous along the rows, where np.sum would add pairwise
knr_dims = st.tuples(st.sampled_from([1, 1, 3, 4]), st.sampled_from([1, 1, 2]))
KNR_ACTIONS = 3


def random_feature_map(rng, feature_dim, state_dim):
    """A feature map on the last-axis contract, (..., state_dim) states and
    (...) actions in [0, KNR_ACTIONS) to (..., feature_dim) rows: the cos
    of a random linear map of s plus one offset per action."""
    w = rng.normal(size=(feature_dim, state_dim))
    b = rng.normal(size=(KNR_ACTIONS, feature_dim))
    return lambda s, a: np.cos(np.matvec(w, np.asarray(s, dtype=float))
                               + b[a])


def random_transition(rng, state_dim):
    return (rng.normal(size=state_dim), int(rng.integers(KNR_ACTIONS)),
            rng.normal(size=state_dim))


class TestEnsembleCountsDifferential:
    """The count-based bootstrap and ensemble bonus against the per-append
    and per-item references above."""

    @settings(max_examples=200, deadline=None)
    @given(buf=tabular_buffers(), seed=st.integers(0, 2**32 - 1),
           lam=st.floats(0.0, 3.0), random_models=st.booleans())
    def test_tabular(self, buf, seed, lam, random_models):
        s_dim, a_dim = buf.num_states, buf.num_actions
        halves, ref = bootstrap_against_reference(
            buf, buf, seed, lambda: TabularBuffer(s_dim, a_dim))
        for new, old in zip(halves, ref):
            assert np.array_equal(new.counts_sas, old.counts_sas)
            assert list(new) == list(old)
            assert len(new) == len(buf)
        if random_models:
            model_rng = np.random.default_rng(seed)
            m_a, m_b = (random_tabular_model(model_rng, s_dim, a_dim)
                        for _ in range(2))
        else:
            m_a, m_b = (fit_tabular(h, t=1, delta=0.1) for h in halves)
        got = ensemble_bonus(m_a, m_b, buf, lam_bonus=lam)
        want = reference_ensemble_bonus(m_a, m_b, buf, lam_bonus=lam)
        # the bonus is its frozen (S, A) float table
        assert isinstance(got, np.ndarray) and not got.flags.writeable
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(n_items=st.integers(0, 30), capacity=st.sampled_from([0, 9]),
           dims=knr_dims, seed=st.integers(0, 2**32 - 1),
           lam=st.floats(0.0, 3.0))
    def test_knr(self, n_items, capacity, dims, seed, lam):
        feature_dim, state_dim = dims
        data_rng = np.random.default_rng(seed)
        args = (random_feature_map(data_rng, *dims), feature_dim, state_dim,
                0.3)
        buf = KnrBuffer(*args, capacity)
        twin = ReferenceKnrBuffer(*args, capacity)
        for _ in range(n_items):
            s, a, s_next = random_transition(data_rng, state_dim)
            buf.append(s, a, s_next)
            twin.append(s, a, s_next)
        halves, ref = bootstrap_against_reference(
            buf, twin, seed, lambda: ReferenceKnrBuffer(*args))
        for new, old in zip(halves, ref):
            assert isinstance(new, KnrBuffer)
            assert len(new) == len(old) == len(buf)
            assert np.array_equal(new.feature_rows(), old.feature_rows())
            for x, y in zip(fit_knr_ridge(new), reference_fit_knr_ridge(old)):
                assert np.array_equal(x, y)
        m_a, m_b = (fit_knr_model(h, 0.05, 2.0, t=1, delta=0.1)
                    for h in halves)
        got = ensemble_bonus(m_a, m_b, buf, lam_bonus=lam)
        want = reference_ensemble_bonus(m_a, m_b, twin, lam_bonus=lam)
        # the bonus is its function
        assert callable(got) and not isinstance(got, np.ndarray)
        probes = [(s, a) for s, a, _ in twin] + [(np.zeros(state_dim), 0),
                                                 (np.ones(state_dim), 1)]
        for s, a in probes:
            assert got(s, a) == want(s, a)


def reference_fit_knr_ridge(buffer):
    """The full refit of a ``ReferenceKnrBuffer``: every transition's
    features and outer products, in FIFO order, on every call."""
    cov = buffer.lam_ridge * np.eye(buffer.feature_dim)
    moment = np.zeros((buffer.state_dim, buffer.feature_dim))
    for s, a, s_next in buffer:
        phi = np.asarray(buffer.features(s, a), dtype=float)
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


buffer_ops = st.lists(st.one_of(
    st.tuples(st.sampled_from(["append", "episode"]), st.integers(1, 6)),
    st.just(("fit",)),
    st.tuples(st.just("boot"), st.integers(0, 2**32 - 1))), max_size=25)


class TestKnrRidgeSumsDifferential:
    """The buffer's feature rows and ridge sums against the full refit
    above, over sequences of appends, one transition or one episode at a
    time (which evict once the buffer is full), fits and bootstraps; the
    feature map is called once per appended transition or episode and
    never by a fit or a half."""

    @settings(max_examples=150, deadline=None)
    @given(ops=buffer_ops, capacity=st.sampled_from([0, 0, 3, 7]),
           lam=st.sampled_from([0.3, 0.3, 1e-3, 2.0]), dims=knr_dims,
           seed=st.integers(0, 2**32 - 1))
    def test_matches_full_refit(self, ops, capacity, lam, dims, seed):
        feature_dim, state_dim = dims
        data_rng = np.random.default_rng(seed)
        features = random_feature_map(data_rng, *dims)
        fmap = CountingMap(features)
        buf = KnrBuffer(fmap, feature_dim, state_dim, lam, capacity)
        args = (features, feature_dim, state_dim, lam)
        twin = ReferenceKnrBuffer(*args, capacity)

        def check_fit(b, ref):
            for x, y in zip(fit_knr_ridge(b), reference_fit_knr_ridge(ref)):
                assert np.array_equal(x, y)
            assert np.array_equal(b.feature_rows(), ref.feature_rows())

        for op in ops:
            calls = fmap.calls
            if op[0] == "append":
                for _ in range(op[1]):
                    transition = random_transition(data_rng, state_dim)
                    buf.append(*transition)
                    twin.append(*transition)
                assert fmap.calls - calls == op[1]
            elif op[0] == "episode":
                traj = Trajectory(
                    states=data_rng.normal(size=(op[1] + 1, state_dim)),
                    actions=data_rng.integers(KNR_ACTIONS, size=op[1]))
                buf.extend_trajectory(traj)
                twin.extend_trajectory(traj)
                assert fmap.calls - calls == 1
            elif op[0] == "fit":
                check_fit(buf, twin)
                assert fmap.calls == calls
            else:
                halves, ref = bootstrap_against_reference(
                    buf, twin, op[1], lambda: ReferenceKnrBuffer(*args))
                for h, r in zip(halves, ref):
                    check_fit(h, r)
                if len(buf):
                    m_a, m_b = (fit_knr_model(h, 0.05, 2.0, t=1, delta=0.1)
                                for h in halves)
                    got = ensemble_bonus(m_a, m_b, buf, lam_bonus=1.0)
                    assert fmap.calls == calls
                    want = reference_ensemble_bonus(m_a, m_b, twin, 1.0)
                    for s, a, _ in twin:
                        assert got(s, a) == want(s, a)
                else:
                    assert fmap.calls == calls
            assert len(buf) == len(twin)


tabular_ops = st.lists(st.one_of(
    st.tuples(st.just("append"),
              st.lists(st.tuples(*[st.integers(0, 99)] * 3), min_size=1,
                       max_size=6)),
    st.tuples(st.just("episode"), st.integers(0, 99),
              st.lists(st.tuples(*[st.integers(0, 99)] * 2), min_size=1,
                       max_size=6)),
    st.just(("fit",)),
    st.tuples(st.just("boot"), st.integers(0, 2**32 - 1))), max_size=25)


class TestTabularBufferDifferential:
    """The buffer's codes and counts against the list of transitions it
    holds, and its halves against the per-append reference, over
    sequences of appends, one transition or one episode at a time (which
    evict once the buffer is full), fits and bootstraps."""

    @settings(max_examples=150, deadline=None)
    @given(ops=tabular_ops, s_dim=st.integers(1, 5), a_dim=st.integers(1, 3),
           capacity=st.sampled_from([0, 0, 1, 4, 13]))
    def test_matches_transition_list(self, ops, s_dim, a_dim, capacity):
        buf = TabularBuffer(s_dim, a_dim, capacity)
        held = []
        for op in ops:
            if op[0] == "append":
                for s, a, s_next in op[1]:
                    triple = (s % s_dim, a % a_dim, s_next % s_dim)
                    buf.append(*triple)
                    held.append(triple)
                    if capacity and len(held) > capacity:
                        del held[0]
                assert list(buf) == held
            elif op[0] == "episode":
                states = [op[1] % s_dim] + [s % s_dim for _, s in op[2]]
                actions = [a % a_dim for a, _ in op[2]]
                buf.extend_trajectory(Trajectory(states=np.array(states),
                                                 actions=actions))
                held += zip(states[:-1], actions, states[1:])
                if capacity:
                    del held[:-capacity]
                assert list(buf) == held
            elif op[0] == "fit":
                counts = np.zeros((s_dim, a_dim, s_dim), dtype=np.int64)
                for triple in held:
                    counts[triple] += 1
                assert np.array_equal(buf.counts_sas, counts)
                rebuilt = TabularBuffer(s_dim, a_dim)
                for triple in held:
                    rebuilt.append(*triple)
                got, want = (fit_tabular(b, t=3, delta=0.1)
                             for b in (buf, rebuilt))
                assert np.array_equal(got.p_hat, want.p_hat)
                assert np.array_equal(got.sigma_table, want.sigma_table)
            else:
                halves, ref = bootstrap_against_reference(
                    buf, buf, op[1], lambda: TabularBuffer(s_dim, a_dim))
                for new, old in zip(halves, ref):
                    assert list(new) == list(old)
                    assert np.array_equal(new.counts_sas, old.counts_sas)
                assert list(buf) == held
