import copy
import itertools
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ilfo_lab import (ConfigurationError, Policy, TabularMdp, planner,
                      value_eval_tabular)
from ilfo_lab.discriminators import MmdDiscriminator, rff_featurize
from ilfo_lab.envs import openloop_search
from ilfo_lab.expert import ExpertDataset, solve_optimal_tabular
from ilfo_lab.models import (
    BonusFunction,
    ReplayBuffer,
    TabularModel,
    fit_knr_model,
)
from ilfo_lab.planner import (
    KnrSearchConfig,
    MinMaxConfig,
    best_response_knr,
    best_response_tabular,
    box_objective,
    game_value_lp,
    solve_minmax,
)
from ilfo_lab.worlds import make_chain, make_knr_example, make_random_mdp


def tabular_model(kernel):
    kernel = np.asarray(kernel, dtype=float)
    s_dim, a_dim = kernel.shape[0], kernel.shape[1]
    return TabularModel(t=1, delta=0.1, p_hat=kernel,
                        sigma_table=np.zeros((s_dim, a_dim)))


def model_view(model, horizon, init_state=0):
    return TabularMdp(horizon=horizon, transitions=model.p_hat,
                      cost=np.zeros(model.num_states), init_state=init_state)


class TestBestResponseTabular:
    def test_zero_cost_tie_breaks_to_action_zero(self):
        rng = np.random.default_rng(0)
        mdp = make_random_mdp(rng, num_states=3, num_actions=3, horizon=2)
        pol = best_response_tabular(mdp, np.zeros((3, 3)))
        assert np.all(np.argmax(pol.action_probs, axis=2) == 0)

    def test_dominates_random_policies(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            mdp = make_random_mdp(rng, num_states=4, num_actions=2, horizon=3)
            view = model_view(tabular_model(mdp.transitions), 3)
            cost = rng.uniform(-1, 1, size=(4, 2))
            pol = best_response_tabular(view, cost)
            v_star = value_eval_tabular(view, pol, cost)
            for _ in range(200):
                probs = rng.dirichlet(np.ones(2), size=(3, 4))
                v = value_eval_tabular(view, Policy.tabular(probs), cost)
                assert v_star <= v + 1e-10

    def test_exhaustive_dominance_small_instance(self):
        # every deterministic nonstationary policy on (S,A,H) = (4,2,3)
        rng = np.random.default_rng(2)
        mdp = make_random_mdp(rng, num_states=4, num_actions=2, horizon=3)
        view = model_view(tabular_model(mdp.transitions), 3)
        cost = rng.uniform(-1, 1, size=(4, 2))  # bonus-augmented costs
        pol = best_response_tabular(view, cost)
        v_star = value_eval_tabular(view, pol, cost)
        best_seen = np.inf
        for flat in itertools.product(range(2), repeat=12):
            actions = np.asarray(flat).reshape(3, 4)
            v = value_eval_tabular(
                view, Policy.deterministic(actions, num_actions=2), cost)
            best_seen = min(best_seen, v)
        assert v_star == pytest.approx(best_seen, abs=1e-10)

    def test_matches_optimal_solver_on_true_kernel(self):
        # the expert's solver, which passes the true (S,) cost, agrees with
        # a best response to the (S, A) repeat of that cost
        rng = np.random.default_rng(5)
        for mdp in (make_chain(),
                    make_random_mdp(rng, num_states=5, num_actions=3,
                                    horizon=4)):
            cost = np.repeat(mdp.cost[:, None], mdp.num_actions, axis=1)
            pol = best_response_tabular(mdp, cost)
            ref = solve_optimal_tabular(mdp)
            np.testing.assert_array_equal(pol.action_probs, ref.action_probs)

    def test_state_only_cost_broadcasts(self):
        # an (S,) cost and its (S, A) repeat give the same policy
        rng = np.random.default_rng(5)
        for mdp in (make_chain(),
                    make_random_mdp(rng, num_states=5, num_actions=3,
                                    horizon=4)):
            a = best_response_tabular(mdp, mdp.cost)
            b = best_response_tabular(
                mdp, np.repeat(mdp.cost[:, None], mdp.num_actions, axis=1))
            np.testing.assert_array_equal(a.action_probs, b.action_probs)


def knr_model_from_system(sys_, n_samples=80, seed=3, lam=1e-8):
    rng = np.random.default_rng(seed)
    buf = ReplayBuffer()
    for _ in range(n_samples):
        s = rng.normal(size=2) * 0.4
        a = int(rng.integers(sys_.num_actions))
        buf.append(0, s, a, sys_.step_mean(s, a))
    return fit_knr_model(buf, sys_.features, 4, 2, lam_ridge=lam,
                         noise_std=0.05, w_max=2.0, t=1, delta=0.1)


class TestBestResponseKnr:
    def test_single_action_unique_sequence(self):
        sys_ = make_knr_example(noise_std=0.0)
        model = knr_model_from_system(sys_)
        pol = best_response_knr(model, lambda s: 0.0, None, horizon=3,
                                num_actions=1, init_state=np.zeros(2),
                                search_cfg=KnrSearchConfig())
        np.testing.assert_array_equal(pol.action_seq, [0, 0, 0])

    def test_dominant_bonus_selects_high_uncertainty_action(self):
        sys_ = make_knr_example(noise_std=0.0)
        model = knr_model_from_system(sys_)
        bonus = BonusFunction(fn=lambda s, a: 10.0 if a == 1 else 0.0,
                              upper=10.0)
        pol = best_response_knr(model, lambda s: float(np.sum(s**2)), bonus,
                                horizon=2, num_actions=2,
                                init_state=np.zeros(2),
                                search_cfg=KnrSearchConfig())
        np.testing.assert_array_equal(pol.action_seq, [1, 1])

    def test_exhaustive_agrees_with_full_random_shooting(self):
        sys_ = make_knr_example(noise_std=0.0)
        model = knr_model_from_system(sys_)
        cost = lambda s: float(s[0] - s[1])
        a = best_response_knr(model, cost, None, horizon=4, num_actions=2,
                              init_state=np.zeros(2),
                              search_cfg=KnrSearchConfig())
        b = best_response_knr(model, cost, None, horizon=4, num_actions=2,
                              init_state=np.zeros(2),
                              search_cfg=KnrSearchConfig(exhaustive_limit=1,
                                                         n_candidates=16),
                              rng=np.random.default_rng(4))
        np.testing.assert_array_equal(a.action_seq, b.action_seq)

    @staticmethod
    def shooting_reference(model, cost, bonus, horizon, ids_of):
        """best_response_knr's random-shooting result, rebuilt from the ids
        that ``ids_of`` draws from a clone of the planner's Generator."""
        rng = np.random.default_rng(11)
        clone = copy.deepcopy(rng)
        search = KnrSearchConfig(exhaustive_limit=100, n_candidates=64)
        pol = best_response_knr(model, cost, bonus, horizon=horizon,
                                num_actions=2, init_state=np.zeros(2),
                                search_cfg=search, rng=rng)
        ids = ids_of(clone, 2 ** horizon, 64)
        seq, _ = openloop_search(model.mean_prediction, cost, np.zeros(2), 2,
                                 horizon, ids, bonus)
        assert rng.bit_generator.state == clone.bit_generator.state
        return pol.action_seq, seq, ids

    def test_random_shooting_draws_without_replacement(self):
        # A^H = 1024: ids come from rng.choice, without repeats
        model = knr_model_from_system(make_knr_example(noise_std=0.0))
        cost = lambda s: float(s[0] - s[1])
        bonus = BonusFunction(fn=lambda s, a: 0.05 * a * float(s[1] ** 2),
                              upper=1.0)
        got, want, ids = self.shooting_reference(
            model, cost, bonus, 10,
            lambda r, total, n: np.sort(r.choice(total, size=n,
                                                 replace=False)))
        assert len(np.unique(ids)) == 64
        np.testing.assert_array_equal(got, want)

    def test_random_shooting_above_a_million_draws_without_replacement(self):
        # A^H = 2^21 > 10**6: the same rng.choice draw, without repeats
        model = knr_model_from_system(make_knr_example(noise_std=0.0))
        cost = lambda s: float(s[0] - s[1])
        got, want, ids = self.shooting_reference(
            model, cost, None, 21,
            lambda r, total, n: np.sort(r.choice(total, size=n,
                                                 replace=False)))
        assert len(np.unique(ids)) == 64
        assert ids.max() >= 10**6
        np.testing.assert_array_equal(got, want)

    def test_budget_overflow_without_fallback(self):
        sys_ = make_knr_example(noise_std=0.0)
        model = knr_model_from_system(sys_)
        with pytest.raises(ConfigurationError):
            best_response_knr(model, lambda s: 0.0, None, horizon=20,
                              num_actions=3, init_state=np.zeros(2),
                              search_cfg=KnrSearchConfig(exhaustive_limit=100))

    def test_random_shooting_requires_rng(self):
        sys_ = make_knr_example(noise_std=0.0)
        model = knr_model_from_system(sys_)
        with pytest.raises(ConfigurationError):
            best_response_knr(model, lambda s: 0.0, None, horizon=10,
                              num_actions=3, init_state=np.zeros(2),
                              search_cfg=KnrSearchConfig(exhaustive_limit=1,
                                                         n_candidates=50))


class TestSolveMinmaxTabular:
    @staticmethod
    def random_game(rng, s_dim=3, a_dim=2, horizon=2, with_bonus=True):
        p = rng.dirichlet(np.ones(s_dim), size=(s_dim, a_dim))
        model = tabular_model(p)
        d_e = rng.dirichlet(np.ones(s_dim))
        bonus = rng.uniform(0, 0.5, size=(s_dim, a_dim)) if with_bonus else None
        return model, bonus, d_e

    def test_k1_returns_single_component(self):
        rng = np.random.default_rng(5)
        model, bonus, d_e = self.random_game(rng)
        mix, _ = solve_minmax(model, bonus, "box", d_e,
                              MinMaxConfig(k_iters=1), horizon=2)
        assert len(mix.components) == 1
        assert mix.weights[0] == 1.0

    def test_achievable_expert_drives_objective_to_zero(self):
        rng = np.random.default_rng(6)
        p = rng.dirichlet(np.ones(4), size=(4, 2))
        model = tabular_model(p)
        view = model_view(model, 3)
        from ilfo_lab import occupancy_exact
        target = Policy.deterministic(
            rng.integers(0, 2, size=(3, 4)), num_actions=2)
        d_e = occupancy_exact(view, target).average.sum(axis=1)
        cfg = MinMaxConfig(k_iters=200)
        _, obj = solve_minmax(model, None, "box", d_e, cfg, horizon=3)
        assert obj <= 1e-2

    @staticmethod
    def reference_fw_box(model, bonus, d_e, k_iters, horizon, init_state):
        """Unmemoized Frank-Wolfe on one-hot (H, S, A) cubes through
        occupancy_exact: every round solves its own DP and forward pass.
        Returns each round's action table and box witness, and the final
        objective."""
        from ilfo_lab import occupancy_exact
        view = model_view(model, horizon, init_state)
        s_dim, a_dim = model.num_states, model.num_actions
        b = np.zeros((s_dim, a_dim)) if bonus is None else bonus
        d_bar = occupancy_exact(view, Policy.tabular(
            np.full((horizon, s_dim, a_dim), 1.0 / a_dim))).average
        tables, witnesses = [], []
        for k in range(1, k_iters + 1):
            f = (d_bar.sum(axis=1) > d_e).astype(float)
            witnesses.append(f)
            cost = f[:, None] - b
            actions = np.zeros((horizon, s_dim), dtype=int)
            v = np.zeros(s_dim)
            for h in range(horizon - 1, -1, -1):
                q = cost + model.p_hat @ v
                actions[h] = np.argmin(q, axis=1)
                v = q[np.arange(s_dim), actions[h]]
            cube = np.eye(a_dim)[actions]
            occ = occupancy_exact(view, Policy.tabular(cube)).average
            tables.append(actions)
            d_bar = (1.0 - 1.0 / k) * d_bar + occ / k
        ipm = float(np.maximum(d_bar.sum(axis=1) - d_e, 0.0).sum())
        return tables, witnesses, ipm - float((d_bar * b).sum())

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), s_dim=st.integers(1, 6),
           a_dim=st.integers(1, 3), horizon=st.integers(1, 5),
           k_iters=st.integers(1, 200), with_bonus=st.booleans(),
           init=st.integers(0, 5))
    def test_memo_matches_unmemoized_fw(self, seed, s_dim, a_dim, horizon,
                                        k_iters, with_bonus, init):
        # a repeated witness reuses its best response: same tables and
        # objective as the unmemoized solver, one Policy object per
        # distinct witness, and one DP per distinct witness
        rng = np.random.default_rng(seed)
        model, bonus, d_e = self.random_game(rng, s_dim, a_dim, horizon,
                                             with_bonus)
        init %= s_dim
        calls = []
        best_response = planner.best_response_tabular

        def counted(*args, **kwargs):
            calls.append(args)
            return best_response(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(planner, "best_response_tabular", counted)
            mix, obj = solve_minmax(model, bonus, "box", d_e,
                                    MinMaxConfig(k_iters=k_iters),
                                    horizon=horizon, init_state=init)
        tables, witnesses, ref_obj = self.reference_fw_box(
            model, bonus, d_e, k_iters, horizon, init)
        assert len(mix.components) == k_iters
        for comp, table in zip(mix.components, tables):
            assert np.array_equal(comp.action_table, table)
        assert obj == ref_obj
        first = {}
        for comp, f in zip(mix.components, witnesses):
            assert first.setdefault(f.tobytes(), comp) is comp
        assert len({id(c) for c in mix.components}) == len(first)
        assert len(calls) == len(first)

    def test_solve_logs_distinct_best_responses(self, caplog):
        mdp = make_chain()
        model = tabular_model(mdp.transitions)
        rng = np.random.default_rng(19)
        d_e = rng.dirichlet(np.ones(mdp.num_states))
        bonus = rng.uniform(0, 0.1, size=(mdp.num_states, mdp.num_actions))
        cfg = MinMaxConfig(k_iters=200)
        with caplog.at_level(logging.DEBUG, logger="ilfo_lab"):
            mix, obj = solve_minmax(model, bonus, "box", d_e, cfg,
                                    horizon=mdp.horizon)
        records = [r for r in caplog.records if r.name == "ilfo_lab.planner"]
        assert len(records) == 1
        assert records[0].levelno == logging.DEBUG
        rounds, distinct, logged_obj = records[0].args
        assert rounds == cfg.k_iters
        assert distinct == len({id(c) for c in mix.components})
        assert distinct < cfg.k_iters
        assert logged_obj == obj

    def test_final_objective_not_above_initial(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            model, bonus, d_e = self.random_game(rng)
            cfg1 = MinMaxConfig(k_iters=1)
            cfg50 = MinMaxConfig(k_iters=50)
            _, obj1 = solve_minmax(model, bonus, "box", d_e, cfg1, horizon=2)
            _, obj50 = solve_minmax(model, bonus, "box", d_e, cfg50, horizon=2)
            assert obj50 <= obj1 + 1e-2

    def test_fw_matches_lp_value(self):
        rng = np.random.default_rng(9)
        for i in range(5):
            model, bonus, d_e = self.random_game(rng, with_bonus=bool(i % 2))
            lp = game_value_lp(model, bonus, d_e, horizon=2)
            _, obj = solve_minmax(model, bonus, "box", d_e,
                                  MinMaxConfig(k_iters=200), horizon=2)
            assert obj >= lp - 1e-9
            assert obj - lp <= 0.01

    def test_disc_class_picks_solver(self, monkeypatch):
        rng = np.random.default_rng(11)
        model, bonus, d_e = self.random_game(rng)
        calls = []
        monkeypatch.setattr(planner, "_solve_fw_box",
                            lambda *args: calls.append("_solve_fw_box"))
        solve_minmax(model, bonus, "box", d_e, MinMaxConfig(), horizon=2)
        assert calls == ["_solve_fw_box"]

    def test_unsupported_disc_class_raises(self):
        rng = np.random.default_rng(11)
        model, bonus, d_e = self.random_game(rng)
        fmap, _ = rff_featurize(rng.normal(size=(5, 2)), m=4, bandwidth=1.0,
                                rng=rng)
        mmd = MmdDiscriminator(feature_map=fmap, w=np.zeros(4))
        # an explicit list of per-state witness vectors is not a solver
        # input: the box class is the only tabular witness class
        vertices = [np.array(v, dtype=float)
                    for v in itertools.product((0.0, 1.0), repeat=3)]
        for disc_class in (3, None, "boxx", mmd, [["a", "b", "c"]],
                           vertices, tuple(vertices), np.asarray(vertices)):
            with pytest.raises(ConfigurationError):
                solve_minmax(model, bonus, disc_class, d_e, MinMaxConfig(),
                             horizon=2)
        knr = knr_model_from_system(make_knr_example(noise_std=0.0))
        with pytest.raises(ConfigurationError):
            solve_minmax(knr, None, "box", d_e, MinMaxConfig(), horizon=2,
                         num_actions=2, init_state=np.zeros(2))


    @pytest.mark.parametrize("init_state", [-1, 3])
    def test_init_state_out_of_range_raises(self, init_state):
        rng = np.random.default_rng(15)
        model, bonus, d_e = self.random_game(rng)
        with pytest.raises(ConfigurationError, match="init_state"):
            solve_minmax(model, bonus, "box", d_e, MinMaxConfig(k_iters=2),
                         horizon=2, init_state=init_state)

    def test_expert_must_be_state_distribution(self):
        # the tabular solver takes d_e as an (S,) array, not the dataset
        rng = np.random.default_rng(17)
        model, bonus, d_e = self.random_game(rng)
        dataset = ExpertDataset(trajectories=[np.array([0, 1, 2])])
        for expert in (dataset, d_e[:2], -d_e, "d_e"):
            with pytest.raises(ConfigurationError, match="expert"):
                solve_minmax(model, bonus, "box", expert,
                             MinMaxConfig(k_iters=2), horizon=2)

    def test_bonus_without_table_raises(self):
        rng = np.random.default_rng(16)
        model, _, d_e = self.random_game(rng)
        callable_only = BonusFunction(fn=lambda s, a: 0.1, upper=1.0)
        wrong_shape = np.zeros((2, 2))
        for bonus in (callable_only, lambda s, a: 0.1, wrong_shape):
            with pytest.raises(ConfigurationError, match="bonus table"):
                solve_minmax(model, bonus, "box", d_e,
                             MinMaxConfig(k_iters=2), horizon=2)


class TestGameValueLp:
    def test_forced_start_hand_value(self):
        # H=1: occupancy is stuck at the initial state, value is
        # 1 - max_a b(s0, a) against a point-mass expert elsewhere
        p = np.full((2, 2, 2), 0.5)
        model = tabular_model(p)
        bonus = np.array([[0.2, 0.6], [0.0, 0.0]])
        d_e = np.array([0.0, 1.0])
        val = game_value_lp(model, bonus, d_e, horizon=1, init_state=0)
        assert val == pytest.approx(1.0 - 0.6, abs=1e-9)

    def test_achievable_expert_zero_value(self):
        rng = np.random.default_rng(12)
        p = rng.dirichlet(np.ones(3), size=(3, 2))
        model = tabular_model(p)
        view = model_view(model, 2)
        from ilfo_lab import occupancy_exact
        target = Policy.deterministic(
            rng.integers(0, 2, size=(2, 3)), num_actions=2)
        d_e = occupancy_exact(view, target).average.sum(axis=1)
        val = game_value_lp(model, None, d_e, horizon=2)
        assert val == pytest.approx(0.0, abs=1e-9)

    def test_box_objective_helper(self):
        d_sa = np.array([[0.3, 0.2], [0.1, 0.4]])
        d_e = np.array([0.1, 0.9])
        b = np.array([[1.0, 0.0], [0.0, 1.0]])
        # state marginal (0.5, 0.5): positive part 0.4; bonus 0.3 + 0.4
        assert box_objective(d_sa, d_e, b) == pytest.approx(0.4 - 0.7,
                                                            abs=1e-12)


class TestSolveMinmaxKnr:
    def test_returns_open_loop_mixture(self):
        sys_ = make_knr_example(noise_std=0.0)
        model = knr_model_from_system(sys_)
        rng = np.random.default_rng(13)
        expert_states = rng.normal(size=(50, 2)) * 0.3
        fmap, feats = rff_featurize(expert_states, m=32, bandwidth="auto",
                                    rng=rng)
        disc = MmdDiscriminator(feature_map=fmap, w=np.zeros(32))
        cfg = MinMaxConfig(k_iters=10)
        mix, obj = solve_minmax(model, None, disc, feats.mean(axis=0), cfg,
                                horizon=3, num_actions=2,
                                init_state=np.zeros(2), rng=rng)
        assert len(mix.components) == 10
        assert all(c.is_open_loop for c in mix.components)
        assert obj >= 0.0

    def test_expert_must_be_the_mean_embedding(self):
        model = knr_model_from_system(make_knr_example(noise_std=0.0))
        rng = np.random.default_rng(13)
        expert_states = rng.normal(size=(50, 2)) * 0.3
        fmap, feats = rff_featurize(expert_states, m=32, bandwidth="auto",
                                    rng=rng)
        disc = MmdDiscriminator(feature_map=fmap, w=np.zeros(32))
        dataset = ExpertDataset(trajectories=[expert_states])
        for expert in (dataset, expert_states, feats, feats.mean(axis=0)[:8]):
            with pytest.raises(ConfigurationError, match="mean feature"):
                solve_minmax(model, None, disc, expert,
                             MinMaxConfig(k_iters=2), horizon=3,
                             num_actions=2, init_state=np.zeros(2), rng=rng)

    def test_matching_own_nominal_path_gives_small_objective(self):
        sys_ = make_knr_example(noise_std=0.0)
        model = knr_model_from_system(sys_, n_samples=200)
        rng = np.random.default_rng(14)
        # expert data = the model's own nominal path under a fixed seq
        s = np.zeros(2)
        states = []
        for a in (1, 0, 1):
            states.append(s.copy())
            s = model.mean_prediction(s, a)
        expert_states = np.asarray(states)
        fmap, feats = rff_featurize(expert_states, m=64, bandwidth=1.0,
                                    rng=rng)
        disc = MmdDiscriminator(feature_map=fmap, w=np.zeros(64))
        cfg = MinMaxConfig(k_iters=40)
        _, obj = solve_minmax(model, None, disc, feats.mean(axis=0), cfg,
                              horizon=3, num_actions=2,
                              init_state=np.zeros(2), rng=rng)
        assert obj <= 0.05
