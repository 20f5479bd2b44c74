import copy
import itertools
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ilfo_lab import (ConfigurationError, Policy, TabularMdp, envs,
                      planner, value_eval_tabular)
from ilfo_lab.discriminators import RffFeatureMap, mmd_update, rff_featurize
from ilfo_lab.envs import KnrSystem, OpenLoopTree, openloop_search
from ilfo_lab.expert import ExpertDataset, solve_optimal_tabular
from ilfo_lab.models import (
    KnrBuffer,
    KnrModel,
    TabularModel,
    bootstrap_buffers,
    ensemble_bonus,
    fit_knr_model,
    knr_uncertainty,
    theory_bonus,
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
    return TabularModel(p_hat=kernel,
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
    buf = KnrBuffer(sys_.features, sys_.feature_dim, sys_.state_dim,
                    lam_ridge=lam)
    for _ in range(n_samples):
        s = rng.normal(size=sys_.state_dim) * 0.4
        a = int(rng.integers(sys_.num_actions))
        buf.append(s, a, sys_.step_mean(s, a))
    return fit_knr_model(buf, noise_std=0.05, w_max=2.0, t=1, delta=0.1)


def random_knr_system(rng, state_dim, num_actions, horizon):
    """features(s, a) = [clip(s); one_hot(a)] / sqrt(2) under random
    weights, like make_knr_example with any state and action count."""
    d = state_dim + num_actions

    def features(s, a):
        x = np.asarray(s, dtype=float)
        nrm = np.sqrt(np.vecdot(x, x))[..., None]
        one_hot = np.asarray(a)[..., None] == np.arange(num_actions)
        return np.concatenate([x / np.maximum(1.0, nrm), one_hot],
                              axis=-1) / np.sqrt(2.0)

    return KnrSystem(state_dim=state_dim, feature_dim=d, features=features,
                     weights=rng.normal(scale=0.8, size=(state_dim, d)),
                     noise_std=0.0, horizon=horizon, num_actions=num_actions,
                     init_state=rng.normal(scale=0.3, size=state_dim),
                     cost=lambda s: np.zeros(np.shape(s)[:-1]))


class TestBestResponseKnr:
    def test_single_action_unique_sequence(self):
        sys_ = make_knr_example(noise_std=0.0)
        model = knr_model_from_system(sys_)
        pol = best_response_knr(model, lambda s: np.zeros(len(s)), None,
                                horizon=3, num_actions=1,
                                init_state=np.zeros(2),
                                search_cfg=KnrSearchConfig())
        np.testing.assert_array_equal(pol.action_seq, [0, 0, 0])

    def test_dominant_bonus_selects_high_uncertainty_action(self):
        sys_ = make_knr_example(noise_std=0.0)
        model = knr_model_from_system(sys_)
        bonus = lambda s, a: 10.0 * (np.asarray(a) == 1)
        pol = best_response_knr(model, lambda s: np.sum(s**2, axis=-1), bonus,
                                horizon=2, num_actions=2,
                                init_state=np.zeros(2),
                                search_cfg=KnrSearchConfig())
        np.testing.assert_array_equal(pol.action_seq, [1, 1])

    def test_exhaustive_agrees_with_full_random_shooting(self):
        sys_ = make_knr_example(noise_std=0.0)
        model = knr_model_from_system(sys_)
        cost = lambda s: s[..., 0] - s[..., 1]
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
        tree = OpenLoopTree(model.mean_prediction, np.zeros(2), 2, horizon,
                            bonus)
        seq, _ = openloop_search(tree, cost, ids)
        assert rng.bit_generator.state == clone.bit_generator.state
        return pol.action_seq, seq, ids

    def test_random_shooting_draws_without_replacement(self):
        # A^H = 1024: ids come from rng.choice, without repeats
        model = knr_model_from_system(make_knr_example(noise_std=0.0))
        cost = lambda s: s[..., 0] - s[..., 1]
        bonus = lambda s, a: 0.05 * a * s[..., 1] ** 2
        got, want, ids = self.shooting_reference(
            model, cost, bonus, 10,
            lambda r, total, n: np.sort(r.choice(total, size=n,
                                                 replace=False)))
        assert len(np.unique(ids)) == 64
        np.testing.assert_array_equal(got, want)

    def test_random_shooting_above_a_million_draws_without_replacement(self):
        # A^H = 2^21 > 10**6: the same rng.choice draw, without repeats
        model = knr_model_from_system(make_knr_example(noise_std=0.0))
        cost = lambda s: s[..., 0] - s[..., 1]
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
        d_e = occupancy_exact(view, target).mean(axis=0).sum(axis=1)
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
            np.full((horizon, s_dim, a_dim), 1.0 / a_dim))).mean(axis=0)
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
            occ = occupancy_exact(view, Policy.tabular(cube)).mean(axis=0)
            tables.append(actions)
            d_bar = (1.0 - 1.0 / k) * d_bar + occ / k
        ipm = float(np.maximum(d_bar.sum(axis=1) - d_e, 0.0).sum())
        return tables, witnesses, ipm - float((d_bar * b).sum())

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), s_dim=st.integers(1, 6),
           a_dim=st.integers(1, 3), horizon=st.integers(1, 5),
           k_iters=st.integers(1, 200), with_bonus=st.booleans(),
           init=st.integers(0, 5), integer_bonus=st.booleans())
    def test_memo_matches_unmemoized_fw(self, seed, s_dim, a_dim, horizon,
                                        k_iters, with_bonus, init,
                                        integer_bonus):
        # a repeated witness reuses its best response: same tables and
        # objective as the unmemoized solver, one Policy object per
        # distinct witness, and one DP per distinct witness. A warm list
        # changes none of it: with no list, an empty one, the masks a
        # solve on another model used, or every mask when S <= 4, the
        # solve gives the same tables, inverse and objective bytes, calls
        # best_response_tabular once per used mask not in the list, and
        # leaves the used masks in the list in order of first use
        rng = np.random.default_rng(seed)
        model, bonus, d_e = self.random_game(rng, s_dim, a_dim, horizon,
                                             with_bonus)
        if with_bonus and integer_bonus:
            # costs f - b in {-1, 0, 1}: the DP's actions tie often
            bonus = rng.integers(0, 2, size=(s_dim, a_dim)).astype(float)
        init %= s_dim
        cfg = MinMaxConfig(k_iters=k_iters)
        other_masks = []
        solve_minmax(self.random_game(rng, s_dim, a_dim, horizon)[0], bonus,
                     "box", d_e, cfg, horizon=horizon, init_state=init,
                     warm=other_masks)
        warms = [None, [], other_masks]
        if s_dim <= 4:
            warms.append([bytes(m)
                          for m in itertools.product((0, 1), repeat=s_dim)])
        tables, witnesses, ref_obj = self.reference_fw_box(
            model, bonus, d_e, k_iters, horizon, init)
        used = list(dict.fromkeys(f.astype(bool).tobytes()
                                  for f in witnesses))
        best_response = planner.best_response_tabular
        inverses = []
        for warm in warms:
            before = [] if warm is None else list(warm)
            calls = []

            def counted(*args, **kwargs):
                calls.append(args)
                return best_response(*args, **kwargs)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(planner, "best_response_tabular", counted)
                mix, obj = solve_minmax(model, bonus, "box", d_e, cfg,
                                        horizon=horizon, init_state=init,
                                        warm=warm)
            assert len(mix.components) == k_iters
            for comp, table in zip(mix.components, tables):
                assert np.array_equal(comp.action_table, table)
            assert np.float64(obj).tobytes() == np.float64(ref_obj).tobytes()
            first = {}
            for comp, f in zip(mix.components, witnesses):
                assert first.setdefault(f.tobytes(), comp) is comp
            assert len({id(c) for c in mix.components}) == len(first)
            assert len(calls) == len([m for m in used if m not in before])
            if warm is not None:
                assert warm == used
            inverses.append(mix.inverse.tobytes())
        assert len(set(inverses)) == 1
        # from every start state, warm-started from every mask used above:
        # the one forward pass stacks the uniform policy and the one-hot
        # cubes of the stacked DP's tables, and its step averages are the
        # bytes of each one's own occupancy_exact
        from ilfo_lab import occupancy_exact
        uniform = Policy.tabular(
            np.full((horizon, s_dim, a_dim), 1.0 / a_dim))
        for start in range(s_dim):
            seen = {}

            def recorded(name):
                fn = getattr(planner, name)
                return lambda *args: seen.setdefault(name, fn(*args))

            with pytest.MonkeyPatch.context() as mp:
                for name in ("best_response_tables", "occupancy_stack"):
                    mp.setattr(planner, name, recorded(name))
                solve_minmax(model, bonus, "box", d_e, cfg, horizon=horizon,
                             init_state=start, warm=list(used))
            view = model_view(model, horizon, start)
            tables = seen["best_response_tables"]
            occs = seen["occupancy_stack"].mean(axis=1)
            assert len(occs) == 1 + len(used) == 1 + len(tables)
            assert (occs[0].tobytes()
                    == occupancy_exact(view, uniform).mean(axis=0).tobytes())
            for table, occ in zip(tables, occs[1:]):
                want = occupancy_exact(
                    view, Policy.deterministic(table, a_dim)).mean(axis=0)
                assert occ.tobytes() == want.tobytes()

    def test_solve_logs_distinct_best_responses(self, caplog):
        mdp = make_chain()
        model = tabular_model(mdp.transitions)
        rng = np.random.default_rng(19)
        d_e = rng.dirichlet(np.ones(mdp.num_states))
        bonus = rng.uniform(0, 0.1, size=(mdp.num_states, mdp.num_actions))
        cfg = MinMaxConfig(k_iters=200)
        # warm-started from all 2^S masks: the record counts the responses
        # the rounds used, not the pre-solved ones
        warm = [bytes(m)
                for m in itertools.product((0, 1), repeat=mdp.num_states)]
        with caplog.at_level(logging.DEBUG, logger="ilfo_lab"):
            mix, obj = solve_minmax(model, bonus, "box", d_e, cfg,
                                    horizon=mdp.horizon, warm=warm)
        records = [r for r in caplog.records if r.name == "ilfo_lab.planner"]
        assert len(records) == 1
        assert records[0].levelno == logging.DEBUG
        rounds, distinct, hits, misses, unused, logged_obj = records[0].args
        assert rounds == cfg.k_iters
        assert distinct == len({id(c) for c in mix.components})
        assert len(mix.distinct) == distinct
        assert distinct < cfg.k_iters
        assert len(warm) == distinct
        # every used mask was in the list; the rest went unused
        assert (hits, misses, unused) == (distinct, 0, 2 ** mdp.num_states
                                          - distinct)
        assert logged_obj == obj
        # a cold solve misses every mask it uses
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="ilfo_lab"):
            solve_minmax(model, bonus, "box", d_e, cfg, horizon=mdp.horizon)
        _, distinct, hits, misses, unused, _ = caplog.records[0].args
        assert (hits, misses, unused) == (0, distinct, 0)

    def test_warm_hits_share_one_forward_pass(self):
        # a solve warm-started from its own masks hits every one: one
        # stacked DP and one forward pass, and no one-mask DP or
        # occupancy_exact call; a cold solve reaches both of those
        mdp = make_chain()
        model = tabular_model(mdp.transitions)
        rng = np.random.default_rng(23)
        d_e = rng.dirichlet(np.ones(mdp.num_states))
        bonus = rng.uniform(0, 0.1, size=(mdp.num_states, mdp.num_actions))
        names = ("occupancy_stack", "best_response_tables",
                 "best_response_tabular", "occupancy_exact")

        def counted_solve(warm):
            calls = dict.fromkeys(names, 0)

            def counted(name):
                fn = getattr(planner, name)

                def call(*args):
                    calls[name] += 1
                    return fn(*args)
                return call

            with pytest.MonkeyPatch.context() as mp:
                for name in names:
                    mp.setattr(planner, name, counted(name))
                mix, obj = solve_minmax(model, bonus, "box", d_e,
                                        MinMaxConfig(k_iters=200),
                                        horizon=mdp.horizon, warm=warm)
            return mix, obj, calls

        warm = []
        cold_mix, cold_obj, calls = counted_solve(warm)
        distinct = len(cold_mix.distinct)
        assert calls == {"occupancy_stack": 1, "best_response_tables": 0,
                         "best_response_tabular": distinct,
                         "occupancy_exact": distinct}
        mix, obj, calls = counted_solve(warm)
        assert calls == {"occupancy_stack": 1, "best_response_tables": 1,
                         "best_response_tabular": 0, "occupancy_exact": 0}
        assert np.float64(obj).tobytes() == np.float64(cold_obj).tobytes()
        assert mix.inverse.tobytes() == cold_mix.inverse.tobytes()

    def test_only_misses_build_a_policy(self):
        # a response is a row of the mixture's table stack: a fully warm
        # solve builds no Policy, and the first read of distinct builds one
        # per row; a cold solve builds one per miss, each in the
        # best_response_tabular call it makes once per distinct mask
        mdp = make_chain()
        model = tabular_model(mdp.transitions)
        rng = np.random.default_rng(31)
        d_e = rng.dirichlet(np.ones(mdp.num_states))
        bonus = rng.uniform(0, 0.1, size=(mdp.num_states, mdp.num_actions))
        calls = {"Policy": 0, "best_response_tabular": 0,
                 "occupancy_exact": 0}
        post_init = Policy.__post_init__

        def counted_post_init(self):
            calls["Policy"] += 1
            post_init(self)

        def counted(name):
            fn = getattr(planner, name)

            def call(*args):
                calls[name] += 1
                return fn(*args)
            return call

        def solve(warm):
            for name in calls:
                calls[name] = 0
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(Policy, "__post_init__", counted_post_init)
                for name in ("best_response_tabular", "occupancy_exact"):
                    mp.setattr(planner, name, counted(name))
                mix, _ = solve_minmax(model, bonus, "box", d_e,
                                      MinMaxConfig(k_iters=200),
                                      horizon=mdp.horizon, warm=warm)
                built = dict(calls)
                distinct = mix.distinct
                views = calls["Policy"] - built["Policy"]
            return mix, built, distinct, views

        warm = []
        cold, built, distinct, views = solve(warm)
        D = len(cold.rows)
        assert 1 < D == len(warm) == len(distinct) == views
        assert built == {"Policy": D, "best_response_tabular": D,
                         "occupancy_exact": D}
        mix, built, distinct, views = solve(warm)
        assert built == {"Policy": 0, "best_response_tabular": 0,
                         "occupancy_exact": 0}
        assert views == D == len(distinct)
        assert mix.rows.tobytes() == cold.rows.tobytes()
        for i, comp in enumerate(mix.components):
            assert distinct[mix.inverse[i]] is comp
            assert np.array_equal(comp.action_table,
                                  mix.rows[mix.inverse[i]])

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
        # an explicit list of per-state witness vectors is not a solver
        # input: the box class is the only tabular witness class
        vertices = [np.array(v, dtype=float)
                    for v in itertools.product((0.0, 1.0), repeat=3)]
        for disc_class in (3, None, "boxx", fmap, [["a", "b", "c"]],
                           vertices, tuple(vertices), np.asarray(vertices)):
            with pytest.raises(ConfigurationError):
                solve_minmax(model, bonus, disc_class, d_e, MinMaxConfig(),
                             horizon=2)
        knr = knr_model_from_system(make_knr_example(noise_std=0.0))
        with pytest.raises(ConfigurationError):
            solve_minmax(knr, None, "box", d_e, MinMaxConfig(), horizon=2,
                         num_actions=2, init_state=np.zeros(2))


    def test_solvers_read_the_model_kernel_without_a_second_check(self):
        # TabularModel checked p_hat when it was built; a solve builds no
        # TabularMdp view, whose construction would check it again
        rng = np.random.default_rng(12)
        model, bonus, d_e = self.random_game(rng)

        def rechecked(transitions):
            raise AssertionError("the model kernel was checked again")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(envs, "_checked_kernel", rechecked)
            solve_minmax(model, bonus, "box", d_e, MinMaxConfig(k_iters=20),
                         horizon=2)
            game_value_lp(model, bonus, d_e, horizon=2)

    @pytest.mark.parametrize("init_state", [-1, 3, 1.5])
    def test_init_state_out_of_range_raises(self, init_state):
        # both solvers share one check, so neither rounds 1.5 to state 1
        # nor indexes -1 or 3 into a different program
        rng = np.random.default_rng(15)
        model, bonus, d_e = self.random_game(rng)
        with pytest.raises(ConfigurationError, match="init_state"):
            solve_minmax(model, bonus, "box", d_e, MinMaxConfig(k_iters=2),
                         horizon=2, init_state=init_state)
        with pytest.raises(ConfigurationError, match="init_state"):
            game_value_lp(model, bonus, d_e, horizon=2,
                          init_state=init_state)

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

        def callable_only(s, a):   # a last-axis bonus, as on a KNR model
            return np.full(np.shape(a), 0.1)

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
        d_e = occupancy_exact(view, target).mean(axis=0).sum(axis=1)
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
        cfg = MinMaxConfig(k_iters=10)
        mix, obj = solve_minmax(model, None, fmap, feats.mean(axis=0), cfg,
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
        dataset = ExpertDataset(trajectories=[expert_states])
        for expert in (dataset, expert_states, feats, feats.mean(axis=0)[:8]):
            with pytest.raises(ConfigurationError, match="mean feature"):
                solve_minmax(model, None, fmap, expert,
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
        cfg = MinMaxConfig(k_iters=40)
        _, obj = solve_minmax(model, None, fmap, feats.mean(axis=0), cfg,
                              horizon=3, num_actions=2,
                              init_state=np.zeros(2), rng=rng)
        assert obj <= 0.05


class TestKnrSearchTree:
    """One search tree per KNR solve, against the per-round rebuild."""

    @staticmethod
    def reference_fw_mmd(model, bonus, fmap, mean_e, k_iters, horizon,
                         num_actions, init_state, search_cfg, rng):
        """Frank-Wolfe against the MMD witness with nothing kept between
        rounds: every round searches a fresh tree, scoring each state on
        its own through the feature map and the round's unit-ball
        weights, then rolls its path's states forward one at a time and
        calls the bonus along it once per step. Returns the per-round
        action sequences and the objective."""
        def path_states(seq):
            states, s = [], np.asarray(init_state, dtype=float)
            for h in range(horizon):
                states.append(np.atleast_1d(s).copy())
                s = model.mean_prediction(s, int(seq[h]))
            return np.asarray(states)

        mean_bar = fmap(path_states(np.zeros(horizon, dtype=int))).mean(
            axis=0)
        seqs, paths = [], []
        for k in range(1, k_iters + 1):
            w = mmd_update(mean_bar, mean_e)
            # one state's score, featurized as a (1, d) batch
            cost = lambda states: np.array(
                [float(fmap(s.reshape(1, -1))[0] @ w) for s in states])
            seq = best_response_knr(model, cost, bonus, horizon, num_actions,
                                    init_state, search_cfg, rng).action_seq
            states = path_states(seq)
            seqs.append(seq)
            paths.append((states, seq))
            mean_bar = (1 - 1.0 / k) * mean_bar + fmap(states).mean(
                axis=0) / k
        ipm = float(np.linalg.norm(mean_bar - mean_e))
        mean_b = float(np.mean([
            0.0 if bonus is None else float(np.mean(
                [float(bonus(st[h], int(sq[h]))) for h in range(horizon)]))
            for st, sq in paths]))
        return seqs, ipm - mean_b

    @staticmethod
    def witness(rng, system, m):
        ref = rng.normal(scale=0.5, size=(12, system.state_dim))
        fmap, feats = rff_featurize(ref, m=m, bandwidth="auto", rng=rng)
        expert = rng.normal(scale=0.5, size=(6, system.state_dim))
        return fmap, fmap(expert).mean(axis=0)

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), state_dim=st.integers(1, 3),
           A=st.integers(1, 3), H=st.integers(1, 5),
           k_iters=st.integers(1, 6),
           bonus_kind=st.sampled_from(["none", "theory", "drawn"]),
           coarse=st.booleans(), shooting=st.booleans())
    def test_matches_per_round_rebuild(self, seed, state_dim, A, H, k_iters,
                                       bonus_kind, coarse, shooting):
        rng = np.random.default_rng(seed)
        system = random_knr_system(rng, state_dim, A, H)
        model = knr_model_from_system(system,
                                      seed=int(rng.integers(2**32)))
        fmap, mean_e = self.witness(rng, system, int(rng.integers(1, 17)))
        if bonus_kind == "theory":
            bonus = theory_bonus(model, H)
        elif bonus_kind == "drawn":
            # coarse rounding forces ties between sequences; Python's round
            # on each row, as on that row alone
            slope = rng.normal(size=(A, state_dim))
            offset = rng.uniform(0, 1, size=A)
            digits = 0 if coarse else 12
            rounded = np.vectorize(lambda v: round(float(v), digits),
                                   otypes=[float])
            bonus = lambda s, a: rounded(np.vecdot(slope[a], s) + offset[a])
        else:
            bonus = None
        if shooting:
            search = KnrSearchConfig(exhaustive_limit=1, n_candidates=int(
                rng.integers(1, A ** H + 3)))
        else:
            search = KnrSearchConfig()
        draw_seed = int(rng.integers(2**32))
        got_rng = np.random.default_rng(draw_seed)
        want_rng = np.random.default_rng(draw_seed)
        mix, obj = solve_minmax(model, bonus, fmap, mean_e,
                                MinMaxConfig(k_iters=k_iters, knr_search=search),
                                horizon=H, num_actions=A,
                                init_state=system.init_state, rng=got_rng)
        seqs, ref_obj = self.reference_fw_mmd(
            model, bonus, fmap, mean_e, k_iters, H, A, system.init_state,
            search, want_rng)
        assert len(mix.components) == k_iters
        for comp, seq in zip(mix.components, seqs):
            assert np.array_equal(comp.action_seq, seq)
        # one row per distinct sequence, in order of first use
        used = list(dict.fromkeys(tuple(np.asarray(seq).tolist())
                                  for seq in seqs))
        assert [tuple(row) for row in mix.rows.tolist()] == used
        assert mix.weights.tolist() == [1 / k_iters] * k_iters
        assert obj == ref_obj
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @staticmethod
    def counted_solve(k_iters, A=2, H=4):
        """Calls and rows of the model steps, bonuses, node featurizations
        and path featurizations of one exhaustive solve, its tree path
        walks, and its sequences."""
        rng = np.random.default_rng(23)
        system = random_knr_system(rng, 2, A, H)
        model = knr_model_from_system(system)
        fmap, mean_e = TestKnrSearchTree.witness(rng, system, 8)
        theory = theory_bonus(model, H)
        calls = dict.fromkeys(("step", "bonus", "node", "path", "walk"), 0)
        rows = dict(calls)

        def count(name, batch):
            calls[name] += 1
            rows[name] += len(batch)

        def bonus(s, a):
            count("bonus", a)
            return theory(s, a)

        step, featurize = KnrModel.mean_prediction, RffFeatureMap.__call__
        walk = OpenLoopTree.path

        def counted_walk(self, seq):
            count("walk", seq)
            return walk(self, seq)

        def counted_step(self, s, a):
            count("step", a)
            return step(self, s, a)

        def counted_featurize(self, states):
            # a tree node comes as its own (1, d) batch, a path as (H, d)
            count("node" if np.ndim(states) == 3 else "path", states)
            return featurize(self, states)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(KnrModel, "mean_prediction", counted_step)
            mp.setattr(RffFeatureMap, "__call__", counted_featurize)
            mp.setattr(OpenLoopTree, "path", counted_walk)
            mix, _ = solve_minmax(model, bonus, fmap, mean_e,
                                  MinMaxConfig(k_iters=k_iters), horizon=H,
                                  num_actions=A, init_state=system.init_state,
                                  rng=rng)
        return calls, rows, [c.action_seq for c in mix.components]

    def test_each_node_and_edge_computed_once_per_solve(self):
        A, H = 2, 4
        one_calls, one_rows, _ = self.counted_solve(1, A, H)
        calls, rows, seqs = self.counted_solve(10, A, H)
        # exhaustive: one call per depth, over that depth's distinct
        # prefixes, builds the tree for every round and the start path:
        # a step into each depth below the root, each depth's node
        # features and the bonuses on the edges out of it
        assert calls["step"] == H - 1
        assert calls["node"] == H
        assert calls["bonus"] == H
        assert rows["step"] == sum(A ** h for h in range(1, H))
        assert rows["node"] == sum(A ** h for h in range(H))
        assert rows["bonus"] == sum(A ** h for h in range(1, H + 1))
        for name in ("step", "node", "bonus"):
            assert one_calls[name] == calls[name]
            assert one_rows[name] == rows[name]
        # a path is walked on the tree once, and its mean embedding is one
        # (H, d) batch, per distinct path, the all-zeros start path included
        paths = {np.asarray(s).tobytes() for s in seqs}
        paths.add(np.zeros(H, dtype=np.asarray(seqs[0]).dtype).tobytes())
        assert calls["path"] == len(paths)
        assert rows["path"] == H * len(paths)
        assert calls["walk"] == len(paths)
        assert len(paths) < 1 + len(seqs)   # a path repeats: the cache is read


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


class TestKnrBatchContract:
    """Every KNR callable maps (..., d) states and (...) actions to (...)
    results, and row i of a batched call is the one-state call bit for
    bit: the model step and width, both bonuses, the search tree's
    featurizer and the witness score."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), state_dim=st.integers(1, 4),
           A=st.integers(1, 3), lead=st.lists(st.integers(1, 6), min_size=1,
                                              max_size=2),
           n_fit=st.integers(0, 60), m=st.integers(1, 24))
    def test_rows_equal_one_state_calls(self, seed, state_dim, A, lead,
                                        n_fit, m):
        rng = np.random.default_rng(seed)
        H = 3
        system = random_knr_system(rng, state_dim, A, H)
        fit_data = []
        for _ in range(n_fit):
            s = rng.normal(size=state_dim) * 0.6
            a = int(rng.integers(A))
            fit_data.append((s, a, system.step_mean(s, a)
                             + 0.05 * rng.normal(size=state_dim)))
        lam = float(rng.choice([1e-8, 1e-3, 0.3]))
        buf = KnrBuffer(system.features, system.feature_dim, state_dim, lam)
        for transition in fit_data:
            buf.append(*transition)
        t = int(rng.integers(1, 50))

        def fit(b):
            return fit_knr_model(b, 0.05, 2.0, t=t, delta=0.1)

        model = fit(buf)
        half_a, half_b = bootstrap_buffers(buf, rng)
        theory = theory_bonus(model, H)
        ensemble = ensemble_bonus(fit(half_a), fit(half_b), buf,
                                  lam_bonus=float(rng.uniform(0, 2)))
        S = rng.normal(size=tuple(lead) + (state_dim,))
        acts = rng.integers(A, size=tuple(lead))
        # the raw width too: sigma and the theory bonus cap it at 2
        width = lambda s, a: knr_uncertainty(model, s, a)
        # each bonus is its function
        for fn in (model.mean_prediction, width, model.sigma, theory,
                   ensemble):
            got = fn(S, acts)
            assert np.shape(got)[:len(lead)] == tuple(lead)
            for i in np.ndindex(*lead):
                assert same_bits(got[i], fn(S[i], int(acts[i])))

        # the solve's tree featurizer and each round's witness score,
        # checked inside the solve's searches
        fmap, mean_e = TestKnrSearchTree.witness(rng, system, m)
        X = rng.normal(size=(int(np.prod(lead)), state_dim))
        weights, checked = [], []
        real_search, real_update = planner.best_response_knr, mmd_update

        def update(*args):
            weights.append(real_update(*args))
            return weights[-1]

        def search(model, cost_fn, *args, tree, **kw):
            F = tree.featurize(X)
            got = cost_fn(F)
            for i, x in enumerate(X):
                f = fmap(x.reshape(1, -1))[0]
                assert same_bits(F[i], f)
                assert same_bits(got[i], np.float64(float(f @ weights[-1])))
            checked.append(len(X))
            return real_search(model, cost_fn, *args, tree=tree, **kw)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(planner, "best_response_knr", search)
            mp.setattr(planner, "mmd_update", update)
            solve_minmax(model, theory, fmap, mean_e, MinMaxConfig(k_iters=3),
                         horizon=H, num_actions=A,
                         init_state=system.init_state, rng=rng)
        assert checked == [len(X)] * 3
