import dataclasses
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ilfo_lab import (ConfigurationError, Policy, TabularMdp, occupancy_exact,
                      rollout, value_eval_tabular)
from ilfo_lab import loop, models
from ilfo_lab.envs import KnrSystem, value_eval_mc
from ilfo_lab.expert import ExpertDataset, sample_expert_states, solve_optimal_tabular
from ilfo_lab.loop import (
    CSV_COLUMNS,
    MobileConfig,
    RunRecord,
    envelope_optimism_term,
    info_gain_accumulate,
    info_gain_increment,
    regret_summary,
    run_mobile,
    write_csv_columns,
    write_csv_rows,
)
from ilfo_lab.mab import REGRET_CSV_COLUMNS, write_regret_csv
from ilfo_lab.discriminators import tv_best_response
from ilfo_lab.planner import MinMaxConfig, solve_minmax
from ilfo_lab.worlds import make_chain, make_combination_lock, make_knr_example
from test_models import (ReferenceKnrBuffer, reference_ensemble_bonus,
                         reference_fit_knr_ridge)

# frozen from notes/oracles/model_oracle.py
ENVELOPE_H5_I40_T100 = 212.13203435596424


def expert_for(mdp, n=40, seed=11):
    pi = solve_optimal_tabular(mdp)
    data = sample_expert_states(mdp, pi, n, np.random.default_rng(seed))
    return pi, data


class _FakeModel:
    """Duck-typed stand-in exposing only sigma(s, a), on the last axis:
    the widths of a trajectory's H steps in one call."""

    def __init__(self, sigmas):
        self.sigmas = np.asarray(sigmas, dtype=float)

    def sigma(self, s, a):
        assert np.shape(a) == self.sigmas.shape == np.shape(s)
        return self.sigmas


class _FakeTraj:
    def __init__(self, horizon):
        self.horizon = horizon
        self.states = np.zeros(horizon + 1, dtype=np.int64)
        self.actions = np.zeros(horizon, dtype=np.int64)


class TestMobileConfig:
    def test_defaults(self):
        cfg = MobileConfig()
        assert cfg.t_iters == 300
        assert cfg.delta == 0.05
        assert cfg.bonus_mode == "theory"

    def test_rejects_bad_iteration_count(self):
        with pytest.raises(ConfigurationError):
            MobileConfig(t_iters=0)

    def test_rejects_unknown_bonus_mode(self):
        with pytest.raises(ConfigurationError):
            MobileConfig(bonus_mode="sometimes")

    def test_rejects_delta_out_of_range(self):
        with pytest.raises(ConfigurationError):
            MobileConfig(delta=1.0)


class TestRunRecord:
    def _record(self, **overrides):
        n = 3
        base = dict(
            t=np.arange(1, n + 1),
            value=np.array([3.0, 2.0, 2.5]),
            expert_value=2.0,
            regret=np.array([1.0, 0.0, 0.5]),
            ipm=np.zeros(n),
            mean_bonus=np.zeros(n),
            info_gain_cum=np.array([1.0, 1.5, 1.5]),
            objective=np.array([0.5, 0.1, 0.2]),
            kind="tabular", horizon=4, delta=0.05, n_expert=10,
            num_states=3, num_actions=2,
        )
        base.update(overrides)
        return RunRecord(**base)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            self._record(ipm=np.zeros(2))

    def test_decreasing_info_gain_rejected(self):
        with pytest.raises(ConfigurationError):
            self._record(info_gain_cum=np.array([1.0, 0.5, 0.6]))

    def test_best_iterates(self):
        rec = self._record()
        assert rec.best_iterate_by_value == 2
        assert rec.best_iterate_by_objective == 2
        assert rec.info_gain_total == 1.5

    def test_csv_round_trip(self, tmp_path):
        rec = self._record()
        path = tmp_path / "run.csv"
        rec.write_csv(path)
        text = path.read_bytes().decode()
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + rec.num_iterations
        assert "\r" not in text
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == 3.0


class TestInfoGain:
    def test_zero_uncertainty_gives_zero(self):
        model = _FakeModel([0.0] * 4)
        assert info_gain_increment(model, _FakeTraj(4)) == 0.0

    def test_capped_at_one_per_step(self):
        model = _FakeModel([5.0, 2.0, 1.0])
        assert info_gain_increment(model, _FakeTraj(3)) == 3.0

    def test_mixed_example(self):
        # sigma^2 = 0.25, 4 -> capped 1, 0.5
        model = _FakeModel([0.5, 2.0, np.sqrt(0.5)])
        inc = info_gain_increment(model, _FakeTraj(3))
        assert inc == pytest.approx(1.75, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(widths=st.lists(st.floats(0.0, 1.2), min_size=1, max_size=24))
    def test_sums_left_to_right(self, widths):
        # a running total, as one step at a time adds it (np.add.reduce
        # is pairwise from 8 terms up and rounds differently)
        total = 0.0
        for sig in widths:
            total += min(sig * sig, 1.0)
        inc = info_gain_increment(_FakeModel(widths), _FakeTraj(len(widths)))
        assert inc == total

    def test_accumulate_appends_cumulative(self):
        tally = []
        info_gain_accumulate(tally, _FakeModel([1.0]), _FakeTraj(1))
        info_gain_accumulate(tally, _FakeModel([0.5]), _FakeTraj(1))
        assert tally == pytest.approx([1.0, 1.25])


class TestRegretSummary:
    def _record_from_values(self, values, expert=1.0, horizon=5):
        values = np.asarray(values, dtype=float)
        n = len(values)
        return RunRecord(
            t=np.arange(1, n + 1), value=values, expert_value=expert,
            regret=values - expert, ipm=np.zeros(n), mean_bonus=np.zeros(n),
            info_gain_cum=np.linspace(1.0, 2.0, n), objective=np.zeros(n),
            kind="tabular", horizon=horizon, delta=0.1, n_expert=50,
            num_states=4, num_actions=2)

    def test_all_equal_to_expert(self):
        s = regret_summary(self._record_from_values([1.0, 1.0, 1.0]))
        assert s["best_regret"] == 0.0
        assert s["iterations_to_threshold"] == 1

    def test_monotone_improvement_best_is_last(self):
        s = regret_summary(self._record_from_values([3.0, 2.0, 1.5]))
        assert s["best_iterate"] == 3
        assert s["final_regret"] == 0.5

    def test_never_reaching_gives_sentinel(self):
        s = regret_summary(self._record_from_values([9.0, 9.0]), threshold=0.1)
        assert s["iterations_to_threshold"] == 3

    def test_envelope_term_frozen_value(self):
        term = envelope_optimism_term(horizon=5, info_gain_total=40.0,
                                      t_count=100)
        assert term == pytest.approx(ENVELOPE_H5_I40_T100, rel=1e-15)

    def test_stat_term_formula(self):
        # |F| is the heuristic 2^min(S, 16): 2^4 for S = 4, 2^16 for KNR
        rec = self._record_from_values([1.0])
        s = regret_summary(rec)
        expect = 2.0 * 5 * np.sqrt(np.log(2 * 1 * 2**4 / 0.1) / 50)
        assert s["envelope_stat_term"] == pytest.approx(expect, rel=1e-12)
        knr = dataclasses.replace(rec, kind="knr", num_states=None,
                                  num_actions=None)
        s = regret_summary(knr)
        expect = 2.0 * 5 * np.sqrt(np.log(2 * 1 * 2**16 / 0.1) / 50)
        assert s["envelope_stat_term"] == pytest.approx(expect, rel=1e-12)


class TestRunMobileTabular:
    def test_cold_start_single_iteration(self):
        mdp = make_chain(num_states=3, num_actions=2, horizon=3)
        _, data = expert_for(mdp, n=10)
        cfg = MobileConfig(t_iters=1, n_expert=10,
                           minmax=MinMaxConfig(k_iters=5))
        _, rec = run_mobile(mdp, data, cfg, np.random.default_rng(0))
        assert rec.num_iterations == 1
        # empty buffer: sigma is 2 everywhere, each step contributes min(4,1)
        assert rec.info_gain_cum[0] == pytest.approx(mdp.horizon)
        assert rec.mean_bonus[0] == pytest.approx(2.0 * mdp.horizon)

    def test_single_state_env_has_zero_regret(self):
        P = np.ones((1, 2, 1))
        mdp = TabularMdp(horizon=3, transitions=P, cost=np.array([0.7]),
                         init_state=0)
        _, data = expert_for(mdp, n=5)
        cfg = MobileConfig(t_iters=3, n_expert=5,
                           minmax=MinMaxConfig(k_iters=3))
        _, rec = run_mobile(mdp, data, cfg, np.random.default_rng(1))
        assert np.allclose(rec.regret, 0.0, atol=1e-12)
        assert np.allclose(rec.ipm, 0.0, atol=1e-9)

    def test_bonus_off_never_touches_bonus_machinery(self, monkeypatch):
        import ilfo_lab.loop as loop_mod

        def boom(*args, **kwargs):
            raise AssertionError("bonus machinery used in off mode")

        monkeypatch.setattr(loop_mod, "theory_bonus", boom)
        monkeypatch.setattr(loop_mod, "ensemble_bonus", boom)
        mdp = make_chain(num_states=3, num_actions=2, horizon=3)
        _, data = expert_for(mdp, n=10)
        cfg = MobileConfig(t_iters=2, n_expert=10, bonus_mode="off",
                           minmax=MinMaxConfig(k_iters=5))
        _, rec = run_mobile(mdp, data, cfg, np.random.default_rng(0))
        assert np.all(rec.mean_bonus == 0.0)

    def test_deterministic_given_seed(self, tmp_path):
        mdp = make_chain(num_states=4, num_actions=2, horizon=4)
        _, data = expert_for(mdp, n=20)
        cfg = MobileConfig(t_iters=4, n_expert=20,
                           minmax=MinMaxConfig(k_iters=10))
        _, rec_a = run_mobile(mdp, data, cfg, np.random.default_rng(3))
        _, rec_b = run_mobile(mdp, data, cfg, np.random.default_rng(3))
        assert np.array_equal(rec_a.value, rec_b.value)
        assert np.array_equal(rec_a.info_gain_cum, rec_b.info_gain_cum)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        rec_a.write_csv(pa)
        rec_b.write_csv(pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_regret_shrinks_on_chain(self):
        mdp = make_chain(num_states=4, num_actions=2, horizon=4, slip=0.05)
        _, data = expert_for(mdp, n=60)
        cfg = MobileConfig(t_iters=25, n_expert=60,
                           minmax=MinMaxConfig(k_iters=20))
        _, rec = run_mobile(mdp, data, cfg, np.random.default_rng(5))
        assert np.min(rec.regret) <= 0.25
        assert rec.regret[0] > np.min(rec.regret)

    def test_rejects_expert_horizon_mismatch(self):
        mdp = make_chain(horizon=5)
        _, data = expert_for(make_chain(horizon=3), n=10)
        cfg = MobileConfig(t_iters=5, n_expert=10,
                           minmax=MinMaxConfig(k_iters=3))
        with pytest.raises(ConfigurationError,
                           match="horizon 3 does not match .* horizon 5"):
            run_mobile(mdp, data, cfg, np.random.default_rng(0))

    def test_rejects_n_expert_mismatch(self):
        mdp = make_chain(num_states=3, num_actions=2, horizon=3)
        _, data = expert_for(mdp, n=50)
        cfg = MobileConfig(t_iters=1, n_expert=500,
                           minmax=MinMaxConfig(k_iters=3))
        with pytest.raises(ConfigurationError,
                           match="n_expert 500 does not match .* 50 traj"):
            run_mobile(mdp, data, cfg, np.random.default_rng(0))

    def test_mixture_returned_is_runnable(self):
        mdp = make_chain(num_states=3, num_actions=2, horizon=3)
        _, data = expert_for(mdp, n=10)
        cfg = MobileConfig(t_iters=2, n_expert=10,
                           minmax=MinMaxConfig(k_iters=4))
        mix, _ = run_mobile(mdp, data, cfg, np.random.default_rng(0))
        traj = rollout(mdp, mix, np.random.default_rng(9))
        assert traj.horizon == mdp.horizon


B = loop.TABULAR_EVAL_BLOCK


class TestBlockEvaluation:
    """The value and IPM columns, evaluated a block of iterations at a time,
    equal a per-iteration evaluation of each iteration's mixture."""

    @staticmethod
    def run(monkeypatch, t_iters, mode, capacity, block=B):
        env = make_combination_lock()
        _, data = expert_for(env, n=30)
        cfg = MobileConfig(t_iters=t_iters, n_expert=30, bonus_mode=mode,
                           buffer_capacity=capacity,
                           minmax=MinMaxConfig(k_iters=2))
        mixtures = []

        def capture(*args, **kwargs):
            mixture, objective = solve_minmax(*args, **kwargs)
            mixtures.append(mixture)
            return mixture, objective

        with monkeypatch.context() as m:
            m.setattr(loop, "solve_minmax", capture)
            m.setattr(loop, "TABULAR_EVAL_BLOCK", block)
            _, rec = run_mobile(env, data, cfg, np.random.default_rng(4))
        return env, data, mixtures, rec

    @pytest.mark.parametrize("t_iters", [1, B - 1, B, B + 1, 2 * B + 3])
    @pytest.mark.parametrize("mode, capacity", [
        ("theory", 0), ("ensemble", 0), ("off", 0), ("theory", 40),
        ("ensemble", 40)])
    def test_record_equals_per_iteration_reference(self, monkeypatch,
                                                   t_iters, mode, capacity):
        env, data, mixtures, rec = self.run(monkeypatch, t_iters, mode,
                                            capacity)
        assert len(mixtures) == t_iters
        d_e = data.state_distribution(env.num_states)
        values = [value_eval_tabular(env, mix, env.cost) for mix in mixtures]
        ipms = [tv_best_response(
            occupancy_exact(env, mix).mean(axis=0).sum(axis=1), d_e)
            for mix in mixtures]
        assert rec.value.tobytes() == np.array(values).tobytes()
        assert rec.ipm.tobytes() == np.array(ipms).tobytes()
        # every column equals a run that evaluates each iteration alone
        _, _, _, ref = self.run(monkeypatch, t_iters, mode, capacity,
                                block=1)
        for name in ("t", "value", "regret", "ipm", "mean_bonus",
                     "info_gain_cum", "objective"):
            assert getattr(rec, name).tobytes() == getattr(ref, name).tobytes()

    def test_one_debug_record_per_block(self, monkeypatch, caplog):
        t_iters = 2 * B + 3
        with caplog.at_level(logging.DEBUG, logger="ilfo_lab"):
            _, _, mixtures, _ = self.run(monkeypatch, t_iters, "theory", 0)
        records = [r for r in caplog.records
                   if r.name == "ilfo_lab.loop"
                   and r.getMessage().startswith("evaluated iterations")]
        spans = [tuple(r.args[:2]) for r in records]
        assert spans == [(1, B), (B + 1, 2 * B), (2 * B + 1, t_iters)]
        # neither the run nor its records built a Policy view of a row
        assert not any("distinct" in vars(mix) for mix in mixtures)
        for r, (first, last) in zip(records, spans):
            # the rows the stacked pass ran: distinct tables by content
            rows = {table.tobytes() for mix in mixtures[first - 1:last]
                    for table in mix.tables}
            assert r.args[2] == len(rows)
            assert r.args[3] >= 0.0


class TestWarmStart:
    """Every box solve of a tabular run is warm-started from the masks of
    the run's last solve; dropping the list changes no byte of the record
    and no component table."""

    @staticmethod
    def run(monkeypatch, env, mode, k_iters, drop):
        _, data = expert_for(env, n=30)
        cfg = MobileConfig(t_iters=30, n_expert=30, bonus_mode=mode,
                           minmax=MinMaxConfig(k_iters=k_iters))
        mixtures, warms = [], []

        def capture(*args, warm, **kwargs):
            warms.append(warm)
            mixture, objective = solve_minmax(
                *args, warm=None if drop else warm, **kwargs)
            mixtures.append(mixture)
            return mixture, objective

        with monkeypatch.context() as m:
            m.setattr(loop, "solve_minmax", capture)
            _, rec = run_mobile(env, data, cfg, np.random.default_rng(4))
        return rec, mixtures, warms

    @pytest.mark.parametrize("world, mode, k_iters", [
        ("chain", "theory", 200), ("lock", "theory", 2),
        ("lock", "ensemble", 2), ("lock", "off", 2)])
    def test_dropping_the_warm_list_changes_no_byte(self, monkeypatch, world,
                                                    mode, k_iters):
        env = make_chain() if world == "chain" else make_combination_lock()
        rec, mixtures, warms = self.run(monkeypatch, env, mode, k_iters,
                                        drop=False)
        ref, ref_mixtures, _ = self.run(monkeypatch, env, mode, k_iters,
                                        drop=True)
        # one list serves every solve of the run
        assert isinstance(warms[0], list)
        assert all(w is warms[0] for w in warms)
        for f in dataclasses.fields(RunRecord):
            got, want = getattr(rec, f.name), getattr(ref, f.name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
            else:
                assert got == want
        assert len(mixtures) == len(ref_mixtures) == 30
        for mix, ref_mix in zip(mixtures, ref_mixtures):
            assert mix.inverse.tobytes() == ref_mix.inverse.tobytes()
            assert mix.weights.tobytes() == ref_mix.weights.tobytes()
            for comp, ref_comp in zip(mix.distinct, ref_mix.distinct):
                assert (comp.action_table.tobytes()
                        == ref_comp.action_table.tobytes())


class TestRunMobileKnr:
    def _expert_data(self, system, rng, n=12):
        pol = Policy.open_loop([1] * system.horizon)
        trajs = [rollout(system, pol, rng).states for _ in range(n)]
        return ExpertDataset(trajectories=trajs)

    def test_requires_expert_value(self):
        system = make_knr_example(noise_std=0.05, horizon=3)
        rng = np.random.default_rng(0)
        data = self._expert_data(system, rng)
        cfg = MobileConfig(t_iters=1, n_expert=12, mmd_features=16,
                           knr_eval_rollouts=4,
                           minmax=MinMaxConfig(k_iters=3))
        with pytest.raises(ConfigurationError):
            run_mobile(system, data, cfg, rng)

    def test_noise_free_system_rejected_before_the_first_iteration(
            self, monkeypatch):
        # the KNR width divides by noise_std, so no iteration could finish
        system = make_knr_example(noise_std=0.0, horizon=3)
        rng = np.random.default_rng(0)
        data = self._expert_data(system, rng)
        cfg = MobileConfig(t_iters=1, n_expert=12, mmd_features=16,
                           knr_eval_rollouts=4, lam_ridge=0.01,
                           minmax=MinMaxConfig(k_iters=3))

        def fit(*args, **kwargs):
            raise AssertionError("the loop started an iteration")

        monkeypatch.setattr(loop, "fit_knr_model", fit)
        with pytest.raises(ConfigurationError, match="noise_std"):
            run_mobile(system, data, cfg, rng, expert_value=1.0)

    @pytest.mark.parametrize("noise_std, settings, path", [
        (1e-170, {}, "'mobile.lam_ridge' is null"),
        (0.05, {"w_max": 1e-170}, "'mobile.lam_ridge' is null"),
        (0.05, {"w_max": 1e300}, "'mobile.w_max'"),
        (0.05, {"w_max": 1e300, "lam_ridge": 0.01}, "'mobile.w_max'"),
    ], ids=["noise_underflow", "w_max_tiny", "w_max_huge",
            "w_max_huge_explicit_ridge"])
    def test_bad_ridge_parameter_rejected_before_the_first_iteration(
            self, monkeypatch, noise_std, settings, path):
        system = make_knr_example(noise_std=noise_std, horizon=3)
        rng = np.random.default_rng(0)
        data = self._expert_data(system, rng)
        cfg = MobileConfig(t_iters=1, n_expert=12, mmd_features=16,
                           knr_eval_rollouts=4,
                           minmax=MinMaxConfig(k_iters=3), **settings)

        def fit(*args, **kwargs):
            raise AssertionError("the loop started an iteration")

        monkeypatch.setattr(loop, "fit_knr_model", fit)
        with pytest.raises(ConfigurationError, match=path):
            run_mobile(system, data, cfg, rng, expert_value=1.0)

    @pytest.mark.parametrize("lam_ridge", [np.inf, np.nan, 0.0, -1.0])
    def test_ridge_parameter_must_be_finite_and_positive(self, lam_ridge):
        with pytest.raises(ConfigurationError, match="lam_ridge"):
            MobileConfig(lam_ridge=lam_ridge)

    def test_derived_ridge_parameter_keeps_its_formula(self):
        for noise_std, w_max in ((0.05, 2.0), (0.3, 0.7), (1, 3)):
            cfg = MobileConfig(w_max=w_max)
            assert loop.knr_ridge(noise_std, cfg) == noise_std**2 / w_max**2
        assert loop.knr_ridge(1e-170, MobileConfig(lam_ridge=0.5)) == 0.5

    def test_rejects_expert_horizon_mismatch(self):
        system = make_knr_example(noise_std=0.05, horizon=3)
        data = self._expert_data(make_knr_example(noise_std=0.05, horizon=2),
                                 np.random.default_rng(0))
        cfg = MobileConfig(t_iters=1, n_expert=12, mmd_features=16,
                           knr_eval_rollouts=4,
                           minmax=MinMaxConfig(k_iters=3))
        with pytest.raises(ConfigurationError,
                           match="horizon 2 does not match .* horizon 3"):
            run_mobile(system, data, cfg, np.random.default_rng(1),
                       expert_value=0.0)

    def test_smoke_records_verification_extras(self):
        system = make_knr_example(noise_std=0.05, horizon=3)
        rng = np.random.default_rng(0)
        data = self._expert_data(system, rng)
        ref, _ = value_eval_mc(system, Policy.open_loop([1] * 3),
                               system.cost_of, n_rollouts=16,
                               rng=np.random.default_rng(1))
        cfg = MobileConfig(t_iters=3, n_expert=12, mmd_features=16,
                           knr_eval_rollouts=8,
                           minmax=MinMaxConfig(k_iters=3))
        _, rec = run_mobile(system, data, cfg, np.random.default_rng(2),
                            expert_value=ref)
        assert rec.kind == "knr"
        assert len(rec.cov_snapshots) == 3
        assert rec.cov_snapshots[0].shape == (4, 4)
        assert len(rec.executed_features) == 3
        assert rec.executed_features[0].shape == (3, 4)
        assert np.all(np.diff(rec.info_gain_cum) >= -1e-12)
        assert rec.knr_params["feature_dim"] == 4

    def test_one_dimensional_state_runs(self):
        # RffFeatureMap reads a (1,) input as one scalar state per row, so
        # the solve featurizes each node as a (1, d) batch; before, the
        # first Frank-Wolfe round failed converting a (1, m) cost to float
        def features(s, a):
            x = np.clip(np.asarray(s, dtype=float), -1.0, 1.0)
            one_hot = np.asarray(a)[..., None] == np.arange(2)
            return np.concatenate([x, one_hot], axis=-1) / np.sqrt(2.0)

        system = KnrSystem(state_dim=1, feature_dim=3, features=features,
                           weights=np.array([[0.8, 0.3, -0.3]]),
                           noise_std=0.05, horizon=3, num_actions=2,
                           init_state=np.zeros(1),
                           cost=lambda s: (s[..., 0] - 0.5) ** 2)
        data = self._expert_data(system, np.random.default_rng(0), n=8)
        cfg = MobileConfig(t_iters=5, n_expert=8, mmd_features=8,
                           knr_eval_rollouts=2,
                           minmax=MinMaxConfig(k_iters=2))
        mixture, rec = run_mobile(system, data, cfg,
                                  np.random.default_rng(1), expert_value=0.0)
        assert len(rec.objective) == 5
        assert np.all(np.isfinite(rec.objective))
        assert np.all(np.isfinite(rec.value))
        assert all(c.action_seq.shape == (3,) for c in mixture.components)


class TestTracedFitCalls:
    """The loop reaches its fit functions through its module attributes,
    once per iteration plus two bootstrap fits in ensemble mode."""

    @staticmethod
    def counted(monkeypatch, name):
        import ilfo_lab.loop as loop_mod

        calls = []
        original = getattr(loop_mod, name)

        def wrapper(*args, **kwargs):
            calls.append(kwargs["t"])
            return original(*args, **kwargs)

        monkeypatch.setattr(loop_mod, name, wrapper)
        return calls

    @pytest.mark.parametrize("mode, per_iter",
                             [("theory", 1), ("off", 1), ("ensemble", 3)])
    def test_tabular(self, monkeypatch, mode, per_iter):
        calls = self.counted(monkeypatch, "fit_tabular")
        mdp = make_chain(num_states=3, num_actions=2, horizon=3)
        _, data = expert_for(mdp, n=10)
        cfg = MobileConfig(t_iters=3, n_expert=10, bonus_mode=mode,
                           minmax=MinMaxConfig(k_iters=2))
        run_mobile(mdp, data, cfg, np.random.default_rng(0))
        assert calls == [t for t in (1, 2, 3) for _ in range(per_iter)]

    @pytest.mark.parametrize("mode, per_iter",
                             [("theory", 1), ("off", 1), ("ensemble", 3)])
    def test_knr(self, monkeypatch, mode, per_iter):
        calls = self.counted(monkeypatch, "fit_knr_model")
        system = make_knr_example(noise_std=0.05, horizon=3)
        pol = Policy.open_loop([1] * 3)
        rng = np.random.default_rng(0)
        data = ExpertDataset(trajectories=[rollout(system, pol, rng).states
                                           for _ in range(8)])
        cfg = MobileConfig(t_iters=3, n_expert=8, bonus_mode=mode,
                           mmd_features=8, knr_eval_rollouts=2,
                           minmax=MinMaxConfig(k_iters=2))
        run_mobile(system, data, cfg, np.random.default_rng(1),
                   expert_value=0.0)
        assert calls == [t for t in (1, 2, 3) for _ in range(per_iter)]


class TestKnrRidgeSums:
    """A KNR run on the buffer's feature rows and ridge sums against the
    slow path kept in test_models: raw transitions, the full refit,
    per-append halves and the per-item ensemble gap."""

    H, T = 3, 10

    def knr_run(self, mode, capacity, system=None):
        system = system or make_knr_example(noise_std=0.05, horizon=self.H)
        pol = Policy.open_loop([1] * self.H)
        rng = np.random.default_rng(0)
        data = ExpertDataset(trajectories=[rollout(system, pol, rng).states
                                           for _ in range(8)])
        cfg = MobileConfig(t_iters=self.T, n_expert=8, bonus_mode=mode,
                           buffer_capacity=capacity, mmd_features=8,
                           knr_eval_rollouts=2,
                           minmax=MinMaxConfig(k_iters=2))
        return run_mobile(system, data, cfg, np.random.default_rng(1),
                          expert_value=0.0)[1]

    @pytest.mark.parametrize("mode, capacity", [
        ("theory", 0), ("ensemble", 0), ("theory", 5), ("ensemble", 7)])
    def test_record_matches_full_refit(self, monkeypatch, mode, capacity):
        fast = self.knr_run(mode, capacity)
        monkeypatch.setattr(loop, "KnrBuffer", ReferenceKnrBuffer)
        monkeypatch.setattr(models, "fit_knr_ridge", reference_fit_knr_ridge)
        monkeypatch.setattr(loop, "ensemble_bonus", reference_ensemble_bonus)
        slow = self.knr_run(mode, capacity)
        for name in ("value", "ipm", "mean_bonus", "info_gain_cum",
                     "objective"):
            assert np.array_equal(getattr(fast, name), getattr(slow, name))
        for name in ("cov_snapshots", "executed_features"):
            got, want = getattr(fast, name), getattr(slow, name)
            assert len(got) == len(want) == self.T
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def counted_run(self, monkeypatch, mode, capacity):
        """Features calls, and the rows they featurize, inside fits and
        inside the buffer's episode appends."""
        base = make_knr_example(noise_std=0.05, horizon=self.H)
        calls, rows = dict(fit=0, append=0), dict(fit=0, append=0)
        phase = [None]

        def features(s, a):
            if phase[0] in calls:
                calls[phase[0]] += 1
                rows[phase[0]] += np.size(a)
            return base.features(s, a)

        def within(name, fn):
            def wrapped(buffer, *args):
                phase[0] = name
                try:
                    return fn(buffer, *args)
                finally:
                    phase[0] = None
            return wrapped

        monkeypatch.setattr(models, "fit_knr_ridge",
                            within("fit", models.fit_knr_ridge))
        monkeypatch.setattr(models.KnrBuffer, "extend_trajectory",
                            within("append",
                                   models.KnrBuffer.extend_trajectory))
        self.knr_run(mode, capacity,
                     dataclasses.replace(base, features=features))
        return calls, rows

    @pytest.mark.parametrize("mode, capacity", [
        ("theory", 0), ("ensemble", 0), ("theory", 5)])
    def test_fit_features_each_transition_once(self, monkeypatch, mode,
                                               capacity):
        # each executed transition is featurized once, in one call per
        # appended episode (the last one after the last fit), and never in
        # a fit; a full refit on every fit would take H T (T - 1) / 2 rows
        calls, rows = self.counted_run(monkeypatch, mode, capacity)
        assert calls == {"fit": 0, "append": self.T}
        assert rows == {"fit": 0, "append": self.T * self.H}


class TestCombinationLock:
    def test_rows_are_distributions(self):
        env = make_combination_lock()
        assert np.allclose(env.transitions.sum(axis=-1), 1.0, atol=1e-12)

    def test_expert_value_is_walk_length(self):
        env = make_combination_lock()
        pi = solve_optimal_tabular(env)
        v = value_eval_tabular(env, pi, env.cost)
        # five unit-cost steps to the goal, the rest sits free at the goal
        assert v == pytest.approx(5.0, abs=1e-12)

    def test_secret_action_advances_cleanly(self):
        env = make_combination_lock()
        goal = env.num_states - 2
        trap = env.num_states - 1
        for s in range(goal):
            clean = [a for a in range(1, env.num_actions)
                     if env.transitions[s, a, s + 1] == 1.0]
            assert len(clean) == 1
            assert clean[0] >= 4
        # sibling shortcuts leak into the trap
        assert env.transitions[0, 1, trap] == pytest.approx(0.2)

    def test_rejects_wrong_action_count(self):
        with pytest.raises(ConfigurationError):
            make_combination_lock(num_actions=4)

    def test_ablation_separation_smoke(self):
        # tiny-budget version of the acceptance ablation: the width bonus
        # must not be slower than matching alone on the lock
        env = make_combination_lock()
        pi = solve_optimal_tabular(env)
        reach = {}
        for mode in ("theory", "off"):
            data = sample_expert_states(env, pi, 200,
                                        np.random.default_rng(2000))
            cfg = MobileConfig(t_iters=100, n_expert=200, bonus_mode=mode,
                               minmax=MinMaxConfig(k_iters=2))
            _, rec = run_mobile(env, data, cfg, np.random.default_rng(0))
            reach[mode] = regret_summary(rec)["iterations_to_threshold"]
        assert reach["theory"] < reach["off"]


def cell_by_cell_csv(path, columns, rows):
    """The per-cell CSV formatter the row templates replaced."""
    def cell(x):
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        if isinstance(x, float):
            return format(x, ".17g")
        return str(x)

    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(cell(x) for x in row) + "\n")


# per cell kind: (the cells of a list column, mixing Python and numpy
# scalars, [(dtype, element strategy) of each numpy column])
_FLOAT_CELLS = st.one_of(
    st.floats(), st.sampled_from([0.0, -0.0, 5e-324, -5e-324,
                                  2.2250738585072014e-308, float("nan"),
                                  float("inf"), float("-inf")]))
_CSV_CELLS = {
    "%d": (st.one_of(st.integers(), st.booleans(),
                     st.integers(-2**63, 2**63 - 1).map(np.int64),
                     st.integers(-2**31, 2**31 - 1).map(np.int32),
                     st.booleans().map(np.bool_)),
           [(np.int64, st.integers(-2**63, 2**63 - 1)),
            (np.int32, st.integers(-2**31, 2**31 - 1)),
            (bool, st.booleans())]),
    "%.17g": (st.one_of(_FLOAT_CELLS, _FLOAT_CELLS.map(np.float64)),
              [(np.float64, _FLOAT_CELLS)]),
    "%s": (st.one_of(st.text(st.characters(blacklist_categories=("Cs",)),
                             max_size=8),
                     st.sampled_from(["a,b", "%", "%d", "100%,", ""])),
           []),
}
# what the cell formatter is handed for each kind
_CSV_REFERENCE = {"%d": int, "%.17g": float, "%s": str}


class TestCsvRowTemplates:
    ROWS = [
        (0, 0.0, -0.0, "chain"),
        (np.int64(7), np.float64(1.0 / 3.0), float("nan"), "lock"),
        (np.int32(-3), float("inf"), float("-inf"), "instance-10"),
        (2**40, 1e-300, -1e300, ""),
        (True, np.float64(5e-324), 0.1, "a b"),
        (12, 1.0, 123456789.12345678, "x"),
    ]

    def test_bytes_match_cell_formatter(self, tmp_path):
        cols = ("i", "f", "g", "s")
        write_csv_rows(tmp_path / "new.csv", cols, self.ROWS,
                       "%d,%.17g,%.17g,%s")
        cell_by_cell_csv(tmp_path / "old.csv", cols, self.ROWS)
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "old.csv").read_bytes())

    def test_rows_may_be_a_generator(self, tmp_path):
        cols, fmt = ("i", "f", "g", "s"), "%d,%.17g,%.17g,%s"
        write_csv_rows(tmp_path / "list.csv", cols, self.ROWS, fmt)
        write_csv_rows(tmp_path / "gen.csv", cols,
                       (row for row in self.ROWS), fmt)
        assert ((tmp_path / "gen.csv").read_bytes()
                == (tmp_path / "list.csv").read_bytes())

    def test_run_record_csv_matches_cell_formatter(self, tmp_path):
        env = make_chain(num_states=4, num_actions=2, horizon=3)
        _, data = expert_for(env, n=20)
        _, rec = run_mobile(env, data, MobileConfig(
            t_iters=4, n_expert=20, minmax=MinMaxConfig(k_iters=3)),
            np.random.default_rng(0))
        rec.write_csv(tmp_path / "new.csv")
        rows = [(int(t), float(v), float(rec.expert_value), float(r),
                 float(i), float(b), float(g), float(o))
                for t, v, r, i, b, g, o in zip(
                    rec.t, rec.value, rec.regret, rec.ipm, rec.mean_bonus,
                    rec.info_gain_cum, rec.objective)]
        cell_by_cell_csv(tmp_path / "old.csv", CSV_COLUMNS, rows)
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "old.csv").read_bytes())

    def test_regret_csv_matches_cell_formatter(self, tmp_path):
        rng = np.random.default_rng(3)
        t_grid = np.arange(1, 501)
        mean = np.cumsum(rng.random(500))
        mean[:3] = [0.0, -0.0, 1e-300]
        stderr = rng.random(500)
        stderr[:2] = [np.inf, np.nan]
        write_regret_csv(tmp_path / "new.csv", "ucb1", "instance-3", t_grid,
                         mean, stderr)
        rows = [(int(t), float(m), float(se), "ucb1", "instance-3")
                for t, m, se in zip(t_grid, mean, stderr)]
        cell_by_cell_csv(tmp_path / "old.csv", REGRET_CSV_COLUMNS, rows)
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "old.csv").read_bytes())

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_writers_match_cell_formatter(self, tmp_path_factory, data):
        kinds = data.draw(st.lists(st.sampled_from(sorted(_CSV_CELLS)),
                                   min_size=1, max_size=5))
        n = data.draw(st.integers(0, 12))
        values, ref_cols = [], []
        for kind in kinds:
            cells, arrays = _CSV_CELLS[kind]
            col = data.draw(st.one_of(
                st.lists(cells, min_size=n, max_size=n),
                *(st.lists(elem, min_size=n, max_size=n).map(
                    lambda c, dt=dtype: np.array(c, dtype=dt))
                  for dtype, elem in arrays)))
            values.append(col)
            ref_cols.append([_CSV_REFERENCE[kind](x) for x in col])
        cols = tuple(f"c{j}" for j in range(len(kinds)))
        row_format = ",".join(kinds)
        tmp = tmp_path_factory.mktemp("csv")
        cell_by_cell_csv(tmp / "ref.csv", cols, list(zip(*ref_cols)))
        write_csv_columns(tmp / "columns.csv", cols, values, row_format)
        write_csv_rows(tmp / "rows.csv", cols, list(zip(*values)),
                       row_format)
        expected = (tmp / "ref.csv").read_bytes()
        assert (tmp / "columns.csv").read_bytes() == expected
        assert (tmp / "rows.csv").read_bytes() == expected

    def test_unequal_columns_are_rejected(self, tmp_path):
        path = tmp_path / "curve.csv"
        with pytest.raises(ConfigurationError, match="'mean_regret'"):
            write_regret_csv(path, "a", "b", [1, 2, 3], [0.5], [0.1, 0.2, 0.3])
        with pytest.raises(ConfigurationError, match="'t'"):
            write_csv_columns(path, ("t", "x"), ([1], [0.5, 0.25]), "%d,%.17g")
        with pytest.raises(ConfigurationError, match="2 value columns"):
            write_csv_columns(path, ("t",), ([1], [2]), "%d")
        assert not path.exists()

    @pytest.mark.parametrize("rows", [
        [(1, 0.5), (2, 0.25, 3), (4, 0.125)],
        [(1, 0.5, 2), (0.25,)],
        [(1,)],
    ], ids=["long_row", "cells_shift_rows", "short_row"])
    def test_row_of_wrong_width_is_rejected(self, tmp_path, rows):
        path = tmp_path / "rows.csv"
        with pytest.raises(ConfigurationError, match="cells for the 2 columns"):
            write_csv_rows(path, ("t", "x"), rows, "%d,%.17g")
        assert not path.exists()

    def test_unformattable_cell_leaves_no_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = [(1, 0.5), (2, 0.25), (3, "not a number")]
        with pytest.raises(TypeError):
            write_csv_rows(path, ("t", "x"), rows, "%d,%.17g")
        with pytest.raises(ValueError):
            write_csv_columns(path, ("t",), ([1, 2, float("nan")],), "%d")
        assert not path.exists()
