import dataclasses

import numpy as np
import pytest

from ilfo_lab import ConfigurationError, Policy, TabularMdp, rollout, value_eval_tabular
from ilfo_lab.envs import value_eval_mc
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
    write_csv_rows,
)
from ilfo_lab.mab import REGRET_CSV_COLUMNS, write_regret_csv
from ilfo_lab.planner import MinMaxConfig
from ilfo_lab.worlds import make_chain, make_combination_lock, make_knr_example

# frozen from notes/oracles/model_oracle.py
ENVELOPE_H5_I40_T100 = 212.13203435596424


def expert_for(mdp, n=40, seed=11):
    pi = solve_optimal_tabular(mdp)
    data = sample_expert_states(mdp, pi, n, np.random.default_rng(seed))
    return pi, data


class _FakeModel:
    """Duck-typed stand-in exposing only sigma(s, a)."""

    def __init__(self, sigmas):
        self.sigmas = list(sigmas)
        self.calls = 0

    def sigma(self, s, a):
        val = self.sigmas[self.calls]
        self.calls += 1
        return val


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

    def test_run_record_csv_matches_cell_formatter(self, tmp_path):
        env = make_chain(num_states=4, num_actions=2, horizon=3)
        _, data = expert_for(env, n=20)
        _, rec = run_mobile(env, data, MobileConfig(
            t_iters=4, n_expert=20, minmax=MinMaxConfig(k_iters=3)),
            np.random.default_rng(0))
        rec.write_csv(tmp_path / "new.csv")
        cell_by_cell_csv(tmp_path / "old.csv", CSV_COLUMNS, rec.rows())
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
