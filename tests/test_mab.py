import numpy as np
import pytest

from ilfo_lab import ConfigurationError, Policy, mab, rollout
from ilfo_lab.mab import (
    REGRET_CSV_COLUMNS,
    BanditTrace,
    MabInstance,
    cumulative_regret_curve,
    fit_loglog_slope,
    make_hard_family,
    reduction_mdp,
    run_bandit,
    write_regret_csv,
)

BIG_GAP = MabInstance(means=[10.0, 0.0], mu_star=10.0)
SEPARABLE = MabInstance(means=[2.0, 0.0, 0.0], mu_star=2.0)


class TestHardFamily:
    def test_gap_value_small_case(self):
        fam = make_hard_family(2, 32)
        assert fam[0].mu_star == 0.0625  # (1/4) sqrt(2/32), exact in binary

    def test_structure(self):
        fam = make_hard_family(4, 100)
        assert len(fam) == 5
        assert np.all(fam[0].means == 0.0)
        delta = fam[0].mu_star
        for i in range(1, 5):
            assert fam[i].means[i - 1] == delta
            assert np.sum(fam[i].means != 0.0) == 1
            assert fam[i].mu_star == delta

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make_hard_family(1, 100)
        with pytest.raises(ConfigurationError):
            make_hard_family(5, 4)


class TestInstanceAndTrace:
    def test_single_arm_rejected(self):
        with pytest.raises(ConfigurationError):
            MabInstance(means=[1.0], mu_star=1.0)

    def test_revealed_mean_below_best_rejected(self):
        with pytest.raises(ConfigurationError):
            MabInstance(means=[0.5, 0.2], mu_star=0.3)

    def test_means_are_frozen(self):
        with pytest.raises(ValueError):
            BIG_GAP.means[0] = 0.0

    def test_trace_rejects_decreasing_regret(self):
        with pytest.raises(ConfigurationError):
            BanditTrace(arms=[0, 1], rewards=[0.0, 0.0],
                        pseudo_regret=[1.0, 0.5], num_arms=2)


class TestRunBandit:
    def test_unknown_algorithm(self):
        with pytest.raises(ConfigurationError):
            run_bandit(BIG_GAP, "thompson", 100, np.random.default_rng(0))

    def test_horizon_below_arm_count(self):
        with pytest.raises(ConfigurationError):
            run_bandit(SEPARABLE, "ucb1", 2, np.random.default_rng(0))

    @pytest.mark.parametrize("alg", ["ucb1", "eps_greedy", "known_mean_elim"])
    def test_init_phase_and_monotone_regret(self, alg):
        inst = make_hard_family(4, 64)[2]
        tr = run_bandit(inst, alg, 64, np.random.default_rng(3))
        assert tr.num_steps == 64
        assert np.array_equal(tr.arms[:4], np.arange(4))
        assert tr.pseudo_regret[0] >= -1e-12
        assert np.all(np.diff(tr.pseudo_regret) >= -1e-12)
        assert tr.pull_counts.sum() == 64

    @pytest.mark.parametrize("alg", ["ucb1", "eps_greedy", "known_mean_elim"])
    def test_zero_instance_charges_mu_star_every_pull(self, alg):
        # instance 0 pays nothing on any arm but reveals mu_star = Delta,
        # so its regret curve is Delta * t whatever the policy does
        inst = make_hard_family(4, 200)[0]
        tr = run_bandit(inst, alg, 200, np.random.default_rng(0))
        t = np.arange(1, 201)
        assert np.array_equal(tr.pseudo_regret,
                              np.cumsum(np.full(200, inst.mu_star)))
        np.testing.assert_allclose(tr.pseudo_regret, inst.mu_star * t,
                                   rtol=1e-12, atol=0.0)

    def test_flat_instance_has_zero_regret(self):
        flat = MabInstance(means=[0.3, 0.3], mu_star=0.3)
        tr = run_bandit(flat, "ucb1", 100, np.random.default_rng(1))
        assert np.max(np.abs(tr.pseudo_regret)) == 0.0

    def test_deterministic_given_seed(self):
        a = run_bandit(BIG_GAP, "eps_greedy", 500, np.random.default_rng(7))
        b = run_bandit(BIG_GAP, "eps_greedy", 500, np.random.default_rng(7))
        assert np.array_equal(a.arms, b.arms)
        assert np.array_equal(a.rewards, b.rewards)

    def test_ucb_locks_onto_big_gap(self):
        finals = [run_bandit(BIG_GAP, "ucb1", 10_000,
                             np.random.default_rng(s)).pseudo_regret[-1]
                  for s in range(20)]
        assert np.median(finals) <= 50.0

    def test_eps_greedy_always_explore_spreads_pulls(self, monkeypatch):
        monkeypatch.setattr(mab, "_default_eps", lambda A, t: 1.0)
        tr = run_bandit(BIG_GAP, "eps_greedy", 2000, np.random.default_rng(2))
        assert np.all(tr.pull_counts > 2000 / 2 / 4)

    def test_eps_greedy_never_explore_exploits(self, monkeypatch):
        monkeypatch.setattr(mab, "_default_eps", lambda A, t: 0.0)
        tr = run_bandit(BIG_GAP, "eps_greedy", 200, np.random.default_rng(2))
        # one forced init pull of the bad arm, pure exploitation after
        assert tr.pull_counts[0] == 199

    def test_elim_commits_to_best_arm(self):
        tr = run_bandit(SEPARABLE, "known_mean_elim", 500,
                        np.random.default_rng(0))
        assert np.all(tr.arms[-50:] == 0)
        assert tr.pull_counts[0] > 400

    def test_elim_rarely_drops_the_true_best_arm(self):
        inst = MabInstance(means=[0.5, 0.0, 0.0], mu_star=0.5)
        lost = 0
        for s in range(2000):
            tr = run_bandit(inst, "known_mean_elim", 200,
                            np.random.default_rng(s))
            if tr.pull_counts[0] < np.max(tr.pull_counts):
                lost += 1
        assert lost / 2000 <= 0.05


class TestReductionMdp:
    def test_shape_of_the_system(self):
        fam = make_hard_family(4, 64)
        system = reduction_mdp(fam[1])
        assert system.horizon == 2
        assert system.state_dim == 1
        assert system.feature_dim == 4
        assert system.num_actions == 4
        assert system.noise_std == 1.0
        assert np.array_equal(system.weights[0], fam[1].means)

    def test_features_are_one_hot_and_state_free(self):
        system = reduction_mdp(make_hard_family(3, 30)[2])
        for a in range(3):
            phi = system.feature(np.array([0.0]), a)
            expect = np.zeros(3)
            expect[a] = 1.0
            assert np.array_equal(phi, expect)
            assert np.array_equal(phi, system.feature(np.array([5.7]), a))

    def test_cost_reveals_only_the_optimal_mean(self):
        # every instance of one family induces the same cost function
        fam = make_hard_family(5, 200)
        grid = np.linspace(-2.0, 2.0, 41)
        costs = [[reduction_mdp(inst).cost_of(np.array([s])) for s in grid]
                 for inst in fam]
        for row in costs[1:]:
            assert row == costs[0]
        assert costs[0][0] == 1.0  # far state clips at 1

    def test_expert_states_concentrate_on_the_revealed_mean(self):
        fam = make_hard_family(4, 64)
        system = reduction_mdp(fam[1])
        pol = Policy.open_loop([0, 0])  # arm 0 is instance 1's good arm
        rng = np.random.default_rng(5)
        mean = np.mean([rollout(system, pol, rng).states[1][0]
                        for _ in range(20_000)])
        assert abs(mean - fam[1].mu_star) <= 0.02


class TestCurvesAndSlopes:
    def test_single_trace_curve(self):
        tr = run_bandit(BIG_GAP, "ucb1", 50, np.random.default_rng(0))
        t, mean, stderr = cumulative_regret_curve([tr])
        assert np.array_equal(mean, tr.pseudo_regret)
        assert np.all(stderr == 0.0)
        assert t[0] == 1 and t[-1] == 50

    def test_identical_traces_have_zero_stderr(self):
        tr = run_bandit(BIG_GAP, "ucb1", 50, np.random.default_rng(0))
        _, _, stderr = cumulative_regret_curve([tr, tr])
        assert np.all(stderr == 0.0)

    def test_ragged_traces_rejected(self):
        a = run_bandit(BIG_GAP, "ucb1", 50, np.random.default_rng(0))
        b = run_bandit(BIG_GAP, "ucb1", 60, np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            cumulative_regret_curve([a, b])

    def test_slope_recovers_exact_power_law(self):
        t = np.arange(1, 2001)
        slope = fit_loglog_slope(t, 3.0 * t ** 0.7)
        assert slope == pytest.approx(0.7, abs=1e-9)

    def test_slope_window_starts_at_a_tenth_of_the_horizon(self):
        # 3 t^0.7 from T // 10 on; the steeper curve before it would pull
        # the fit off 0.7 if the window started any earlier
        t = np.arange(1, 2001)
        regret = np.where(t >= 200, 3.0 * t ** 0.7, t ** 2.0)
        assert fit_loglog_slope(t, regret) == pytest.approx(0.7, abs=1e-9)
        # and t = T // 10 itself is fitted: moving that one point moves
        # the slope, which a later start would not see
        regret[t == 200] *= 2.0
        assert abs(fit_loglog_slope(t, regret) - 0.7) > 1e-6

    def test_slope_needs_positive_points(self):
        with pytest.raises(ConfigurationError):
            fit_loglog_slope(np.arange(1, 11), np.zeros(10))

    def test_regret_csv_layout(self, tmp_path):
        tr = run_bandit(BIG_GAP, "ucb1", 20, np.random.default_rng(0))
        t, mean, stderr = cumulative_regret_curve([tr])
        path = tmp_path / "curve.csv"
        write_regret_csv(path, "ucb1", "instance-0", t, mean, stderr)
        text = path.read_bytes().decode()
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(REGRET_CSV_COLUMNS)
        assert len(lines) == 21
        assert lines[1].endswith("ucb1,instance-0")
        assert "\r" not in text
