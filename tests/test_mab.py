import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ilfo_lab import ConfigurationError, Policy, mab, rollouts
from ilfo_lab.mab import (
    ALGORITHMS,
    ELIM_DELTA,
    REGRET_CSV_COLUMNS,
    BanditBatch,
    MabInstance,
    cumulative_regret_curve,
    fit_loglog_slope,
    make_hard_family,
    reduction_mdp,
    run_bandit,
    run_bandits,
    write_regret_csv,
)

BIG_GAP = MabInstance(means=[10.0, 0.0], mu_star=10.0)
SEPARABLE = MabInstance(means=[2.0, 0.0, 0.0], mu_star=2.0)


def reference_run(instance, algorithm, horizon, rng):
    """One run stepped a pull at a time with Python scalars: the engine
    must reproduce its arms, rewards and pseudo-regret bit for bit."""
    A = instance.num_arms
    T = horizon
    mu = [float(m) for m in instance.means]
    noise = rng.standard_normal(T)
    if algorithm == "eps_greedy":
        explore_coin = rng.random(T)
        explore_arm = rng.integers(0, A, size=T)
    arms = np.empty(T, dtype=np.int64)
    sums = [0.0] * A
    counts = [0] * A
    for t in range(A):
        arms[t] = t
        sums[t] = mu[t] + noise[t]
        counts[t] = 1

    if algorithm == "ucb1":
        for t in range(A, T):
            two_log_t = 2.0 * math.log(t + 1)
            best, best_val = 0, -math.inf
            for i in range(A):
                v = sums[i] / counts[i] + math.sqrt(two_log_t / counts[i])
                if v > best_val:
                    best_val, best = v, i
            sums[best] += mu[best] + noise[t]
            counts[best] += 1
            arms[t] = best
    elif algorithm == "eps_greedy":
        for t in range(A, T):
            if explore_coin[t] < mab._default_eps(A, t + 1):
                a = int(explore_arm[t])
            else:
                a, best_val = 0, -math.inf
                for i in range(A):
                    v = sums[i] / counts[i]
                    if v > best_val:
                        best_val, a = v, i
            sums[a] += mu[a] + noise[t]
            counts[a] += 1
            arms[t] = a
    else:
        mu_star = float(instance.mu_star)
        survivors = list(range(A))
        ptr = 0
        for t in range(A, T):
            if ptr >= len(survivors):
                ptr = 0
            a = survivors[ptr]
            sums[a] += mu[a] + noise[t]
            counts[a] += 1
            arms[t] = a
            dropped = False
            if len(survivors) > 1:
                radius = math.sqrt(2.0 * math.log(
                    2.0 * A * (t + 1) ** 2 / ELIM_DELTA) / counts[a])
                if abs(sums[a] / counts[a] - mu_star) > radius:
                    survivors.pop(ptr)
                    dropped = True
            if not dropped:
                ptr += 1

    mu_arr = np.asarray(mu)
    regret = np.cumsum(instance.mu_star - mu_arr[arms])
    rewards = mu_arr[arms] + noise
    return arms, rewards, regret


def pull_counts(arms, num_arms):
    return np.bincount(arms, minlength=num_arms)


def assert_matches_reference(instances, algorithm, horizon, seeds):
    batch = run_bandits(instances, algorithm, horizon,
                        [np.random.default_rng(s) for s in seeds])
    assert isinstance(batch, BanditBatch)
    for column in (batch.arms, batch.rewards, batch.pseudo_regret):
        assert column.shape == (len(instances), horizon)
    for r, (inst, seed) in enumerate(zip(instances, seeds)):
        arms, rewards, regret = reference_run(inst, algorithm, horizon,
                                              np.random.default_rng(seed))
        assert np.array_equal(batch.arms[r], arms), (algorithm, seed)
        assert np.array_equal(batch.rewards[r], rewards), (algorithm, seed)
        assert np.array_equal(batch.pseudo_regret[r], regret), (algorithm,
                                                                 seed)
    return batch


# arm means from a few levels whose gaps range from unresolvable to far
# beyond the elimination radius, so known_mean_elim drops arms and commits
ARM_MEAN = st.sampled_from([0.0, 0.05, 0.5, 3.0, 10.0]) | st.floats(-5.0, 5.0)


class TestEngineMatchesScalarReference:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_batches(self, data):
        A = data.draw(st.integers(2, 8), label="num_arms")
        T = data.draw(st.integers(A, 400), label="horizon")
        R = data.draw(st.integers(1, 6), label="runs")
        instances = []
        for _ in range(R):
            means = data.draw(st.lists(ARM_MEAN, min_size=A, max_size=A))
            slack = data.draw(st.sampled_from([0.0, 0.0, 1.0]))
            instances.append(MabInstance(means=means,
                                         mu_star=max(means) + slack))
        seeds = data.draw(st.lists(st.integers(0, 2 ** 32 - 1),
                                   min_size=R, max_size=R))
        for alg in ALGORITHMS:
            assert_matches_reference(instances, alg, T, seeds)

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_hard_family_pairs(self, alg):
        family = make_hard_family(10, 2000)
        assert_matches_reference(family, alg, 2000,
                                 [1000 * 3 + idx for idx in range(11)])

    def test_elimination_drops_and_commits(self):
        inst = MabInstance(means=[0.0, 3.0, 0.5, -1.0], mu_star=3.0)
        batch = assert_matches_reference([inst] * 40, "known_mean_elim",
                                         300, list(range(40)))
        committed = np.all(batch.arms[:, -100:] == 1, axis=1).sum()
        assert committed >= 30


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


class TestRunBandit:
    def test_unknown_algorithm(self):
        with pytest.raises(ConfigurationError):
            run_bandit(BIG_GAP, "thompson", 100, np.random.default_rng(0))

    def test_horizon_below_arm_count(self):
        with pytest.raises(ConfigurationError):
            run_bandit(SEPARABLE, "ucb1", 2, np.random.default_rng(0))

    def test_batch_rejects_mixed_arm_counts(self):
        with pytest.raises(ConfigurationError, match="arm count"):
            run_bandits([BIG_GAP, SEPARABLE], "ucb1", 100,
                        [np.random.default_rng(0), np.random.default_rng(1)])

    def test_batch_rejects_generator_count_mismatch(self):
        with pytest.raises(ConfigurationError, match="generators"):
            run_bandits([BIG_GAP, BIG_GAP], "ucb1", 100,
                        [np.random.default_rng(0)])

    def test_batch_rejects_empty_batch(self):
        with pytest.raises(ConfigurationError, match="at least one run"):
            run_bandits([], "ucb1", 100, [])

    @pytest.mark.parametrize("horizon", [100.5, 100.0, True, "100", None])
    def test_batch_rejects_non_integer_horizon(self, horizon):
        with pytest.raises(ConfigurationError, match="horizon"):
            run_bandits([BIG_GAP], "ucb1", horizon,
                        [np.random.default_rng(0)])

    def test_batch_takes_numpy_integer_horizon(self):
        a = run_bandit(BIG_GAP, "ucb1", np.int64(50), np.random.default_rng(4))
        b = run_bandit(BIG_GAP, "ucb1", 50, np.random.default_rng(4))
        assert np.array_equal(a.arms, b.arms)

    @pytest.mark.parametrize("alg", ["ucb1", "eps_greedy", "known_mean_elim"])
    def test_init_phase_and_monotone_regret(self, alg):
        inst = make_hard_family(4, 64)[2]
        batch = run_bandit(inst, alg, 64, np.random.default_rng(3))
        assert batch.arms.shape == (1, 64)
        arms, regret = batch.arms[0], batch.pseudo_regret[0]
        assert np.array_equal(arms[:4], np.arange(4))
        assert 0 <= arms.min() and arms.max() < 4
        assert regret[0] >= -1e-12
        assert np.all(np.diff(regret) >= -1e-12)

    @pytest.mark.parametrize("alg", ["ucb1", "eps_greedy", "known_mean_elim"])
    def test_zero_instance_charges_mu_star_every_pull(self, alg):
        # instance 0 pays nothing on any arm but reveals mu_star = Delta,
        # so its regret curve is Delta * t whatever the policy does
        inst = make_hard_family(4, 200)[0]
        regret = run_bandit(inst, alg, 200,
                            np.random.default_rng(0)).pseudo_regret[0]
        t = np.arange(1, 201)
        assert np.array_equal(regret, np.cumsum(np.full(200, inst.mu_star)))
        np.testing.assert_allclose(regret, inst.mu_star * t,
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
        batch = run_bandits([BIG_GAP] * 20, "ucb1", 10_000,
                            [np.random.default_rng(s) for s in range(20)])
        assert np.median(batch.pseudo_regret[:, -1]) <= 50.0

    def test_eps_greedy_always_explore_spreads_pulls(self, monkeypatch):
        monkeypatch.setattr(mab, "_default_eps", lambda A, t: 1.0)
        tr = run_bandit(BIG_GAP, "eps_greedy", 2000, np.random.default_rng(2))
        assert np.all(pull_counts(tr.arms[0], 2) > 2000 / 2 / 4)

    def test_eps_greedy_never_explore_exploits(self, monkeypatch):
        monkeypatch.setattr(mab, "_default_eps", lambda A, t: 0.0)
        tr = run_bandit(BIG_GAP, "eps_greedy", 200, np.random.default_rng(2))
        # one forced init pull of the bad arm, pure exploitation after
        assert pull_counts(tr.arms[0], 2)[0] == 199

    def test_elim_commits_to_best_arm(self):
        tr = run_bandit(SEPARABLE, "known_mean_elim", 500,
                        np.random.default_rng(0))
        assert np.all(tr.arms[0, -50:] == 0)
        assert pull_counts(tr.arms[0], 3)[0] > 400

    def test_elim_rarely_drops_the_true_best_arm(self):
        inst = MabInstance(means=[0.5, 0.0, 0.0], mu_star=0.5)
        batch = run_bandits([inst] * 2000, "known_mean_elim", 200,
                            [np.random.default_rng(s) for s in range(2000)])
        counts = np.stack([pull_counts(arms, 3) for arms in batch.arms])
        lost = np.sum(counts[:, 0] < counts.max(axis=1))
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

    def test_features_and_cost_act_on_the_last_axis(self):
        inst = make_hard_family(4, 64)[1]
        system = reduction_mdp(inst)
        rng = np.random.default_rng(0)
        S = rng.normal(scale=2.0, size=(3, 5, 1))
        a = rng.integers(0, 4, size=(3, 5))
        phi, cost = system.features(S, a), system.cost(S)
        assert phi.shape == (3, 5, 4) and cost.shape == (3, 5)
        for idx in np.ndindex(3, 5):
            expect = np.zeros(4)
            expect[a[idx]] = 1.0
            assert np.array_equal(phi[idx], expect)
            assert np.array_equal(phi[idx], system.features(S[idx], int(a[idx])))
            one = min(1.0, abs(float(S[idx][0]) - float(inst.mu_star)))
            assert cost[idx] == one == system.cost(S[idx])

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
        states, _ = rollouts(system, pol, 20_000, np.random.default_rng(5))
        mean = np.mean(states[:, 1, 0])
        assert abs(mean - fam[1].mu_star) <= 0.02


class TestCurvesAndSlopes:
    def test_single_trace_curve(self):
        regret = run_bandit(BIG_GAP, "ucb1", 50,
                            np.random.default_rng(0)).pseudo_regret
        t, mean, stderr = cumulative_regret_curve(regret)
        assert np.array_equal(mean, regret[0])
        assert np.all(stderr == 0.0)
        assert t[0] == 1 and t[-1] == 50

    def test_identical_traces_have_zero_stderr(self):
        regret = run_bandit(BIG_GAP, "ucb1", 50,
                            np.random.default_rng(0)).pseudo_regret
        _, _, stderr = cumulative_regret_curve(np.repeat(regret, 2, axis=0))
        assert np.all(stderr == 0.0)

    def test_curve_needs_a_block_of_rows(self):
        regret = run_bandit(BIG_GAP, "ucb1", 50,
                            np.random.default_rng(0)).pseudo_regret
        for bad in (regret[0], regret[:0], regret[None]):
            with pytest.raises(ConfigurationError, match="block"):
                cumulative_regret_curve(bad)

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

    def test_slope_rejects_empty_grid(self):
        with pytest.raises(ConfigurationError, match="must not be empty"):
            fit_loglog_slope(np.arange(1, 1), np.zeros(0))

    def test_regret_csv_layout(self, tmp_path):
        tr = run_bandit(BIG_GAP, "ucb1", 20, np.random.default_rng(0))
        t, mean, stderr = cumulative_regret_curve(tr.pseudo_regret)
        path = tmp_path / "curve.csv"
        write_regret_csv(path, "ucb1", "instance-0", t, mean, stderr)
        text = path.read_bytes().decode()
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(REGRET_CSV_COLUMNS)
        assert len(lines) == 21
        assert lines[1].endswith("ucb1,instance-0")
        assert "\r" not in text
