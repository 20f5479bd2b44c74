"""Release-gate checks: every shipped guarantee at its stated tolerance.

One test per numbered guarantee, so ``pytest -v`` prints one pass/fail
line for each. Guarantee 9 is split into its two clauses. c09a is the
worst-instance regret floor on the calibrated hard family. c09b is the
rate separation between eps_greedy (regret ~ t^(2/3)) and ucb1
(regret ~ log t), measured on an instance of the same shape whose gap
of 0.5 ucb1 resolves within the horizon. The calibrated family cannot
show that separation: its instance 0 pays nothing on any arm while
revealing mu_star = Delta, so every policy's regret there is exactly
Delta * t; on instances 1..A the gap is too small to identify within
T pulls, and the slope gap between the worst of those curves is 0.0078.

The chain, lock, and bandit batches are module-scoped fixtures shared
by every guarantee that reads the same runs.
"""

import json
import time

import numpy as np
import pytest

from ilfo_lab.cli import parse_config, run_experiment
from ilfo_lab.envs import value_eval_mc
from ilfo_lab.expert import (sample_expert_states, solve_openloop_knr,
                             solve_optimal_tabular)
from ilfo_lab.loop import MobileConfig, regret_summary, run_mobile
from ilfo_lab.mab import (ALGORITHMS, MabInstance, cumulative_regret_curve,
                          fit_loglog_slope, make_hard_family, run_bandits)
from ilfo_lab.models import (KnrBuffer, TabularBuffer, TabularModel,
                             fit_knr_ridge, fit_tabular, knr_beta)
from ilfo_lab.planner import MinMaxConfig, game_value_lp, solve_minmax
from ilfo_lab.verify import (check_concentration, check_elliptical_potential,
                             check_gaussian_tv, check_optimism,
                             check_simulation_lemma, info_gain_bound)
from ilfo_lab.worlds import (make_chain, make_combination_lock,
                             make_knr_example, make_random_mdp)

EXPERT_SEED_BASE = 2000  # keep in sync with the command-line convention


@pytest.fixture(scope="module")
def chain_batch():
    env = make_chain()
    pi_e = solve_optimal_tabular(env)
    t0 = time.monotonic()
    records = []
    for seed in range(10):
        data = sample_expert_states(
            env, pi_e, 500, np.random.default_rng(EXPERT_SEED_BASE + seed))
        cfg = MobileConfig(t_iters=300, n_expert=500)
        _, rec = run_mobile(env, data, cfg, np.random.default_rng(seed))
        records.append(rec)
    return {"records": records, "elapsed": time.monotonic() - t0}


@pytest.fixture(scope="module")
def lock_batch():
    env = make_combination_lock()
    pi_e = solve_optimal_tabular(env)
    t0 = time.monotonic()
    records = {}
    for mode in ("theory", "off"):
        rows = []
        for seed in range(5):
            data = sample_expert_states(
                env, pi_e, 500,
                np.random.default_rng(EXPERT_SEED_BASE + seed))
            cfg = MobileConfig(t_iters=200, n_expert=500, bonus_mode=mode,
                               minmax=MinMaxConfig(k_iters=2))
            _, rec = run_mobile(env, data, cfg, np.random.default_rng(seed))
            rows.append(rec)
        records[mode] = rows
    return {"records": records, "horizon": env.horizon,
            "elapsed": time.monotonic() - t0}


@pytest.fixture(scope="module")
def bandit_batch():
    num_arms, horizon, n_seeds = 10, 20_000, 20
    family = make_hard_family(num_arms, horizon)
    t0 = time.monotonic()
    finals = {}
    for alg in ALGORITHMS:
        batch = run_bandits(
            [inst for inst in family for _ in range(n_seeds)], alg, horizon,
            [np.random.default_rng(1000 * s + idx)
             for idx in range(len(family)) for s in range(n_seeds)])
        finals[alg] = [
            cumulative_regret_curve(
                batch.pseudo_regret[idx * n_seeds:(idx + 1) * n_seeds])[1][-1]
            for idx in range(len(family))]
    return {"num_arms": num_arms, "horizon": horizon, "finals": finals,
            "elapsed": time.monotonic() - t0}


@pytest.fixture(scope="module")
def resolvable_bandit():
    """eps_greedy and ucb1 mean regret curves on a resolvable instance.

    Same shape as the hard family's last instance (arm A-1 pays Delta,
    the others 0, mu_star = Delta revealed) but with Delta = 0.5, so
    ucb1 needs about 8 ln T / Delta^2 ~ 320 pulls per bad arm, far
    fewer than T. Seeds follow 1000*s + idx with idx = A, the index of
    this arm layout in make_hard_family.
    """
    num_arms, horizon, n_seeds, delta = 10, 20_000, 20, 0.5
    means = np.zeros(num_arms)
    means[-1] = delta
    inst = MabInstance(means=means, mu_star=delta,
                       name=f"instance-{num_arms}")
    t0 = time.monotonic()
    curves = {}
    for alg in ("eps_greedy", "ucb1"):
        batch = run_bandits([inst] * n_seeds, alg, horizon,
                            [np.random.default_rng(1000 * s + num_arms)
                             for s in range(n_seeds)])
        t_grid, mean, _ = cumulative_regret_curve(batch.pseudo_regret)
        curves[alg] = (t_grid, mean)
    return {"curves": curves, "elapsed": time.monotonic() - t0}


def test_c01_simulation_lemma_equality():
    t0 = time.monotonic()
    rep = check_simulation_lemma(n_instances=200, seed=0, tol=1e-9)
    elapsed = time.monotonic() - t0
    assert rep.trials == 200
    assert rep.worst_violation <= 1e-9, rep
    assert rep.passed
    assert elapsed < 5.0
    print(f"c01 simulation-lemma equality: PASS "
          f"(worst gap {rep.worst_violation:.2e}, {elapsed:.1f}s)")


def test_c02_gaussian_tv_bound():
    t0 = time.monotonic()
    rep = check_gaussian_tv(n_triples=50, seed=0)
    elapsed = time.monotonic() - t0
    assert rep.trials == 50
    assert rep.failures == 0, rep
    assert rep.passed
    assert elapsed < 5.0
    print(f"c02 gaussian tv bound + quadrature oracle: PASS "
          f"(worst slack {rep.worst_violation:.2e}, {elapsed:.1f}s)")


def test_c03_optimism_never_violated():
    t0 = time.monotonic()
    rep = check_optimism(n_instances=100, seed=0, tol=1e-9)
    elapsed = time.monotonic() - t0
    assert rep.trials == 100
    assert rep.failures == 0, rep
    assert rep.passed
    assert elapsed < 10.0
    print(f"c03 optimism under oracle calibration: PASS "
          f"(worst margin {rep.worst_violation:.2e}, {elapsed:.1f}s)")


def test_c04_calibration_coverage():
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    draws, fails = 500, 0
    for _ in range(draws):
        s_dim = int(rng.integers(2, 7))
        a_dim = int(rng.integers(2, 5))
        mdp = make_random_mdp(rng, s_dim, a_dim, horizon=5)
        buf = TabularBuffer(s_dim, a_dim)
        for _ in range(int(rng.integers(20, 201))):
            s = int(rng.integers(0, s_dim))
            a = int(rng.integers(0, a_dim))
            s_next = int(rng.choice(s_dim, p=mdp.transitions[s, a]))
            buf.append(s, a, s_next)
        model = fit_tabular(buf, t=1, delta=0.1)
        s = int(rng.integers(0, s_dim))
        a = int(rng.integers(0, a_dim))
        err = float(np.abs(model.p_hat[s, a] - mdp.transitions[s, a]).sum())
        if model.sigma_table[s, a] < err:
            fails += 1
    elapsed = time.monotonic() - t0
    assert fails <= 0.1 * draws, f"{fails} uncovered draws out of {draws}"
    assert elapsed < 30.0
    print(f"c04 calibration coverage: PASS "
          f"({draws - fails}/{draws} covered, {elapsed:.1f}s)")


def test_c05_concentration_failure_rate():
    t0 = time.monotonic()
    rep = check_concentration(n_functions=50, n_samples=100, delta=0.1,
                              trials=1000, seed=0)
    elapsed = time.monotonic() - t0
    assert rep.trials == 1000
    assert rep.failures <= 100, rep
    assert rep.passed
    assert elapsed < 30.0
    print(f"c05 concentration failure rate: PASS "
          f"({rep.failures}/1000 failures, {elapsed:.1f}s)")


def test_c06_regret_chain_and_lock_ablation(chain_batch, lock_batch):
    chain_best = [min(rec.regret) for rec in chain_batch["records"][:5]]
    chain_median = float(np.median(chain_best))
    horizon = chain_batch["records"][0].horizon
    assert chain_median <= 0.05 * horizon, chain_best

    bar = 0.1 * lock_batch["horizon"]
    reach = {mode: [regret_summary(rec, threshold=bar)
                    ["iterations_to_threshold"]
                    for rec in lock_batch["records"][mode]]
             for mode in ("theory", "off")}
    median_on = float(np.median(reach["theory"]))
    median_off = float(np.median(reach["off"]))
    assert median_on <= 0.5 * median_off, reach

    elapsed = chain_batch["elapsed"] + lock_batch["elapsed"]
    assert elapsed < 300.0
    print(f"c06 chain regret + lock ablation: PASS "
          f"(chain median best {chain_median:.3f} <= {0.05 * horizon:.2f}; "
          f"lock reach {median_on:.0f} vs {median_off:.0f}; {elapsed:.0f}s)")


def test_c07_info_gain_bounds(chain_batch, lock_batch):
    all_records = (chain_batch["records"] + lock_batch["records"]["theory"]
                   + lock_batch["records"]["off"])
    for rec in all_records:
        bound = info_gain_bound(rec)
        assert rec.info_gain_total <= bound, (rec.info_gain_total, bound)

    # the per-iteration gain is capped at H, so the ratio clause only
    # discriminates on runs long enough to leave the capped regime; that
    # is the T=300 chain batch, not the T=200 lock ablation
    def ratio(rec, t):
        return rec.info_gain_cum[t - 1] / t

    chain_early = np.median([ratio(r, 30) for r in chain_batch["records"]])
    chain_late = np.median([ratio(r, 300) for r in chain_batch["records"]])
    assert chain_late < chain_early, (chain_early, chain_late)
    print(f"c07 info-gain bounds + sublinearity: PASS "
          f"(chain I_t/t {chain_early:.3f}->{chain_late:.3f}, "
          f"bound holds on all {len(all_records)} runs)")


def test_c08_knr_machinery():
    t0 = time.monotonic()
    env = make_knr_example()
    expert = solve_openloop_knr(env)
    data = sample_expert_states(env, expert, 20,
                                np.random.default_rng(EXPERT_SEED_BASE))
    ref, _ = value_eval_mc(env, expert, env.cost_of, n_rollouts=256,
                           rng=np.random.default_rng(9000))
    cfg = MobileConfig(t_iters=200, n_expert=20, mmd_features=16,
                       knr_eval_rollouts=8, minmax=MinMaxConfig(k_iters=3))
    _, rec = run_mobile(env, data, cfg, np.random.default_rng(0),
                        expert_value=ref)
    rep = check_elliptical_potential(rec)
    assert rep.passed, rep

    sigma, w_max = 0.01, 2.0
    lam = sigma**2 / w_max**2
    quiet = make_knr_example(noise_std=sigma)
    rng = np.random.default_rng(7)
    buf = KnrBuffer(quiet.features, 4, 2, lam)
    for _ in range(2000):
        s = rng.uniform(-1, 1, size=2)
        a = int(rng.integers(0, 2))
        s_next = (quiet.weights @ quiet.features(s, a)
                  + sigma * rng.standard_normal(2))
        buf.append(s, a, s_next)
    w_hat, cov = fit_knr_ridge(buf)
    frob = float(np.linalg.norm(w_hat - quiet.weights))
    assert frob <= 0.05, frob
    beta = knr_beta(2000, 0.05, lam, sigma, w_max, 2, cov)
    assert (beta / sigma) ** 2 >= 1.0, beta

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"c08 knr machinery: PASS (elliptical margin "
          f"{rep.worst_violation:.1f}, frobenius {frob:.4f}, "
          f"beta^2/sigma^2 {(beta / sigma) ** 2:.0f}, {elapsed:.1f}s)")


def test_c09a_bandit_regret_floor(bandit_batch):
    floor = np.sqrt(bandit_batch["num_arms"] * bandit_batch["horizon"]) / 32
    worst = {alg: max(vals) for alg, vals in bandit_batch["finals"].items()}
    for alg, val in worst.items():
        assert val >= floor, (alg, val, floor)
    assert bandit_batch["elapsed"] < 120.0
    print(f"c09a bandit worst-instance regret floor: PASS "
          f"(min over algorithms {min(worst.values()):.1f} >= {floor:.2f}, "
          f"{bandit_batch['elapsed']:.0f}s)")


def test_c09b_bandit_slope_separation(resolvable_bandit):
    slopes = {alg: fit_loglog_slope(*curve)
              for alg, curve in resolvable_bandit["curves"].items()}
    gap = slopes["eps_greedy"] - slopes["ucb1"]
    assert gap >= 0.1, (
        f"slope separation {gap:.4f} < 0.1 "
        f"(eps_greedy {slopes['eps_greedy']:.4f}, "
        f"ucb1 {slopes['ucb1']:.4f})")
    assert resolvable_bandit["elapsed"] < 30.0
    print(f"c09b bandit slope separation: PASS "
          f"(gap {gap:.3f}: eps_greedy {slopes['eps_greedy']:.3f}, "
          f"ucb1 {slopes['ucb1']:.3f}; "
          f"{resolvable_bandit['elapsed']:.1f}s)")


def test_c10_minmax_solver_matches_lp():
    t0 = time.monotonic()
    rng = np.random.default_rng(123)
    s_dim, a_dim, horizon = 3, 2, 2
    worst = -np.inf
    for i in range(20):
        p = rng.dirichlet(np.ones(s_dim), size=(s_dim, a_dim))
        d_e = rng.dirichlet(np.ones(s_dim))
        bonus = rng.uniform(0, 0.5, size=(s_dim, a_dim)) if i % 2 else None
        model = TabularModel(p_hat=p,
                             sigma_table=np.zeros((s_dim, a_dim)))
        lp = game_value_lp(model, bonus, d_e, horizon=horizon)
        _, obj = solve_minmax(model, bonus, "box", d_e, MinMaxConfig(),
                              horizon=horizon)
        assert obj >= lp - 1e-9, (i, obj, lp)
        worst = max(worst, obj - lp)
    elapsed = time.monotonic() - t0
    assert worst <= 0.01, worst
    assert elapsed < 30.0
    print(f"c10 frank-wolfe within 0.01 of lp: PASS "
          f"(worst gap {worst:.5f}, {elapsed:.1f}s)")


def test_c11_rerun_determinism(tmp_path):
    configs = [
        {"subcommand": "mobile-tabular",
         "env": {"kind": "chain", "num_states": 4, "num_actions": 2,
                 "horizon": 3},
         "mobile": {"t_iters": 5, "n_expert": 20, "minmax": {"k_iters": 5}},
         "seeds": [0, 1]},
        {"subcommand": "mab-lb",
         "bandit": {"num_arms": 3, "horizon": 200,
                    "algorithms": ["ucb1", "eps_greedy"]},
         "seeds": [0, 1]},
    ]
    for n, base in enumerate(configs):
        dirs = [tmp_path / f"{n}-{side}" for side in ("a", "b")]
        for d in dirs:
            cfg = parse_config(json.dumps(dict(base, out=str(d))))
            assert run_experiment(cfg) == 0
        names = sorted(p.name for p in dirs[0].glob("*.csv"))
        assert names, "experiment produced no csv output"
        for name in names:
            assert ((dirs[0] / name).read_bytes()
                    == (dirs[1] / name).read_bytes()), name
    print("c11 rerun determinism: PASS (all csv outputs byte-identical)")
