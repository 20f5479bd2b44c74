"""Output checks made apart from the program.

Each check recomputes what it needs with its own numpy code (optimal
values, mixture values, covariances, regret curves) or tests a property
the method must have.  A failed check raises CheckFailed carrying the
check's name, so a run that fails says which check failed.
"""

from __future__ import annotations

import math

import numpy as np


class CheckFailed(AssertionError):
    """One named check did not hold."""

    def __init__(self, name: str, detail: str):
        super().__init__(f"check {name} failed: {detail}")
        self.name = name


# relative slack for a bound a mean or a sum of capped terms can reach
# exactly, where rounding may land one ulp above it
ROUNDING = 1e-12


def require(ok, name: str, detail: str) -> None:
    if not ok:
        raise CheckFailed(name, detail)


# ---------------------------------------------------------------- tabular

def kernel_at(env, h: int) -> np.ndarray:
    p = np.asarray(env.transitions, dtype=float)
    return p[h] if p.ndim == 4 else p


def optimal_value(env) -> float:
    """Backward recursion V_h(s) = c(s) + min_a sum_s' P_h(s'|s,a) V_{h+1}(s')."""
    cost = np.asarray(env.cost, dtype=float)
    v = np.zeros(cost.size)
    for h in range(env.horizon - 1, -1, -1):
        v = (cost[:, None] + kernel_at(env, h) @ v).min(axis=1)
    return float(v[env.init_state])


def action_tables(mixture) -> tuple[np.ndarray, np.ndarray]:
    """(K, H, S) integer action tables and (K,) weights of a mixture of
    deterministic tabular policies."""
    probs = np.stack([np.asarray(c.action_probs, dtype=float)
                      for c in mixture.components])
    require(np.all((probs == 0.0) | (probs == 1.0))
            and np.all(probs.sum(axis=3) == 1.0), "deterministic_components",
            "a mixture component is not a deterministic action table")
    return probs.argmax(axis=3), np.asarray(mixture.weights, dtype=float)


def mixture_value(env, tables: np.ndarray, weights: np.ndarray) -> float:
    """Expected cost of s_0..s_{H-1} by a forward pass per component."""
    cost = np.asarray(env.cost, dtype=float)
    k, _, s_dim = tables.shape
    p = np.zeros((k, s_dim))
    p[:, env.init_state] = 1.0
    values = np.zeros(k)
    rows = np.arange(s_dim)
    for h in range(env.horizon):
        values += p @ cost
        chosen = kernel_at(env, h)[rows[None, :], tables[:, h, :]]  # (K,S,S)
        p = np.einsum("ks,kst->kt", p, chosen)
    return float(weights @ values)


def mixture_value_mc(env, tables: np.ndarray, weights: np.ndarray,
                     n: int, rng: np.random.Generator) -> tuple[float, float]:
    """Monte Carlo mean and standard error from n independent episodes."""
    cost = np.asarray(env.cost, dtype=float)
    s_dim = cost.size
    comp = rng.choice(len(weights), size=n, p=weights)
    s = np.full(n, env.init_state)
    total = np.zeros(n)
    for h in range(env.horizon):
        total += cost[s]
        rows = kernel_at(env, h)[s, tables[comp, h, s]]           # (n, S)
        u = rng.random(n)
        s = np.minimum((np.cumsum(rows, axis=1) <= u[:, None]).sum(axis=1),
                       s_dim - 1)
    return float(total.mean()), float(total.std(ddof=1) / math.sqrt(n))


def check_expert_value(env, record) -> None:
    v_star = optimal_value(env)
    require(abs(record.expert_value - v_star) <= 1e-12,
            "expert_value_optimal",
            f"expert_value {record.expert_value!r} != own optimum {v_star!r}")


def check_regret_nonnegative(record) -> None:
    regret = np.asarray(record.regret, dtype=float)
    require(np.all(regret >= -1e-9), "regret_nonnegative",
            f"min regret {float(regret.min())!r} < -1e-9")


def check_final_value(env, record, mixture) -> None:
    v_mix = mixture_value(env, *action_tables(mixture))
    require(abs(record.value[-1] - v_mix) <= 1e-9, "final_value_forward",
            f"value[-1] {float(record.value[-1])!r} != own forward pass "
            f"{v_mix!r}")


def check_final_value_mc(env, record, mixture, rng: np.random.Generator,
                         episodes: int) -> None:
    mc, se = mixture_value_mc(env, *action_tables(mixture), episodes, rng)
    require(abs(mc - record.value[-1]) <= 4.0 * se + 1e-12,
            "final_value_monte_carlo",
            f"Monte Carlo {mc:.6f} (se {se:.2e}) vs value[-1] "
            f"{record.value[-1]:.6f}")


def check_ipm(record) -> None:
    ipm = np.asarray(record.ipm, dtype=float)
    require(np.all((ipm >= 0.0) & (ipm <= 1.0 + ROUNDING)),
            "ipm_in_unit_interval",
            f"ipm range [{float(ipm.min())!r}, {float(ipm.max())!r}]")


def check_tabular_run(env, mode: str, lam_bonus: float, record, mixture,
                      mc_rng: np.random.Generator, mc_episodes: int) -> None:
    """Every per-run check of a tabular loop run."""
    check_expert_value(env, record)
    check_regret_nonnegative(record)
    check_final_value(env, record, mixture)
    check_final_value_mc(env, record, mixture, mc_rng, mc_episodes)
    check_info_gain(record, env.horizon)
    check_ipm(record)
    check_mean_bonus(record, mode, env.horizon, lam_bonus)


def check_info_gain(record, horizon: int) -> None:
    # increments come back from a cumulative sum that reaches T H, so
    # they carry that sum's rounding; 1e-9 is far above it
    cum = np.asarray(record.info_gain_cum, dtype=float)
    inc = np.diff(cum, prepend=0.0)
    require(np.all((inc >= -1e-9) & (inc <= horizon + 1e-9)),
            "info_gain_increments",
            f"increment range [{float(inc.min())!r}, {float(inc.max())!r}] "
            f"not in [0, {horizon}]")


def check_mean_bonus(record, mode: str, horizon: int, lam_bonus: float) -> None:
    b = np.asarray(record.mean_bonus, dtype=float)
    if mode == "off":
        require(np.all(b == 0.0), "mean_bonus_off",
                f"mean_bonus max {float(b.max())!r} with the bonus off")
        return
    upper = 2.0 * horizon if mode == "theory" else lam_bonus
    require(np.all((b >= 0.0) & (b <= upper * (1.0 + ROUNDING))),
            f"mean_bonus_{mode}",
            f"mean_bonus range [{float(b.min())!r}, {float(b.max())!r}] not "
            f"in [0, {upper}]")


def check_chain_regret(record, horizon: int) -> None:
    best = float(np.min(record.regret))
    require(best <= 0.05 * horizon, "chain_best_regret",
            f"best regret {best:.4f} > 0.05 H = {0.05 * horizon}")


def iterations_to(regret, bar: float) -> int:
    """First t with regret <= bar, or T + 1 when it is never reached."""
    hit = np.nonzero(np.asarray(regret) <= bar)[0]
    return int(hit[0]) + 1 if hit.size else len(regret) + 1


def check_lock_ablation(regrets_by_mode: dict, horizon: int) -> tuple:
    """The theory bonus reaches regret 0.1 H in fewer iterations than no
    bonus, at the median over seeds.  Returns both medians."""
    bar = 0.1 * horizon
    med = {m: float(np.median([iterations_to(r, bar)
                               for r in regrets_by_mode[m]]))
           for m in ("theory", "off")}
    require(med["theory"] < med["off"], "lock_bonus_ablation",
            f"median iterations to 0.1 H: theory {med['theory']} vs off "
            f"{med['off']}")
    return med["theory"], med["off"]


# -------------------------------------------------------------------- knr

def nominal_costs(env) -> np.ndarray:
    """Noise-free cost of every open-loop sequence, in lexicographic order."""
    a_dim, horizon = env.num_actions, env.horizon
    weights = np.asarray(env.weights, dtype=float)
    costs = np.empty(a_dim ** horizon)
    for idx in range(costs.size):
        seq = np.unravel_index(idx, (a_dim,) * horizon)
        s = np.asarray(env.init_state, dtype=float)
        total = 0.0
        for a in seq:
            total += min(max(float(env.cost(s)), 0.0), 1.0)
            s = weights @ np.asarray(env.features(s, int(a)), dtype=float)
        costs[idx] = total
    return costs


def check_knr_expert(env, expert) -> None:
    costs = nominal_costs(env)
    best = int(np.argmin(costs))
    seq = np.asarray(expert.action_seq)
    idx = int(np.ravel_multi_index(tuple(seq), (env.num_actions,) * env.horizon))
    require(idx == best, "knr_expert_argmin",
            f"expert sequence {seq.tolist()} costs {float(costs[idx])!r}, "
            f"the minimum is {float(costs[best])!r} at index {best}")


def check_knr_covariances(record, lam_ridge: float) -> None:
    """cov_snapshots[t] = lam I + sum over earlier executed features."""
    feats = [np.asarray(f, dtype=float) for f in record.executed_features]
    cov = lam_ridge * np.eye(feats[0].shape[1])
    for t, (snap, f) in enumerate(zip(record.cov_snapshots, feats), start=1):
        err = float(np.max(np.abs(np.asarray(snap) - cov)))
        require(err <= 1e-9 * float(np.max(np.abs(cov))), "knr_cov_snapshots",
                f"cov_snapshots[{t}] differs from lam I + sum of earlier "
                f"outer products by {err:.3e}")
        cov = cov + f.T @ f


def check_knr_potential(record, lam_ridge: float) -> None:
    """sum_t min(sum_h |phi|^2 in the pre-update cov's inverse, 1) is at
    most 2 (logdet Sigma_T - d log lam), Sigma_T from all features."""
    feats = [np.asarray(f, dtype=float) for f in record.executed_features]
    d = feats[0].shape[1]
    potential = sum(
        min(float(np.sum(f * np.linalg.solve(np.asarray(snap), f.T).T)), 1.0)
        for snap, f in zip(record.cov_snapshots, feats))
    final = lam_ridge * np.eye(d) + sum(f.T @ f for f in feats)
    sign, logdet = np.linalg.slogdet(final)
    bound = 2.0 * (logdet - d * math.log(lam_ridge))
    require(sign > 0 and potential <= bound, "knr_elliptical_potential",
            f"potential {potential:.6f} > 2 (logdet - d log lam) = {bound:.6f}")


# -------------------------------------------------------------------- mab

def parse_curve(name: str, data: bytes, algorithm: str,
                instance: str) -> tuple[np.ndarray, np.ndarray, str]:
    """(t, mean_regret, last mean_regret cell) of one curve CSV."""
    lines = data.decode("utf-8").split("\n")
    require(lines[0] == "t,mean_regret,stderr,algorithm,instance_id"
            and lines[-1] == "", "curve_format", f"{name}: {lines[0]!r}")
    rows = [ln.split(",") for ln in lines[1:-1]]
    require(all(r[3:] == [algorithm, instance] for r in rows), "curve_format",
            f"{name}: a row names another algorithm or instance")
    cols = np.array([r[:2] for r in rows], dtype=float)
    return cols[:, 0], cols[:, 1], rows[-1][1]


def check_curve(name: str, t: np.ndarray, mean: np.ndarray, horizon: int,
                gap: float, instance_zero: bool) -> None:
    check_curve_grid(name, t, horizon)
    check_curve_increments(name, mean, gap)
    check_curve_below_gap_t(name, t, mean, gap)
    if instance_zero:
        check_instance_zero(name, t, mean, gap)


def check_curve_grid(name: str, t: np.ndarray, horizon: int) -> None:
    require(np.array_equal(t, np.arange(1, horizon + 1)), "curve_t_grid",
            f"{name}: t is not 1..{horizon}")


def check_curve_increments(name: str, mean: np.ndarray, gap: float) -> None:
    inc = np.diff(mean, prepend=0.0)
    require(np.all((inc >= -1e-9) & (inc <= gap + 1e-9)), "curve_increments",
            f"{name}: increment range [{float(inc.min())!r}, "
            f"{float(inc.max())!r}] not in [0, {gap!r}]")


def check_curve_below_gap_t(name: str, t: np.ndarray, mean: np.ndarray,
                            gap: float) -> None:
    require(np.all(mean <= gap * t + 1e-9), "curve_below_gap_t",
            f"{name}: regret exceeds Delta t")


def check_instance_zero(name: str, t: np.ndarray, mean: np.ndarray,
                        gap: float) -> None:
    rel = float(np.max(np.abs(mean - gap * t) / (gap * t)))
    require(rel <= 1e-12, "instance0_delta_t",
            f"{name}: relative distance to Delta t is {rel:.3e}")


def check_regret_floor(finals: dict, num_arms: int, horizon: int) -> None:
    floor = math.sqrt(num_arms * horizon) / 32.0
    for alg, vals in finals.items():
        require(max(vals) >= floor, "regret_floor",
                f"{alg}: worst final regret {max(vals):.4f} < sqrt(AT)/32 = "
                f"{floor:.4f}")


def check_summary(summary: bytes, last_rows: dict) -> None:
    lines = summary.decode("utf-8").split("\n")
    require(lines[0] == "algorithm,instance_id,final_mean_regret,loglog_slope"
            and lines[-1] == "", "summary_format", f"header {lines[0]!r}")
    rows = [ln.split(",") for ln in lines[1:-1]]
    require(len(rows) == len(last_rows), "summary_rows",
            f"{len(rows)} summary rows for {len(last_rows)} curves")
    for alg, inst, final, _ in rows:
        require(last_rows.get((alg, inst)) == final, "summary_matches_curve",
                f"{alg} {inst}: summary {final} vs curve "
                f"{last_rows.get((alg, inst))}")
