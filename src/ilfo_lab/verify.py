"""Numerical oracles for the framework's supporting inequalities.

Each check replays one lemma-shaped statement on randomized instances and
reports trials, failures, and the worst violation. Two checks carry an
internal second oracle (quadrature vs closed form; forward vs backward DP)
and raise RuntimeError when the oracles themselves disagree, which flags a
broken harness rather than a false statement.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .envs import (Array, ConfigurationError, TabularMdp, occupancy_exact,
                   state_values, value_eval_tabular)
from .expert import solve_optimal_tabular
from .models import SIGMA_CAP, knr_beta
from .worlds import make_chain, make_random_mdp, make_random_policy

ORACLE_TOL = 1e-6


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one check: JSON-serializable via to_dict()."""

    name: str
    trials: int
    failures: int
    worst_violation: float
    passed: bool

    def __post_init__(self):
        if not 0 <= self.failures <= self.trials:
            raise ConfigurationError("failures must lie in [0, trials]")

    def to_dict(self) -> dict:
        return asdict(self)


def _phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def gaussian_l1_closed_form(mu1: float, mu2: float, sigma: float) -> float:
    """Exact integral of |N(mu1, s^2) - N(mu2, s^2)| over the line."""
    return 2.0 * (2.0 * _phi(abs(mu1 - mu2) / (2.0 * sigma)) - 1.0)


def gaussian_l1_numeric(mu1: float, mu2: float, sigma: float) -> float:
    """Trapezoid quadrature of the same integral, +-10 sigma, step sigma/1000."""
    if sigma <= 0:
        raise ConfigurationError("sigma must be positive")
    lo = min(mu1, mu2) - 10.0 * sigma
    hi = max(mu1, mu2) + 10.0 * sigma
    n = int(round((hi - lo) / (sigma / 1000.0))) + 1
    xs = np.linspace(lo, hi, n)
    z = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    p = z * np.exp(-0.5 * ((xs - mu1) / sigma) ** 2)
    q = z * np.exp(-0.5 * ((xs - mu2) / sigma) ** 2)
    return float(np.trapezoid(np.abs(p - q), xs))


def check_gaussian_tv(n_triples: int = 50, seed: int = 0,
                      tol: float = 1e-6) -> CheckReport:
    """L1 distance of equal-variance Gaussians is at most |mu1 - mu2| / sigma.

    Quadrature and the closed form must agree to ORACLE_TOL on every triple,
    otherwise the harness itself is broken.
    """
    rng = np.random.default_rng(seed)
    worst = -math.inf
    failures = 0
    for i in range(n_triples):
        if i == 0:
            mu1 = mu2 = 0.3
            sigma = 1.0
        else:
            mu1, mu2 = rng.uniform(-3.0, 3.0, size=2)
            sigma = rng.uniform(0.2, 2.0)
        numeric = gaussian_l1_numeric(mu1, mu2, sigma)
        closed = gaussian_l1_closed_form(mu1, mu2, sigma)
        if abs(numeric - closed) > ORACLE_TOL:
            raise RuntimeError(
                f"gaussian quadrature and closed form disagree by "
                f"{abs(numeric - closed):.3e}")
        violation = numeric - (abs(mu1 - mu2) / sigma + tol)
        worst = max(worst, violation)
        if violation > 0:
            failures += 1
    return CheckReport(name="gaussian_tv", trials=n_triples,
                       failures=failures, worst_violation=worst,
                       passed=failures == 0)


def simulation_lemma_sides(mdp: TabularMdp, kernel_hat: Array, f: Array,
                           f_hat: Array, policy) -> tuple:
    """(lhs, rhs, l1_bound) of the value-difference decomposition.

    lhs = V under (P, f) minus V under (P_hat, f_hat), both by backward DP.
    rhs expands it along the true occupancy with the model's own values:
    sum_h E_{d_h}[f - f_hat + (P - P_hat) v_hat_{h+1}]. The bound replaces
    the inner terms by |f - f_hat| and the row L1 error times max |v_hat|.
    """
    S, A, H = mdp.num_states, mdp.num_actions, mdp.horizon
    hat_mdp = TabularMdp(horizon=H, transitions=kernel_hat,
                         cost=np.zeros(S), init_state=mdp.init_state)
    v_hat = state_values(hat_mdp, policy, f_hat)[0]
    lhs = value_eval_tabular(mdp, policy, f) - float(v_hat[0, mdp.init_state])
    d = occupancy_exact(mdp, policy).per_step
    gap_f = f - f_hat
    row_l1 = np.abs(mdp.transitions - kernel_hat).sum(axis=2)
    rhs = 0.0
    bound = 0.0
    for h in range(H):
        next_gap = (mdp.transitions - kernel_hat) @ v_hat[h + 1]
        rhs += float(np.sum(d[h] * (gap_f[:, None] + next_gap)))
        vmax = float(np.max(np.abs(v_hat[h + 1])))
        bound += float(np.sum(d[h] * (np.abs(gap_f)[:, None]
                                      + row_l1 * vmax)))
    return lhs, rhs, bound


def check_simulation_lemma(n_instances: int = 200, seed: int = 0,
                           tol: float = 1e-9, s_max: int = 8,
                           a_max: int = 4, h_max: int = 6) -> CheckReport:
    """Equality to tol between the two DP routes, plus the L1 inequality."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    failures = 0
    for _ in range(n_instances):
        S = int(rng.integers(2, s_max + 1))
        A = int(rng.integers(2, a_max + 1))
        H = int(rng.integers(1, h_max + 1))
        mdp = make_random_mdp(rng, S, A, H)
        kernel_hat = make_random_mdp(rng, S, A, H).transitions
        f = rng.uniform(0.0, 1.0, S)
        f_hat = rng.uniform(0.0, 1.0, S)
        policy = make_random_policy(rng, S, A, H)
        lhs, rhs, bound = simulation_lemma_sides(mdp, kernel_hat, f, f_hat,
                                                 policy)
        eq_gap = abs(lhs - rhs)
        ineq_gap = abs(lhs) - (bound + tol)
        worst = max(worst, eq_gap, ineq_gap)
        if eq_gap > tol or ineq_gap > 0:
            failures += 1
    return CheckReport(name="simulation_lemma", trials=n_instances,
                       failures=failures, worst_violation=worst,
                       passed=failures == 0)


def check_optimism(n_instances: int = 100, seed: int = 0,
                   tol: float = 1e-9) -> CheckReport:
    """With widths set to the true row L1 error, the bonus-lowered model
    value never exceeds the true value."""
    rng = np.random.default_rng(seed)
    worst = -math.inf
    failures = 0
    for _ in range(n_instances):
        S = int(rng.integers(2, 7))
        A = int(rng.integers(2, 5))
        H = int(rng.integers(2, 7))
        mdp = make_random_mdp(rng, S, A, H)
        kernel_hat = make_random_mdp(rng, S, A, H).transitions
        f = rng.uniform(0.0, 1.0, S)
        policy = make_random_policy(rng, S, A, H)
        sigma = np.abs(mdp.transitions - kernel_hat).sum(axis=2)
        b = H * np.minimum(sigma, SIGMA_CAP)
        hat_mdp = TabularMdp(horizon=H, transitions=kernel_hat,
                             cost=np.zeros(S), init_state=mdp.init_state)
        lhs = value_eval_tabular(hat_mdp, policy, f[:, None] - b)
        rhs = value_eval_tabular(mdp, policy, f)
        violation = lhs - rhs - tol
        worst = max(worst, violation)
        if violation > 0:
            failures += 1
    return CheckReport(name="optimism", trials=n_instances,
                       failures=failures, worst_violation=worst,
                       passed=failures == 0)


def concentration_bound(n_functions: int, n_samples: int, delta: float,
                        t: int = 1) -> float:
    return 2.0 * math.sqrt(math.log(2.0 * t**2 * n_functions / delta)
                           / n_samples)


def check_concentration(n_functions: int = 50, n_samples: int = 100,
                        delta: float = 0.1, trials: int = 1000,
                        seed: int = 0, functions: Array | None = None
                        ) -> CheckReport:
    """Coverage of the finite-class deviation bound 2 sqrt(ln(2 |F| / delta) / N).

    Samples are i.i.d. draws from the exact average state occupancy of
    the optimal expert on a 6-state chain, so the only error source is
    finite N; the bound is taken at t = 1. The fraction of trials whose
    sup-deviation exceeds the bound must stay at or below delta.
    """
    env = make_chain(num_states=6, num_actions=3, horizon=5, slip=0.1)
    expert = solve_optimal_tabular(env)
    rng = np.random.default_rng(seed)
    d_state = occupancy_exact(env, expert).average.sum(axis=1)
    S = env.num_states
    if functions is None:
        funcs = rng.uniform(0.0, 1.0, (n_functions, S))
    else:
        funcs = np.asarray(functions, dtype=float)
        n_functions = funcs.shape[0]
    true_means = funcs @ d_state
    bound = concentration_bound(n_functions, n_samples, delta)
    failures = 0
    worst = -math.inf
    for _ in range(trials):
        idx = rng.choice(S, size=n_samples, p=d_state)
        deviation = float(np.max(np.abs(funcs[:, idx].mean(axis=1)
                                        - true_means)))
        worst = max(worst, deviation - bound)
        if deviation > bound:
            failures += 1
    return CheckReport(name="concentration", trials=trials,
                       failures=failures, worst_violation=worst,
                       passed=failures <= delta * trials)


def _require_knr_record(record) -> dict:
    if record.kind != "knr" or not record.cov_snapshots:
        raise ConfigurationError("need a completed knr run record")
    params = record.knr_params or {}
    for key in ("lam_ridge", "noise_std", "w_max", "feature_dim",
                "state_dim"):
        if key not in params:
            raise ConfigurationError(f"knr record is missing '{key}'")
    return params


def elliptical_potential_sides(record) -> tuple:
    """(potential, det bound, closed-form bound) from a knr run record.

    potential = sum_t min{sum_h |phi_{t,h}|^2_{Sigma_t^{-1}}, 1} with
    Sigma_t the pre-update covariance; the final covariance adds the last
    iteration's executed features on top of the last snapshot.
    """
    params = _require_knr_record(record)
    lam = params["lam_ridge"]
    d = params["feature_dim"]
    potential = 0.0
    for cov, feats in zip(record.cov_snapshots, record.executed_features):
        x = np.linalg.solve(cov, feats.T)
        potential += min(float(np.sum(feats.T * x)), 1.0)
    final_cov = record.cov_snapshots[-1] + (
        record.executed_features[-1].T @ record.executed_features[-1])
    _, logdet = np.linalg.slogdet(final_cov)
    det_bound = 2.0 * (logdet - d * math.log(lam))
    ratio = params["w_max"] ** 2 / params["noise_std"] ** 2
    closed_bound = 2.0 * d * math.log(
        1.0 + record.num_iterations * record.horizon * ratio)
    return potential, det_bound, closed_bound


def check_elliptical_potential(record, tol: float = 1e-9) -> CheckReport:
    potential, det_bound, closed_bound = elliptical_potential_sides(record)
    worst = max(potential - det_bound, det_bound - closed_bound)
    failures = int(worst > tol)
    return CheckReport(name="elliptical_potential", trials=1,
                       failures=failures, worst_violation=worst,
                       passed=failures == 0)


def info_gain_bound(record) -> float:
    """Closed-form ceiling on cumulative information gain for the record."""
    T = record.num_iterations
    H = record.horizon
    if record.kind == "tabular":
        S, A = record.num_states, record.num_actions
        return (2.0 * H * S**2 * A * math.log(T**2 * S * A / record.delta)
                * math.log(1.0 + T * H))
    params = _require_knr_record(record)
    d = params["feature_dim"]
    final_cov = record.cov_snapshots[-1] + (
        record.executed_features[-1].T @ record.executed_features[-1])
    beta = knr_beta(t=T, delta=record.delta, lam_ridge=params["lam_ridge"],
                    noise_std=params["noise_std"], w_max=params["w_max"],
                    state_dim=params["state_dim"], cov=final_cov)
    ratio = params["w_max"] ** 2 / params["noise_std"] ** 2
    return (beta**2 / params["noise_std"] ** 2 * 2.0 * H * d
            * math.log(1.0 + T * H * ratio))


def check_info_gain_bounds(record, tol: float = 1e-9) -> CheckReport:
    """Recorded I_T must sit under the kind-appropriate closed form, and
    under the T*H sanity ceiling."""
    bound = info_gain_bound(record)
    i_total = record.info_gain_total
    ceiling = record.num_iterations * record.horizon
    worst = max(i_total - bound, i_total - ceiling - tol)
    failures = int(worst > tol)
    return CheckReport(name="info_gain_bound", trials=1, failures=failures,
                       worst_violation=worst, passed=failures == 0)


def run_all_checks(seed: int = 0, knr_record=None) -> list:
    """The instance-free checks, plus the record checks when one is given."""
    reports = [
        check_simulation_lemma(seed=seed),
        check_gaussian_tv(seed=seed),
        check_optimism(seed=seed),
        check_concentration(seed=seed),
    ]
    if knr_record is not None:
        reports.append(check_elliptical_potential(knr_record))
        reports.append(check_info_gain_bounds(knr_record))
    return reports
