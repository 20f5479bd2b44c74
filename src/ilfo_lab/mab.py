"""Gaussian bandits with a revealed optimal mean, and the two-step reduction.

The hard family places a single gap Delta = (1/4) sqrt(A/T) on one arm per
instance, shares the revealed optimal mean Delta across the family (including
the all-zero instance 0), and is sized so that identifying the good arm is
statistically out of reach within T pulls. Pseudo-regret is always measured
against the revealed mean, so the zero instance charges every pull.
"""

import math
from dataclasses import dataclass

import numpy as np

from .envs import Array, ConfigurationError, KnrSystem, _frozen
from .loop import write_csv_rows

ALGORITHMS = ("ucb1", "eps_greedy", "known_mean_elim")

REGRET_CSV_COLUMNS = ("t", "mean_regret", "stderr", "algorithm", "instance_id")
REGRET_CSV_ROW_FORMAT = "%d,%.17g,%.17g,%s,%s"


@dataclass(frozen=True)
class BanditConfig:
    """The mab-lb experiment: these algorithms on one hard family."""

    num_arms: int = 10
    horizon: int = 20_000
    algorithms: tuple[str, ...] = ALGORITHMS

    def __post_init__(self):
        if not 2 <= self.num_arms <= self.horizon:
            raise ConfigurationError("num_arms must be >= 2 and <= horizon")
        if not self.algorithms:
            raise ConfigurationError("algorithms must name at least one")
        for a in self.algorithms:
            if a not in ALGORITHMS:
                raise ConfigurationError(
                    f"algorithms: unknown {a!r}, expected one of {ALGORITHMS}")


@dataclass(frozen=True)
class MabInstance:
    """Unit-noise Gaussian bandit whose optimal mean is told to the player.

    mu_star must be at least the best true mean; the zero instance of the
    hard family keeps the family-wide value even though its own best arm
    pays nothing.
    """

    means: Array
    mu_star: float
    name: str = ""

    def __post_init__(self):
        means = np.asarray(self.means, dtype=float)
        if means.ndim != 1 or means.size < 2:
            raise ConfigurationError("an instance needs at least two arms")
        if not np.all(np.isfinite(means)):
            raise ConfigurationError("arm means must be finite")
        if self.mu_star < float(means.max()) - 1e-12:
            raise ConfigurationError(
                "revealed optimal mean sits below the best arm's true mean")
        object.__setattr__(self, "means", _frozen(means))

    @property
    def num_arms(self) -> int:
        return int(self.means.size)


@dataclass(frozen=True)
class BanditTrace:
    """One run: chosen arms, realized rewards, cumulative pseudo-regret."""

    arms: Array
    rewards: Array
    pseudo_regret: Array
    num_arms: int

    def __post_init__(self):
        arms = _frozen(np.asarray(self.arms, dtype=np.int64))
        rewards = _frozen(np.asarray(self.rewards, dtype=float))
        regret = _frozen(np.asarray(self.pseudo_regret, dtype=float))
        object.__setattr__(self, "arms", arms)
        object.__setattr__(self, "rewards", rewards)
        object.__setattr__(self, "pseudo_regret", regret)
        n = arms.size
        if n < 1 or rewards.size != n or regret.size != n:
            raise ConfigurationError("trace columns must share one length >= 1")
        if regret[0] < -1e-9 or np.any(np.diff(regret) < -1e-9):
            raise ConfigurationError("pseudo-regret must be nondecreasing")

    @property
    def num_steps(self) -> int:
        return int(self.arms.size)

    @property
    def pull_counts(self) -> Array:
        return np.bincount(self.arms, minlength=self.num_arms)


def make_hard_family(num_arms: int, horizon: int) -> list:
    """Instance 0 is all-zero; instance i pays Delta on arm i-1 only.

    Every instance reveals mu_star = Delta = (1/4) sqrt(A/T).
    """
    if num_arms < 2:
        raise ConfigurationError("hard family needs at least two arms")
    if horizon < num_arms:
        raise ConfigurationError("horizon must cover one pull per arm")
    delta = 0.25 * math.sqrt(num_arms / horizon)
    family = [MabInstance(means=np.zeros(num_arms), mu_star=delta,
                          name="instance-0")]
    for i in range(num_arms):
        means = np.zeros(num_arms)
        means[i] = delta
        family.append(MabInstance(means=means, mu_star=delta,
                                  name=f"instance-{i + 1}"))
    return family


def _default_eps(num_arms: int, t: int) -> float:
    return min(1.0, num_arms ** (1.0 / 3.0) * t ** (-1.0 / 3.0))


def run_bandit(instance: MabInstance, algorithm: str, horizon: int,
               rng: np.random.Generator, delta: float = 0.05,
               eps_schedule=None) -> BanditTrace:
    """Play ``horizon`` steps and return the trace.

    All algorithms pull each arm once first, break ties toward the lowest
    index, and see unit-variance Gaussian rewards. known_mean_elim drops an
    arm when its anytime Hoeffding interval excludes the revealed mean,
    cycles through survivors in index order, and commits once one is left
    (the last survivor is never dropped). ``delta`` is its failure budget;
    ``eps_schedule`` overrides eps_greedy's min(1, A^(1/3) t^(-1/3)).
    """
    if algorithm not in ALGORITHMS:
        raise ConfigurationError(f"unknown bandit algorithm '{algorithm}'")
    A = instance.num_arms
    T = int(horizon)
    if T < A:
        raise ConfigurationError("horizon must cover one pull per arm")
    if not 0.0 < delta < 1.0:
        raise ConfigurationError("delta must be in (0, 1)")
    mu = [float(m) for m in instance.means]
    noise = rng.standard_normal(T)
    if algorithm == "eps_greedy":
        explore_coin = rng.random(T)
        explore_arm = rng.integers(0, A, size=T)
        eps = eps_schedule if eps_schedule is not None else _default_eps
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
            if explore_coin[t] < eps(A, t + 1):
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
                # anytime sub-Gaussian radius (unit variance), union over
                # arms and steps: sum_t delta/(A t^2) <= 1.65 delta / A
                radius = math.sqrt(
                    2.0 * math.log(2.0 * A * (t + 1) ** 2 / delta) / counts[a])
                if abs(sums[a] / counts[a] - mu_star) > radius:
                    survivors.pop(ptr)
                    dropped = True
            if not dropped:
                ptr += 1

    mu_arr = np.asarray(mu)
    regret = np.cumsum(instance.mu_star - mu_arr[arms])
    rewards = mu_arr[arms] + noise
    return BanditTrace(arms=arms, rewards=rewards, pseudo_regret=regret,
                       num_arms=A)


def reduction_mdp(instance: MabInstance) -> KnrSystem:
    """H=2 system whose one real decision is the arm choice at the start.

    Scalar state starting at 0, one-hot features over arms, true weights
    equal to the arm means, unit noise. The cost min(1, |s - mu_star|)
    prefers landing near the revealed mean; it is one documented choice,
    and the load-bearing property is that the system exposes exactly
    mu_star and nothing else about which arm is good.
    """
    A = instance.num_arms
    mu_star = float(instance.mu_star)
    weights = instance.means.reshape(1, A).copy()

    def features(state: Array, action: int) -> Array:
        phi = np.zeros(A)
        phi[action] = 1.0
        return phi

    def cost(state: Array) -> float:
        return min(1.0, abs(float(state[0]) - mu_star))

    return KnrSystem(state_dim=1, feature_dim=A, features=features,
                     weights=weights, noise_std=1.0, horizon=2,
                     num_actions=A, init_state=np.zeros(1), cost=cost)


def cumulative_regret_curve(traces) -> tuple:
    """Aligned (t grid, mean, stderr) over traces of equal length."""
    traces = list(traces)
    if not traces:
        raise ConfigurationError("need at least one trace")
    lengths = {tr.num_steps for tr in traces}
    if len(lengths) != 1:
        raise ConfigurationError("traces have ragged lengths")
    stacked = np.stack([tr.pseudo_regret for tr in traces])
    mean = stacked.mean(axis=0)
    if len(traces) == 1:
        stderr = np.zeros_like(mean)
    else:
        stderr = stacked.std(axis=0, ddof=1) / math.sqrt(len(traces))
    t_grid = np.arange(1, stacked.shape[1] + 1)
    return t_grid, mean, stderr


def fit_loglog_slope(t_grid: Array, regret: Array,
                     fit_start: int | None = None) -> float:
    """Least-squares slope of log regret against log t.

    Uses steps with t >= fit_start (default: the last nine tenths of the
    horizon) and positive regret; the early transient is schedule noise.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    regret = np.asarray(regret, dtype=float)
    if t_grid.shape != regret.shape or t_grid.ndim != 1:
        raise ConfigurationError("t grid and regret must be equal vectors")
    if fit_start is None:
        fit_start = max(2, int(t_grid[-1]) // 10)
    keep = (t_grid >= fit_start) & (regret > 0)
    if keep.sum() < 2:
        raise ConfigurationError("not enough positive-regret points to fit")
    x = np.log(t_grid[keep])
    y = np.log(regret[keep])
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


def write_regret_csv(path, algorithm: str, instance_id: str, t_grid: Array,
                     mean: Array, stderr: Array) -> None:
    n = len(t_grid)
    rows = zip(np.asarray(t_grid).astype(int).tolist(),
               np.asarray(mean, dtype=float).tolist(),
               np.asarray(stderr, dtype=float).tolist(),
               [algorithm] * n, [instance_id] * n)
    write_csv_rows(path, REGRET_CSV_COLUMNS, rows, REGRET_CSV_ROW_FORMAT)
