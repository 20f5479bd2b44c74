"""Gaussian bandits with a revealed optimal mean, and the two-step reduction.

The hard family places a single gap Delta = (1/4) sqrt(A/T) on one arm per
instance, shares the revealed optimal mean Delta across the family (including
the all-zero instance 0), and is sized so that identifying the good arm is
statistically out of reach within T pulls. Pseudo-regret is always measured
against the revealed mean, so the zero instance charges every pull.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .envs import (Array, ConfigurationError, KnrSystem, _as_int, _frozen,
                   _int_fields)
from .loop import write_csv_columns

ALGORITHMS = ("ucb1", "eps_greedy", "known_mean_elim")

ELIM_DELTA = 0.05  # known_mean_elim's failure budget

REGRET_CSV_COLUMNS = ("t", "mean_regret", "stderr", "algorithm", "instance_id")
REGRET_CSV_ROW_FORMAT = "%d,%.17g,%.17g,%s,%s"


@dataclass(frozen=True)
class BanditConfig:
    """The mab-lb experiment: these algorithms on one hard family."""

    num_arms: int = 10
    horizon: int = 20_000
    algorithms: tuple[str, ...] = ALGORITHMS

    def __post_init__(self):
        _int_fields(self, "num_arms", "horizon")
        if self.horizon < 3:
            raise ConfigurationError(
                f"horizon must be >= 3, got {self.horizon}: the regret "
                "slope is fitted from t = 2 on and needs two points")
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

    mu_star must be finite and at least the best true mean; the zero
    instance of the hard family keeps the family-wide value even though its
    own best arm pays nothing.
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
        if not math.isfinite(self.mu_star):
            raise ConfigurationError("revealed optimal mean must be finite")
        if not self.mu_star >= float(means.max()) - 1e-12:
            raise ConfigurationError(
                "revealed optimal mean sits below the best arm's true mean")
        object.__setattr__(self, "means", _frozen(means))

    @property
    def num_arms(self) -> int:
        return int(self.means.size)


@dataclass(frozen=True)
class BanditBatch:
    """R runs of one algorithm as (R, T) arrays, row r for run r: chosen
    arms, realized rewards and cumulative pseudo-regret."""

    arms: Array
    rewards: Array
    pseudo_regret: Array


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


def run_bandits(instances: Sequence[MabInstance], algorithm: str,
                horizon: int,
                rngs: Sequence[np.random.Generator]) -> BanditBatch:
    """Play ``horizon`` steps of ``algorithm`` on every instance together.

    Run r plays ``instances[r]`` with ``rngs[r]``; the instances share one
    arm count. Each run draws its noise, then (eps_greedy) its explore
    coins, then its explore arms from its own Generator, so row r of the
    returned batch does not depend on the other runs.

    All algorithms pull each arm once first, break ties toward the lowest
    index, and see unit-variance Gaussian rewards. eps_greedy explores with
    probability min(1, A^(1/3) t^(-1/3)). known_mean_elim drops an arm when
    its anytime Hoeffding interval, at failure budget ``ELIM_DELTA``,
    excludes the revealed mean, cycles through survivors in index order,
    and commits once one is left (the last survivor is never dropped).
    """
    if algorithm not in ALGORITHMS:
        raise ConfigurationError(f"unknown bandit algorithm '{algorithm}'")
    instances, rngs = list(instances), list(rngs)
    if not instances:
        raise ConfigurationError("a bandit batch needs at least one run")
    if len(rngs) != len(instances):
        raise ConfigurationError(
            f"{len(rngs)} generators for {len(instances)} instances")
    A = instances[0].num_arms
    if any(inst.num_arms != A for inst in instances):
        raise ConfigurationError("instances of one batch share an arm count")
    T = _as_int("horizon", horizon)
    if T < A:
        raise ConfigurationError("horizon must cover one pull per arm")

    R = len(instances)
    mu = np.stack([inst.means for inst in instances])
    noise = np.empty((R, T))
    explore = explore_arm = None
    if algorithm == "eps_greedy":
        eps = np.zeros(T)
        eps[A:] = [_default_eps(A, t + 1) for t in range(A, T)]
        explore = np.empty((R, T), dtype=bool)
        explore_arm = np.empty((R, T), dtype=np.int64)
    for r, rng in enumerate(rngs):
        noise[r] = rng.standard_normal(T)
        if algorithm == "eps_greedy":
            explore[r] = rng.random(T) < eps
            explore_arm[r] = rng.integers(0, A, size=T)

    if algorithm == "known_mean_elim":
        # anytime sub-Gaussian radius (unit variance), union over arms and
        # steps: sum_t delta/(A t^2) <= 1.65 delta / A
        log_table = np.array([math.log(2.0 * A * (t + 1) ** 2 / ELIM_DELTA)
                              for t in range(T)])
        arms = np.stack([_elim_arms(mu[r], float(inst.mu_star), noise[r],
                                    log_table)
                         for r, inst in enumerate(instances)])
    else:
        arms = _lockstep_arms(mu, noise, explore, explore_arm)

    mu_pulled = np.take_along_axis(mu, arms, axis=1)
    mu_star = np.array([inst.mu_star for inst in instances], dtype=float)
    return BanditBatch(
        arms=arms, rewards=mu_pulled + noise,
        pseudo_regret=np.cumsum(mu_star[:, None] - mu_pulled, axis=1))


def run_bandit(instance: MabInstance, algorithm: str, horizon: int,
               rng: np.random.Generator) -> BanditBatch:
    """A batch of one run; batch several runs where there are."""
    return run_bandits([instance], algorithm, horizon, [rng])


def _lockstep_arms(mu: Array, noise: Array, explore, explore_arm) -> Array:
    """ucb1 (``explore`` None) or eps_greedy arms, one row per run.

    One step advances all R rows of the (R, A) sums, counts and means;
    the step's log and epsilon are Python scalars shared by the rows, and
    each row adds its rewards in the order the scalar loop would.
    """
    R, A = mu.shape
    T = noise.shape[1]
    arms = np.empty((R, T), dtype=np.int64)
    arms[:, :A] = np.arange(A)
    sums = (mu + noise[:, :A]).ravel()
    counts = np.ones(R * A)
    means = sums.copy()
    mu_flat = mu.ravel()
    row_start = np.arange(R) * A
    index = np.empty(R * A)
    index_rows, mean_rows = index.reshape(R, A), means.reshape(R, A)
    for t in range(A, T):
        if explore is None:
            np.divide(2.0 * math.log(t + 1), counts, out=index)
            np.sqrt(index, out=index)
            np.add(index_rows, mean_rows, out=index_rows)
            best = index_rows.argmax(axis=1)
        else:
            best = mean_rows.argmax(axis=1)
            np.copyto(best, explore_arm[:, t], where=explore[:, t])
        flat = row_start + best
        s = sums[flat] + (mu_flat[flat] + noise[:, t])
        c = counts[flat] + 1.0
        sums[flat] = s
        counts[flat] = c
        means[flat] = s / c
        arms[:, t] = best
    return arms


def _elim_arms(mu: Array, mu_star: float, noise: Array,
               log_table: Array) -> Array:
    """known_mean_elim's arms for one run, one segment per elimination.

    Between two drops the schedule is a fixed round robin over the
    survivors, so a segment's running sums are each arm's ``cumsum`` over
    its own pulls (the scalar loop's addition order), and the segment
    ends at the first step whose interval excludes ``mu_star``.
    """
    A = mu.size
    T = noise.size
    arms = np.empty(T, dtype=np.int64)
    arms[:A] = np.arange(A)
    sums = mu + noise[:A]
    counts = np.ones(A, dtype=np.int64)
    survivors = list(range(A))
    ptr, t0 = 0, A
    while t0 < T:
        m = len(survivors)
        if ptr >= m:
            ptr = 0
        if m == 1:
            arms[t0:] = survivors[0]
            break
        order = survivors[ptr:] + survivors[:ptr]
        n = T - t0
        run_sum = np.empty(n)
        run_count = np.empty(n)
        for k, a in enumerate(order):
            pulls = mu[a] + noise[t0 + k::m]
            run_sum[k::m] = np.cumsum(np.concatenate(([sums[a]], pulls)))[1:]
            run_count[k::m] = np.arange(counts[a] + 1,
                                        counts[a] + 1 + pulls.size)
        radius = np.sqrt(2.0 * log_table[t0:] / run_count)
        out = np.abs(run_sum / run_count - mu_star) > radius
        arms[t0:] = np.tile(order, -(-n // m))[:n]
        if not out.any():
            break
        j = int(out.argmax())
        for k, a in enumerate(order[:j + 1]):
            last = k + (j - k) // m * m
            sums[a] = run_sum[last]
            counts[a] = int(run_count[last])
        ptr = (ptr + j) % m
        survivors.pop(ptr)
        t0 += j + 1
    return arms


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

    def features(state: Array, action) -> Array:
        return (np.asarray(action)[..., None] == np.arange(A)).astype(float)

    def cost(state: Array) -> Array:
        return np.minimum(1.0, np.abs(np.asarray(state, dtype=float)[..., 0]
                                      - mu_star))

    return KnrSystem(state_dim=1, feature_dim=A, features=features,
                     weights=weights, noise_std=1.0, horizon=2,
                     num_actions=A, init_state=np.zeros(1), cost=cost)


def cumulative_regret_curve(regret: Array) -> tuple:
    """(t grid, mean, stderr) over the rows of an (n, T) regret block,
    such as n rows of a batch's ``pseudo_regret``."""
    regret = np.asarray(regret, dtype=float)
    if regret.ndim != 2 or regret.shape[0] < 1:
        raise ConfigurationError("need an (n, T) block of regret rows, n >= 1")
    n, T = regret.shape
    mean = regret.mean(axis=0)
    if n == 1:
        stderr = np.zeros_like(mean)
    else:
        stderr = regret.std(axis=0, ddof=1) / math.sqrt(n)
    return np.arange(1, T + 1), mean, stderr


def fit_loglog_slope(t_grid: Array, regret: Array) -> float:
    """Least-squares slope of log regret against log t.

    Uses steps with t >= max(2, T // 10), T the last grid point, and
    positive regret; the early transient is schedule noise.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    regret = np.asarray(regret, dtype=float)
    if t_grid.shape != regret.shape or t_grid.ndim != 1:
        raise ConfigurationError("t grid and regret must be equal vectors")
    if t_grid.size == 0:
        raise ConfigurationError("t grid and regret must not be empty")
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
    write_csv_columns(path, REGRET_CSV_COLUMNS,
                      (t_grid, mean, stderr, [algorithm] * n,
                       [instance_id] * n), REGRET_CSV_ROW_FORMAT)
