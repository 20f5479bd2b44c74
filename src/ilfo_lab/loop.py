"""Outer loop: interleaved model fitting, optimistic planning, execution.

Each iteration t fits a calibrated model from the replay buffer, builds
the exploration bonus, solves the min-max matching game under the model,
executes the resulting mixture for one episode in the true environment,
records metrics, and appends the episode to the buffer.  At t = 1 the
buffer is empty, so the first policy is the min-max solution under the
maximally uncertain model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .discriminators import MmdDiscriminator, rff_featurize, tv_best_response
from .envs import (
    ConfigurationError,
    KnrSystem,
    MixedPolicy,
    TabularMdp,
    occupancy_exact,
    rollout,
    value_eval_mc,
    value_eval_tabular,
)
from .expert import ExpertDataset, solve_optimal_tabular
from .models import (
    ReplayBuffer,
    bootstrap_buffers,
    ensemble_bonus,
    fit_knr_model,
    fit_tabular,
    mean_bonus_on_path,
    theory_bonus,
)
from .planner import MinMaxConfig, solve_minmax

Array = np.ndarray

CSV_COLUMNS = ("t", "value", "expert_value", "regret", "ipm", "mean_bonus",
               "info_gain_cum", "objective")
CSV_ROW_FORMAT = "%d" + ",%.17g" * 7


@dataclass(frozen=True)
class MobileConfig:
    """Settings for one run of the imitation loop."""

    t_iters: int = 300
    n_expert: int = 500
    delta: float = 0.05
    bonus_mode: str = "theory"        # theory | ensemble | off
    lam_bonus: float = 1.0
    lam_ridge: float | None = None    # knr; None -> noise^2 / w_max^2
    w_max: float = 2.0
    minmax: MinMaxConfig = field(default_factory=MinMaxConfig)
    buffer_capacity: int = 0
    mmd_features: int = 64
    mmd_bandwidth: object = "auto"
    knr_eval_rollouts: int = 64

    def __post_init__(self):
        if self.t_iters < 1:
            raise ConfigurationError("t_iters must be >= 1")
        if self.n_expert < 1:
            raise ConfigurationError("n_expert must be >= 1")
        if not 0 < self.delta < 1:
            raise ConfigurationError("delta must lie in (0, 1)")
        if self.bonus_mode not in ("theory", "ensemble", "off"):
            raise ConfigurationError(f"unknown bonus_mode: {self.bonus_mode!r}")
        if self.lam_bonus < 0:
            raise ConfigurationError("lam_bonus must be >= 0")


@dataclass
class RunRecord:
    """Per-iteration metrics of one loop run plus run metadata."""

    t: Array
    value: Array
    expert_value: float
    regret: Array
    ipm: Array
    mean_bonus: Array
    info_gain_cum: Array
    objective: Array
    kind: str
    horizon: int
    delta: float
    n_expert: int
    num_states: int | None = None
    num_actions: int | None = None
    # knr verification extras: per-iteration pre-update covariance and
    # the features of the executed trajectory
    cov_snapshots: list | None = None
    executed_features: list | None = None
    knr_params: dict | None = None

    def __post_init__(self):
        n = len(self.t)
        for name in ("value", "regret", "ipm", "mean_bonus",
                     "info_gain_cum", "objective"):
            if len(getattr(self, name)) != n:
                raise ConfigurationError(f"column {name} length mismatch")
        if np.any(np.diff(self.info_gain_cum) < -1e-12):
            raise ConfigurationError("cumulative info gain must not decrease")

    @property
    def num_iterations(self) -> int:
        return len(self.t)

    @property
    def best_iterate_by_value(self) -> int:
        return int(self.t[np.argmin(self.value)])

    @property
    def best_iterate_by_objective(self) -> int:
        return int(self.t[np.argmin(self.objective)])

    @property
    def info_gain_total(self) -> float:
        return float(self.info_gain_cum[-1])

    def rows(self):
        for i in range(self.num_iterations):
            yield (int(self.t[i]), float(self.value[i]), self.expert_value,
                   float(self.regret[i]), float(self.ipm[i]),
                   float(self.mean_bonus[i]), float(self.info_gain_cum[i]),
                   float(self.objective[i]))

    def write_csv(self, path) -> None:
        write_csv_rows(path, CSV_COLUMNS, self.rows(), CSV_ROW_FORMAT)


def write_csv_rows(path, columns, rows, row_format: str) -> None:
    """Stable CSV: LF endings, '.' decimals, 17 significant digits.

    ``row_format`` formats one whole row with ``%``: ``%d`` for an integer
    column, ``%.17g`` for a float column and ``%s`` for a string column,
    comma-separated, e.g. ``"%d,%.17g,%s"``.
    """
    template = row_format + "\n"
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(template % tuple(row) for row in rows)


def info_gain_increment(model, trajectory) -> float:
    """sum_h min{sigma(s_h, a_h)^2, 1} along an executed trajectory."""
    total = 0.0
    for h in range(trajectory.horizon):
        sig = model.sigma(trajectory.states[h], int(trajectory.actions[h]))
        total += min(sig * sig, 1.0)
    return total


def info_gain_accumulate(tally: list, model, trajectory) -> list:
    """Append the next cumulative information-gain value to the tally.

    The model must be the pre-update snapshot of the iteration that
    executed the trajectory.
    """
    base = tally[-1] if tally else 0.0
    tally.append(base + info_gain_increment(model, trajectory))
    return tally


def run_mobile(env, expert_dataset: ExpertDataset, cfg: MobileConfig,
               rng: np.random.Generator,
               expert_value: float | None = None
               ) -> tuple[MixedPolicy, RunRecord]:
    """Run the full loop and return the final mixture plus the record.

    expert_value is the reference value used in the regret column; when
    omitted the tabular path uses the exact optimal value (the expert in
    every shipped experiment is the optimal policy) and the KNR path
    estimates the best open-loop sequence by Monte Carlo.
    """
    if not isinstance(env, (TabularMdp, KnrSystem)):
        raise ConfigurationError(f"unsupported environment type: {type(env)!r}")
    if expert_dataset.horizon != env.horizon:
        raise ConfigurationError(
            f"expert dataset horizon {expert_dataset.horizon} does not match "
            f"environment horizon {env.horizon}")
    if expert_dataset.num_trajectories != cfg.n_expert:
        raise ConfigurationError(
            f"n_expert {cfg.n_expert} does not match the expert dataset's "
            f"{expert_dataset.num_trajectories} trajectories")
    if isinstance(env, TabularMdp):
        return _run_mobile_tabular(env, expert_dataset, cfg, rng,
                                   expert_value)
    return _run_mobile_knr(env, expert_dataset, cfg, rng, expert_value)


def _run_mobile_tabular(env, expert_dataset, cfg, rng, expert_value):
    s_dim, a_dim, horizon = env.num_states, env.num_actions, env.horizon
    if expert_value is None:
        expert_value = value_eval_tabular(env, solve_optimal_tabular(env),
                                          env.cost)
    d_e = expert_dataset.state_distribution(s_dim)
    buffer = ReplayBuffer(capacity=cfg.buffer_capacity, num_states=s_dim,
                          num_actions=a_dim)
    cols = {name: [] for name in ("value", "ipm", "mean_bonus", "objective")}
    info_tally: list = []
    mixture = None
    for t in range(1, cfg.t_iters + 1):
        model = fit_tabular(buffer, t=t, delta=cfg.delta)
        if cfg.bonus_mode == "theory":
            bonus = theory_bonus(model, horizon)
        elif cfg.bonus_mode == "ensemble":
            half_a, half_b = bootstrap_buffers(buffer, rng)
            bonus = ensemble_bonus(fit_tabular(half_a, t=t, delta=cfg.delta),
                                   fit_tabular(half_b, t=t, delta=cfg.delta),
                                   buffer, cfg.lam_bonus)
        else:
            bonus = None
        mixture, objective = solve_minmax(
            model, bonus, "box", d_e, cfg.minmax,
            horizon=horizon, init_state=env.init_state)
        traj = rollout(env, mixture, rng)
        info_gain_accumulate(info_tally, model, traj)
        cols["value"].append(value_eval_tabular(env, mixture, env.cost))
        d_pi = occupancy_exact(env, mixture).average.sum(axis=1)
        cols["ipm"].append(tv_best_response(d_pi, d_e)[1])
        cols["mean_bonus"].append(
            mean_bonus_on_path(bonus, traj.states, traj.actions))
        cols["objective"].append(objective)
        buffer.extend_trajectory(traj)
    values = np.asarray(cols["value"])
    record = RunRecord(
        t=np.arange(1, cfg.t_iters + 1), value=values,
        expert_value=float(expert_value),
        regret=values - float(expert_value),
        ipm=np.asarray(cols["ipm"]),
        mean_bonus=np.asarray(cols["mean_bonus"]),
        info_gain_cum=np.asarray(info_tally),
        objective=np.asarray(cols["objective"]),
        kind="tabular", horizon=horizon, delta=cfg.delta,
        n_expert=expert_dataset.num_trajectories,
        num_states=s_dim, num_actions=a_dim)
    return mixture, record


def _run_mobile_knr(env, expert_dataset, cfg, rng, expert_value):
    horizon, a_dim = env.horizon, env.num_actions
    lam_ridge = cfg.lam_ridge
    if lam_ridge is None:
        lam_ridge = env.noise_std**2 / cfg.w_max**2
    if expert_value is None:
        raise ConfigurationError(
            "knr runs need an explicit expert_value reference")
    expert_states = expert_dataset.flat_view()
    fmap, expert_feats = rff_featurize(expert_states, m=cfg.mmd_features,
                                       bandwidth=cfg.mmd_bandwidth, rng=rng)
    mean_e = expert_feats.mean(axis=0)
    buffer = ReplayBuffer(capacity=cfg.buffer_capacity)
    cols = {name: [] for name in ("value", "ipm", "mean_bonus", "objective")}
    info_tally: list = []
    cov_snapshots = []
    executed_features = []
    mixture = None
    for t in range(1, cfg.t_iters + 1):
        model = fit_knr_model(buffer, env.features, env.feature_dim,
                              env.state_dim, lam_ridge, env.noise_std,
                              cfg.w_max, t=t, delta=cfg.delta)
        if cfg.bonus_mode == "theory":
            bonus = theory_bonus(model, horizon)
        elif cfg.bonus_mode == "ensemble":
            half_a, half_b = bootstrap_buffers(buffer, rng)
            kw = dict(features=env.features, feature_dim=env.feature_dim,
                      state_dim=env.state_dim, lam_ridge=lam_ridge,
                      noise_std=env.noise_std, w_max=cfg.w_max, t=t,
                      delta=cfg.delta)
            bonus = ensemble_bonus(fit_knr_model(half_a, **kw),
                                   fit_knr_model(half_b, **kw),
                                   buffer, cfg.lam_bonus)
        else:
            bonus = None
        disc = MmdDiscriminator(feature_map=fmap,
                                w=np.zeros(cfg.mmd_features))
        mixture, objective = solve_minmax(
            model, bonus, disc, expert_dataset, cfg.minmax,
            horizon=horizon, init_state=env.init_state,
            num_actions=a_dim, rng=rng)
        traj = rollout(env, mixture, rng)
        info_gain_accumulate(info_tally, model, traj)
        cov_snapshots.append(np.asarray(model.cov))
        executed_features.append(np.asarray(
            [env.features(traj.states[h], int(traj.actions[h]))
             for h in range(horizon)]))
        val, _ = value_eval_mc(env, mixture, env.cost_of,
                               n_rollouts=cfg.knr_eval_rollouts, rng=rng)
        cols["value"].append(val)
        traj_feats = fmap(np.asarray(traj.states[:horizon], dtype=float))
        cols["ipm"].append(float(np.linalg.norm(
            traj_feats.mean(axis=0) - mean_e)))
        cols["mean_bonus"].append(
            mean_bonus_on_path(bonus, traj.states, traj.actions))
        cols["objective"].append(objective)
        buffer.extend_trajectory(traj)
    values = np.asarray(cols["value"])
    record = RunRecord(
        t=np.arange(1, cfg.t_iters + 1), value=values,
        expert_value=float(expert_value),
        regret=values - float(expert_value),
        ipm=np.asarray(cols["ipm"]),
        mean_bonus=np.asarray(cols["mean_bonus"]),
        info_gain_cum=np.asarray(info_tally),
        objective=np.asarray(cols["objective"]),
        kind="knr", horizon=horizon, delta=cfg.delta,
        n_expert=expert_dataset.num_trajectories,
        cov_snapshots=cov_snapshots, executed_features=executed_features,
        knr_params={"lam_ridge": lam_ridge, "noise_std": env.noise_std,
                    "w_max": cfg.w_max, "feature_dim": env.feature_dim,
                    "state_dim": env.state_dim})
    return mixture, record


def regret_summary(record: RunRecord, threshold: float | None = None,
                   f_class_size: int | None = None) -> dict:
    """Headline numbers of a run, including the theoretical envelope.

    The envelope 6 H^2.5 sqrt(I_T / T) + 2 H sqrt(ln(2 T^2 |F|/delta)/N)
    is reported for comparison, never asserted.  For the box class |F|
    is replaced by the heuristic effective size 2^min(S, 16) unless
    f_class_size gives a finite class size.
    """
    horizon = record.horizon
    if threshold is None:
        threshold = 0.1 * horizon
    if f_class_size is None:
        if record.num_states is not None:
            f_class_size = 2 ** min(record.num_states, 16)
        else:
            f_class_size = 2 ** 16
    regret = np.asarray(record.regret)
    t_count = record.num_iterations
    hit = np.nonzero(regret <= threshold)[0]
    reach = int(record.t[hit[0]]) if hit.size else t_count + 1
    opt_term = envelope_optimism_term(horizon, record.info_gain_total,
                                      t_count)
    stat_term = 2.0 * horizon * np.sqrt(
        np.log(2.0 * t_count**2 * f_class_size / record.delta)
        / record.n_expert)
    return {
        "best_regret": float(np.min(regret)),
        "final_regret": float(regret[-1]),
        "best_iterate": record.best_iterate_by_value,
        "best_iterate_by_objective": record.best_iterate_by_objective,
        "iterations_to_threshold": reach,
        "threshold": float(threshold),
        "envelope_optimism_term": float(opt_term),
        "envelope_stat_term": float(stat_term),
        "envelope": float(opt_term + stat_term),
        "info_gain_total": record.info_gain_total,
    }


def envelope_optimism_term(horizon: int, info_gain_total: float,
                           t_count: int) -> float:
    """6 H^2.5 sqrt(I_T) / sqrt(T), the optimization half of the bound."""
    return 6.0 * horizon**2.5 * np.sqrt(info_gain_total) / np.sqrt(t_count)
