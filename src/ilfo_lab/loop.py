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
    mmd_bandwidth: float | str = "auto"
    knr_eval_rollouts: int = 64

    def __post_init__(self):
        if self.t_iters < 1:
            raise ConfigurationError("t_iters must be >= 1")
        if self.n_expert < 1:
            raise ConfigurationError("n_expert must be >= 1")
        if not 0 < self.delta < 1:
            raise ConfigurationError("delta must lie in (0, 1)")
        if self.bonus_mode not in ("theory", "ensemble", "off"):
            raise ConfigurationError(f"bonus_mode {self.bonus_mode!r} is unknown")
        if self.lam_bonus < 0:
            raise ConfigurationError("lam_bonus must be >= 0")
        if self.lam_ridge is not None and not self.lam_ridge > 0:
            raise ConfigurationError("lam_ridge must be null or > 0")
        if not self.w_max > 0:
            raise ConfigurationError("w_max must be > 0")
        if self.buffer_capacity < 0:
            raise ConfigurationError("buffer_capacity must be >= 0")
        if self.mmd_features < 1:
            raise ConfigurationError("mmd_features must be >= 1")
        bw = self.mmd_bandwidth
        if bw != "auto" and (isinstance(bw, (str, bool)) or not bw > 0):
            raise ConfigurationError(
                f"mmd_bandwidth must be 'auto' or a positive number: {bw!r}")
        if self.knr_eval_rollouts < 2:
            raise ConfigurationError("knr_eval_rollouts must be >= 2")


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
    every shipped experiment is the optimal policy), and a KNR run needs
    it given.
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
        family = _tabular_family(env, expert_dataset, cfg, expert_value)
    else:
        family = _knr_family(env, expert_dataset, cfg, rng, expert_value)
    buffer = family.buffer
    rows, info_tally = [], []
    for t in range(1, cfg.t_iters + 1):
        model = family.fit(buffer, t)
        if cfg.bonus_mode == "theory":
            bonus = theory_bonus(model, env.horizon)
        elif cfg.bonus_mode == "ensemble":
            half_a, half_b = bootstrap_buffers(buffer, rng)
            bonus = ensemble_bonus(family.fit(half_a, t),
                                   family.fit(half_b, t), buffer,
                                   cfg.lam_bonus)
        else:
            bonus = None
        mixture, objective = solve_minmax(
            model, bonus, family.witness, family.expert, cfg.minmax,
            horizon=env.horizon, init_state=env.init_state,
            num_actions=env.num_actions, rng=rng)
        traj = rollout(env, mixture, rng)
        info_gain_accumulate(info_tally, model, traj)
        value, ipm = family.evaluate(model, mixture, traj)
        rows.append((value, ipm,
                     mean_bonus_on_path(bonus, traj.states, traj.actions),
                     objective))
        buffer.extend_trajectory(traj)
    value, ipm, mean_bonus, objective = map(np.asarray, zip(*rows))
    record = RunRecord(
        t=np.arange(1, cfg.t_iters + 1), value=value,
        expert_value=float(family.expert_value),
        regret=value - float(family.expert_value), ipm=ipm,
        mean_bonus=mean_bonus, info_gain_cum=np.asarray(info_tally),
        objective=objective, horizon=env.horizon, delta=cfg.delta,
        n_expert=expert_dataset.num_trajectories, **family.record_fields)
    return mixture, record


@dataclass(frozen=True)
class _Family:
    """The parts of the loop that depend on the model family.

    ``fit(buffer, t)`` fits the family's model, ``witness`` and ``expert``
    are the solver's witness class and expert argument, and
    ``evaluate(model, mixture, trajectory)`` returns the iteration's value
    and IPM.  The closures look the package functions up at call time, so
    wrapping a module attribute of this module reaches every call.
    """

    buffer: ReplayBuffer
    fit: Callable
    witness: object
    expert: object
    evaluate: Callable
    expert_value: float
    record_fields: dict


def _tabular_family(env, expert_dataset, cfg, expert_value) -> _Family:
    if expert_value is None:
        expert_value = value_eval_tabular(env, solve_optimal_tabular(env),
                                          env.cost)
    d_e = expert_dataset.state_distribution(env.num_states)

    def evaluate(model, mixture, traj):
        value = value_eval_tabular(env, mixture, env.cost)
        d_pi = occupancy_exact(env, mixture).average.sum(axis=1)
        return value, tv_best_response(d_pi, d_e)

    return _Family(
        buffer=ReplayBuffer(capacity=cfg.buffer_capacity,
                            num_states=env.num_states,
                            num_actions=env.num_actions),
        fit=lambda buffer, t: fit_tabular(buffer, t=t, delta=cfg.delta),
        witness="box", expert=d_e, evaluate=evaluate,
        expert_value=expert_value,
        record_fields=dict(kind="tabular", num_states=env.num_states,
                           num_actions=env.num_actions))


def _knr_family(env, expert_dataset, cfg, rng, expert_value) -> _Family:
    if expert_value is None:
        raise ConfigurationError(
            "knr runs need an explicit expert_value reference")
    lam_ridge = (env.noise_std**2 / cfg.w_max**2 if cfg.lam_ridge is None
                 else cfg.lam_ridge)
    fmap, expert_feats = rff_featurize(expert_dataset.flat_view(),
                                       m=cfg.mmd_features,
                                       bandwidth=cfg.mmd_bandwidth, rng=rng)
    mean_e = expert_feats.mean(axis=0)
    # per iteration: the pre-update covariance and the executed features
    cov_snapshots, executed_features = [], []

    def fit(buffer, t):
        return fit_knr_model(buffer, env.features, env.feature_dim,
                             env.state_dim, lam_ridge, env.noise_std,
                             cfg.w_max, t=t, delta=cfg.delta)

    def evaluate(model, mixture, traj):
        cov_snapshots.append(np.asarray(model.cov))
        executed_features.append(np.asarray(
            [env.features(traj.states[h], int(traj.actions[h]))
             for h in range(env.horizon)]))
        value, _ = value_eval_mc(env, mixture, env.cost_of,
                                 n_rollouts=cfg.knr_eval_rollouts, rng=rng)
        traj_feats = fmap(np.asarray(traj.states[:env.horizon], dtype=float))
        return value, float(np.linalg.norm(traj_feats.mean(axis=0) - mean_e))

    return _Family(
        buffer=ReplayBuffer(capacity=cfg.buffer_capacity), fit=fit,
        witness=MmdDiscriminator(feature_map=fmap,
                                 w=np.zeros(cfg.mmd_features)),
        expert=mean_e, evaluate=evaluate, expert_value=expert_value,
        record_fields=dict(
            kind="knr", cov_snapshots=cov_snapshots,
            executed_features=executed_features,
            knr_params={"lam_ridge": lam_ridge, "noise_std": env.noise_std,
                        "w_max": cfg.w_max, "feature_dim": env.feature_dim,
                        "state_dim": env.state_dim}))


def regret_summary(record: RunRecord, threshold: float | None = None) -> dict:
    """Headline numbers of a run, including the theoretical envelope.

    The envelope 6 H^2.5 sqrt(I_T / T) + 2 H sqrt(ln(2 T^2 |F|/delta)/N)
    is reported for comparison, never asserted.  |F| is the heuristic
    effective size 2^min(S, 16) of the box class, or 2^16 for a KNR run.
    """
    horizon = record.horizon
    if threshold is None:
        threshold = 0.1 * horizon
    f_class_size = 2 ** min(record.num_states or 16, 16)
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
