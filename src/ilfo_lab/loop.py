"""Outer loop: interleaved model fitting, optimistic planning, execution.

Each iteration t fits a calibrated model from the replay buffer, builds
the exploration bonus, solves the min-max matching game under the model,
executes the resulting mixture for one episode in the true environment,
records metrics, and appends the episode to the buffer.  At t = 1 the
buffer is empty, so the first policy is the min-max solution under the
maximally uncertain model.
"""

from __future__ import annotations

import logging
import math
import numbers
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .discriminators import rff_featurize, tv_best_response
from .envs import (
    ConfigurationError,
    KnrSystem,
    MixedPolicy,
    TabularMdp,
    _int_fields,
    occupancy_exact,
    rollout,
    value_eval_mc,
    value_eval_tabular,
)
from .expert import ExpertDataset, solve_optimal_tabular
from .models import (
    KnrBuffer,
    TabularBuffer,
    bootstrap_buffers,
    ensemble_bonus,
    fit_knr_model,
    fit_tabular,
    mean_bonus_on_path,
    theory_bonus,
)
from .planner import MinMaxConfig, solve_minmax

Array = np.ndarray

logger = logging.getLogger(__name__)

# tabular iterations whose exact value and occupancy are evaluated together;
# bounded, so the stack stays small
TABULAR_EVAL_BLOCK = 32

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
        _int_fields(self, "t_iters", "n_expert", "buffer_capacity",
                    "mmd_features", "knr_eval_rollouts")
        # numbers as the JSON config takes them, so not a bool
        for name in ("delta", "lam_bonus", "lam_ridge", "w_max"):
            value = getattr(self, name)
            if isinstance(value, bool) or not (
                    isinstance(value, numbers.Real)
                    or name == "lam_ridge" and value is None):
                raise ConfigurationError(
                    f"{name} must be a number, got {value!r}")
        if not isinstance(self.minmax, MinMaxConfig):
            raise ConfigurationError(
                f"minmax must be a MinMaxConfig, got {self.minmax!r}")
        if self.t_iters < 1:
            raise ConfigurationError("t_iters must be >= 1")
        if self.n_expert < 1:
            raise ConfigurationError("n_expert must be >= 1")
        if not 0 < self.delta < 1:
            raise ConfigurationError("delta must lie in (0, 1)")
        if self.bonus_mode not in ("theory", "ensemble", "off"):
            raise ConfigurationError(f"bonus_mode {self.bonus_mode!r} is unknown")
        if not 0 <= self.lam_bonus < math.inf:
            raise ConfigurationError("lam_bonus must be a finite number >= 0")
        if self.lam_ridge is not None and not 0 < self.lam_ridge < math.inf:
            raise ConfigurationError(
                "lam_ridge must be null or a finite number > 0")
        if not self.w_max > 0:
            raise ConfigurationError("w_max must be > 0")
        if self.buffer_capacity < 0:
            raise ConfigurationError("buffer_capacity must be >= 0")
        if self.mmd_features < 1:
            raise ConfigurationError("mmd_features must be >= 1")
        bw = self.mmd_bandwidth
        if bw != "auto" and (isinstance(bw, (str, bool))
                             or not 0 < bw < math.inf):
            raise ConfigurationError(
                f"mmd_bandwidth must be 'auto' or a finite number > 0: {bw!r}")
        if self.knr_eval_rollouts < 2:
            raise ConfigurationError("knr_eval_rollouts must be >= 2")


def knr_ridge(noise_std: float, cfg: MobileConfig) -> float:
    """The KNR ridge parameter: ``cfg.lam_ridge``, or, when that is None,
    noise_std**2 / w_max**2.

    Raises ConfigurationError, naming the config keys at fault, unless
    w_max**2, which the confidence radius takes as well, is finite and the
    ridge parameter is a finite number > 0.
    """
    try:
        w_max_finite = math.isfinite(float(cfg.w_max) ** 2)
    except OverflowError:
        w_max_finite = False
    if not w_max_finite:
        raise ConfigurationError(
            f"'mobile.w_max' {cfg.w_max!r} is too large: w_max**2 overflows")
    if cfg.lam_ridge is not None:
        return cfg.lam_ridge
    try:
        lam_ridge = noise_std**2 / cfg.w_max**2
    except (ZeroDivisionError, OverflowError):
        lam_ridge = math.nan
    if not 0 < lam_ridge < math.inf:
        raise ConfigurationError(
            f"'mobile.lam_ridge' is null, and its default 'env.noise_std'**2 "
            f"/ 'mobile.w_max'**2 = {noise_std!r}**2 / {cfg.w_max!r}**2 is "
            "not a finite number > 0: set 'mobile.lam_ridge'")
    return lam_ridge


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

    def write_csv(self, path) -> None:
        n = self.num_iterations
        write_csv_columns(
            path, CSV_COLUMNS,
            (self.t, self.value, [self.expert_value] * n, self.regret,
             self.ipm, self.mean_bonus, self.info_gain_cum, self.objective),
            CSV_ROW_FORMAT)


def write_csv_columns(path, columns, values, row_format: str) -> None:
    """Stable CSV: LF endings, '.' decimals, 17 significant digits.

    ``values`` holds one sequence per name in ``columns``, all of one
    length; a numpy column is read through ``tolist()``. ``row_format``
    formats one whole row with ``%``: ``%d`` for an integer column,
    ``%.17g`` for a float column and ``%s`` for a string column,
    comma-separated, e.g. ``"%d,%.17g,%s"``. The whole file is formatted
    before it is opened, so a cell that fails to format writes nothing.
    """
    k = len(columns)
    if len(values) != k:
        raise ConfigurationError(
            f"{len(values)} value columns for the {k} names {columns}")
    values = [v.tolist() if isinstance(v, np.ndarray) else v for v in values]
    n = max((len(v) for v in values), default=0)
    for name, v in zip(columns, values):
        if len(v) != n:
            raise ConfigurationError(
                f"column {name!r} has {len(v)} rows where another has {n}")
    cells = [None] * (n * k)
    for j, v in enumerate(values):
        cells[j::k] = v
    text = ",".join(columns) + "\n" + ((row_format + "\n") * n) % tuple(cells)
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(text)


def write_csv_rows(path, columns, rows, row_format: str) -> None:
    """``write_csv_columns`` on an iterable of rows, each holding one cell
    per column."""
    k = len(columns)
    rows = list(rows)
    for i, row in enumerate(rows):
        if len(row) != k:
            raise ConfigurationError(
                f"row {i} has {len(row)} cells for the {k} columns {columns}")
    values = list(zip(*rows)) or [()] * k
    write_csv_columns(path, columns, values, row_format)


def info_gain_increment(model, trajectory) -> float:
    """sum_h min{sigma(s_h, a_h)^2, 1} along an executed trajectory, from
    one ``sigma`` call, summed left to right (``np.add.reduce`` is pairwise
    from 8 terms up)."""
    sig = model.sigma(trajectory.states[:trajectory.horizon],
                      trajectory.actions)
    return float(np.cumsum(np.minimum(sig * sig, 1.0))[-1])


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

    The value and IPM columns are evaluated in blocks of iterations, when
    a block fills and at the last iteration. Nothing the loop reads depends
    on them, so the block length changes no digit. A tabular block is
    ``TABULAR_EVAL_BLOCK`` iterations: its mixtures take one exact value
    pass and one occupancy pass over their distinct action tables, deduped
    by content across the block. A KNR block is one iteration, since
    ``value_eval_mc`` draws from ``rng`` before the next rollout. Each
    block logs one DEBUG record.
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
    _check_expert_states(env, expert_dataset)
    if isinstance(env, TabularMdp):
        family = _tabular_family(env, expert_dataset, cfg, expert_value)
    else:
        family = _knr_family(env, expert_dataset, cfg, rng, expert_value)
    buffer = family.buffer
    # the box masks of the last tabular solve, which warm-start the next
    warm = [] if isinstance(env, TabularMdp) else None
    rows, info_tally, evaluated, pending = [], [], [], []
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
            num_actions=env.num_actions, rng=rng, warm=warm)
        traj = rollout(env, mixture, rng)
        info_gain_accumulate(info_tally, model, traj)
        pending.append((model, mixture, traj))
        if len(pending) == family.block or t == cfg.t_iters:
            evaluated += _evaluate_block(family, pending, t)
            pending = []
        rows.append((mean_bonus_on_path(bonus, traj.states, traj.actions),
                     objective))
        buffer.extend_trajectory(traj)
    value, ipm = map(np.asarray, zip(*evaluated))
    mean_bonus, objective = map(np.asarray, zip(*rows))
    record = RunRecord(
        t=np.arange(1, cfg.t_iters + 1), value=value,
        expert_value=float(family.expert_value),
        regret=value - float(family.expert_value), ipm=ipm,
        mean_bonus=mean_bonus, info_gain_cum=np.asarray(info_tally),
        objective=objective, horizon=env.horizon, delta=cfg.delta,
        n_expert=expert_dataset.num_trajectories, **family.record_fields)
    return mixture, record


def _check_expert_states(env, expert_dataset: ExpertDataset) -> None:
    """Refuse, before the first iteration, expert states that ``env``
    cannot hold: integer indices in [0, S) for a ``TabularMdp``, real
    vectors of its state dimension for a ``KnrSystem``."""
    trajs = expert_dataset.trajectories
    found = f"{trajs.dtype} states of shape {trajs.shape}"
    if isinstance(env, TabularMdp):
        fits = trajs.ndim == 2 and trajs.dtype.kind in "iu"
        if fits:
            lo, hi = trajs.min(), trajs.max()
            found += f" in [{lo}, {hi}]"
            fits = 0 <= lo and hi < env.num_states
        wanted = f"integer states in [0, {env.num_states})"
    else:
        fits = (trajs.ndim == 3 and trajs.shape[2] == env.state_dim
                and trajs.dtype.kind in "iuf")
        wanted = f"real states of dimension {env.state_dim}"
    if not fits:
        raise ConfigurationError(
            f"the expert dataset's {found} do not fit the "
            f"{type(env).__name__}, which takes {wanted}")


def _evaluate_block(family, pending: list, t: int) -> list:
    """``family.evaluate(pending)``, the block of iterations that ends at t,
    logged as one DEBUG record: the iterations, the rows a stacked pass
    runs for them (each distinct row of their mixtures, by content) and
    the seconds taken."""
    start = time.perf_counter()
    results = family.evaluate(pending)
    if logger.isEnabledFor(logging.DEBUG):
        rows = {row.tobytes() for _, mixture, _ in pending
                for row in mixture.rows}
        logger.debug("evaluated iterations %d-%d: %d stacked rows in %.6f s",
                     t - len(pending) + 1, t, len(rows),
                     time.perf_counter() - start)
    return results


@dataclass(frozen=True)
class _Family:
    """The parts of the loop that depend on the model family.

    ``fit(buffer, t)`` fits the family's model, ``witness`` and ``expert``
    are the solver's witness class and expert argument, and
    ``evaluate(block)`` takes a block of at most ``block`` iterations'
    (model, mixture, trajectory) and returns each one's value and IPM.
    The closures look the package functions up at call time, so wrapping
    a module attribute of this module reaches every call.
    """

    buffer: TabularBuffer | KnrBuffer
    fit: Callable
    witness: object
    expert: object
    evaluate: Callable
    block: int
    expert_value: float
    record_fields: dict


def _tabular_family(env, expert_dataset, cfg, expert_value) -> _Family:
    if expert_value is None:
        expert_value = value_eval_tabular(env, solve_optimal_tabular(env),
                                          env.cost)
    d_e = expert_dataset.state_distribution(env.num_states)

    def evaluate(block):
        mixtures = [mixture for _, mixture, _ in block]
        values = value_eval_tabular(env, mixtures, env.cost)
        marginals = occupancy_exact(env, mixtures).mean(axis=1).sum(axis=2)
        return [(value, tv_best_response(d_pi, d_e))
                for value, d_pi in zip(values, marginals)]

    return _Family(
        buffer=TabularBuffer(env.num_states, env.num_actions,
                             cfg.buffer_capacity),
        fit=lambda buffer, t: fit_tabular(buffer, t=t, delta=cfg.delta),
        witness="box", expert=d_e, evaluate=evaluate,
        block=TABULAR_EVAL_BLOCK, expert_value=expert_value,
        record_fields=dict(kind="tabular", num_states=env.num_states,
                           num_actions=env.num_actions))


def _knr_family(env, expert_dataset, cfg, rng, expert_value) -> _Family:
    if expert_value is None:
        raise ConfigurationError(
            "knr runs need an explicit expert_value reference")
    if not env.noise_std > 0:
        raise ConfigurationError(
            "knr runs need noise_std > 0: the confidence width divides by it")
    lam_ridge = knr_ridge(env.noise_std, cfg)
    fmap, expert_feats = rff_featurize(expert_dataset.flat_view(),
                                       m=cfg.mmd_features,
                                       bandwidth=cfg.mmd_bandwidth, rng=rng)
    mean_e = expert_feats.mean(axis=0)
    # per iteration: the pre-update covariance and the executed features
    cov_snapshots, executed_features = [], []

    def fit(buffer, t):
        return fit_knr_model(buffer, env.noise_std, cfg.w_max, t=t,
                             delta=cfg.delta)

    def evaluate(block):
        (model, mixture, traj), = block
        cov_snapshots.append(np.asarray(model.cov))
        executed_features.append(np.asarray(
            env.features(traj.states[:env.horizon], traj.actions)))
        value, _ = value_eval_mc(env, mixture, env.cost_of,
                                 n_rollouts=cfg.knr_eval_rollouts, rng=rng)
        traj_feats = fmap(np.asarray(traj.states[:env.horizon], dtype=float))
        return [(value, float(np.linalg.norm(traj_feats.mean(axis=0)
                                             - mean_e)))]

    return _Family(
        buffer=KnrBuffer(env.features, env.feature_dim, env.state_dim,
                         lam_ridge, cfg.buffer_capacity), fit=fit,
        witness=fmap,
        expert=mean_e, evaluate=evaluate, block=1,
        expert_value=expert_value,
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
