"""Optimistic min-max planning under a learned model.

The learner-side game is min over occupancy measures of
sup_f E_d[f] - E_e[f] - <d, b>, with f from a witness class and b an
exploration bonus.  Best responses are exact: backward DP for tabular
models, open-loop sequence search for KNR models.  The outer loop is
Frank-Wolfe / fictitious play with 1/k averaging: against the box class
(closed-form witness 1{d_pi > d_e}) on tabular models, against an MMD
witness on KNR models.  Each returns a uniform mixture of the per-round
best responses.
A linear program over the occupancy polytope provides an independent
value oracle for small tabular games.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.optimize import linprog

from .discriminators import (MmdDiscriminator, box_witness, mmd_update,
                             tv_best_response)
from .envs import (ConfigurationError, MixedPolicy, Policy, TabularMdp,
                   best_response_tabular, occupancy_exact, openloop_search)
from .models import BonusFunction, KnrModel, TabularModel, mean_bonus_on_path

Array = np.ndarray

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class KnrSearchConfig:
    """Budget for open-loop sequence search under a KNR model."""

    exhaustive_limit: int = 4096
    n_candidates: int = 0   # 0 disables the random-shooting fallback

    def __post_init__(self):
        if self.exhaustive_limit < 1 or self.n_candidates < 0:
            raise ConfigurationError(
                "exhaustive_limit must be >= 1 and n_candidates >= 0")


@dataclass(frozen=True)
class MinMaxConfig:
    """Outer-loop settings for the min-max solver."""

    k_iters: int = 200
    knr_search: KnrSearchConfig = field(default_factory=KnrSearchConfig)

    def __post_init__(self):
        if self.k_iters < 1:
            raise ConfigurationError("k_iters must be >= 1")


def _model_mdp(model: TabularModel, horizon: int, init_state) -> TabularMdp:
    """The learned kernel as a cost-free MDP; rejects an out-of-range start."""
    return TabularMdp(horizon=horizon, transitions=model.p_hat,
                      cost=np.zeros(model.num_states),
                      init_state=int(init_state))


def best_response_knr(model: KnrModel, cost_fn: Callable, bonus,
                      horizon: int, num_actions: int, init_state,
                      search_cfg: KnrSearchConfig,
                      rng: np.random.Generator | None = None) -> Policy:
    """Best open-loop action sequence under the learned nominal dynamics.

    Minimizes sum_h [cost(s_h) - b(s_h, a_h)] where s rolls forward with
    the model mean and noise off.  Exhaustive when A^H fits the budget,
    otherwise random shooting over n_candidates distinct sequence ids,
    drawn by one ``rng.choice`` without replacement; ties pick the
    lexicographically smallest sequence.
    """
    total = num_actions ** horizon
    if total <= search_cfg.exhaustive_limit:
        candidate_ids = np.arange(total)
    elif search_cfg.n_candidates > 0:
        if rng is None:
            raise ConfigurationError("random shooting needs an rng")
        n = min(search_cfg.n_candidates, total)
        candidate_ids = np.sort(rng.choice(total, size=n, replace=False))
    else:
        raise ConfigurationError(
            f"A^H = {total} exceeds the exhaustive budget "
            f"{search_cfg.exhaustive_limit} and random shooting is disabled")
    seq, _ = openloop_search(model.mean_prediction, cost_fn, init_state,
                             num_actions, horizon, candidate_ids, bonus)
    return Policy.open_loop(seq)


def _bonus_table(bonus, s_dim: int, a_dim: int) -> Array:
    if bonus is None:
        return np.zeros((s_dim, a_dim))
    table = bonus.table if isinstance(bonus, BonusFunction) else bonus
    if not isinstance(table, np.ndarray) or table.shape != (s_dim, a_dim):
        raise ConfigurationError("a tabular solve needs an (S, A) bonus table")
    return np.asarray(table, dtype=float)


def _expert_state_distribution(expert, s_dim: int) -> Array:
    try:
        d_e = np.asarray(expert, dtype=float)
    except (TypeError, ValueError):
        d_e = None
    if d_e is None or d_e.shape != (s_dim,) or np.any(d_e < 0):
        raise ConfigurationError("expert distribution must be (S,) and >= 0")
    return d_e


def box_objective(d_avg_sa: Array, d_e: Array, bonus_table: Array) -> float:
    """sup over the box class of the IPM, minus the mean bonus."""
    ipm = tv_best_response(d_avg_sa.sum(axis=1), d_e)
    return ipm - float((d_avg_sa * bonus_table).sum())


def solve_minmax(model: TabularModel | KnrModel, bonus, disc_class, expert,
                 cfg: MinMaxConfig, *, horizon: int, init_state=0,
                 num_actions: int | None = None,
                 rng: np.random.Generator | None = None
                 ) -> tuple[MixedPolicy, float]:
    """Solve the occupancy-matching game under the learned model.

    Returns a uniform mixture of the per-round best responses and the
    final sup-over-witnesses objective at that mixture.  Both families
    run Frank-Wolfe: a tabular model against the box class (disc_class
    "box", expert the (S,) state distribution d_e), a KNR model against
    an MmdDiscriminator (expert the (m,) mean embedding of the expert
    states under its feature map).  Any other disc_class raises
    ConfigurationError.
    """
    if isinstance(model, KnrModel):
        if not isinstance(disc_class, MmdDiscriminator):
            raise ConfigurationError("knr solving needs an MmdDiscriminator")
        if num_actions is None:
            raise ConfigurationError("knr solving needs num_actions")
        return _solve_fw_mmd(model, bonus, disc_class, expert, cfg,
                             horizon, num_actions, init_state, rng)
    if isinstance(disc_class, str) and disc_class == "box":
        return _solve_fw_box(model, bonus, expert, cfg, horizon, init_state)
    raise ConfigurationError(
        f"tabular solving needs disc_class 'box', got {disc_class!r}")


def _solve_fw_box(model, bonus, expert, cfg, horizon, init_state):
    s_dim, a_dim = model.num_states, model.num_actions
    view = _model_mdp(model, horizon, init_state)
    d_e = _expert_state_distribution(expert, s_dim)
    b_table = _bonus_table(bonus, s_dim, a_dim)
    uniform = Policy.tabular(np.full((horizon, s_dim, a_dim), 1.0 / a_dim))
    d_bar = occupancy_exact(view, uniform).average
    components = []
    # the best response and its occupancy are pure functions of the 0/1
    # witness, so a repeated witness reuses both (and the same Policy)
    responses = {}
    for k in range(1, cfg.k_iters + 1):
        f_k = box_witness(d_bar.sum(axis=1), d_e)
        key = f_k.tobytes()
        if key not in responses:
            pi = best_response_tabular(view, f_k[:, None] - b_table)
            responses[key] = (pi, occupancy_exact(view, pi).average)
        pi_k, occ_k = responses[key]
        components.append(pi_k)
        d_bar = (1.0 - 1.0 / k) * d_bar + occ_k / k
    mixture = MixedPolicy(components=tuple(components),
                          weights=np.full(len(components),
                                          1.0 / len(components)))
    objective = box_objective(d_bar, d_e, b_table)
    logger.debug("box Frank-Wolfe: %d rounds, %d distinct best responses, "
                 "objective %.17g", cfg.k_iters, len(responses), objective)
    return mixture, objective


def _nominal_decision_states(model, seq, init_state, horizon):
    """States s_0..s_{H-1} reached by the model mean under an action seq."""
    states = []
    s = np.asarray(init_state, dtype=float)
    for h in range(horizon):
        states.append(np.atleast_1d(s).copy())
        s = model.mean_prediction(s, int(seq[h]))
    return np.asarray(states)


def _solve_fw_mmd(model, bonus, disc, mean_e, cfg, horizon, num_actions,
                  init_state, rng):
    fmap = disc.feature_map
    mean_e = np.asarray(mean_e)
    if mean_e.shape != (fmap.num_features,):
        raise ConfigurationError(
            "the KNR expert must be its (m,) mean feature embedding")
    init_seq = np.zeros(horizon, dtype=np.int64)
    init_states = _nominal_decision_states(model, init_seq, init_state,
                                           horizon)
    mean_bar = fmap(init_states).mean(axis=0)
    components = []
    paths = []
    for k in range(1, cfg.k_iters + 1):
        disc = mmd_update(disc, mean_bar, mean_e)
        cost_fn = lambda s: float(disc(np.atleast_1d(np.asarray(s, float))))
        pi_k = best_response_knr(model, cost_fn, bonus, horizon, num_actions,
                                 init_state, cfg.knr_search, rng)
        seq = pi_k.action_seq
        states_k = _nominal_decision_states(model, seq, init_state, horizon)
        m_k = fmap(states_k).mean(axis=0)
        components.append(pi_k)
        paths.append((states_k, seq))
        mean_bar = (1 - 1.0 / k) * mean_bar + m_k / k
    mixture = MixedPolicy(components=tuple(components),
                          weights=np.full(len(components),
                                          1.0 / len(components)))
    sup_ipm = disc.zeta * float(np.linalg.norm(mean_bar - mean_e))
    mean_b = float(np.mean([mean_bonus_on_path(bonus, st, sq)
                            for st, sq in paths]))
    return mixture, sup_ipm - mean_b


def game_value_lp(model, bonus, expert, horizon: int,
                  init_state: int = 0) -> float:
    """Exact game value by linear programming over the occupancy polytope.

    Minimizes sum_s max(0, d_avg(s) - d_e(s)) - <d_avg, b> over all
    per-step occupancies consistent with the model kernel, using slack
    variables for the positive part.  Independent of the Frank-Wolfe
    path; used as an oracle for solver soundness.
    """
    kernel = model.p_hat
    s_dim, a_dim = kernel.shape[0], kernel.shape[1]
    d_e = _expert_state_distribution(expert, s_dim)
    b_table = _bonus_table(bonus, s_dim, a_dim)
    n_d = horizon * s_dim * a_dim
    n = n_d + s_dim

    def d_idx(h, s, a):
        return h * s_dim * a_dim + s * a_dim + a

    c = np.zeros(n)
    for h in range(horizon):
        for s in range(s_dim):
            for a in range(a_dim):
                c[d_idx(h, s, a)] = -b_table[s, a] / horizon
    c[n_d:] = 1.0

    a_eq = np.zeros((horizon * s_dim, n))
    b_eq = np.zeros(horizon * s_dim)
    for s in range(s_dim):
        for a in range(a_dim):
            a_eq[s, d_idx(0, s, a)] = 1.0
    b_eq[int(init_state)] = 1.0
    for h in range(1, horizon):
        for s_next in range(s_dim):
            row = h * s_dim + s_next
            for a in range(a_dim):
                a_eq[row, d_idx(h, s_next, a)] = 1.0
            for s in range(s_dim):
                for a in range(a_dim):
                    a_eq[row, d_idx(h - 1, s, a)] -= kernel[s, a, s_next]

    a_ub = np.zeros((s_dim, n))
    b_ub = d_e.copy()
    for s in range(s_dim):
        for h in range(horizon):
            for a in range(a_dim):
                a_ub[s, d_idx(h, s, a)] = 1.0 / horizon
        a_ub[s, n_d + s] = -1.0

    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=[(0, None)] * n, method="highs")
    if not res.success:
        raise RuntimeError(f"LP solve failed: {res.message}")
    return float(res.fun)
