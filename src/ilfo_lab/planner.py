"""Optimistic min-max planning under a learned model.

The learner-side game is min over occupancy measures of
sup_f E_d[f] - E_e[f] - <d, b>, with f from a witness class and b an
exploration bonus.  Best responses are exact: backward DP for tabular
models, open-loop sequence search for KNR models.  The outer loop is
Frank-Wolfe / fictitious play with 1/k averaging: against the box class
(closed-form witness 1{d_pi > d_e}) on tabular models, against an MMD
witness on KNR models.  Each returns a uniform mixture of the per-round
best responses, held as one stack of the distinct responses: action
tables for a tabular model, open-loop sequences for a KNR model.  A
tabular solve can start from the box-witness masks an earlier solve used:
their best responses come from one stacked DP, and their occupancies
share one forward pass with the uniform start.
A linear program over the occupancy polytope provides an independent
value oracle for small tabular games; scipy is loaded only when that
oracle is called.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .discriminators import (RffFeatureMap, box_witness, mmd_update,
                             tv_best_response)
from .envs import (ConfigurationError, MixedPolicy, OpenLoopTree, Policy,
                   _checked_start, _int_fields, _one_hot, best_response_tables,
                   best_response_tabular, occupancy_exact, occupancy_stack,
                   openloop_search)
from .models import KnrModel, TabularModel

Array = np.ndarray

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class KnrSearchConfig:
    """Budget for open-loop sequence search under a KNR model."""

    exhaustive_limit: int = 4096
    n_candidates: int = 0   # 0 disables the random-shooting fallback

    def __post_init__(self):
        _int_fields(self, "exhaustive_limit", "n_candidates")
        if self.exhaustive_limit < 1 or self.n_candidates < 0:
            raise ConfigurationError(
                "exhaustive_limit must be >= 1 and n_candidates >= 0")


@dataclass(frozen=True)
class MinMaxConfig:
    """Outer-loop settings for the min-max solver."""

    k_iters: int = 200
    knr_search: KnrSearchConfig = field(default_factory=KnrSearchConfig)

    def __post_init__(self):
        _int_fields(self, "k_iters")
        if self.k_iters < 1:
            raise ConfigurationError("k_iters must be >= 1")
        if not isinstance(self.knr_search, KnrSearchConfig):
            raise ConfigurationError(f"knr_search must be a KnrSearchConfig, "
                                     f"got {self.knr_search!r}")


def best_response_knr(model: KnrModel, cost_fn: Callable, bonus,
                      horizon: int, num_actions: int, init_state,
                      search_cfg: KnrSearchConfig,
                      rng: np.random.Generator | None = None, *,
                      tree: OpenLoopTree | None = None) -> Policy:
    """Best open-loop action sequence under the learned nominal dynamics.

    Minimizes sum_h [cost(s_h) - b(s_h, a_h)] where s rolls forward with
    the model mean and noise off.  Exhaustive when A^H fits the budget,
    otherwise random shooting over n_candidates distinct sequence ids,
    drawn by one ``rng.choice`` without replacement; ties pick the
    lexicographically smallest sequence.  ``tree`` is the search tree of
    this model, bonus and start state that the caller keeps across
    searches.  ``cost_fn`` maps a depth's (n, ...) node features (the
    states, on the fresh tree built when ``tree`` is None) to (n,) costs,
    and ``bonus`` maps (n, d) states and (n,) actions to (n,) bonuses,
    each rounding a row as it would that row alone.
    """
    if tree is None:
        tree = OpenLoopTree(model.mean_prediction, init_state, num_actions,
                            horizon, bonus)
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
    seq, _ = openloop_search(tree, cost_fn, candidate_ids)
    return Policy.open_loop(seq)


class _TabularGame(NamedTuple):
    """The checked inputs of a tabular game: the learned kernel with the
    horizon and start state, which the exact DPs read as an MDP's, the
    expert's (S,) state distribution d_e and the (S, A) bonus table."""

    horizon: int
    transitions: Array
    init_state: int
    d_e: Array
    bonus: Array

    @property
    def num_states(self) -> int:
        return self.transitions.shape[0]

    @property
    def num_actions(self) -> int:
        return self.transitions.shape[1]


def _tabular_game(model: TabularModel, bonus, expert, horizon: int,
                  init_state) -> _TabularGame:
    """The inputs of a tabular game, checked in the one place that the
    Frank-Wolfe solver and the LP oracle share. A bad horizon or start
    state fails with the message ``TabularMdp`` gives; the kernel is the
    model's ``p_hat``, which ``TabularModel`` has checked. d_e must be a
    finite, nonnegative (S,) mass and the bonus a finite (S, A) table
    (zero without a bonus)."""
    s_dim, a_dim = model.num_states, model.num_actions
    horizon, init_state = _checked_start(horizon, init_state, s_dim)
    try:
        d_e = np.asarray(expert, dtype=float)
    except (TypeError, ValueError):
        d_e = None
    # written on the passing condition, so that a NaN mass fails too
    if (d_e is None or d_e.shape != (s_dim,)
            or not ((d_e >= 0) & (d_e < np.inf)).all()):
        raise ConfigurationError(
            "expert distribution must be (S,), finite and >= 0")
    if bonus is None:
        return _TabularGame(horizon, model.p_hat, init_state, d_e,
                            np.zeros((s_dim, a_dim)))
    if not isinstance(bonus, np.ndarray) or bonus.shape != (s_dim, a_dim):
        raise ConfigurationError("a tabular solve needs an (S, A) bonus table")
    table = np.asarray(bonus, dtype=float)
    if not np.isfinite(table).all():
        raise ConfigurationError("a tabular solve needs a finite bonus table")
    return _TabularGame(horizon, model.p_hat, init_state, d_e, table)


def box_objective(d_avg_sa: Array, d_e: Array, bonus_table: Array) -> float:
    """sup over the box class of the IPM, minus the mean bonus."""
    ipm = tv_best_response(d_avg_sa.sum(axis=1), d_e)
    return ipm - float((d_avg_sa * bonus_table).sum())


def solve_minmax(model: TabularModel | KnrModel, bonus, disc_class, expert,
                 cfg: MinMaxConfig, *, horizon: int, init_state=0,
                 num_actions: int | None = None,
                 rng: np.random.Generator | None = None,
                 warm: list | None = None) -> tuple[MixedPolicy, float]:
    """Solve the occupancy-matching game under the learned model.

    Returns a uniform mixture of the per-round best responses and the
    final sup-over-witnesses objective at that mixture, built by
    ``MixedPolicy.uniform`` with one row per distinct response, in order
    of first use: an action table for a tabular model, an open-loop
    sequence for a KNR model.  Both families run Frank-Wolfe: a tabular model
    against the box class (disc_class "box", expert the (S,) state
    distribution d_e), a KNR model against the unit-ball witnesses on an
    RffFeatureMap's features (disc_class the feature map, expert the (m,)
    mean embedding of the expert states under it).  Any other disc_class
    raises ConfigurationError, and so do a tabular horizon or init_state
    that ``TabularMdp`` would reject.

    ``bonus`` is None (no bonus) or what ``theory_bonus`` and
    ``ensemble_bonus`` give for the model's family: a finite (S, A) table
    for a tabular model, the last-axis function (s, a) -> b for a KNR
    model.

    ``warm`` is a tabular solve's list of box-witness masks, each the
    ``tobytes()`` of an (S,) boolean mask, most usefully the ones an
    earlier solve of the same run used. Before the first round, their best
    responses are solved together in one stacked DP, and one forward pass
    over the uniform start policy and their action tables gives the
    starting occupancy and each response's. A warm hit is a row of that
    DP's tables and builds no ``Policy``; a mask that no list holds is
    solved alone, through ``best_response_tabular`` and
    ``occupancy_exact``. The solve then overwrites the list with the
    masks its own rounds used, in order of first use. A response is a
    pure function of the game and its mask, so nothing returned depends
    on ``warm``.
    """
    if isinstance(model, KnrModel):
        if warm is not None:
            raise ConfigurationError("warm masks start only a tabular solve")
        if not isinstance(disc_class, RffFeatureMap):
            raise ConfigurationError("knr solving needs an RffFeatureMap")
        if num_actions is None:
            raise ConfigurationError("knr solving needs num_actions")
        if bonus is not None and not callable(bonus):
            raise ConfigurationError("knr solving needs a bonus function")
        return _solve_fw_mmd(model, bonus, disc_class, expert, cfg,
                             horizon, num_actions, init_state, rng)
    if isinstance(disc_class, str) and disc_class == "box":
        return _solve_fw_box(model, bonus, expert, cfg, horizon, init_state,
                             warm)
    raise ConfigurationError(
        f"tabular solving needs disc_class 'box', got {disc_class!r}")


def _warm_witnesses(warm, num_states: int) -> Array:
    """(K, S) float box witnesses of a warm list of K masks, each the
    ``tobytes()`` of a boolean (S,) mask."""
    if not isinstance(warm, list):
        raise ConfigurationError(
            f"warm must be a list of masks, got {type(warm).__name__}")
    if not all(isinstance(m, bytes) and len(m) == num_states
               and not m.translate(None, b"\0\1") for m in warm):
        raise ConfigurationError(
            f"a warm mask must be S = {num_states} bytes of 0 or 1")
    return np.frombuffer(b"".join(warm), dtype=bool).reshape(
        -1, num_states).astype(float)


def _solve_fw_box(model, bonus, expert, cfg, horizon, init_state, warm):
    game = _tabular_game(model, bonus, expert, horizon, init_state)
    d_e, b_table = game.d_e, game.bonus
    H, S, A = game.horizon, game.num_states, game.num_actions
    # the best response and its occupancy are pure functions of the box
    # witness 1{d_bar(s) > d_e(s)}, so the masks of the warm list are
    # solved together in one stacked DP, a repeated mask reuses its
    # response (the same row of the mixture's stack), and a new one is
    # solved alone
    masks = [] if warm is None else warm
    f = _warm_witnesses(masks, S)
    tables = (best_response_tables(game, f[:, :, None] - b_table) if len(f)
              else np.empty((0, H, S), dtype=int))
    # one forward pass: row 0 the uniform start, then each warm table's cube
    probs = np.empty((1 + len(tables), H, S, A))
    probs[0] = 1.0 / A
    probs[1:] = _one_hot(tables, A)
    occs = occupancy_stack(game, probs).mean(axis=1)
    d_bar = occs[0]
    solved = dict(zip(masks, zip(tables, occs[1:])))
    # round k adds occ / k with k from ks, worked out once per response
    ks = np.arange(1, cfg.k_iters + 1, dtype=float)[:, None, None]
    # each used response is a row of the mixture's table stack, in order
    # of first use; picks holds each round's row
    responses = {}
    used = []
    picks = np.empty(cfg.k_iters, dtype=np.intp)
    d_state = np.empty(S)
    mask = np.empty(S, dtype=bool)
    for k in range(1, cfg.k_iters + 1):
        np.add.reduce(d_bar, 1, None, d_state)
        np.greater(d_state, d_e, out=mask)
        key = mask.tobytes()
        response = responses.get(key)
        if response is None:
            if key in solved:
                table, occ = solved[key]
            else:
                f_k = box_witness(d_state, d_e)
                pi = best_response_tabular(game, f_k[:, None] - b_table)
                table = pi.action_table
                occ = occupancy_exact(game, pi).mean(axis=0)
            response = responses[key] = (len(used), occ / ks)
            used.append(table)
        picks[k - 1], steps = response
        # d_bar <- (1 - 1/k) d_bar + occ_k / k, in place
        np.multiply(d_bar, 1.0 - 1.0 / k, out=d_bar)
        np.add(d_bar, steps[k - 1], out=d_bar)
    if warm is not None:
        warm[:] = list(responses)
    mixture = MixedPolicy.uniform(used, picks, A)
    objective = box_objective(d_bar, d_e, b_table)
    if logger.isEnabledFor(logging.DEBUG):
        hits = sum(key in solved for key in responses)
        logger.debug("box Frank-Wolfe: %d rounds, %d distinct best responses "
                     "(%d warm hits, %d misses), %d unused warm masks, "
                     "objective %.17g", cfg.k_iters, len(responses), hits,
                     len(responses) - hits, len(solved) - hits, objective)
    return mixture, objective


def _solve_fw_mmd(model, bonus, fmap, mean_e, cfg, horizon, num_actions,
                  init_state, rng):
    """Frank-Wolfe against the MMD witness over one nominal search tree.

    The model, bonus, start state and feature map are fixed within a
    solve; only the witness weights w change between rounds.  So one
    ``OpenLoopTree`` holds each depth's states, witness features
    ``fmap(s)`` and edge bonuses, and a round rescores a depth with
    ``np.vecdot(F, w)``, which rounds each row as the one-state score
    ``fmap(s) @ w`` does.  ``bonus`` is None or the last-axis function
    (s, a) -> b that the tree calls on its edges.  Each distinct path,
    the start path included, is read off the tree once, right after the
    search that found it; its mean embedding (its (H, d) states
    featurized as one batch, which rounds differently from one-state
    calls) and mean edge bonus are cached.
    """
    mean_e = np.asarray(mean_e)
    if mean_e.shape != (fmap.num_features,):
        raise ConfigurationError(
            "the KNR expert must be its (m,) mean feature embedding")
    # each node as its own (1, d) batch, stacked, so a row rounds as one
    # state alone
    tree = OpenLoopTree(model.mean_prediction, init_state, num_actions,
                        horizon, bonus,
                        featurize=lambda x: fmap(x[:, None])[:, 0])
    # the start path: in the layers every exhaustive round reuses, or alone
    total = num_actions ** horizon
    tree.layers(np.arange(total) if total <= cfg.knr_search.exhaustive_limit
                else np.zeros(1, dtype=np.int64))
    # each distinct path's mean embedding and mean edge bonus
    paths = {}

    def path_means(seq):
        key = seq.tobytes()
        means = paths.get(key)
        if means is None:
            states, bonuses = tree.path(seq)
            means = paths[key] = (fmap(states).mean(axis=0), 0.0 if bonuses
                                  is None else float(np.mean(bonuses)))
        return means

    mean_bar, _ = path_means(np.zeros(horizon, dtype=np.int64))
    # each used sequence is a row of the mixture's stack, in order of first
    # use; picks holds each round's row
    used = {}
    picks = np.empty(cfg.k_iters, dtype=np.intp)
    path_bonuses = []
    for k in range(1, cfg.k_iters + 1):
        w = mmd_update(mean_bar, mean_e)
        pi_k = best_response_knr(model, lambda f: np.vecdot(f, w), bonus,
                                 horizon, num_actions, init_state,
                                 cfg.knr_search, rng, tree=tree)
        seq = pi_k.action_seq
        picks[k - 1] = used.setdefault(seq.tobytes(), (len(used), seq))[0]
        embedding, path_bonus = path_means(seq)
        path_bonuses.append(path_bonus)
        mean_bar = (1 - 1.0 / k) * mean_bar + embedding / k
    mixture = MixedPolicy.uniform([seq for _, seq in used.values()], picks)
    mean_b = float(np.mean(path_bonuses))
    return mixture, float(np.linalg.norm(mean_bar - mean_e)) - mean_b


def game_value_lp(model, bonus, expert, horizon: int,
                  init_state: int = 0) -> float:
    """Exact game value by linear programming over the occupancy polytope.

    Minimizes sum_s max(0, d_avg(s) - d_e(s)) - <d_avg, b> over all
    per-step occupancies consistent with the model kernel, using slack
    variables for the positive part.  Independent of the Frank-Wolfe
    path; used as an oracle for solver soundness.  Its inputs are checked
    as the tabular ``solve_minmax`` checks them.
    """
    game = _tabular_game(model, bonus, expert, horizon, init_state)
    from scipy.optimize import linprog

    kernel, horizon, b_table = game.transitions, game.horizon, game.bonus
    s_dim, a_dim = game.num_states, game.num_actions
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
    b_eq[game.init_state] = 1.0
    for h in range(1, horizon):
        for s_next in range(s_dim):
            row = h * s_dim + s_next
            for a in range(a_dim):
                a_eq[row, d_idx(h, s_next, a)] = 1.0
            for s in range(s_dim):
                for a in range(a_dim):
                    a_eq[row, d_idx(h - 1, s, a)] -= kernel[s, a, s_next]

    a_ub = np.zeros((s_dim, n))
    b_ub = game.d_e.copy()
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
