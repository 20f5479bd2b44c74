"""Calibrated dynamics models learned from replayed transitions.

Two model families, one type each:

* ``TabularModel``, a count model with per-(s, a) confidence widths,
* ``KnrModel``, a kernelized nonlinear regulator (KNR) ridge model with
  elliptical confidence widths.

Both report widths through ``sigma``, which caps at ``SIGMA_CAP`` so
downstream bonuses stay bounded.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .envs import ConfigurationError, Trajectory, _frozen

Array = np.ndarray

# Total-variation distance between distributions never exceeds 2, so
# widths beyond 2 carry no information.
SIGMA_CAP = 2.0


class ReplayBuffer:
    """FIFO store of (h, s, a, s') transitions, pooled across h.

    ``capacity=0`` means unbounded.  When ``num_states``/``num_actions``
    are given the buffer also maintains exact visit counts so tabular
    fits are O(S A S) instead of O(len(buffer)).
    """

    def __init__(self, capacity: int = 0, num_states: int | None = None,
                 num_actions: int | None = None):
        if capacity < 0:
            raise ConfigurationError("capacity must be >= 0")
        if (num_states is None) != (num_actions is None):
            raise ConfigurationError(
                "num_states and num_actions must be given together")
        self.capacity = int(capacity)
        self.num_states = num_states
        self.num_actions = num_actions
        self._items: deque = deque()
        if num_states is not None:
            self._counts_sas = np.zeros(
                (num_states, num_actions, num_states), dtype=np.int64)
        else:
            self._counts_sas = None

    @property
    def tabular(self) -> bool:
        return self._counts_sas is not None

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items)

    def append(self, h: int, s, a: int, s_next) -> None:
        if self.tabular:
            s, a, s_next = self._indices(s, a, s_next)
            self._counts_sas[s, a, s_next] += 1
        else:
            try:
                a = operator.index(a)
            except TypeError:
                raise ConfigurationError(
                    f"KNR action {a!r} needs an integer index") from None
            if a < 0:
                raise ConfigurationError(f"KNR action {a} is negative")
        self._items.append((h, s, a, s_next))
        if self.capacity and len(self._items) > self.capacity:
            h0, s0, a0, n0 = self._items.popleft()
            if self.tabular:
                self._counts_sas[s0, a0, n0] -= 1

    def _indices(self, s, a, s_next) -> tuple[int, int, int]:
        """(s, a, s') as Python ints, or ConfigurationError unless each
        is an integer in range."""
        try:
            i, j, k = (operator.index(s), operator.index(a),
                       operator.index(s_next))
        except TypeError:
            raise ConfigurationError(
                f"tabular transition ({s!r}, {a!r}, {s_next!r}) needs "
                f"integer indices") from None
        s_dim, a_dim = self.num_states, self.num_actions
        if not (0 <= i < s_dim and 0 <= j < a_dim and 0 <= k < s_dim):
            raise ConfigurationError(
                f"tabular transition ({i}, {j}, {k}) out of range for "
                f"S={s_dim}, A={a_dim}")
        return i, j, k

    def extend_trajectory(self, traj: Trajectory) -> None:
        for h in range(traj.horizon):
            self.append(h, traj.states[h], traj.actions[h], traj.states[h + 1])

    @property
    def counts_sas(self) -> Array:
        if not self.tabular:
            raise ConfigurationError("counts require a tabular buffer")
        return self._counts_sas.copy()


def bootstrap_buffers(buffer: ReplayBuffer,
                      rng: np.random.Generator) -> list[ReplayBuffer]:
    """Resample two buffers of the same size with replacement.

    A tabular half takes its counts from one bincount over the flat
    (s A + a) S + s' codes of the transitions it drew.
    """
    items = list(buffer)
    s_dim, a_dim = buffer.num_states, buffer.num_actions
    codes = None
    if buffer.tabular:
        codes = np.array([(s * a_dim + a) * s_dim + s_next
                          for _, s, a, s_next in items], dtype=np.int64)
    out = []
    for _ in range(2):
        fresh = ReplayBuffer(capacity=0, num_states=s_dim, num_actions=a_dim)
        if items:
            idx = rng.integers(0, len(items), size=len(items))
            fresh._items = deque([items[i] for i in idx.tolist()])
            if codes is not None:
                fresh._counts_sas = np.bincount(
                    codes[idx], minlength=s_dim * a_dim * s_dim
                ).reshape(s_dim, a_dim, s_dim)
        out.append(fresh)
    return out


def _check_index(t: int, delta: float) -> None:
    if t < 1:
        raise ConfigurationError("model index t must be >= 1")
    if not 0 < delta < 1:
        raise ConfigurationError("delta must lie in (0, 1)")


@dataclass(frozen=True)
class TabularModel:
    """Count-based kernel estimate plus its per-(s, a) confidence width."""

    t: int
    delta: float
    p_hat: Array
    sigma_table: Array

    def __post_init__(self):
        _check_index(self.t, self.delta)
        p = np.asarray(self.p_hat, dtype=float)
        if p.ndim != 3 or p.shape[0] != p.shape[2]:
            raise ConfigurationError("p_hat must have shape (S, A, S)")
        if np.any(np.abs(p.sum(axis=2) - 1.0) > 1e-12) or np.any(p < 0):
            raise ConfigurationError("p_hat rows must be distributions")
        sig = np.asarray(self.sigma_table, dtype=float)
        if sig.shape != p.shape[:2] or np.any(sig < 0):
            raise ConfigurationError("sigma_table shape or sign mismatch")
        object.__setattr__(self, "p_hat", _frozen(p))
        object.__setattr__(self, "sigma_table", _frozen(sig))

    @property
    def num_states(self) -> int:
        return self.p_hat.shape[0]

    @property
    def num_actions(self) -> int:
        return self.p_hat.shape[1]

    def sigma(self, s, a) -> float:
        """Confidence width, capped at SIGMA_CAP."""
        return float(min(self.sigma_table[int(s), int(a)], SIGMA_CAP))

    def mean_prediction(self, s, a) -> Array:
        """The next-state distribution row."""
        return self.p_hat[int(s), int(a)].copy()


@dataclass(frozen=True)
class KnrModel:
    """Ridge estimate of a KNR system plus its elliptical confidence set."""

    t: int
    delta: float
    w_hat: Array
    cov: Array
    lam_ridge: float
    noise_std: float
    w_max: float
    beta: float
    features: Callable = field(repr=False)
    cov_inv: Array = field(init=False, repr=False)

    def __post_init__(self):
        _check_index(self.t, self.delta)
        w = np.asarray(self.w_hat, dtype=float)
        c = np.asarray(self.cov, dtype=float)
        if c.shape != (w.shape[1], w.shape[1]):
            raise ConfigurationError("cov must be (d, d) matching w_hat")
        # cov = sum phi phi^T + lam I is symmetric PD by construction
        try:
            np.linalg.cholesky(c)
        except np.linalg.LinAlgError as exc:
            raise ConfigurationError("cov must be positive definite") from exc
        object.__setattr__(self, "w_hat", _frozen(w))
        object.__setattr__(self, "cov", _frozen(c))
        object.__setattr__(self, "cov_inv", _frozen(np.linalg.inv(c)))

    def sigma(self, s, a) -> float:
        """Confidence width, capped at SIGMA_CAP."""
        return float(min(knr_uncertainty(self, s, a), SIGMA_CAP))

    def mean_prediction(self, s, a) -> Array:
        """The next-state mean vector."""
        phi = np.asarray(self.features(s, a), dtype=float)
        return self.w_hat @ phi


def fit_tabular(buffer: ReplayBuffer, t: int, delta: float) -> TabularModel:
    """Count-based model with width min{sqrt(S ln(t^2 S A / delta) / N), 2}.

    Unvisited (s, a) pairs fall back to the uniform row and the full cap.
    """
    if not buffer.tabular:
        raise ConfigurationError("fit_tabular needs a tabular buffer")
    _check_index(t, delta)
    counts = buffer.counts_sas
    s_dim, a_dim = counts.shape[0], counts.shape[1]
    n_sa = counts.sum(axis=2)
    p_hat = np.full((s_dim, a_dim, s_dim), 1.0 / s_dim)
    visited = n_sa > 0
    p_hat[visited] = counts[visited] / n_sa[visited][:, None]
    log_term = np.log(t**2 * s_dim * a_dim / delta)
    sigma = np.full((s_dim, a_dim), SIGMA_CAP)
    sigma[visited] = np.minimum(
        np.sqrt(s_dim * log_term / n_sa[visited]), SIGMA_CAP)
    return TabularModel(t=t, delta=delta, p_hat=p_hat, sigma_table=sigma)


def fit_knr_ridge(buffer: ReplayBuffer, features: Callable,
                  feature_dim: int, state_dim: int,
                  lam_ridge: float) -> tuple[Array, Array]:
    """Ridge regression of next states on features.

    Returns (w_hat, cov) with w_hat = (sum s' phi^T)(cov)^{-1} and
    cov = sum phi phi^T + lam I.  An empty buffer yields w_hat = 0.
    """
    if lam_ridge <= 0:
        raise ConfigurationError("lam_ridge must be positive")
    cov = lam_ridge * np.eye(feature_dim)
    moment = np.zeros((state_dim, feature_dim))
    for _, s, a, s_next in buffer:
        phi = np.asarray(features(s, a), dtype=float)
        cov += np.outer(phi, phi)
        moment += np.outer(np.atleast_1d(s_next), phi)
    w_hat = np.linalg.solve(cov, moment.T).T
    return w_hat, cov


def knr_beta(t: int, delta: float, lam_ridge: float, noise_std: float,
             w_max: float, state_dim: int, cov: Array) -> float:
    """Elliptical confidence radius for the ridge estimate at round t."""
    if t < 1:
        raise ConfigurationError("model index t must be >= 1")
    d = cov.shape[0]
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0:
        raise ConfigurationError("cov must be positive definite")
    log_ratio = logdet - d * np.log(lam_ridge)
    val = (2 * lam_ridge * w_max**2
           + 8 * noise_std**2 * (state_dim * np.log(5)
                                 + 2 * np.log(t**2 / delta)
                                 + np.log(4) + log_ratio))
    return float(np.sqrt(val))


def fit_knr_model(buffer: ReplayBuffer, features: Callable,
                  feature_dim: int, state_dim: int, lam_ridge: float,
                  noise_std: float, w_max: float, t: int,
                  delta: float) -> KnrModel:
    w_hat, cov = fit_knr_ridge(buffer, features, feature_dim, state_dim,
                               lam_ridge)
    beta = knr_beta(t, delta, lam_ridge, noise_std, w_max, state_dim, cov)
    return KnrModel(t=t, delta=delta, w_hat=w_hat, cov=cov,
                    lam_ridge=lam_ridge, noise_std=noise_std, w_max=w_max,
                    beta=beta, features=features)


def knr_uncertainty(model: KnrModel, s, a) -> float:
    """Raw width (beta / sigma) * |phi|_{cov^{-1}}, not capped."""
    phi = np.asarray(model.features(s, a), dtype=float)
    quad = float(phi @ model.cov_inv @ phi)
    # clip tiny negative round-off from the explicit inverse
    quad = max(quad, 0.0)
    return model.beta / model.noise_std * np.sqrt(quad)


@dataclass(frozen=True)
class BonusFunction:
    """Per-(s, a) exploration bonus with a known upper bound: a tabular
    bonus is its (S, A) ``table``, a KNR bonus is its ``fn``."""

    upper: float
    table: Array | None = None
    fn: Callable | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.table is not None:
            tab = np.asarray(self.table, dtype=float)
            if np.any(tab < 0) or np.any(tab > self.upper + 1e-12):
                raise ConfigurationError("bonus table out of [0, upper]")
            object.__setattr__(self, "table", _frozen(tab))

    def __call__(self, s, a) -> float:
        if self.table is not None:
            return float(self.table[int(s), int(a)])
        return float(self.fn(s, a))


def mean_bonus_on_path(bonus, states, actions) -> float:
    """Mean of b(s_h, a_h) over a path's decision steps; 0 without a bonus."""
    if bonus is None:
        return 0.0
    return float(np.mean([float(bonus(states[h], int(actions[h])))
                          for h in range(len(actions))]))


def theory_bonus(model: TabularModel | KnrModel,
                 horizon: int) -> BonusFunction:
    """b(s, a) = H * min{sigma(s, a), 2}, so b is bounded by 2H."""
    if horizon < 1:
        raise ConfigurationError("horizon must be >= 1")
    if isinstance(model, TabularModel):
        table = horizon * np.minimum(model.sigma_table, SIGMA_CAP)
        return BonusFunction(upper=SIGMA_CAP * horizon, table=table)
    fn = lambda s, a: horizon * min(model.sigma(s, a), SIGMA_CAP)
    return BonusFunction(upper=SIGMA_CAP * horizon, fn=fn)


def ensemble_bonus(model_a: TabularModel | KnrModel,
                   model_b: TabularModel | KnrModel,
                   buffer: ReplayBuffer, lam_bonus: float) -> BonusFunction:
    """Disagreement bonus b = lam * min{1, delta(s,a) / delta_max}.

    delta(s, a) is the L2 gap between the two models' mean predictions
    and delta_max its maximum over the buffer.  An all-zero disagreement
    over the buffer gives the zero bonus.  Two tabular models take one gap
    per (s, a), and the maximum over the pairs the buffer counts.
    """
    if lam_bonus < 0:
        raise ConfigurationError("lam_bonus must be >= 0")

    def gap(s, a) -> float:
        return float(np.linalg.norm(
            model_a.mean_prediction(s, a) - model_b.mean_prediction(s, a)))

    if isinstance(model_a, TabularModel) and isinstance(model_b, TabularModel):
        # one gap per (s, a); the buffer holds exactly the pairs it counts
        gaps = np.array([[gap(s, a) for a in range(model_a.num_actions)]
                         for s in range(model_a.num_states)])
        held = buffer.counts_sas.sum(axis=2) > 0
        delta_max = float(gaps[held].max(initial=0.0))
        if delta_max == 0.0:
            table = np.zeros_like(gaps)
        else:
            table = lam_bonus * np.minimum(1.0, gaps / delta_max)
        return BonusFunction(upper=lam_bonus, table=table)

    delta_max = 0.0
    for _, s, a, _ in buffer:
        delta_max = max(delta_max, gap(s, a))
    if delta_max == 0.0:
        fn = lambda s, a: 0.0
    else:
        fn = lambda s, a: lam_bonus * min(1.0, gap(s, a) / delta_max)
    return BonusFunction(upper=lam_bonus, fn=fn)
