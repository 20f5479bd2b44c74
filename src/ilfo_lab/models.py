"""Calibrated dynamics models learned from replayed transitions.

Two model families, one replay buffer and one model type each:

* ``TabularBuffer`` and ``TabularModel``, transition codes and a count
  model with per-(s, a) confidence widths,
* ``KnrBuffer`` and ``KnrModel``, feature rows and a kernelized nonlinear
  regulator (KNR) ridge model with elliptical confidence widths.

A buffer keeps its transitions as rows of arrays, and a fit computes
every statistic it reads from the rows.

Both report widths through ``sigma``, which caps at ``SIGMA_CAP`` so
downstream bonuses stay bounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .envs import (ConfigurationError, Trajectory, _as_int, _checked_kernel,
                   _frozen)

Array = np.ndarray

# Total-variation distance between distributions never exceeds 2, so
# widths beyond 2 carry no information.
SIGMA_CAP = 2.0


def _checked_capacity(capacity) -> int:
    capacity = _as_int("capacity", capacity)
    if capacity < 0:
        raise ConfigurationError("capacity must be >= 0")
    return capacity


def _joined(rows: Array, new: Array, capacity: int) -> Array:
    """rows then new, cut to the newest ``capacity`` rows; 0 keeps all, as
    [-0:] does."""
    return np.concatenate([rows, new])[-capacity:]


def _fold(start: Array, terms: Array) -> Array:
    """start + terms[0] + terms[1] + ..., added strictly in order; np.sum
    may add pairwise."""
    return np.cumsum(np.concatenate([start[None], terms]), axis=0)[-1].copy()


class TabularBuffer:
    """Tabular (s, a, s') transitions, pooled across h, oldest first.

    Each transition is kept as its flat code (s A + a) S + s' in one
    array; ``capacity`` keeps the newest that many (all when 0).
    Iterating yields the (s, a, s') triples.
    """

    def __init__(self, num_states: int, num_actions: int, capacity: int = 0):
        self.capacity = _checked_capacity(capacity)
        self.num_states, self.num_actions = num_states, num_actions
        self._codes = np.zeros(0, dtype=np.int64)

    def __len__(self) -> int:
        return len(self._codes)

    def __iter__(self):
        s_dim, a_dim = self.num_states, self.num_actions
        for code in self._codes.tolist():
            sa, s_next = divmod(code, s_dim)
            yield (*divmod(sa, a_dim), s_next)

    def append(self, s, a, s_next) -> None:
        """Keep (s, a, s'), or raise ConfigurationError unless each is an
        integer index in range; a bool is neither a state nor an action."""
        self._extend([_as_int("tabular state", s, "integer index")],
                     [_as_int("tabular action", a, "integer index")],
                     [_as_int("tabular next state", s_next, "integer index")])

    def extend_trajectory(self, traj: Trajectory) -> None:
        """Keep the episode's H transitions, or none, raising
        ConfigurationError, unless each is integer indices in range (a
        ``Trajectory`` holds no bool states)."""
        self._extend(traj.states[:-1], traj.actions, traj.states[1:])

    def _extend(self, s, a, s_next) -> None:
        s_dim, a_dim = self.num_states, self.num_actions
        try:
            codes = np.ravel_multi_index((s, a, s_next), (s_dim, a_dim, s_dim))
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"tabular transitions ({s}, {a}, {s_next}) need integer "
                f"indices in range for S={s_dim}, A={a_dim}") from None
        self._codes = _joined(self._codes, codes, self.capacity)

    @property
    def counts_sas(self) -> Array:
        """Visit counts N(s, a, s'): one bincount of the codes."""
        s_dim, a_dim = self.num_states, self.num_actions
        return np.bincount(self._codes, minlength=s_dim * a_dim * s_dim
                           ).reshape(s_dim, a_dim, s_dim)

    def take(self, idx: Array) -> TabularBuffer:
        """The transitions at positions idx, in that order, as an unbounded
        buffer."""
        out = TabularBuffer(self.num_states, self.num_actions)
        out._codes = self._codes[idx]
        return out


class KnrBuffer:
    """KNR (phi, s') rows, pooled across h, oldest first.

    phi = features(s, a) is taken once, at append; the feature map must be
    a pure function of (s, a) on the last-axis contract, so an episode
    takes one call.  ``capacity`` keeps the newest rows (all when 0).
    """

    def __init__(self, features: Callable, feature_dim: int, state_dim: int,
                 lam_ridge: float, capacity: int = 0):
        self.capacity = _checked_capacity(capacity)
        if not 0 < lam_ridge < math.inf:
            raise ConfigurationError(
                "lam_ridge must be a finite number > 0")
        self.features = features
        self.feature_dim, self.state_dim = feature_dim, state_dim
        self.lam_ridge = lam_ridge
        self._phi = np.zeros((0, feature_dim))
        self._next = np.zeros((0, state_dim))

    def __len__(self) -> int:
        return len(self._phi)

    def append(self, s, a, s_next) -> None:
        """Featurize (s, a) and keep (phi, s'), or raise ConfigurationError
        unless a is an integer >= 0; a bool is not an action."""
        self._extend(s, _as_int("KNR action", a, "integer index"), s_next)

    def extend_trajectory(self, traj: Trajectory) -> None:
        """Keep the episode's H rows, or none if an action is negative,
        raising ConfigurationError."""
        self._extend(traj.states[:-1], traj.actions, traj.states[1:])

    def _extend(self, s, a, s_next) -> None:
        lowest = np.min(a, initial=0)
        if lowest < 0:
            raise ConfigurationError(f"KNR action {lowest} is negative")
        phi = np.reshape(self.features(s, a), (-1, self.feature_dim))
        s_next = np.reshape(s_next, (-1, self.state_dim))
        self._phi = _joined(self._phi, phi, self.capacity)
        self._next = _joined(self._next, s_next, self.capacity)

    def feature_rows(self) -> Array:
        """The (len, feature_dim) phi rows, oldest first, a copy."""
        return self._phi.copy()

    def ridge_sums(self) -> tuple[Array, Array]:
        """(cov, moment) = (lam I + sum phi phi^T, sum s' phi^T), each a
        fold over the rows, oldest first, from lam I and from zero."""
        phi = self._phi
        cov = _fold(self.lam_ridge * np.eye(self.feature_dim),
                    phi[:, :, None] * phi[:, None, :])
        moment = _fold(np.zeros((self.state_dim, self.feature_dim)),
                       self._next[:, :, None] * phi[:, None, :])
        return cov, moment

    def take(self, idx: Array) -> KnrBuffer:
        """The rows at positions idx, in that order, as an unbounded buffer
        on the same feature map; it makes no ``features`` call."""
        out = KnrBuffer(self.features, self.feature_dim, self.state_dim,
                        self.lam_ridge)
        out._phi, out._next = self._phi[idx], self._next[idx]
        return out


def bootstrap_buffers(buffer: TabularBuffer | KnrBuffer,
                      rng: np.random.Generator) -> list:
    """Two resamples of the buffer, each of its size, drawn with
    replacement: one ``rng.integers`` draw per non-empty half."""
    n = len(buffer)
    return [buffer.take(rng.integers(0, n, size=n) if n else np.arange(0))
            for _ in range(2)]


def _check_index(t: int, delta: float) -> None:
    if t < 1:
        raise ConfigurationError("model index t must be >= 1")
    if not 0 < delta < 1:
        raise ConfigurationError("delta must lie in (0, 1)")


@dataclass(frozen=True)
class TabularModel:
    """Count-based kernel estimate plus its per-(s, a) confidence width.

    ``p_hat`` is checked as a ``TabularMdp`` checks its kernel, with the
    same messages."""

    p_hat: Array
    sigma_table: Array

    def __post_init__(self):
        p = _checked_kernel(self.p_hat)
        sig = np.asarray(self.sigma_table, dtype=float)
        if sig.shape != p.shape[:2] or not (sig >= 0).all():
            raise ConfigurationError("sigma_table shape or sign mismatch")
        object.__setattr__(self, "p_hat", p)
        object.__setattr__(self, "sigma_table", _frozen(sig))

    @property
    def num_states(self) -> int:
        return self.p_hat.shape[0]

    @property
    def num_actions(self) -> int:
        return self.p_hat.shape[1]

    def sigma(self, s, a):
        """Confidence widths of (...) pairs, capped at SIGMA_CAP."""
        return np.minimum(self.sigma_table[s, a], SIGMA_CAP)


@dataclass(frozen=True)
class KnrModel:
    """Ridge estimate of a KNR system plus its elliptical confidence set.

    ``mean_prediction`` and ``sigma`` act on the last axis, as ``features``
    does: (..., d) states and (...) actions give (..., d) means and (...)
    widths, each row rounded as if alone.  The fit's round index,
    confidence level, ridge parameter and weight bound enter only
    through ``beta``."""

    w_hat: Array
    cov: Array
    noise_std: float
    beta: float
    features: Callable = field(repr=False)
    cov_inv: Array = field(init=False, repr=False)

    def __post_init__(self):
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

    def sigma(self, s, a):
        """Confidence width, capped at SIGMA_CAP."""
        return np.minimum(knr_uncertainty(self, s, a), SIGMA_CAP)

    def mean_prediction(self, s, a) -> Array:
        """The next-state means; matvec rounds each row as w_hat @ phi."""
        phi = np.asarray(self.features(s, a), dtype=float)
        return np.matvec(self.w_hat, phi)


def fit_tabular(buffer: TabularBuffer, t: int, delta: float) -> TabularModel:
    """Count-based model with width min{sqrt(S ln(t^2 S A / delta) / N), 2}.

    Unvisited (s, a) pairs fall back to the uniform row and the full cap.
    """
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
    return TabularModel(p_hat=p_hat, sigma_table=sigma)


def fit_knr_ridge(buffer: KnrBuffer) -> tuple[Array, Array]:
    """Ridge regression of next states on features.

    Returns (w_hat, cov) with w_hat = (sum s' phi^T)(cov)^{-1} and
    cov = sum phi phi^T + lam I, from the buffer's ridge sums.  An empty
    buffer yields w_hat = 0.
    """
    cov, moment = buffer.ridge_sums()
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


def fit_knr_model(buffer: KnrBuffer, noise_std: float, w_max: float,
                  t: int, delta: float) -> KnrModel:
    """The ridge model of the buffer, on its feature map and lam."""
    _check_index(t, delta)
    w_hat, cov = fit_knr_ridge(buffer)
    beta = knr_beta(t, delta, buffer.lam_ridge, noise_std, w_max,
                    buffer.state_dim, cov)
    return KnrModel(w_hat=w_hat, cov=cov, noise_std=noise_std, beta=beta,
                    features=buffer.features)


def knr_uncertainty(model: KnrModel, s, a):
    """Raw width (beta / sigma) * |phi|_{cov^{-1}} of (...) pairs, not
    capped; vecmat then vecdot rounds a row as ``phi @ cov_inv @ phi``."""
    phi = np.asarray(model.features(s, a), dtype=float)
    quad = np.vecdot(np.vecmat(phi, model.cov_inv), phi)
    # clip tiny negative round-off from the explicit inverse
    return model.beta / model.noise_std * np.sqrt(np.maximum(quad, 0.0))


@dataclass(frozen=True)
class BonusFunction:
    """Per-(s, a) exploration bonus with a known upper bound: a tabular
    bonus is its (S, A) ``table``, a KNR bonus is its ``fn``.

    A call maps (...) states, (..., d) on KNR, and (...) actions to (...)
    bonuses; a KNR ``fn`` must round each row as it would that row alone.
    """

    upper: float
    table: Array | None = None
    fn: Callable | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.table is not None:
            tab = np.asarray(self.table, dtype=float)
            if not ((tab >= 0) & (tab <= self.upper + 1e-12)).all():
                raise ConfigurationError("bonus table out of [0, upper]")
            object.__setattr__(self, "table", _frozen(tab))

    def __call__(self, s, a):
        if self.table is not None:
            return self.table[s, a]
        return self.fn(s, a)


def mean_bonus_on_path(bonus, states, actions) -> float:
    """Mean of b(s_h, a_h) over a path's decision steps; 0 without a bonus."""
    if bonus is None:
        return 0.0
    return float(np.mean(bonus(states[:len(actions)], actions)))


def theory_bonus(model: TabularModel | KnrModel,
                 horizon: int) -> BonusFunction:
    """b(s, a) = H * min{sigma(s, a), 2}, so b is bounded by 2H."""
    if horizon < 1:
        raise ConfigurationError("horizon must be >= 1")
    if isinstance(model, TabularModel):
        table = horizon * np.minimum(model.sigma_table, SIGMA_CAP)
        return BonusFunction(upper=SIGMA_CAP * horizon, table=table)
    fn = lambda s, a: horizon * np.minimum(model.sigma(s, a), SIGMA_CAP)
    return BonusFunction(upper=SIGMA_CAP * horizon, fn=fn)


def ensemble_bonus(model_a: TabularModel | KnrModel,
                   model_b: TabularModel | KnrModel,
                   buffer: TabularBuffer | KnrBuffer,
                   lam_bonus: float) -> BonusFunction:
    """Disagreement bonus b = lam * min{1, delta(s,a) / delta_max}.

    delta(s, a) is the L2 gap between the two models' mean predictions
    and delta_max its maximum over the buffer.  An all-zero disagreement
    over the buffer gives the zero bonus.  Two tabular models take one gap
    per (s, a), and the maximum over the pairs the buffer counts.  Two KNR
    models share the buffer's feature map, and take the maximum over its
    feature rows.
    """
    if not 0 <= lam_bonus < math.inf:
        raise ConfigurationError("lam_bonus must be a finite number >= 0")

    def norms(diff):   # row by row as np.linalg.norm
        return np.sqrt(np.vecdot(diff, diff))

    if isinstance(model_a, TabularModel) and isinstance(model_b, TabularModel):
        # one gap per (s, a); the buffer holds exactly the pairs it counts
        gaps = norms(model_a.p_hat - model_b.p_hat)
        held = buffer.counts_sas.sum(axis=2) > 0
        delta_max = float(gaps[held].max(initial=0.0))
        if delta_max == 0.0:
            table = np.zeros_like(gaps)
        else:
            table = lam_bonus * np.minimum(1.0, gaps / delta_max)
        return BonusFunction(upper=lam_bonus, table=table)

    if not model_a.features == model_b.features == buffer.features:
        raise ConfigurationError(
            "the two KNR models and the buffer need one feature map")

    w_a, w_b = model_a.w_hat, model_b.w_hat

    def gap(phi):   # the mean predictions' gap, on features taken once
        return norms(np.matvec(w_a, phi) - np.matvec(w_b, phi))

    delta_max = float(gap(buffer.feature_rows()).max(initial=0.0))
    if delta_max == 0.0:
        fn = lambda s, a: np.zeros(np.shape(a))[()]
    else:
        fn = lambda s, a: lam_bonus * np.minimum(1.0, gap(np.asarray(
            model_a.features(s, a), dtype=float)) / delta_max)
    return BonusFunction(upper=lam_bonus, fn=fn)
