"""Finite-horizon environments, policies, and exact occupancy / value machinery.

Tabular MDPs get exact forward (occupancy) and backward (value) dynamic
programs; continuous-state linear-Gaussian systems get Monte-Carlo rollouts.
All sampling goes through an explicit numpy Generator so runs are replayable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

Array = np.ndarray

ROW_TOL = 1e-12
DIST_TOL = 1e-10


def _frozen(arr: Array) -> Array:
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


class ConfigurationError(ValueError):
    """Raised when inputs violate a documented precondition."""


@dataclass(frozen=True)
class TabularMdp:
    """Episodic finite-horizon MDP with state costs in [0, 1].

    ``transitions`` is either one (S, A, S) kernel shared by every timestep or
    a per-step (H, S, A, S) stack. Rows must be probability vectors.
    """

    horizon: int
    transitions: Array
    cost: Array
    init_state: int

    def __post_init__(self):
        object.__setattr__(self, "transitions", _frozen(np.asarray(self.transitions, dtype=float)))
        object.__setattr__(self, "cost", _frozen(np.asarray(self.cost, dtype=float)))
        if self.horizon < 1:
            raise ConfigurationError("horizon must be >= 1")
        if self.transitions.ndim not in (3, 4):
            raise ConfigurationError("transitions must be (S,A,S) or (H,S,A,S)")
        if self.transitions.ndim == 4 and self.transitions.shape[0] != self.horizon:
            raise ConfigurationError("per-step kernel stack must have length horizon")
        S = self.transitions.shape[-1]
        if self.transitions.shape[-3] != S:
            raise ConfigurationError("kernel source and target state counts differ")
        rows = self.transitions.reshape(-1, S)
        if np.any(rows < 0):
            raise ConfigurationError("negative transition probability")
        if np.max(np.abs(rows.sum(axis=1) - 1.0)) > ROW_TOL:
            raise ConfigurationError("transition rows must sum to 1")
        if self.cost.shape != (S,):
            raise ConfigurationError("cost must be one value per state")
        if np.any(self.cost < 0) or np.any(self.cost > 1):
            raise ConfigurationError("costs must lie in [0, 1]")
        if not (0 <= self.init_state < S):
            raise ConfigurationError("init_state out of range")

    @property
    def num_states(self) -> int:
        return self.transitions.shape[-1]

    @property
    def num_actions(self) -> int:
        return self.transitions.shape[-2]

    def kernel(self, h: int) -> Array:
        """(S, A, S) transition kernel in force at step h."""
        if self.transitions.ndim == 4:
            return self.transitions[h]
        return self.transitions


@dataclass(frozen=True)
class KnrSystem:
    """Continuous-state system s' = weights @ features(s, a) + noise_std * N(0, I).

    ``features`` must return unit-ball vectors (checked on every rollout step);
    ``cost`` maps a state vector to [0, 1] (outputs are clamped).
    """

    state_dim: int
    feature_dim: int
    features: Callable[[Array, int], Array]
    weights: Array
    noise_std: float
    horizon: int
    num_actions: int
    init_state: Array
    cost: Callable[[Array], float]

    def __post_init__(self):
        object.__setattr__(self, "weights", _frozen(np.asarray(self.weights, dtype=float)))
        object.__setattr__(self, "init_state", _frozen(np.asarray(self.init_state, dtype=float)))
        if self.weights.shape != (self.state_dim, self.feature_dim):
            raise ConfigurationError("weights must be (state_dim, feature_dim)")
        if self.noise_std < 0:
            raise ConfigurationError("noise_std must be >= 0")
        if self.init_state.shape != (self.state_dim,):
            raise ConfigurationError("init_state must be a state_dim vector")
        if self.horizon < 1 or self.num_actions < 1:
            raise ConfigurationError("horizon and num_actions must be >= 1")

    def feature(self, state: Array, action: int) -> Array:
        phi = np.asarray(self.features(state, action), dtype=float)
        if phi.shape != (self.feature_dim,):
            raise ConfigurationError("feature map returned wrong dimension")
        nrm = float(np.linalg.norm(phi))
        if nrm > 1.0 + 1e-9:
            raise ConfigurationError(f"feature norm {nrm:.6f} exceeds 1")
        return phi

    def step_mean(self, state: Array, action: int) -> Array:
        return self.weights @ self.feature(state, action)

    def cost_of(self, state: Array) -> float:
        return float(np.clip(self.cost(state), 0.0, 1.0))


@dataclass(frozen=True)
class Policy:
    """Nonstationary tabular policy (H, S, A) or an open-loop action sequence."""

    action_probs: Array | None = None
    action_seq: Array | None = None

    def __post_init__(self):
        if (self.action_probs is None) == (self.action_seq is None):
            raise ConfigurationError("exactly one of action_probs / action_seq required")
        if self.action_probs is not None:
            probs = np.asarray(self.action_probs, dtype=float)
            if probs.ndim != 3:
                raise ConfigurationError("action_probs must be (H, S, A)")
            if np.any(probs < 0):
                raise ConfigurationError("negative action probability")
            if np.max(np.abs(probs.sum(axis=2) - 1.0)) > ROW_TOL:
                raise ConfigurationError("per-(h,s) action distribution must sum to 1")
            object.__setattr__(self, "action_probs", _frozen(probs))
        else:
            seq = np.asarray(self.action_seq, dtype=int)
            if seq.ndim != 1:
                raise ConfigurationError("action_seq must be a flat action list")
            object.__setattr__(self, "action_seq", _frozen(seq))

    @classmethod
    def tabular(cls, probs: Array) -> "Policy":
        return cls(action_probs=probs)

    @classmethod
    def deterministic(cls, actions: Array, num_actions: int) -> "Policy":
        """Build from an (H, S) table of action indices."""
        actions = np.asarray(actions, dtype=int)
        H, S = actions.shape
        probs = np.zeros((H, S, num_actions))
        for h in range(H):
            probs[h, np.arange(S), actions[h]] = 1.0
        return cls(action_probs=probs)

    @classmethod
    def open_loop(cls, seq: Sequence[int]) -> "Policy":
        return cls(action_seq=np.asarray(seq, dtype=int))

    @property
    def is_open_loop(self) -> bool:
        return self.action_seq is not None

    @property
    def horizon(self) -> int:
        if self.action_seq is not None:
            return len(self.action_seq)
        return self.action_probs.shape[0]

    def probs_at(self, h: int, num_states: int, num_actions: int) -> Array:
        """(S, A) action distribution at step h, lifting open-loop sequences."""
        if self.action_seq is not None:
            out = np.zeros((num_states, num_actions))
            out[:, int(self.action_seq[h])] = 1.0
            return out
        return self.action_probs[h]


@dataclass(frozen=True)
class MixedPolicy:
    """Explicit finite mixture of policies; components are never collapsed."""

    components: tuple
    weights: Array

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ConfigurationError("mixture needs at least one component")
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (len(comps),):
            raise ConfigurationError("one weight per component required")
        if np.any(w < 0) or abs(w.sum() - 1.0) > ROW_TOL:
            raise ConfigurationError("weights must be nonnegative and sum to 1")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "weights", _frozen(w))

    @property
    def horizon(self) -> int:
        return self.components[0].horizon

    def sample_component(self, rng: np.random.Generator) -> Policy:
        idx = int(rng.choice(len(self.components), p=self.weights))
        return self.components[idx]


AnyPolicy = Union[Policy, MixedPolicy]


@dataclass(frozen=True)
class OccupancyMeasure:
    """Per-timestep state-action distributions d_h plus their average."""

    per_step: Array  # (H, S, A)

    def __post_init__(self):
        d = np.asarray(self.per_step, dtype=float)
        if d.ndim != 3:
            raise ConfigurationError("per_step must be (H, S, A)")
        if np.any(d < -DIST_TOL):
            raise ConfigurationError("negative occupancy mass")
        sums = d.reshape(d.shape[0], -1).sum(axis=1)
        if np.max(np.abs(sums - 1.0)) > DIST_TOL:
            raise ConfigurationError("each d_h must sum to 1")
        object.__setattr__(self, "per_step", _frozen(d))

    @property
    def horizon(self) -> int:
        return self.per_step.shape[0]

    @property
    def average(self) -> Array:
        """(S, A) average over the H decision steps."""
        return self.per_step.mean(axis=0)

    def state_marginal(self) -> Array:
        """(S,) state distribution of the averaged occupancy."""
        return self.average.sum(axis=1)


@dataclass(frozen=True)
class Trajectory:
    """States s_0..s_H and actions a_0..a_{H-1}."""

    states: Array
    actions: Array

    def __post_init__(self):
        states = np.asarray(self.states)
        actions = np.asarray(self.actions, dtype=int)
        if len(states) != len(actions) + 1:
            raise ConfigurationError("need H+1 states for H actions")
        object.__setattr__(self, "states", _frozen(states))
        object.__setattr__(self, "actions", _frozen(actions))

    @property
    def horizon(self) -> int:
        return len(self.actions)


def _sample_row(row: Array, rng: np.random.Generator) -> int:
    # inverse-cdf draw, noticeably faster than rng.choice for small rows
    return int(np.searchsorted(np.cumsum(row), rng.random(), side="right"))


def rollout(env, policy: AnyPolicy, rng: np.random.Generator) -> Trajectory:
    """Sample one trajectory of ``policy`` in ``env``.

    Mixtures draw a single component for the whole episode. Deterministic for
    a fixed Generator state.
    """
    if isinstance(policy, MixedPolicy):
        policy = policy.sample_component(rng)
    if policy.horizon != env.horizon:
        raise ConfigurationError("policy horizon does not match environment")

    if isinstance(env, TabularMdp):
        states = np.empty(env.horizon + 1, dtype=int)
        actions = np.empty(env.horizon, dtype=int)
        s = env.init_state
        states[0] = s
        for h in range(env.horizon):
            if policy.is_open_loop:
                a = int(policy.action_seq[h])
            else:
                a = _sample_row(policy.action_probs[h, s], rng)
            s = _sample_row(env.kernel(h)[s, a], rng)
            actions[h] = a
            states[h + 1] = s
        return Trajectory(states=states, actions=actions)

    if isinstance(env, KnrSystem):
        states = np.empty((env.horizon + 1, env.state_dim))
        actions = np.empty(env.horizon, dtype=int)
        s = np.array(env.init_state, dtype=float)
        states[0] = s
        for h in range(env.horizon):
            if policy.is_open_loop:
                a = int(policy.action_seq[h])
            else:
                raise ConfigurationError("tabular policies are not defined on vector states")
            mean = env.step_mean(s, a)
            if env.noise_std > 0:
                s = mean + env.noise_std * rng.standard_normal(env.state_dim)
            else:
                s = mean
            actions[h] = a
            states[h + 1] = s
        return Trajectory(states=states, actions=actions)

    raise ConfigurationError(f"unsupported environment type {type(env).__name__}")


def occupancy_exact(mdp: TabularMdp, policy: AnyPolicy) -> OccupancyMeasure:
    """Forward dynamic program for d_h(s, a); mixtures combine exactly."""
    if isinstance(policy, MixedPolicy):
        parts = [occupancy_exact(mdp, c).per_step for c in policy.components]
        blend = np.tensordot(policy.weights, np.stack(parts), axes=1)
        return OccupancyMeasure(per_step=blend)

    if policy.horizon != mdp.horizon:
        raise ConfigurationError("policy horizon does not match environment")
    S, A, H = mdp.num_states, mdp.num_actions, mdp.horizon
    d = np.zeros((H, S, A))
    p = np.zeros(S)
    p[mdp.init_state] = 1.0
    for h in range(H):
        probs = policy.probs_at(h, S, A)
        d[h] = p[:, None] * probs
        # next-state distribution: sum_{s,a} d_h(s,a) P_h(s'|s,a)
        p = np.einsum("sa,sat->t", d[h], mdp.kernel(h))
    return OccupancyMeasure(per_step=d)


def _cost_table(cost, S: int, A: int) -> Array:
    """Normalize a cost spec ((S,), (S,A), or callable) to an (S, A) table."""
    if callable(cost):
        table = np.array([[float(cost(s, a)) for a in range(A)] for s in range(S)])
        return table
    arr = np.asarray(cost, dtype=float)
    if arr.shape == (S,):
        return np.repeat(arr[:, None], A, axis=1)
    if arr.shape == (S, A):
        return arr
    raise ConfigurationError("cost must be (S,), (S,A), or callable(s,a)")


def value_eval_tabular(mdp, policy: AnyPolicy, cost) -> float:
    """Expected total cost of ``policy`` under a tabular kernel, by backward DP.

    ``mdp`` is anything exposing horizon / num_states / num_actions /
    init_state / kernel(h). Equals H * <d_avg, cost> from occupancy_exact.
    """
    if isinstance(policy, MixedPolicy):
        vals = [value_eval_tabular(mdp, c, cost) for c in policy.components]
        return float(np.dot(policy.weights, vals))

    if policy.horizon != mdp.horizon:
        raise ConfigurationError("policy horizon does not match environment")
    S, A, H = mdp.num_states, mdp.num_actions, mdp.horizon
    c = _cost_table(cost, S, A)
    v = np.zeros(S)
    for h in range(H - 1, -1, -1):
        q = c + mdp.kernel(h) @ v  # (S, A)
        probs = policy.probs_at(h, S, A)
        v = (probs * q).sum(axis=1)
    return float(v[mdp.init_state])


def value_eval_mc(
    env: KnrSystem,
    policy: AnyPolicy,
    cost_fn: Callable[[Array], float],
    n_rollouts: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte-Carlo value over the H decision-step states, with a 95% half-width."""
    if n_rollouts < 2:
        raise ConfigurationError("n_rollouts must be >= 2")
    totals = np.empty(n_rollouts)
    for i in range(n_rollouts):
        traj = rollout(env, policy, rng)
        totals[i] = sum(float(cost_fn(traj.states[h])) for h in range(env.horizon))
    mean = float(totals.mean())
    half_width = float(1.96 * totals.std(ddof=1) / np.sqrt(n_rollouts))
    return mean, half_width
