"""Finite-horizon environments, policies, and exact occupancy / value machinery.

Tabular MDPs get exact forward (occupancy) and backward (value) dynamic
programs; continuous-state linear-Gaussian systems get Monte-Carlo rollouts.
The two exact best responses live here too, the backward-DP argmin and the
prefix-sharing open-loop search: the experts run them on the true system,
the planner on the learned model.
All sampling goes through an explicit numpy Generator so runs are replayable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

Array = np.ndarray

ROW_TOL = 1e-12
DIST_TOL = 1e-10

_OPEN_LOOP_ON_TABULAR = "an open-loop policy runs only on a KnrSystem"


def _frozen(arr: Array) -> Array:
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


class ConfigurationError(ValueError):
    """Raised when inputs violate a documented precondition."""


@dataclass(frozen=True)
class TabularMdp:
    """Episodic finite-horizon MDP with state costs in [0, 1].

    ``transitions`` is one (S, A, S) kernel shared by every timestep; its
    rows must be probability vectors.
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
        if self.transitions.ndim != 3:
            raise ConfigurationError("transitions must be (S, A, S)")
        S = self.transitions.shape[0]
        if self.transitions.shape[2] != S:
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
        return self.transitions.shape[0]

    @property
    def num_actions(self) -> int:
        return self.transitions.shape[1]


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
    """Nonstationary policy in one of three forms.

    A deterministic tabular policy is an (H, S) ``action_table`` of action
    indices in [0, num_actions); a stochastic one is an (H, S, A)
    ``probs`` distribution; an open-loop policy is a flat ``action_seq``,
    which runs only on a ``KnrSystem``.
    ``action_probs`` reads as the (H, S, A) distribution of either tabular
    form: for an action table it is the exact one-hot cube, built on demand.
    """

    action_table: Array | None = None
    num_actions: int | None = None
    probs: Array | None = None
    action_seq: Array | None = None

    def __post_init__(self):
        forms = (self.action_table, self.probs, self.action_seq)
        if sum(f is not None for f in forms) != 1:
            raise ConfigurationError(
                "exactly one of action_table / probs / action_seq required")
        if self.action_table is not None:
            table = np.asarray(self.action_table)
            if table.ndim != 2 or table.dtype.kind not in "iu":
                raise ConfigurationError("action_table must be (H, S) integers")
            if self.num_actions is None or self.num_actions < 1:
                raise ConfigurationError("an action table needs num_actions >= 1")
            if table.size and (table.min() < 0
                               or table.max() >= self.num_actions):
                raise ConfigurationError("action index out of range")
            object.__setattr__(self, "action_table", _frozen(table))
        elif self.probs is not None:
            probs = np.asarray(self.probs, dtype=float)
            if probs.ndim != 3:
                raise ConfigurationError("probs must be (H, S, A)")
            if np.any(probs < 0):
                raise ConfigurationError("negative action probability")
            if np.max(np.abs(probs.sum(axis=2) - 1.0)) > ROW_TOL:
                raise ConfigurationError("per-(h,s) action distribution must sum to 1")
            object.__setattr__(self, "probs", _frozen(probs))
        else:
            seq = np.asarray(self.action_seq, dtype=int)
            if seq.ndim != 1:
                raise ConfigurationError("action_seq must be a flat action list")
            object.__setattr__(self, "action_seq", _frozen(seq))

    @classmethod
    def tabular(cls, probs: Array) -> "Policy":
        return cls(probs=probs)

    @classmethod
    def deterministic(cls, actions: Array, num_actions: int) -> "Policy":
        """Build from an (H, S) table of action indices."""
        return cls(action_table=actions, num_actions=num_actions)

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
        if self.action_table is not None:
            return self.action_table.shape[0]
        return self.probs.shape[0]

    @property
    def action_probs(self) -> Array | None:
        """(H, S, A) action distribution; None for an open-loop policy."""
        if self.action_table is None:
            return self.probs
        return _frozen(_one_hot(self.action_table, self.num_actions))


def _one_hot(actions: Array, num_actions: int) -> Array:
    """Float indicator cube of an integer action array, on a new last axis."""
    return np.eye(num_actions).take(actions, axis=0)


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
        if policy.is_open_loop:
            raise ConfigurationError(_OPEN_LOOP_ON_TABULAR)
        states = np.empty(env.horizon + 1, dtype=int)
        actions = np.empty(env.horizon, dtype=int)
        s = env.init_state
        states[0] = s
        for h in range(env.horizon):
            if policy.action_table is not None:
                # the uniform draw an inverse-cdf sample of the one-hot row
                # would consume, so every rng stream matches a probs policy
                rng.random()
                a = int(policy.action_table[h, s])
            else:
                a = _sample_row(policy.probs[h, s], rng)
            s = _sample_row(env.transitions[s, a], rng)
            actions[h] = a
            states[h + 1] = s
        return Trajectory(states=states, actions=actions)

    if isinstance(env, KnrSystem):
        if not policy.is_open_loop:
            raise ConfigurationError("tabular policies are not defined on vector states")
        states = np.empty((env.horizon + 1, env.state_dim))
        actions = np.empty(env.horizon, dtype=int)
        s = np.array(env.init_state, dtype=float)
        states[0] = s
        for h in range(env.horizon):
            a = int(policy.action_seq[h])
            mean = env.step_mean(s, a)
            if env.noise_std > 0:
                s = mean + env.noise_std * rng.standard_normal(env.state_dim)
            else:
                s = mean
            actions[h] = a
            states[h + 1] = s
        return Trajectory(states=states, actions=actions)

    raise ConfigurationError(f"unsupported environment type {type(env).__name__}")


def _probs_stack(mdp, policies: Sequence[Policy]) -> Array:
    """(K, H, S, A) action distributions of K tabular policies on ``mdp``.

    Action tables become exact one-hot cubes in one indexing call over the
    whole stack; stochastic policies are copied in.
    """
    H, S, A = mdp.horizon, mdp.num_states, mdp.num_actions
    det, tables, soft = [], [], []
    for k, pol in enumerate(policies):
        if pol.horizon != H:
            raise ConfigurationError("policy horizon does not match environment")
        if pol.action_table is not None:
            if pol.num_actions != A or pol.action_table.shape != (H, S):
                raise ConfigurationError(
                    "action table does not match environment")
            tables.append(pol.action_table)
        elif pol.probs is None:
            raise ConfigurationError(_OPEN_LOOP_ON_TABULAR)
        elif pol.probs.shape != (H, S, A):
            raise ConfigurationError(
                "action probabilities do not match environment")
        else:
            soft.append((k, pol.probs))
            continue
        det.append(k)
    # np.array stacks the equal-shape tables faster than np.stack
    cubes = _one_hot(np.array(tables), A) if tables else None
    if not soft:
        return cubes
    out = np.empty((len(policies), H, S, A))
    if det:
        out[det] = cubes
    for k, probs in soft:
        out[k] = probs
    return out


def occupancy_stack(mdp, policies: Sequence[Policy]) -> Array:
    """(K, H, S, A) per-step occupancies of K policies.

    One forward pass batched over K; each slice equals the one-policy
    dynamic program bit for bit.
    """
    probs = _probs_stack(mdp, policies)
    K, H, S, _ = probs.shape
    d = np.empty_like(probs)
    # step-major views: indexing them is cheaper than d[:, h]
    d_steps, probs_steps = d.swapaxes(0, 1), probs.swapaxes(0, 1)
    p = np.zeros((K, S))
    p[:, mdp.init_state] = 1.0
    for h in range(H):
        np.multiply(p[:, :, None], probs_steps[h], out=d_steps[h])
        # next-state distribution: sum_{s,a} d_h(s,a) P(s'|s,a)
        p = np.einsum("ksa,sat->kt", d_steps[h], mdp.transitions)
    return d


def occupancy_exact(mdp: TabularMdp, policy: AnyPolicy) -> OccupancyMeasure:
    """Forward dynamic program for d_h(s, a); mixtures combine exactly.

    A mixture runs one forward pass over the stack of its components.
    """
    if isinstance(policy, MixedPolicy):
        parts = occupancy_stack(mdp, policy.components)
        return OccupancyMeasure(per_step=np.tensordot(policy.weights, parts,
                                                      axes=1))
    return OccupancyMeasure(per_step=occupancy_stack(mdp, (policy,))[0])


def _cost_table(cost, S: int, A: int) -> Array:
    """Normalize an (S,) or (S, A) cost to an (S, A) table."""
    arr = np.asarray(cost, dtype=float)
    if arr.shape == (S,):
        return np.repeat(arr[:, None], A, axis=1)
    if arr.shape == (S, A):
        return arr
    raise ConfigurationError("cost must be (S,) or (S, A)")


def state_values(mdp, policy: AnyPolicy, cost) -> Array:
    """(K, H+1, S) backward state values of the K components of ``policy``.

    K is 1 for a single policy; step H is zero. ``cost`` is (S,) or
    (S, A). One backward pass over the stack.
    """
    mixed = isinstance(policy, MixedPolicy)
    probs = _probs_stack(mdp, policy.components if mixed else (policy,))
    K, H, S, A = probs.shape
    c = _cost_table(cost, S, A)
    probs_steps = probs.swapaxes(0, 1)
    kernel = mdp.transitions[None]
    values = np.zeros((K, H + 1, S))
    v = np.zeros((K, S))
    for h in range(H - 1, -1, -1):
        # a stacked matmul sums in the order of one policy's kernel @ v
        q = c + (kernel @ v[:, None, :, None])[..., 0]
        v = (probs_steps[h] * q).sum(axis=-1)
        values[:, h] = v
    return values


def value_eval_tabular(mdp, policy: AnyPolicy, cost) -> float:
    """Expected total cost of ``policy`` from ``mdp.init_state``.

    The step-0 slice of ``state_values``; equals H * <d_avg, cost> from
    occupancy_exact. A mixture weights its components' values.
    """
    v0 = state_values(mdp, policy, cost)[:, 0, mdp.init_state]
    if not isinstance(policy, MixedPolicy):
        return float(v0[0])
    # contiguous, so the weighted sum matches one over a list of floats
    return float(np.dot(policy.weights, np.ascontiguousarray(v0)))


def best_response_tabular(mdp, cost) -> Policy:
    """Cost-minimizing deterministic nonstationary policy by backward DP.

    ``cost`` is (S,) or (S, A) and may be negative (bonus-lowered
    objectives). Ties go to the lowest action index.
    """
    S, A, H = mdp.num_states, mdp.num_actions, mdp.horizon
    c = _cost_table(cost, S, A)
    actions = np.zeros((H, S), dtype=np.int64)
    rows = np.arange(S)
    v = np.zeros(S)
    for h in range(H - 1, -1, -1):
        q = c + mdp.transitions @ v
        actions[h] = q.argmin(axis=1)
        v = q[rows, actions[h]]
    return Policy.deterministic(actions, num_actions=A)


def openloop_search(step: Callable, cost: Callable, init_state,
                    num_actions: int, horizon: int, ids: Array,
                    bonus: Callable | None = None) -> tuple[Array, float]:
    """Lowest-scoring open-loop action sequence among the indices ``ids``.

    A sequence's index reads its actions as base-A digits, the first
    action most significant; ``ids`` is sorted. A sequence scores
    sum_h cost(s_h) - bonus(s_h, a_h) along s_{h+1} = step(s_h, a_h),
    accumulated as (prefix + cost) - bonus. The nodes at depth h are the
    distinct prefixes ids // A^(H-1-h), so a common prefix is rolled out
    once. Ties go to the first minimum, the smallest index. Returns the
    sequence and its score.
    """
    A, H = num_actions, horizon
    ids = np.asarray(ids, dtype=np.int64)
    nodes = np.zeros(1, dtype=np.int64)  # the empty prefix
    states = [np.asarray(init_state, dtype=float)]
    scores = np.zeros(1)
    for h in range(H):
        children = np.unique(ids // A ** (H - 1 - h))
        parents = np.searchsorted(nodes, children // A)
        actions = (children % A).tolist()
        step_cost = np.array([float(cost(s)) for s in states])
        scores = scores[parents] + step_cost[parents]
        if bonus is not None:
            scores -= [float(bonus(states[p], a))
                       for p, a in zip(parents, actions)]
        if h < H - 1:
            states = [step(states[p], a) for p, a in zip(parents, actions)]
        nodes = children
    best = int(np.argmin(scores))
    seq = np.array(np.unravel_index(nodes[best], (A,) * H))
    return seq, float(scores[best])


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
