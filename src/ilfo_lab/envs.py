"""Finite-horizon environments, policies, and exact occupancy / value machinery.

Tabular MDPs get exact forward (occupancy) and backward (value) dynamic
programs; continuous-state linear-Gaussian systems get Monte-Carlo rollouts.
The two exact best responses live here too, the backward-DP argmin and the
prefix-sharing open-loop search: the experts run them on the true system,
the planner on the learned model.
All sampling goes through an explicit numpy Generator so runs are replayable.
"""

from __future__ import annotations

import contextlib
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence, Union

import numpy as np

Array = np.ndarray

ROW_TOL = 1e-12

_OPEN_LOOP_ON_TABULAR = "an open-loop policy runs only on a KnrSystem"


def _frozen(arr: Array) -> Array:
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


class ConfigurationError(ValueError):
    """Raised when inputs violate a documented precondition."""


def _as_int(name: str, value, kind: str = "integer") -> int:
    """``value`` through ``operator.index``: an int, never a rounded float
    or a bool."""
    if not isinstance(value, bool):
        with contextlib.suppress(TypeError):
            return operator.index(value)
    raise ConfigurationError(f"{name} {value!r} needs an {kind}")


def _int_actions(name: str, actions) -> Array:
    """``actions`` as an int array; a non-integer dtype, which casting
    would round or parse, is refused unless the list is empty."""
    arr = np.asarray(actions)
    if arr.size and arr.dtype.kind not in "iu":
        raise ConfigurationError(f"{name} must be integers, got {arr.dtype}")
    return np.asarray(arr, dtype=int)


def _int_fields(obj, *names: str) -> None:
    """Pass each named field of a frozen dataclass through ``_as_int``."""
    for name in names:
        object.__setattr__(obj, name, _as_int(name, getattr(obj, name)))


def _checked_start(horizon, init_state, num_states: int) -> tuple[int, int]:
    """An integer ``horizon`` >= 1 and an integer ``init_state`` in
    [0, num_states), with the messages of ``TabularMdp``."""
    horizon = _as_int("horizon", horizon)
    if horizon < 1:
        raise ConfigurationError("horizon must be >= 1")
    init_state = _as_int("init_state", init_state, "integer index")
    if not 0 <= init_state < num_states:
        raise ConfigurationError("init_state out of range")
    return horizon, init_state


def _checked_kernel(transitions) -> Array:
    """A frozen float (S, A, S) kernel whose rows are probability vectors,
    each summing to 1 within ``ROW_TOL``; a NaN row fails that sum."""
    p = np.asarray(transitions, dtype=float)
    if p.ndim != 3:
        raise ConfigurationError("transitions must be (S, A, S)")
    if p.shape[2] != p.shape[0]:
        raise ConfigurationError("kernel source and target state counts differ")
    if np.any(p < 0):
        raise ConfigurationError("negative transition probability")
    if not (np.abs(p.sum(axis=2) - 1.0) <= ROW_TOL).all():
        raise ConfigurationError("transition rows must sum to 1")
    return _frozen(p)


@dataclass(frozen=True)
class TabularMdp:
    """Episodic finite-horizon MDP with state costs in [0, 1].

    ``transitions`` is one (S, A, S) kernel shared by every timestep; its
    rows must be probability vectors, and ``horizon`` and ``init_state``
    integers.
    """

    horizon: int
    transitions: Array
    cost: Array
    init_state: int

    def __post_init__(self):
        object.__setattr__(self, "transitions", _checked_kernel(self.transitions))
        object.__setattr__(self, "cost", _frozen(np.asarray(self.cost, dtype=float)))
        S = self.transitions.shape[0]
        if self.cost.shape != (S,):
            raise ConfigurationError("cost must be one value per state")
        if not ((self.cost >= 0) & (self.cost <= 1)).all():
            raise ConfigurationError("costs must lie in [0, 1]")
        horizon, init_state = _checked_start(self.horizon, self.init_state, S)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "init_state", init_state)

    @property
    def num_states(self) -> int:
        return self.transitions.shape[0]

    @property
    def num_actions(self) -> int:
        return self.transitions.shape[1]

    @cached_property
    def cdf(self) -> Array:
        """The kernel's inverse-CDF table (see ``_cdf_table``), built on
        the first sample; the planner's model MDPs never sample."""
        return _frozen(_cdf_table(self.transitions))


@dataclass(frozen=True)
class KnrSystem:
    """Continuous-state system s' = weights @ features(s, a) + noise_std * N(0, I).

    ``features`` and ``cost`` act on the last axis: ``features(S, a)``
    maps (..., state_dim) states and (...) integer actions to
    (..., feature_dim) vectors, and ``cost(S)`` maps (..., state_dim)
    states to (...) costs. A single (state_dim,) state with an int action
    is the unbatched case. Both are probed on a two-row batch of
    ``init_state`` at construction. ``weights`` and ``init_state`` must
    be finite. Feature vectors must lie in the unit ball (checked on every
    row of every rollout step); costs are clamped to [0, 1] by
    ``cost_of``.
    """

    state_dim: int
    feature_dim: int
    features: Callable[[Array, Array], Array]
    weights: Array
    noise_std: float
    horizon: int
    num_actions: int
    init_state: Array
    cost: Callable[[Array], Array]

    def __post_init__(self):
        object.__setattr__(self, "weights", _frozen(np.asarray(self.weights, dtype=float)))
        object.__setattr__(self, "init_state", _frozen(np.asarray(self.init_state, dtype=float)))
        if self.weights.shape != (self.state_dim, self.feature_dim):
            raise ConfigurationError("weights must be (state_dim, feature_dim)")
        if not np.isfinite(self.weights).all():
            raise ConfigurationError("weights must be finite")
        if not 0 <= self.noise_std < math.inf:
            raise ConfigurationError("noise_std must be a finite number >= 0")
        if self.init_state.shape != (self.state_dim,):
            raise ConfigurationError("init_state must be a state_dim vector")
        if not np.isfinite(self.init_state).all():
            raise ConfigurationError("init_state must be finite")
        _int_fields(self, "horizon", "num_actions")
        if self.horizon < 1 or self.num_actions < 1:
            raise ConfigurationError("horizon and num_actions must be >= 1")
        batch = np.stack([self.init_state] * 2)
        probes = (("features", lambda: self.features(batch, np.zeros(2, dtype=int)),
                   (2, self.feature_dim)),
                  ("cost", lambda: self.cost(batch), (2,)))
        for name, probe, want in probes:
            try:
                got = np.shape(probe())
            except (TypeError, ValueError, IndexError) as exc:
                raise ConfigurationError(
                    f"{name} must act on the last axis of a (2, state_dim) "
                    f"batch: {exc}") from exc
            if got != want:
                raise ConfigurationError(
                    f"{name} returned shape {got} on a (2, state_dim) batch, "
                    f"expected {want}")

    def feature(self, state: Array, action) -> Array:
        """``features`` with its shape and every row's norm checked."""
        phi = np.asarray(self.features(state, action), dtype=float)
        if phi.shape != np.shape(state)[:-1] + (self.feature_dim,):
            raise ConfigurationError("feature map returned wrong dimension")
        nrm = np.sqrt(np.vecdot(phi, phi)).max()
        if nrm > 1.0 + 1e-9:
            raise ConfigurationError(f"feature norm {nrm:.6f} exceeds 1")
        return phi

    def step_mean(self, state: Array, action) -> Array:
        # matvec rounds each row exactly as the one-state weights @ phi
        return np.matvec(self.weights, self.feature(state, action))

    def cost_of(self, state: Array):
        """``cost`` clamped to [0, 1]: a float for one state, else an array."""
        c = np.clip(self.cost(state), 0.0, 1.0)
        return float(c) if c.ndim == 0 else c


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
            num_actions = self.num_actions
            if num_actions is not None:
                num_actions = _as_int("num_actions", num_actions)
            if num_actions is None or num_actions < 1:
                raise ConfigurationError("an action table needs num_actions >= 1")
            if table.size and (table.min() < 0 or table.max() >= num_actions):
                raise ConfigurationError("action index out of range")
            object.__setattr__(self, "action_table", _frozen(table))
            object.__setattr__(self, "num_actions", num_actions)
        elif self.probs is not None:
            probs = np.asarray(self.probs, dtype=float)
            if probs.ndim != 3:
                raise ConfigurationError("probs must be (H, S, A)")
            if np.any(probs < 0):
                raise ConfigurationError("negative action probability")
            # written so that a NaN row fails too, as in _checked_kernel
            if not (np.abs(probs.sum(axis=2) - 1.0) <= ROW_TOL).all():
                raise ConfigurationError("per-(h,s) action distribution must sum to 1")
            object.__setattr__(self, "probs", _frozen(probs))
        else:
            seq = _int_actions("action_seq", self.action_seq)
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
        return cls(action_seq=seq)

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


class MixedPolicy:
    """Explicit finite mixture of K policies, in one of two forms.

    The component form, ``MixedPolicy(components, weights)``, holds the K
    policies themselves, of any form; ``distinct`` holds each component
    object once, in order of first occurrence. The table form,
    ``MixedPolicy.from_tables(tables, num_actions, inverse, weights)``,
    holds one frozen (D, H, S) integer stack ``tables`` of deterministic
    action tables, one row per distinct component, and builds no
    ``Policy`` until one is read: ``distinct`` and ``components`` are
    ``Policy`` views of its rows, built on first read and kept. In both
    forms the (K,) ``inverse`` gives each component's row of
    ``distinct``, so ``distinct[inverse[i]] is components[i]``;
    ``tables`` and ``num_actions`` are None in the component form.

    Components are never collapsed for sampling or weights: a component
    listed twice is drawn and weighted twice.
    """

    tables: Array | None = None
    num_actions: int | None = None

    def __init__(self, components, weights):
        comps = tuple(components)
        if not comps:
            raise ConfigurationError("mixture needs at least one component")
        slots = {}
        inverse = [slots.setdefault(id(c), len(slots)) for c in comps]
        self.__dict__.update(
            components=comps,
            distinct=tuple({id(c): c for c in comps}.values()),
            inverse=_frozen(inverse),
            weights=_checked_weights(weights, len(comps)))

    @classmethod
    def from_tables(cls, tables, num_actions, inverse,
                    weights) -> "MixedPolicy":
        """The table form: row j of the (D, H, S) integer stack ``tables``
        is the action table of distinct component j, ``inverse[i]`` the
        row of component i and ``weights[i]`` its weight. The stack is
        checked once, as a whole: integer dtype, ndim 3 and every action
        in [0, num_actions)."""
        tables = np.asarray(tables)
        if tables.ndim != 3 or tables.dtype.kind not in "iu":
            raise ConfigurationError("tables must be a (D, H, S) integer stack")
        num_actions = _as_int("num_actions", num_actions)
        if num_actions < 1:
            raise ConfigurationError("an action table needs num_actions >= 1")
        if tables.size and (tables.min() < 0 or tables.max() >= num_actions):
            raise ConfigurationError("action index out of range")
        inverse = np.asarray(inverse)
        if not inverse.size:
            raise ConfigurationError("mixture needs at least one component")
        if inverse.ndim != 1 or inverse.dtype.kind not in "iu":
            raise ConfigurationError("inverse must be (K,) integers")
        if inverse.min() < 0 or inverse.max() >= len(tables):
            raise ConfigurationError("inverse index out of range")
        mixture = cls.__new__(cls)
        # one key dtype, so that equal tables have equal bytes
        stack = np.array(tables, dtype=np.intp)
        stack.setflags(write=False)
        mixture.__dict__.update(
            tables=stack, num_actions=num_actions, inverse=_frozen(inverse),
            weights=_checked_weights(weights, len(inverse)))
        return mixture

    def __setattr__(self, name, value):
        raise AttributeError(f"MixedPolicy is frozen: cannot set {name!r}")

    @cached_property
    def distinct(self) -> tuple:
        """One ``Policy`` per row of ``tables`` (table form only; the
        component form sets it at construction)."""
        return tuple(Policy(action_table=table, num_actions=self.num_actions)
                     for table in self.tables)

    @cached_property
    def components(self) -> tuple:
        """The K components, each the ``distinct`` view of its row (table
        form only; the component form sets it at construction)."""
        distinct = self.distinct
        return tuple(distinct[j] for j in self.inverse.tolist())


def _checked_weights(weights, k: int) -> Array:
    """Frozen float (k,) mixture weights, nonnegative and summing to 1
    within ``ROW_TOL``; written so that a NaN weight fails."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (k,):
        raise ConfigurationError("one weight per component required")
    if not ((w >= 0).all() and abs(w.sum() - 1.0) <= ROW_TOL):
        raise ConfigurationError("weights must be nonnegative and sum to 1")
    return _frozen(w)


AnyPolicy = Union[Policy, MixedPolicy]


@dataclass(frozen=True)
class Trajectory:
    """States s_0..s_H, integer indices or float vectors, and actions
    a_0..a_{H-1}."""

    states: Array
    actions: Array

    def __post_init__(self):
        states = np.asarray(self.states)
        if states.dtype.kind not in "iuf":
            raise ConfigurationError(
                f"states must be integers or floats, got {states.dtype}")
        actions = _int_actions("actions", self.actions)
        if len(states) != len(actions) + 1:
            raise ConfigurationError("need H+1 states for H actions")
        object.__setattr__(self, "states", _frozen(states))
        object.__setattr__(self, "actions", _frozen(actions))

    @property
    def horizon(self) -> int:
        return len(self.actions)


def _cdf_table(probs: Array) -> Array:
    """Inverse-CDF rows of the distributions on the last axis of ``probs``.

    The cumulative sums, except that each row's last entry with positive
    probability, and every entry after it, reads +inf: a uniform at or
    above the row's total, which a row summing to 1 - 1e-12 leaves room
    for, then draws that last entry rather than an index past the row.
    Below the total, ``_draw`` returns the cumsum's draw.
    """
    cdf = np.cumsum(probs, axis=-1)
    k = probs.shape[-1]
    last = k - 1 - np.argmax(probs[..., ::-1] > 0, axis=-1)
    cdf[np.arange(k) >= last[..., None]] = np.inf
    return cdf


def _draw(cdf: Array, u: Array) -> Array:
    """Index drawn by each uniform of ``u`` from its CDF row.

    The first entry above u: on a nondecreasing row whose last entry
    exceeds every uniform, the count of entries <= u, which is
    ``searchsorted(side="right")``.
    """
    return (cdf > u[..., None]).argmax(axis=-1)


def _components(mixture: MixedPolicy, u: Array) -> Array:
    """Each episode's row of ``mixture.distinct`` (and of its ``tables``),
    from its uniform, drawn as ``Generator.choice(K, p=weights)`` draws
    it from the same uniform."""
    cdf = mixture.weights.cumsum()
    cdf /= cdf[-1]
    return mixture.inverse[cdf.searchsorted(u, side="right")]


def rollouts(env, policy: AnyPolicy, n: int,
             rng: np.random.Generator) -> tuple[Array, Array]:
    """Sample ``n`` episodes of ``policy`` in ``env`` at once.

    Returns (n, H+1) states and (n, H) actions; on a ``KnrSystem`` the
    states are (n, H+1, state_dim). A mixture draws one component per
    episode. The draws are exactly those of n one-episode samples in a
    row, and leave ``rng`` in the same state; an episode takes its
    component's uniform first, then per step a uniform for the action
    (an action table consumes it too) and one for the next state on a
    ``TabularMdp``, or its (H, state_dim) noise on a noisy ``KnrSystem``.
    A table-form mixture is checked against a ``TabularMdp`` as one stack
    and its episodes index that stack; a component-form mixture checks
    and stacks its distinct components.
    """
    if n < 1:
        raise ConfigurationError("need at least one episode")
    if isinstance(env, TabularMdp):
        return _tabular_rollouts(env, policy, n, rng)
    if isinstance(env, KnrSystem):
        return _knr_rollouts(env, policy, n, rng)
    raise ConfigurationError(f"unsupported environment type {type(env).__name__}")


def _tabular_rollouts(mdp, policy, n, rng):
    H, S, A = mdp.horizon, mdp.num_states, mdp.num_actions
    mixed = isinstance(policy, MixedPolicy)
    # action tables are looked up; any stochastic component draws every action
    if mixed and policy.tables is not None:
        _check_tables(policy, H, S, A)
        tables = policy.tables
    else:
        comps = policy.distinct if mixed else (policy,)
        for pol in comps:
            _check_tabular(pol, H, S, A)
        tables = _action_tables(comps)
    action_cdf = None if tables is not None else _cdf_table(
        np.array([pol.action_probs for pol in comps]))
    u = rng.random((n, 2 * H + mixed))
    which = _components(policy, u[:, 0]) if mixed else np.zeros(n, dtype=int)
    # (n, H) views: the uniforms of each step's action and next state
    u_action, u_next = u[:, mixed::2], u[:, mixed + 1::2]
    states = np.empty((n, H + 1), dtype=int)
    states[:, 0] = mdp.init_state
    actions = np.empty((n, H), dtype=int)
    for h in range(H):
        s = states[:, h]
        a = actions[:, h] = (tables[which, h, s] if tables is not None
                             else _draw(action_cdf[which, h, s], u_action[:, h]))
        states[:, h + 1] = _draw(mdp.cdf[s, a], u_next[:, h])
    return states, actions


def _knr_rollouts(env, policy, n, rng):
    comps = policy.distinct if isinstance(policy, MixedPolicy) else (policy,)
    if any(pol.horizon != env.horizon for pol in comps):
        raise ConfigurationError("policy horizon does not match environment")
    if not all(pol.is_open_loop for pol in comps):
        raise ConfigurationError("tabular policies are not defined on vector states")
    seqs = np.array([pol.action_seq for pol in comps])
    if seqs.min() < 0 or seqs.max() >= env.num_actions:
        raise ConfigurationError("action index out of range")
    H, d = env.horizon, env.state_dim
    mixed, noisy = isinstance(policy, MixedPolicy), env.noise_std > 0
    u, noise = np.empty(n), np.empty((n, H, d))
    for i in range(n):   # one episode's stream: its component, then its noise
        if mixed:
            u[i] = rng.random()
        if noisy:
            noise[i] = rng.standard_normal((H, d))
    which = _components(policy, u) if mixed else np.zeros(n, dtype=int)
    actions = seqs[which]
    states = np.empty((n, H + 1, d))
    states[:, 0] = env.init_state
    for h in range(H):
        mean = env.step_mean(states[:, h], actions[:, h])
        # a noise-free state is the mean itself, as one episode took it
        states[:, h + 1] = mean + env.noise_std * noise[:, h] if noisy else mean
    return states, actions


def rollout(env, policy: AnyPolicy, rng: np.random.Generator) -> Trajectory:
    """Sample one trajectory of ``policy`` in ``env``: ``rollouts`` with n=1."""
    states, actions = rollouts(env, policy, 1, rng)
    return Trajectory(states=states[0], actions=actions[0])


def _check_tabular(pol: Policy, H: int, S: int, A: int) -> None:
    """Reject a policy that is not a tabular policy on (H, S, A)."""
    if pol.horizon != H:
        raise ConfigurationError("policy horizon does not match environment")
    if pol.action_table is not None:
        if pol.num_actions != A or pol.action_table.shape != (H, S):
            raise ConfigurationError("action table does not match environment")
    elif pol.probs is None:
        raise ConfigurationError(_OPEN_LOOP_ON_TABULAR)
    elif pol.probs.shape != (H, S, A):
        raise ConfigurationError(
            "action probabilities do not match environment")


def _check_tables(mixture: MixedPolicy, H: int, S: int, A: int) -> None:
    """Reject a table-form mixture whose stack is not (D, H, S) over A
    actions."""
    if mixture.num_actions != A or mixture.tables.shape[1:] != (H, S):
        raise ConfigurationError(
            f"action tables with (H, S) = {mixture.tables.shape[1:]} and "
            f"num_actions = {mixture.num_actions} do not match the "
            f"environment's (H, S) = {(H, S)} and num_actions = {A}")


def _check_items(mdp, items: Sequence[AnyPolicy]) -> None:
    """Check every policy and mixture of a sequence against ``mdp``: a
    table-form mixture as one stack, anything else per component."""
    H, S, A = mdp.horizon, mdp.num_states, mdp.num_actions
    if not items:
        raise ConfigurationError("need at least one policy to evaluate")
    for pol in items:
        if isinstance(pol, MixedPolicy):
            if pol.tables is not None:
                _check_tables(pol, H, S, A)
                continue
            comps = pol.distinct
        elif isinstance(pol, Policy):
            comps = (pol,)
        else:
            raise ConfigurationError(
                f"expected a Policy or MixedPolicy, got {type(pol).__name__}")
        for comp in comps:
            _check_tabular(comp, H, S, A)


def _action_tables(policies: Sequence[Policy]) -> Array | None:
    """(K, H, S) action tables of K policies, or None if any is stochastic."""
    if all(pol.action_table is not None for pol in policies):
        # np.array stacks the equal-shape tables faster than np.stack
        return np.array([pol.action_table for pol in policies])
    return None


def _stack_rows(policy: AnyPolicy) -> list:
    """(key, row) of each row that a policy or mixture adds to a stacked
    pass: one for a ``Policy``, one per row of ``distinct`` (or of
    ``tables``) for a mixture.

    An action table's row is its (H, S) table, keyed on its bytes as
    ``intp``, so equal tables share a key whichever object or form holds
    them; a stochastic policy's row is its (H, S, A) ``probs``, keyed on
    the object's identity. The policies are not checked.
    """
    if isinstance(policy, MixedPolicy):
        if policy.tables is not None:
            return [(table.tobytes(), table) for table in policy.tables]
        comps = policy.distinct
    else:
        comps = (policy,)
    rows = []
    for pol in comps:
        if pol.action_table is None:
            rows.append((id(pol), pol.probs))
        else:
            table = np.asarray(pol.action_table, dtype=np.intp)
            rows.append((table.tobytes(), table))
    return rows


def _stack(mdp, items: Sequence[AnyPolicy]) -> tuple[Array, list]:
    """The (K, H, S, A) action distributions that a sequence of policies
    and mixtures runs through one pass, and each item's rows into them.

    Every item is checked against ``mdp`` first. The rows are those of
    ``_stack_rows``, deduped by key across the whole sequence in order of
    first occurrence: an action table is stacked once per content, a
    stochastic policy once per object. A mixture's rows are one per
    component (its ``inverse`` mapped into the stack); a policy's row is
    one int. A stack of action tables becomes exact one-hot cubes in one
    indexing call; if any row is stochastic, each table row is its own
    one-hot cube.
    """
    _check_items(mdp, items)
    slots, entries, rows = {}, [], []
    for pol in items:
        at = []
        for key, entry in _stack_rows(pol):
            slot = slots.setdefault(key, len(entries))
            if slot == len(entries):
                entries.append(entry)
            at.append(slot)
        rows.append(np.array(at)[pol.inverse]
                    if isinstance(pol, MixedPolicy) else at[0])
    A = mdp.num_actions
    if all(entry.ndim == 2 for entry in entries):
        return _one_hot(np.array(entries), A), rows
    return np.array([_one_hot(entry, A) if entry.ndim == 2 else entry
                     for entry in entries]), rows


def _as_items(policy: AnyPolicy | Sequence[AnyPolicy]) -> tuple[list, bool]:
    """(items, single): a policy or mixture is the one-item sequence."""
    if isinstance(policy, (Policy, MixedPolicy)):
        return [policy], True
    return list(policy), False


def occupancy_stack(mdp, probs: Array) -> Array:
    """(K, H, S, A) per-step occupancies of a (K, H, S, A) stack of action
    distributions, which is not checked against ``mdp``.

    One forward pass batched over K; each slice equals the one-policy
    dynamic program bit for bit, so stochastic rows and the one-hot cubes
    of action tables can share a pass.
    """
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


def occupancy_exact(mdp: TabularMdp,
                    policy: AnyPolicy | Sequence[AnyPolicy]) -> Array:
    """Forward dynamic program for d_h(s, a); mixtures combine exactly.

    ``policy`` is a policy or a mixture of either form, which returns its
    (H, S, A) per-step occupancy, or a sequence of them, which returns
    the (n, H, S, A) stack of its items'. The rows of the whole sequence
    (each distinct action table by content, each stochastic component by
    identity; see ``_stack``) run one forward pass; a mixture then
    expands its rows back to one per component before the weighted sum
    over all K rows, so every item equals its own one-item call, and a
    table-form mixture its component-form twin, bit for bit.
    """
    items, single = _as_items(policy)
    probs, rows = _stack(mdp, items)
    d = occupancy_stack(mdp, probs)
    del probs   # freed before the per-item sums allocate theirs
    out = [np.tensordot(pol.weights, d[r], axes=1)
           if isinstance(pol, MixedPolicy) else d[r]
           for pol, r in zip(items, rows)]
    return out[0] if single else np.array(out)


def _cost_table(cost, S: int, A: int) -> Array:
    """Normalize an (S,) or (S, A) cost to an (S, A) table."""
    arr = np.asarray(cost, dtype=float)
    if arr.shape == (S,):
        return np.repeat(arr[:, None], A, axis=1)
    if arr.shape == (S, A):
        return arr
    raise ConfigurationError("cost must be (S,) or (S, A)")


def _values_stack(mdp, probs: Array, cost) -> Array:
    """(K, H+1, S) backward state values of a (K, H, S, A) stack of action
    distributions; step H is zero.

    One backward pass batched over K; each slice equals the one-policy
    dynamic program bit for bit.
    """
    n, H, S, A = probs.shape
    c = _cost_table(cost, S, A)
    probs_steps = probs.swapaxes(0, 1)
    kernel = mdp.transitions[None]
    values = np.zeros((n, H + 1, S))
    v = np.zeros((n, S))
    for h in range(H - 1, -1, -1):
        # a stacked matmul sums in the order of one policy's kernel @ v
        q = c + (kernel @ v[:, None, :, None])[..., 0]
        v = (probs_steps[h] * q).sum(axis=-1)
        values[:, h] = v
    return values


def state_values(mdp, policy: Policy, cost) -> Array:
    """(H+1, S) backward state values of one tabular policy; step H is
    zero. ``cost`` is (S,) or (S, A). A mixture has no values of its own
    and is rejected."""
    if not isinstance(policy, Policy):
        raise ConfigurationError(
            "state values take one Policy, not a mixture: got "
            f"{type(policy).__name__}")
    return _values_stack(mdp, _stack(mdp, [policy])[0], cost)[0]


def value_eval_tabular(mdp, policy: AnyPolicy | Sequence[AnyPolicy],
                       cost) -> float | Array:
    """Expected total cost from ``mdp.init_state``.

    ``policy`` is a policy, a mixture of either form, or a sequence of
    them; a sequence returns an (n,) array, one value per item, and a
    single policy or mixture returns a float as its one-item case. The
    rows of the whole sequence (each distinct action table by content,
    each stochastic component by identity; see ``_stack``) run one
    backward pass; a mixture weights its components' step-0 values. Each
    value equals H * <d_avg, cost> from ``occupancy_exact``, and its own
    one-item call, and a table-form mixture its component-form twin, bit
    for bit.
    """
    items, single = _as_items(policy)
    probs, rows = _stack(mdp, items)
    v0 = _values_stack(mdp, probs, cost)[:, 0, mdp.init_state]
    # v0[r] is contiguous, so a weighted sum matches one over a list of floats
    out = [float(np.dot(pol.weights, v0[r])) if isinstance(pol, MixedPolicy)
           else float(v0[r]) for pol, r in zip(items, rows)]
    return out[0] if single else np.array(out)


def best_response_tables(mdp, costs: Array) -> Array:
    """(K, H, S) cost-minimizing action tables of K (S, A) cost tables,
    from one backward DP over the stack.

    Costs may be negative (bonus-lowered objectives). Ties go to the
    lowest action index. The pass fills the (H, K, S, A) Q stack and
    carries each step's row minima; one argmin over the stack then takes
    every action table, as a per-step argmin and a gather of its Q values
    would. A stacked matmul sums in the order of one cost's kernel @ v, so
    each slice equals its own one-cost pass bit for bit.
    """
    S, A, H = mdp.num_states, mdp.num_actions, mdp.horizon
    costs = np.asarray(costs, dtype=float)
    if costs.shape[1:] != (S, A):
        raise ConfigurationError("costs must be (K, S, A)")
    kernel = mdp.transitions[None]
    q = np.empty((H, *costs.shape))
    v = np.zeros(costs.shape[:2])
    for h in range(H - 1, -1, -1):
        q_h = q[h]
        np.add(costs, (kernel @ v[:, None, :, None])[..., 0], out=q_h)
        v = np.minimum.reduce(q_h, axis=2)
    return q.argmin(axis=3).swapaxes(0, 1)


def best_response_tabular(mdp, cost) -> Policy:
    """Cost-minimizing deterministic nonstationary policy by backward DP:
    the one-cost case of ``best_response_tables``. ``cost`` is (S,) or
    (S, A)."""
    c = _cost_table(cost, mdp.num_states, mdp.num_actions)
    return Policy.deterministic(best_response_tables(mdp, c[None])[0],
                                num_actions=mdp.num_actions)


class OpenLoopTree:
    """The nominal tree of open-loop action prefixes from one start state.

    Node (h, p) is the length-h prefix whose actions, read as base-A
    digits with the first action most significant, make the integer p;
    its children are (h + 1, A p + a). A node's state is ``step`` applied
    along its prefix from ``init_state``, its features are ``featurize``
    of its state (the state itself when ``featurize`` is None), and the
    edge into (h + 1, c) carries ``bonus`` of the state of (h, c // A) and
    the action c % A. ``step``, ``featurize`` and ``bonus`` act on the
    last axis, and each must round a row as it would that row alone. A
    depth is built with one call of each over its distinct prefixes, and
    nothing is cached per node: the tree keeps the layers of the last id
    set searched, so searching the same ids again only evaluates the cost.
    """

    def __init__(self, step: Callable, init_state, num_actions: int,
                 horizon: int, bonus: Callable | None = None,
                 featurize: Callable | None = None):
        self.step, self.bonus, self.featurize = step, bonus, featurize
        self.num_actions, self.horizon = num_actions, horizon
        self.init_state = np.asarray(init_state, dtype=float)
        self._layers_key, self._layers = None, None

    def layers(self, ids: Array) -> tuple[list, Array]:
        """The search layers over the sorted sequence ids ``ids``.

        At depth h the nodes are the distinct prefixes ids // A^(H-h) and
        their children the distinct prefixes one action longer. A layer
        is the nodes' (n, d) states and their features, each child's
        parent index and the children's edge bonuses (None without a
        bonus); the second value is the leaves, the distinct ids.
        """
        key = ids.tobytes()
        if key != self._layers_key:
            A, H = self.num_actions, self.horizon
            layers = []
            nodes = np.zeros(1, dtype=np.int64)  # the empty prefix
            states = self.init_state.reshape(1, -1)
            for h in range(H):
                children = np.unique(ids // A ** (H - 1 - h))
                parents = np.searchsorted(nodes, children // A)
                # each edge's source state and action
                edges = states[parents], children % A
                features = (states if self.featurize is None
                            else self.featurize(states))
                bonuses = None if self.bonus is None else np.asarray(
                    self.bonus(*edges), dtype=float)
                layers.append((states, features, parents, bonuses))
                if h + 1 < H:
                    states = self.step(*edges)
                nodes = children
            self._layers_key, self._layers = key, (layers, nodes)
        return self._layers

    def path(self, seq) -> tuple[Array, Array | None]:
        """(H, d) states s_0..s_{H-1} and the H edge bonuses b(s_h, a_h)
        (None without a bonus) along ``seq``, one of the leaves of the
        last ids searched."""
        layers, leaves = self._layers
        A, H = self.num_actions, self.horizon
        i = int(np.searchsorted(leaves, np.ravel_multi_index(seq, (A,) * H)))
        states = np.empty((H, self.init_state.size))
        bonuses = None if self.bonus is None else np.empty(H)
        for h in range(H - 1, -1, -1):
            layer_states, _, parents, layer_bonuses = layers[h]
            if bonuses is not None:
                bonuses[h] = layer_bonuses[i]
            i = parents[i]
            states[h] = layer_states[i]
        return states, bonuses


def openloop_search(tree: OpenLoopTree, cost: Callable,
                    ids: Array) -> tuple[Array, float]:
    """Lowest-scoring open-loop action sequence of ``tree`` among ``ids``.

    A sequence's index reads its actions as base-A digits, the first
    action most significant; ``ids`` is sorted. A sequence scores
    sum_h cost(f_h) - bonus(s_h, a_h), where f_h are the tree's features
    of s_h (s_h itself unless the tree featurizes), accumulated as
    (prefix + cost) - bonus. ``cost`` maps a depth's (n, ...) features to
    (n,) costs in one call, each row rounded as if alone. The layers come
    from the tree, so a search over the ids it searched last only
    evaluates ``cost``. Ties go to the first minimum, the smallest index.
    Returns the sequence and its score.
    """
    layers, leaves = tree.layers(np.asarray(ids, dtype=np.int64))
    scores = np.zeros(1)
    for _, features, parents, bonuses in layers:
        scores = scores[parents] + cost(features)[parents]
        if bonuses is not None:
            scores -= bonuses
    best = int(np.argmin(scores))
    seq = np.unravel_index(leaves[best], (tree.num_actions,) * tree.horizon)
    return np.array(seq), float(scores[best])


def value_eval_mc(
    env: KnrSystem,
    policy: AnyPolicy,
    cost_fn: Callable[[Array], Array],
    n_rollouts: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte-Carlo value over the H decision-step states, with a 95% half-width.

    ``cost_fn`` maps the (n_rollouts, H, ...) decision states to
    (n_rollouts, H) costs in one call; a scalar return is every state's cost.
    """
    if n_rollouts < 2:
        raise ConfigurationError("n_rollouts must be >= 2")
    H = env.horizon
    states, _ = rollouts(env, policy, n_rollouts, rng)
    costs = np.asarray(cost_fn(states[:, :H]), dtype=float)
    if costs.shape not in ((), (n_rollouts, H)):
        raise ConfigurationError(
            f"cost_fn returned shape {costs.shape} for "
            f"{(n_rollouts, H)} states")
    costs = np.broadcast_to(costs, (n_rollouts, H))
    totals = np.zeros(n_rollouts)
    for h in range(H):   # left to right, as Python's sum of one episode's costs
        totals += costs[:, h]
    mean = float(totals.mean())
    half_width = float(1.96 * totals.std(ddof=1) / np.sqrt(n_rollouts))
    return mean, half_width
