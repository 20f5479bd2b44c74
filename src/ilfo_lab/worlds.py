"""Named example environments used by tests, the acceptance suite, and the CLI."""

from __future__ import annotations

import numpy as np

from .envs import ConfigurationError, KnrSystem, TabularMdp

Array = np.ndarray

CHAIN_STAY, CHAIN_RIGHT, CHAIN_LEFT = 0, 1, 2


def make_chain(num_states: int = 6, num_actions: int = 3, horizon: int = 5,
               slip: float = 0.1) -> TabularMdp:
    """Line of states with cost decreasing toward the far end.

    Action 1 moves right (slips in place with probability ``slip``), action 2
    moves left, everything else stays. The cheap states are only reached by
    walking the whole line, so imitation needs actual progress.
    """
    S, A = num_states, num_actions
    if S < 2:
        raise ConfigurationError("num_states must be >= 2: a start and an end")
    if A < 2:
        raise ConfigurationError("num_actions must be >= 2: stay and right")
    if not 0.0 <= slip <= 1.0:
        raise ConfigurationError("slip must lie in [0, 1]")
    P = np.zeros((S, A, S))
    for s in range(S):
        for a in range(A):
            if a == CHAIN_RIGHT:
                nxt = min(s + 1, S - 1)
                P[s, a, nxt] += 1.0 - slip
                P[s, a, s] += slip
            elif a == CHAIN_LEFT and A > 2:
                P[s, a, max(s - 1, 0)] = 1.0
            else:
                P[s, a, s] = 1.0
    cost = 1.0 - np.arange(S) / (S - 1)
    return TabularMdp(horizon=horizon, transitions=P, cost=cost, init_state=0)


def make_combination_lock(n_chain: int = 6, num_actions: int = 6,
                          horizon: int = 12, q: float = 0.8,
                          code_seed: int = 7) -> TabularMdp:
    """Secret-code chain with tempting leaky shortcuts; pays only at the end.

    States 0..n_chain-1 form the chain (the last is the goal), state n_chain
    is an absorbing trap. Action 0 stays put. Actions 1..3 all advance with
    probability ``q`` and fall into the trap otherwise. One secret action per
    state (index 4 or 5, seeded) advances cleanly; the remaining deep action
    traps. Cost is 1 everywhere except the goal, so only reliably walking the
    whole chain scores.

    Distribution matching alone settles for the low-index shortcuts: once a
    mostly-working route exists, an unvisited row spreads its mass too thin
    to look better, and three redundant shortcuts per state mean the ascending
    sweep essentially never runs past them into the secret action. The leak
    keeps the matcher's regret pinned well above 0.1 * horizon, while a
    width-driven bonus still has a reason to visit the untouched deep rows.
    """
    A = num_actions
    if A != 6:
        raise ConfigurationError("num_actions must be 6, the lock's layout")
    if not 0.0 < q <= 1.0:
        raise ConfigurationError("q must lie in (0, 1]")
    if n_chain < 2:
        raise ConfigurationError("n_chain must be >= 2: a start and a goal")
    if code_seed < 0:
        raise ConfigurationError("code_seed must be >= 0")
    S = n_chain + 1
    goal, trap = n_chain - 1, n_chain
    code = np.random.default_rng(code_seed).integers(4, A, size=n_chain)
    P = np.zeros((S, A, S))
    for s in range(n_chain):
        nxt = min(s + 1, goal)
        for a in range(A):
            if a == CHAIN_STAY:
                P[s, a, s] = 1.0
            elif a == code[s]:
                P[s, a, nxt] = 1.0
            elif a <= 3:
                P[s, a, nxt] = q
                P[s, a, trap] = 1.0 - q
            else:
                P[s, a, trap] = 1.0
    P[trap, :, trap] = 1.0
    cost = np.ones(S)
    cost[goal] = 0.0
    return TabularMdp(horizon=horizon, transitions=P, cost=cost, init_state=0)


def make_two_state(p_forward: float, horizon: int = 1) -> TabularMdp:
    """Two states, one action: s0 -> s1 with probability ``p_forward``, s1 absorbing."""
    if not 0.0 <= p_forward <= 1.0:
        raise ConfigurationError("p_forward must lie in [0, 1]")
    P = np.zeros((2, 1, 2))
    P[0, 0] = [1.0 - p_forward, p_forward]
    P[1, 0] = [0.0, 1.0]
    return TabularMdp(horizon=horizon, transitions=P, cost=np.array([1.0, 0.0]), init_state=0)


def make_random_mdp(rng: np.random.Generator, num_states: int, num_actions: int,
                    horizon: int) -> TabularMdp:
    """Dirichlet transition rows and uniform state costs; init state 0."""
    S, A, H = num_states, num_actions, horizon
    P = rng.dirichlet(np.ones(S), size=(S, A))
    cost = rng.random(S)
    return TabularMdp(horizon=H, transitions=P, cost=cost, init_state=0)


def make_random_policy(rng: np.random.Generator, num_states: int, num_actions: int,
                       horizon: int):
    from .envs import Policy

    probs = rng.dirichlet(np.ones(num_actions), size=(horizon, num_states))
    return Policy.tabular(probs)


def _norm_clip(s: Array) -> Array:
    """Each state on the last axis scaled into the unit ball."""
    nrm = np.sqrt(np.vecdot(s, s))[..., None]
    return s / np.maximum(1.0, nrm)


def make_knr_example(noise_std: float = 0.05, horizon: int = 4) -> KnrSystem:
    """Two-dimensional contracting system with two actions and feature dim 4.

    features(s, a) = [clip(s); one_hot(a)] / sqrt(2), which keeps the feature
    norm at most 1. The cost pulls toward the nominal fixed point of action 1.
    Both act on the last axis of a batch of states.
    """
    d_s, A = 2, 2
    w_state = 0.8 * np.eye(d_s)
    w_action = np.array([[0.35, -0.25],
                         [-0.35, 0.4]])
    W = np.hstack([w_state, w_action])  # (2, 4)

    def features(s: Array, a) -> Array:
        one_hot = np.asarray(a)[..., None] == np.arange(A)
        phi = np.concatenate([_norm_clip(np.asarray(s, dtype=float)),
                              one_hot], axis=-1)
        return phi / np.sqrt(2.0)

    # nominal fixed point of always playing action 1 (inside the unit ball,
    # so the norm clip is inactive there and the map is exactly linear)
    A_eff = w_state / np.sqrt(2.0)
    b_eff = w_action[:, 1] / np.sqrt(2.0)
    goal = np.linalg.solve(np.eye(d_s) - A_eff, b_eff)

    def cost(s: Array) -> Array:
        return np.minimum(1.0, np.sum((np.asarray(s, dtype=float) - goal) ** 2,
                                      axis=-1))

    return KnrSystem(
        state_dim=d_s,
        feature_dim=d_s + A,
        features=features,
        weights=W,
        noise_std=noise_std,
        horizon=horizon,
        num_actions=A,
        init_state=np.zeros(d_s),
        cost=cost,
    )
