"""Expert construction and state-only demonstration datasets.

Datasets deliberately carry no action information: the learner sees states and
nothing else, through the flat view of all decision-step states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envs import (
    ConfigurationError,
    KnrSystem,
    Policy,
    TabularMdp,
    best_response_tabular,
    openloop_search,
    rollout,
)

Array = np.ndarray

OPENLOOP_SEARCH_LIMIT = 1_000_000


@dataclass(frozen=True)
class ExpertDataset:
    """N state-only trajectories of equal length H+1."""

    trajectories: tuple

    def __post_init__(self):
        trajs = tuple(np.asarray(t) for t in self.trajectories)
        if not trajs:
            raise ConfigurationError("dataset needs at least one trajectory")
        lengths = {len(t) for t in trajs}
        if len(lengths) != 1:
            raise ConfigurationError("trajectories must share one horizon")
        if next(iter(lengths)) < 2:
            raise ConfigurationError("trajectories must contain at least s_0 and s_1")
        frozen = []
        for t in trajs:
            c = np.array(t, copy=True)
            c.setflags(write=False)
            frozen.append(c)
        object.__setattr__(self, "trajectories", tuple(frozen))

    @property
    def num_trajectories(self) -> int:
        return len(self.trajectories)

    @property
    def horizon(self) -> int:
        return len(self.trajectories[0]) - 1

    def flat_view(self) -> Array:
        """All decision-step states (s_0..s_{H-1} of every trajectory), stacked."""
        H = self.horizon
        return np.concatenate([np.asarray(t[:H]) for t in self.trajectories])

    def state_distribution(self, num_states: int) -> Array:
        """Empirical state distribution of the flat view (tabular states only)."""
        flat = self.flat_view()
        if flat.ndim != 1:
            raise ConfigurationError("state_distribution needs integer states")
        return np.bincount(flat.astype(int), minlength=num_states) / len(flat)


def solve_optimal_tabular(mdp: TabularMdp) -> Policy:
    """The tabular best response run on the true kernel and cost.

    Ties go to the lowest action index.
    """
    return best_response_tabular(mdp, mdp.cost)


def solve_openloop_knr(system: KnrSystem) -> Policy:
    """Best open-loop action sequence under the noise-free nominal dynamics.

    The open-loop search over all A^H sequences, run on the true mean
    dynamics and cost with no bonus. Ties go to the lexicographically
    smallest sequence.
    """
    A, H = system.num_actions, system.horizon
    if A ** H > OPENLOOP_SEARCH_LIMIT:
        raise ConfigurationError(
            f"open-loop search space {A}^{H} exceeds {OPENLOOP_SEARCH_LIMIT}")
    seq, _ = openloop_search(system.step_mean, system.cost_of,
                             system.init_state, A, H, np.arange(A ** H))
    return Policy.open_loop(seq)


def sample_expert_states(env, expert: Policy, n_trajectories: int,
                         rng: np.random.Generator) -> ExpertDataset:
    """Roll the expert ``n_trajectories`` times and keep only the states."""
    if n_trajectories < 1:
        raise ConfigurationError("need at least one trajectory")
    trajs = []
    for _ in range(n_trajectories):
        trajs.append(rollout(env, expert, rng).states)
    return ExpertDataset(trajectories=tuple(trajs))
