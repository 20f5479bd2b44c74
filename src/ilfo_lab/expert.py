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
    OpenLoopTree,
    Policy,
    TabularMdp,
    _frozen,
    best_response_tabular,
    openloop_search,
    rollouts,
)

Array = np.ndarray

OPENLOOP_SEARCH_LIMIT = 1_000_000


@dataclass(frozen=True)
class ExpertDataset:
    """N state-only trajectories of equal length H+1, kept as one frozen
    array: (N, H+1) for tabular states, (N, H+1, d) for vector states."""

    trajectories: Array

    def __post_init__(self):
        trajs = self.trajectories
        if len(trajs) == 0:
            raise ConfigurationError("dataset needs at least one trajectory")
        # an array is one shape; a list of rows is checked before stacking
        if not isinstance(trajs, np.ndarray) and len(
                {np.shape(t) for t in trajs}) != 1:
            raise ConfigurationError("trajectories must share one horizon")
        trajs = _frozen(np.asarray(trajs))
        if trajs.ndim < 2 or trajs.shape[1] < 2:
            raise ConfigurationError("trajectories must contain at least s_0 and s_1")
        if trajs.dtype.kind in "fc" and not np.isfinite(trajs).all():
            raise ConfigurationError("expert dataset states must be finite")
        object.__setattr__(self, "trajectories", trajs)

    @property
    def num_trajectories(self) -> int:
        return len(self.trajectories)

    @property
    def horizon(self) -> int:
        return self.trajectories.shape[1] - 1

    def flat_view(self) -> Array:
        """All decision-step states (s_0..s_{H-1} of every trajectory), stacked."""
        trajs = self.trajectories
        return trajs[:, :-1].reshape(-1, *trajs.shape[2:])

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

    The open-loop search over all A^H sequences of a fresh tree, run on
    the true mean dynamics and cost with no bonus. Ties go to the
    lexicographically smallest sequence.
    """
    A, H = system.num_actions, system.horizon
    if A ** H > OPENLOOP_SEARCH_LIMIT:
        raise ConfigurationError(
            f"open-loop search space {A}^{H} exceeds {OPENLOOP_SEARCH_LIMIT}")
    tree = OpenLoopTree(system.step_mean, system.init_state, A, H)
    seq, _ = openloop_search(tree, system.cost_of, np.arange(A ** H))
    return Policy.open_loop(seq)


def sample_expert_states(env, expert: Policy, n_trajectories: int,
                         rng: np.random.Generator) -> ExpertDataset:
    """Roll the expert ``n_trajectories`` times and keep only the states."""
    if n_trajectories < 1:
        raise ConfigurationError("need at least one trajectory")
    states, _ = rollouts(env, expert, n_trajectories, rng)
    return ExpertDataset(trajectories=states)
