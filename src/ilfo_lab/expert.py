"""Expert construction and state-only demonstration datasets.

Datasets deliberately carry no action information: the learner sees states and
nothing else. The single-sample view draws one state per trajectory uniformly
over the H decision steps, which makes its draws i.i.d. from the expert's
average state occupancy; the flat view exposes all decision-step states.
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

    def single_sample_view(self, rng: np.random.Generator) -> Array:
        """One uniformly-timed decision-step state per trajectory (i.i.d. draws)."""
        H = self.horizon
        picks = rng.integers(0, H, size=self.num_trajectories)
        return np.stack([traj[h] for traj, h in zip(self.trajectories, picks)])

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


def save_expert_dataset(dataset: ExpertDataset, path: str) -> None:
    """Line-oriented text format: one trajectory per line, numbers comma-joined."""
    first = np.asarray(dataset.trajectories[0])
    vector = first.ndim == 2
    dim = first.shape[1] if vector else 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# horizon={dataset.horizon} state_dim={dim}\n")
        for traj in dataset.trajectories:
            flat = np.asarray(traj).reshape(-1)
            if vector:
                fh.write(",".join(format(x, ".17g") for x in flat) + "\n")
            else:
                fh.write(",".join(str(int(x)) for x in flat) + "\n")


def load_expert_dataset(path: str) -> ExpertDataset:
    """Read the format of save_expert_dataset.

    A malformed header or trajectory line raises ConfigurationError naming
    the line: tabular states must be integers >= 0, and every line holds
    (horizon + 1) * max(state_dim, 1) numbers.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("# horizon="):
            raise ConfigurationError(f"{path}:1: missing dataset header")
        try:
            fields = dict(part.split("=") for part in header[2:].split())
            horizon = int(fields["horizon"])
            dim = int(fields["state_dim"])
        except (KeyError, ValueError) as exc:
            raise ConfigurationError(
                f"{path}:1: header needs integer 'horizon' and 'state_dim' "
                f"fields, got {header!r}") from exc
        width = (horizon + 1) * max(dim, 1)
        trajs = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                vals = np.array([float(x) for x in line.split(",")])
            except ValueError as exc:
                raise ConfigurationError(
                    f"{path}:{lineno}: non-numeric state value") from exc
            if len(vals) != width:
                raise ConfigurationError(
                    f"{path}:{lineno}: expected {width} numbers for horizon "
                    f"{horizon} and state_dim {dim}, got {len(vals)}")
            if dim > 0:
                trajs.append(vals.reshape(horizon + 1, dim))
            elif np.all(np.isfinite(vals) & (vals >= 0)
                        & (vals == np.floor(vals))):
                trajs.append(vals.astype(int))
            else:
                raise ConfigurationError(
                    f"{path}:{lineno}: tabular states must be integers >= 0")
    return ExpertDataset(trajectories=tuple(trajs))
