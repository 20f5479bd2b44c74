import dataclasses
import itertools

import numpy as np
import pytest

from ilfo_lab.envs import ConfigurationError, Policy, TabularMdp, occupancy_exact, value_eval_tabular
from ilfo_lab.expert import (
    ExpertDataset,
    sample_expert_states,
    solve_openloop_knr,
    solve_optimal_tabular,
)
from ilfo_lab.worlds import (
    make_chain,
    make_knr_example,
    make_random_mdp,
    make_random_policy,
)


def test_zero_cost_tie_breaks_to_action_zero():
    rng = np.random.default_rng(0)
    mdp = make_random_mdp(rng, 4, 3, 3)
    flat = TabularMdp(horizon=3, transitions=mdp.transitions, cost=np.zeros(4), init_state=0)
    pol = solve_optimal_tabular(flat)
    actions = np.argmax(pol.action_probs, axis=2)
    assert np.all(actions == 0)


def test_absorbing_two_state_prefers_escape_action():
    # action 1 jumps to the zero-cost absorbing state, action 0 stays put
    P = np.zeros((2, 2, 2))
    P[0, 0] = [1.0, 0.0]
    P[0, 1] = [0.0, 1.0]
    P[1, :, 1] = 1.0
    mdp = TabularMdp(horizon=2, transitions=P, cost=np.array([1.0, 0.0]), init_state=0)
    pol = solve_optimal_tabular(mdp)
    assert np.argmax(pol.action_probs[0, 0]) == 1


def test_optimal_policy_beats_random_policies():
    rng = np.random.default_rng(1)
    for _ in range(5):
        mdp = make_random_mdp(rng, 5, 3, 4)
        star = solve_optimal_tabular(mdp)
        v_star = value_eval_tabular(mdp, star, mdp.cost)
        for _ in range(200):
            pol = make_random_policy(rng, 5, 3, 4)
            assert v_star <= value_eval_tabular(mdp, pol, mdp.cost) + 1e-12


def test_openloop_single_action_system():
    sys_ = make_knr_example(noise_std=0.0)
    one_action = dataclasses.replace(sys_, num_actions=1,
                                     features=lambda s, a: sys_.features(s, 0))
    pol = solve_openloop_knr(one_action)
    assert pol.action_seq.tolist() == [0, 0, 0, 0]


def test_openloop_one_step_enumeration():
    sys_ = make_knr_example(noise_std=0.0)
    short = dataclasses.replace(sys_, horizon=1)
    pol = solve_openloop_knr(short)
    # with a single step only cost(s_0) counts, so every sequence ties and the
    # lexicographic rule picks action 0
    assert pol.action_seq.tolist() == [0]


def test_openloop_matches_exhaustive_enumeration():
    sys_ = make_knr_example(noise_std=0.0)
    pol = solve_openloop_knr(sys_)
    best = None
    best_cost = np.inf
    for seq in itertools.product(range(sys_.num_actions), repeat=sys_.horizon):
        s = np.array(sys_.init_state)
        total = 0.0
        for a in seq:
            total += sys_.cost_of(s)
            s = sys_.weights @ sys_.feature(s, a)
        if total < best_cost - 1e-15:
            best_cost = total
            best = seq
    assert tuple(pol.action_seq.tolist()) == best


def test_openloop_search_overflow_rejected():
    sys_ = make_knr_example(noise_std=0.0)
    wide = dataclasses.replace(sys_, horizon=40)
    with pytest.raises(ConfigurationError):
        solve_openloop_knr(wide)


def test_dataset_contains_no_action_fields():
    fields = [f.name for f in dataclasses.fields(ExpertDataset)]
    assert fields == ["trajectories"]
    mdp = make_chain()
    pol = solve_optimal_tabular(mdp)
    data = sample_expert_states(mdp, pol, 3, np.random.default_rng(0))
    assert all(np.asarray(t).ndim == 1 for t in data.trajectories)


def test_deterministic_env_gives_identical_trajectories():
    mdp = make_chain(slip=0.0)
    pol = solve_optimal_tabular(mdp)
    data = sample_expert_states(mdp, pol, 5, np.random.default_rng(0))
    ref = data.trajectories[0]
    assert all(np.array_equal(t, ref) for t in data.trajectories)


def test_single_trajectory_dataset_shape():
    mdp = make_chain()
    pol = solve_optimal_tabular(mdp)
    data = sample_expert_states(mdp, pol, 1, np.random.default_rng(3))
    assert data.num_trajectories == 1
    assert len(data.trajectories[0]) == mdp.horizon + 1


def test_empirical_frequencies_match_occupancy():
    mdp = make_chain(slip=0.15)
    pol = solve_optimal_tabular(mdp)
    data = sample_expert_states(mdp, pol, 10_000, np.random.default_rng(5))
    occ = occupancy_exact(mdp, pol)
    marg = occ.per_step.sum(axis=2)
    for h in range(mdp.horizon):
        freq = np.bincount([t[h] for t in data.trajectories], minlength=mdp.num_states) / 10_000
        assert np.max(np.abs(freq - marg[h])) < 0.02


def test_flat_view_counts():
    mdp = make_chain()
    pol = solve_optimal_tabular(mdp)
    data = sample_expert_states(mdp, pol, 7, np.random.default_rng(2))
    assert data.flat_view().shape == (7 * mdp.horizon,)
    dist = data.state_distribution(mdp.num_states)
    assert abs(dist.sum() - 1.0) < 1e-12


