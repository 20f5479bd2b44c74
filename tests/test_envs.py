import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ilfo_lab.envs import (
    ConfigurationError,
    MixedPolicy,
    OpenLoopTree,
    Policy,
    TabularMdp,
    Trajectory,
    best_response_tables,
    best_response_tabular,
    occupancy_exact,
    openloop_search,
    rollout,
    rollouts,
    state_values,
    value_eval_mc,
    value_eval_tabular,
)
from ilfo_lab.models import TabularBuffer
from ilfo_lab.worlds import (
    make_chain,
    make_combination_lock,
    make_knr_example,
    make_random_mdp,
    make_random_policy,
    make_two_state,
)
from test_planner import random_knr_system


def test_transition_rows_must_sum_to_one():
    P = np.zeros((2, 1, 2))
    P[0, 0] = [0.6, 0.5]
    P[1, 0] = [0.0, 1.0]
    with pytest.raises(ConfigurationError):
        TabularMdp(horizon=1, transitions=P, cost=np.zeros(2), init_state=0)


def test_cost_range_and_init_state_validated():
    P = np.ones((1, 1, 1))
    with pytest.raises(ConfigurationError):
        TabularMdp(horizon=1, transitions=P, cost=np.array([1.5]), init_state=0)
    with pytest.raises(ConfigurationError):
        TabularMdp(horizon=1, transitions=P, cost=np.array([0.5]), init_state=3)
    # 2.5 would construct, then fail every DP with a TypeError
    with pytest.raises(ConfigurationError, match="horizon 2.5 "):
        TabularMdp(horizon=2.5, transitions=P, cost=np.array([0.5]),
                   init_state=0)


@pytest.mark.parametrize("init_state", [1.5, 1.0, "1", None, np.array([1])],
                         ids=["fractional", "float", "string", "none",
                              "array"])
def test_init_state_must_be_an_integer_index(init_state):
    # 1.5 would start a rollout in state 1 and fail occupancy_exact
    P = np.full((3, 1, 3), 1 / 3)
    with pytest.raises(ConfigurationError, match="integer index"):
        TabularMdp(horizon=2, transitions=P, cost=np.zeros(3),
                   init_state=init_state)
    mdp = TabularMdp(horizon=2, transitions=P, cost=np.zeros(3),
                     init_state=np.int64(1))
    assert type(mdp.init_state) is int and mdp.init_state == 1


@pytest.mark.parametrize("build, name", [
    (lambda: make_chain(num_states=1), "num_states"),
    (lambda: make_chain(slip=1.5), "slip"),
    (lambda: make_combination_lock(code_seed=-1), "code_seed"),
    (lambda: make_two_state(-0.5), "p_forward"),
], ids=["chain_one_state", "chain_slip", "lock_negative_code_seed",
        "two_state_p_forward"])
def test_world_constructors_name_the_bad_argument(build, name):
    # a one-state chain used to divide by zero building its cost, and a
    # negative code seed used to fail inside numpy's generator
    with pytest.raises(ConfigurationError, match=f"^{name} must"):
        build()


def test_policy_rows_validated():
    probs = np.ones((1, 2, 2))  # rows sum to 2
    with pytest.raises(ConfigurationError):
        Policy.tabular(probs)


def test_mixture_weights_validated():
    pol = Policy.open_loop([0])
    with pytest.raises(ConfigurationError):
        MixedPolicy(components=(pol,), weights=np.array([0.9]))
    with pytest.raises(ConfigurationError):
        MixedPolicy(components=(), weights=np.array([]))


def test_rollout_deterministic_kernel_deterministic_policy():
    # all mass on one state: the unique trajectory
    P = np.zeros((3, 2, 3))
    P[:, 0, 1] = 1.0
    P[:, 1, 2] = 1.0
    mdp = TabularMdp(horizon=2, transitions=P, cost=np.zeros(3), init_state=0)
    pol = Policy.deterministic(np.array([[0, 0, 0], [1, 1, 1]]), num_actions=2)
    traj = rollout(mdp, pol, np.random.default_rng(0))
    assert traj.states.tolist() == [0, 1, 2]
    assert traj.actions.tolist() == [0, 1]


def test_rollout_noise_free_knr_follows_nominal_map():
    sys0 = make_knr_example(noise_std=0.0)
    pol = Policy.open_loop([1, 0, 1, 1])
    traj = rollout(sys0, pol, np.random.default_rng(0))
    s = np.array(sys0.init_state)
    for h in range(sys0.horizon):
        s = sys0.weights @ sys0.feature(s, int(pol.action_seq[h]))
        assert np.allclose(traj.states[h + 1], s, atol=1e-12)


def test_rollout_matches_stored_kernel_frequency():
    mdp = make_two_state(0.3, horizon=1)
    pol = Policy.deterministic(np.zeros((1, 2), dtype=int), num_actions=1)
    rng = np.random.default_rng(7)
    states, _ = rollouts(mdp, pol, 100_000, rng)
    hits = np.count_nonzero(states[:, 1] == 1)
    assert abs(hits / 100_000 - 0.3) < 0.01


def test_rollout_horizon_mismatch_rejected():
    mdp = make_two_state(0.5, horizon=2)
    pol = Policy.deterministic(np.zeros((1, 2), dtype=int), num_actions=1)
    with pytest.raises(ConfigurationError,
                       match=r"\(H, S\) = \(1, 2\) .* \(H, S\) = \(2, 2\)"):
        rollout(mdp, pol, np.random.default_rng(0))


def test_rollout_runs_open_loop_policies_only_on_knr_systems():
    # occupancy and value evaluation reject them too, see
    # test_mixture_components_must_match_environment
    mdp = make_two_state(0.5, horizon=2)
    pol = Policy.open_loop([0, 0])
    for policy in (pol, MixedPolicy(components=(pol,), weights=np.ones(1))):
        with pytest.raises(ConfigurationError, match="KnrSystem"):
            rollout(mdp, policy, np.random.default_rng(0))


def test_transitions_are_one_stationary_kernel():
    P = np.full((2, 2, 1, 2), 0.5)  # a per-step (H, S, A, S) stack
    with pytest.raises(ConfigurationError, match=r"\(S, A, S\)"):
        TabularMdp(horizon=2, transitions=P, cost=np.zeros(2), init_state=0)


def test_occupancy_one_step_is_initial_action_distribution():
    rng = np.random.default_rng(3)
    mdp = make_random_mdp(rng, 3, 2, 1)
    probs = rng.dirichlet(np.ones(2), size=(1, 3))
    pol = Policy.tabular(probs)
    occ = occupancy_exact(mdp, pol)
    expect = np.zeros((3, 2))
    expect[0] = probs[0, 0]
    assert np.allclose(occ[0], expect, atol=1e-12)


def test_occupancy_uniform_two_state_hand_recursion():
    # uniform kernel and uniform policy: d_1 is flat 1/4, d_0 sits on s0
    P = np.full((2, 2, 2), 0.5)
    mdp = TabularMdp(horizon=2, transitions=P, cost=np.zeros(2), init_state=0)
    pol = Policy.tabular(np.full((2, 2, 2), 0.5))
    occ = occupancy_exact(mdp, pol)
    assert np.allclose(occ[0], [[0.5, 0.5], [0.0, 0.0]], atol=1e-12)
    assert np.allclose(occ[1], 0.25, atol=1e-12)


def test_occupancy_normalization_property():
    rng = np.random.default_rng(11)
    for _ in range(200):
        S = int(rng.integers(2, 7))
        A = int(rng.integers(1, 4))
        H = int(rng.integers(1, 6))
        mdp = make_random_mdp(rng, S, A, H)
        pol = make_random_policy(rng, S, A, H)
        occ = occupancy_exact(mdp, pol)
        sums = occ.reshape(H, -1).sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 1e-10
        assert abs(occ.mean(axis=0).sum() - 1.0) < 1e-10


def test_occupancy_mixture_linearity_exact():
    rng = np.random.default_rng(5)
    mdp = make_random_mdp(rng, 4, 3, 4)
    p1 = make_random_policy(rng, 4, 3, 4)
    p2 = make_random_policy(rng, 4, 3, 4)
    mix = MixedPolicy(components=(p1, p2), weights=np.array([0.3, 0.7]))
    direct = occupancy_exact(mdp, mix)
    blended = 0.3 * occupancy_exact(mdp, p1) + 0.7 * occupancy_exact(mdp, p2)
    assert np.max(np.abs(direct - blended)) < 1e-12


def test_value_zero_and_constant_costs():
    rng = np.random.default_rng(2)
    mdp = make_random_mdp(rng, 4, 2, 3)
    pol = make_random_policy(rng, 4, 2, 3)
    assert value_eval_tabular(mdp, pol, np.zeros(4)) == 0.0
    assert abs(value_eval_tabular(mdp, pol, np.ones(4)) - 3.0) < 1e-12


def test_value_matches_occupancy_inner_product():
    rng = np.random.default_rng(9)
    for _ in range(50):
        mdp = make_random_mdp(rng, 4, 2, 3)
        pol = make_random_policy(rng, 4, 2, 3)
        cost = rng.random((4, 2))
        dp = value_eval_tabular(mdp, pol, cost)
        occ = occupancy_exact(mdp, pol)
        via_occ = float(np.sum(occ * cost[None, :, :]))
        assert abs(dp - via_occ) < 1e-10
        assert abs(dp - mdp.horizon * np.sum(occ.mean(axis=0) * cost)) < 1e-10


def test_value_in_range_for_unit_costs():
    rng = np.random.default_rng(21)
    for _ in range(50):
        mdp = make_random_mdp(rng, 5, 3, 4)
        pol = make_random_policy(rng, 5, 3, 4)
        v = value_eval_tabular(mdp, pol, mdp.cost)
        assert -1e-12 <= v <= mdp.horizon + 1e-12


def test_value_mixture_is_weighted_average():
    rng = np.random.default_rng(13)
    mdp = make_random_mdp(rng, 3, 2, 3)
    p1 = make_random_policy(rng, 3, 2, 3)
    p2 = make_random_policy(rng, 3, 2, 3)
    mix = MixedPolicy(components=(p1, p2), weights=np.array([0.25, 0.75]))
    v = value_eval_tabular(mdp, mix, mdp.cost)
    expect = 0.25 * value_eval_tabular(mdp, p1, mdp.cost) + 0.75 * value_eval_tabular(mdp, p2, mdp.cost)
    assert abs(v - expect) < 1e-12


def test_rollout_frequencies_converge_to_occupancy():
    mdp = make_chain(slip=0.2)
    rng = np.random.default_rng(17)
    pol = make_random_policy(rng, mdp.num_states, mdp.num_actions, mdp.horizon)
    occ = occupancy_exact(mdp, pol)
    n = 100_000
    states, _ = rollouts(mdp, pol, n, rng)
    counts = np.stack([np.bincount(states[:, h], minlength=mdp.num_states)
                       for h in range(mdp.horizon)])
    freq = counts / n
    marg = occ.sum(axis=2)
    # chi-square style: every cell within 5 sigma of its binomial deviation
    sigma = np.sqrt(np.maximum(marg * (1 - marg), 1e-12) / n)
    assert np.all(np.abs(freq - marg) < 5 * sigma + 1e-4)


def test_value_eval_mc_noise_free_and_constant():
    sys0 = make_knr_example(noise_std=0.0)
    pol = Policy.open_loop([1, 0, 1, 1])
    mean, hw = value_eval_mc(sys0, pol, sys0.cost_of, 10, np.random.default_rng(0))
    assert hw == 0.0
    traj = rollout(sys0, pol, np.random.default_rng(1))
    direct = sum(sys0.cost_of(traj.states[h]) for h in range(sys0.horizon))
    assert abs(mean - direct) < 1e-12
    mean1, hw1 = value_eval_mc(sys0, pol, lambda s: 1.0, 5, np.random.default_rng(0))
    assert (mean1, hw1) == (4.0, 0.0)


def test_value_eval_mc_against_large_sample_reference():
    # frozen from a 1e6-rollout batched reference run of the same dynamics
    REF_MEAN, REF_ERR = 1.9181101, 0.0004
    sys_ = make_knr_example()  # noise_std 0.05
    pol = Policy.open_loop([1, 0, 1, 1])
    mean, hw = value_eval_mc(sys_, pol, sys_.cost_of, 20_000, np.random.default_rng(42))
    assert abs(mean - REF_MEAN) < 3 * hw + REF_ERR


def test_knr_feature_norm_enforced():
    sys_ = make_knr_example()
    big = 10.0 * np.ones(2)
    phi = sys_.feature(big, 0)  # clip keeps the norm legal even far out
    assert np.linalg.norm(phi) <= 1.0 + 1e-9


def reference_knr_example(s, a):
    """make_knr_example's features and cost of one state, computed as the
    one-state code computed them before they acted on batches."""
    x = np.asarray(s, dtype=float)
    phi = np.zeros(4)
    phi[:2] = x / max(1.0, np.linalg.norm(x))
    phi[2 + a] = 1.0
    A_eff = 0.8 * np.eye(2) / np.sqrt(2.0)
    goal = np.linalg.solve(np.eye(2) - A_eff,
                           np.array([-0.25, 0.4]) / np.sqrt(2.0))
    return phi / np.sqrt(2.0), float(min(1.0, np.sum((x - goal) ** 2)))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       shape=st.lists(st.integers(1, 5), min_size=0, max_size=3),
       scale=st.sampled_from([0.2, 1.0, 4.0]))
def test_knr_example_acts_on_the_last_axis(seed, shape, scale):
    # at scale 4 most states lie outside the unit ball, where the clip acts
    env = make_knr_example()
    rng = np.random.default_rng(seed)
    S = rng.normal(scale=scale, size=tuple(shape) + (2,))
    a = rng.integers(0, 2, size=tuple(shape))
    refs = [reference_knr_example(s, int(x))
            for s, x in zip(S.reshape(-1, 2), a.reshape(-1))]
    want_phi = np.array([r[0] for r in refs]).reshape(S.shape[:-1] + (4,))
    want_cost = np.array([r[1] for r in refs]).reshape(S.shape[:-1])
    assert_same_bits(env.features(S, a), want_phi)
    assert_same_bits(np.asarray(env.cost(S)), want_cost)
    assert_same_bits(np.asarray(env.cost_of(S), dtype=float), want_cost)
    want_mean = np.array([env.weights @ phi for phi in want_phi.reshape(-1, 4)])
    assert_same_bits(env.step_mean(S, a), want_mean.reshape(S.shape))
    for s, x, (phi, cost) in zip(S.reshape(-1, 2), a.reshape(-1).tolist(), refs):
        assert_same_bits(env.features(s, x), phi)
        assert env.cost_of(s) == cost and type(env.cost_of(s)) is float


def test_feature_norm_violation_in_any_row_is_rejected():
    base = make_knr_example(noise_std=0.0, horizon=3)

    def unclipped(s, a):
        one_hot = np.asarray(a)[..., None] == np.arange(2)
        return np.concatenate([s, one_hot], axis=-1) / np.sqrt(2.0)

    env = dataclasses.replace(base, features=unclipped)
    S, a = np.zeros((5, 2)), np.zeros(5, dtype=int)
    env.feature(S, a)
    S[3] = [3.0, 0.0]
    with pytest.raises(ConfigurationError, match="feature norm 2.236068 "):
        env.feature(S, a)
    # tripled weights carry the second state out of the ball
    far = dataclasses.replace(env, weights=3.0 * base.weights)
    with pytest.raises(ConfigurationError, match="feature norm"):
        rollouts(far, Policy.open_loop([0, 0, 0]), 4, np.random.default_rng(0))


def unbatched_features(s, a):
    phi = np.zeros(4)
    phi[:2] = np.asarray(s, dtype=float)
    phi[2 + a] = 1.0
    return phi / 2.0


@pytest.mark.parametrize("field, fn", [
    ("features", unbatched_features),
    ("features", lambda s, a: np.zeros(4)),
    ("cost", lambda s: 0.0),
    ("cost", lambda s: float(s[0])),
], ids=["features_per_state", "features_ignore_batch", "cost_scalar",
        "cost_per_state"])
def test_knr_system_rejects_maps_that_do_not_act_on_the_last_axis(field, fn):
    # rejected at construction, before any run reaches a batched call
    with pytest.raises(ConfigurationError, match=f"^{field} "):
        dataclasses.replace(make_knr_example(), **{field: fn})


def test_value_eval_mc_broadcasts_a_scalar_cost_and_rejects_other_shapes():
    env = make_knr_example(noise_std=0.0)
    pol = Policy.open_loop([1, 0, 1, 1])
    assert value_eval_mc(env, pol, lambda s: 0.5, 3,
                         np.random.default_rng(0)) == (2.0, 0.0)
    with pytest.raises(ConfigurationError, match="cost_fn returned shape"):
        value_eval_mc(env, pol, lambda s: s[..., 0, 0], 3,
                      np.random.default_rng(0))


def test_deterministic_policy_stores_its_action_table():
    table = np.array([[0, 2, 1], [1, 1, 0]])
    pol = Policy.deterministic(table, num_actions=3)
    np.testing.assert_array_equal(pol.action_table, table)
    assert pol.horizon == 2
    expect = np.zeros((2, 3, 3))
    for h in range(2):
        for s in range(3):
            expect[h, s, table[h, s]] = 1.0
    np.testing.assert_array_equal(pol.action_probs, expect)


def test_action_table_validated():
    with pytest.raises(ConfigurationError):
        Policy.deterministic(np.array([[0, 3]]), num_actions=3)
    with pytest.raises(ConfigurationError):
        Policy.deterministic(np.array([[0, -1]]), num_actions=3)
    with pytest.raises(ConfigurationError):
        Policy.deterministic(np.array([0, 1]), num_actions=3)
    with pytest.raises(ConfigurationError):
        Policy.deterministic(np.array([[0.0, 1.0]]), num_actions=3)
    with pytest.raises(ConfigurationError):
        Policy(action_table=np.zeros((1, 2), dtype=int))


def test_integer_actions_are_kept_and_an_empty_list_is_allowed():
    # any integer dtype is stored as int, and an empty list has no dtype
    # to check; tests/test_boundary.py rejects float and string actions
    seq = Policy.open_loop(np.array([1, 0, 2], dtype=np.uint8)).action_seq
    assert seq.dtype == np.dtype(int) and seq.tolist() == [1, 0, 2]
    assert Policy.open_loop([]).horizon == 0
    traj = Trajectory(states=[3], actions=[])
    assert traj.horizon == 0 and traj.actions.dtype == np.dtype(int)
    buf = TabularBuffer(2, 2)
    buf.extend_trajectory(Trajectory(states=[0, 1], actions=np.int32([1])))
    assert list(buf) == [(0, 1, 1)]


# -- the batched mixture engine against per-component references kept here --

def reference_occupancy(mdp, probs):
    """Forward DP of one (H, S, A) policy, one step at a time."""
    S, A, H = mdp.num_states, mdp.num_actions, mdp.horizon
    d = np.zeros((H, S, A))
    p = np.zeros(S)
    p[mdp.init_state] = 1.0
    for h in range(H):
        d[h] = p[:, None] * probs[h]
        p = np.einsum("sa,sat->t", d[h], mdp.transitions)
    return d


def reference_value(mdp, probs, cost):
    """Backward DP of one (H, S, A) policy under an (S,) state cost."""
    c = np.repeat(np.asarray(cost)[:, None], mdp.num_actions, axis=1)
    v = np.zeros(mdp.num_states)
    for h in range(mdp.horizon - 1, -1, -1):
        q = c + mdp.transitions @ v
        v = (probs[h] * q).sum(axis=1)
    return float(v[mdp.init_state])


def mixture_specs(forms):
    return st.fixed_dictionaries({
        "seed": st.integers(0, 2**32 - 1),
        "S": st.integers(1, 6), "A": st.integers(1, 4), "H": st.integers(1, 6),
        "K": st.integers(1, 220),
        "init": st.integers(0, 5), "form": st.sampled_from(forms),
    })


def build_mixture(spec):
    """A random MDP, a random mixture on it, and each component's (H, S, A)
    action distribution built directly.

    Form "table" holds only action tables; form "mixed" draws each
    component as an action table or a stochastic cube.
    """
    rng = np.random.default_rng(spec["seed"])
    S, A, H, K = spec["S"], spec["A"], spec["H"], spec["K"]
    mdp = TabularMdp(horizon=H, transitions=rng.dirichlet(np.ones(S), size=(S, A)),
                     cost=rng.random(S), init_state=spec["init"] % S)
    eye = np.eye(A)
    kinds = rng.integers(0, 2 if spec["form"] == "mixed" else 1, size=K)
    components, cubes = [], []
    for kind in kinds:
        if kind == 0:
            table = rng.integers(0, A, size=(H, S))
            components.append(Policy.deterministic(table, A))
            cubes.append(eye[table])
        else:
            probs = rng.dirichlet(np.ones(A), size=(H, S))
            components.append(Policy.tabular(probs))
            cubes.append(probs)
    weights = rng.dirichlet(np.ones(K))
    mix = MixedPolicy(components=tuple(components), weights=weights)
    return mdp, np.stack(cubes), weights, mix


@settings(max_examples=150, deadline=None)
@given(mixture_specs(["table", "mixed"]))
def test_batched_occupancy_equals_per_component_reference(spec):
    mdp, cubes, weights, mix = build_mixture(spec)
    parts = np.stack([reference_occupancy(mdp, cube) for cube in cubes])
    expect = np.tensordot(weights, parts, axes=1)
    assert np.array_equal(occupancy_exact(mdp, mix), expect)
    for pol, part in zip(mix.components[:3], parts):
        assert np.array_equal(occupancy_exact(mdp, pol), part)


@settings(max_examples=150, deadline=None)
@given(mixture_specs(["table", "mixed"]), st.sampled_from([0.05, 1.0]))
def test_occupancy_items_are_distributions(spec, alpha):
    # an occupancy is a plain array that nothing checks: the forward pass
    # over a checked kernel and checked policies yields, for every item,
    # nonnegative mass and per-step sums within 1e-10 of 1; alpha 0.05
    # gives near-sparse rows
    mdp, _, _, mix = build_mixture(spec)
    S, A, H = mdp.num_states, mdp.num_actions, mdp.horizon
    kernel = np.random.default_rng(spec["seed"]).dirichlet(
        np.full(S, alpha), size=(S, A))
    items = [mix, *mix.components[:3]]
    for env in (mdp, dataclasses.replace(mdp, transitions=kernel)):
        stack = occupancy_exact(env, items)
        assert stack.shape == (len(items), H, S, A)
        for occ in stack:
            assert occ.min() >= -1e-10
            sums = occ.reshape(H, -1).sum(axis=1)
            assert np.max(np.abs(sums - 1.0)) <= 1e-10


@settings(max_examples=150, deadline=None)
@given(mixture_specs(["table", "mixed"]))
def test_batched_value_equals_per_component_reference(spec):
    mdp, cubes, weights, mix = build_mixture(spec)
    vals = [reference_value(mdp, cube, mdp.cost) for cube in cubes]
    assert value_eval_tabular(mdp, mix, mdp.cost) == float(np.dot(weights, vals))
    for pol, val in zip(mix.components[:3], vals):
        assert value_eval_tabular(mdp, pol, mdp.cost) == val


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), S=st.integers(1, 6),
       A=st.integers(1, 4), H=st.integers(1, 6), init=st.integers(0, 5),
       pool_size=st.integers(1, 6),
       pattern=st.lists(st.integers(0, 5), min_size=1, max_size=40))
def test_distinct_evaluation_equals_one_row_per_component(
        seed, S, A, H, init, pool_size, pattern):
    # components with equal content are one row of the stack, evaluated
    # once and expanded back to K rows: bit-identical to each component
    # evaluated alone, and a mixture of fresh, equal-content copies
    # stacks, evaluates and samples as the one built from shared objects
    rng = np.random.default_rng(seed)
    mdp = TabularMdp(horizon=H,
                     transitions=rng.dirichlet(np.ones(S), size=(S, A)),
                     cost=rng.random(S), init_state=init % S)
    pool = []
    for _ in range(pool_size):
        if rng.random() < 0.5:
            pool.append(Policy.deterministic(
                rng.integers(0, A, size=(H, S)), A))
        else:
            pool.append(Policy.tabular(
                rng.dirichlet(np.ones(A), size=(H, S))))
    rows = [j % pool_size for j in pattern]
    weights = rng.dirichlet(np.ones(len(rows)))
    mix = MixedPolicy(components=tuple(pool[j] for j in rows),
                      weights=weights)
    # a stack of tables if every component is one, else of distributions
    tables = all(pool[j].action_table is not None for j in rows)
    want = [pool[j].action_table if tables else pool[j].action_probs
            for j in rows]
    keys = list(dict.fromkeys(row.tobytes() for row in want))
    assert [row.tobytes() for row in mix.rows] == keys
    assert mix.inverse.tolist() == [keys.index(row.tobytes()) for row in want]
    assert mix.num_actions == (A if tables else None)
    for i, comp in enumerate(mix.components):
        assert mix.distinct[mix.inverse[i]] is comp
        assert comp.action_probs.tobytes() == pool[rows[i]].action_probs.tobytes()

    def fresh(pol):
        if pol.action_table is not None:
            return Policy.deterministic(pol.action_table.copy(), A)
        return Policy.tabular(pol.probs.copy())

    ref = MixedPolicy(components=tuple(fresh(pool[j]) for j in rows),
                      weights=weights)
    assert ref.rows.tobytes() == mix.rows.tobytes()
    assert ref.inverse.tobytes() == mix.inverse.tobytes()
    occ = occupancy_exact(mdp, mix)
    assert np.array_equal(occ, occupancy_exact(mdp, ref))
    # and to the weighted sum of each row's single-policy occupancy
    singles = np.stack([occupancy_exact(mdp, c)
                        for c in mix.components])
    assert np.array_equal(occ, np.tensordot(weights, singles, axes=1))
    signed = rng.uniform(-1.0, 1.0, size=(S, A))
    for cost in (mdp.cost, signed):
        value = value_eval_tabular(mdp, mix, cost)
        assert value == value_eval_tabular(mdp, ref, cost)
        singles = [value_eval_tabular(mdp, c, cost) for c in mix.components]
        assert value == float(np.dot(weights, singles))
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    for n in (1, 7):
        states, actions = rollouts(mdp, mix, n, rng_a)
        ref_states, ref_actions = rollouts(mdp, ref, n, rng_b)
        assert_same_bits(states, ref_states)
        assert_same_bits(actions, ref_actions)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), S=st.integers(1, 8),
       A=st.integers(1, 6), H=st.integers(1, 13),
       pool_size=st.integers(1, 6),
       items=st.lists(st.lists(st.integers(0, 5), min_size=0, max_size=12),
                      min_size=1, max_size=8),
       signed=st.booleans())
def test_sequence_forms_equal_per_item_calls(seed, S, A, H, pool_size, items,
                                             signed):
    # an empty pattern is the pool policy itself; any other is a mixture of
    # pool policies, which repeat within and across the items
    rng = np.random.default_rng(seed)
    mdp = make_random_mdp(rng, S, A, H)
    pool = [Policy.deterministic(rng.integers(0, A, size=(H, S)), A)
            if rng.random() < 0.5
            else Policy.tabular(rng.dirichlet(np.ones(A), size=(H, S)))
            for _ in range(pool_size)]
    seq = []
    for i, pattern in enumerate(items):
        if not pattern:
            seq.append(pool[i % pool_size])
        else:
            seq.append(MixedPolicy(
                components=tuple(pool[j % pool_size] for j in pattern),
                weights=rng.dirichlet(np.ones(len(pattern)))))
    cost = rng.uniform(-1.0, 1.0, size=(S, A)) if signed else mdp.cost
    values = value_eval_tabular(mdp, seq, cost)
    assert isinstance(values, np.ndarray) and values.shape == (len(seq),)
    occupancies = occupancy_exact(mdp, tuple(seq))
    assert isinstance(occupancies, np.ndarray)
    assert occupancies.shape == (len(seq), H, S, A)
    for item, value, occ in zip(seq, values, occupancies):
        one = value_eval_tabular(mdp, item, cost)
        assert type(one) is float
        assert value.tobytes() == np.float64(one).tobytes()
        assert np.array_equal(occ,
                              occupancy_exact(mdp, item))


def test_sequence_forms_reject_empty_and_foreign_items():
    mdp = make_random_mdp(np.random.default_rng(0), 2, 2, 2)
    ok = Policy.deterministic(np.zeros((2, 2), dtype=int), num_actions=2)
    for seq in ([], [ok, np.zeros((2, 2))]):
        with pytest.raises(ConfigurationError):
            occupancy_exact(mdp, seq)
        with pytest.raises(ConfigurationError):
            value_eval_tabular(mdp, seq, mdp.cost)


def test_mixture_components_must_match_environment():
    mdp = make_random_mdp(np.random.default_rng(0), 2, 2, 2)
    ok = Policy.deterministic(np.zeros((2, 2), dtype=int), num_actions=2)
    assert occupancy_exact(mdp, MixedPolicy(components=(ok,),
                                            weights=np.ones(1))).shape[0] == 2
    wrong = [
        Policy.deterministic(np.zeros((3, 2), dtype=int), num_actions=2),
        # an action the 2-action environment does not have
        Policy.deterministic(np.full((2, 2), 2), num_actions=3),
        Policy.tabular(np.full((2, 2, 3), 1.0 / 3.0)),
        # open-loop sequences run only on a KnrSystem
        Policy.open_loop([0, 1]),
    ]
    for pol in wrong:
        # beside ok, no one stack holds it: refused at construction
        with pytest.raises(ConfigurationError, match="cannot share"):
            MixedPolicy(components=(ok, pol), weights=np.full(2, 0.5))
        for policy in (pol, MixedPolicy(components=(pol, pol),
                                        weights=np.full(2, 0.5))):
            with pytest.raises(ConfigurationError):
                occupancy_exact(mdp, policy)
            with pytest.raises(ConfigurationError):
                value_eval_tabular(mdp, policy, mdp.cost)


@settings(max_examples=100, deadline=None)
@given(mixture_specs(["table"]), st.integers(0, 2**32 - 1))
def test_rollout_of_table_matches_one_hot_cube(spec, rng_seed):
    mdp, cubes, weights, mix = build_mixture(spec)
    full_mix = MixedPolicy(components=tuple(Policy.tabular(c) for c in cubes),
                           weights=weights)
    for lean, full in ((mix, full_mix),
                       (mix.components[0], full_mix.components[0])):
        rng_a = np.random.default_rng(rng_seed)
        rng_b = np.random.default_rng(rng_seed)
        for _ in range(3):
            a, b = rollout(mdp, lean, rng_a), rollout(mdp, full, rng_b)
            np.testing.assert_array_equal(a.states, b.states)
            np.testing.assert_array_equal(a.actions, b.actions)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


# -- the n-episode rollout engine against the one-episode loop it replaced --

def _sample_row_reference(row, rng):
    return int(np.searchsorted(np.cumsum(row), rng.random(), side="right"))


def reference_rollout(env, policy, rng):
    """One episode, one state at a time: the scalar loop kept as the
    engine's reference. Returns (states, actions)."""
    if isinstance(policy, MixedPolicy):
        idx = int(rng.choice(len(policy.components), p=policy.weights))
        policy = policy.components[idx]
    H = env.horizon
    actions = np.empty(H, dtype=int)
    if isinstance(env, TabularMdp):
        states = np.empty(H + 1, dtype=int)
        s = states[0] = env.init_state
        for h in range(H):
            if policy.action_table is not None:
                rng.random()   # the uniform an action table consumes
                a = int(policy.action_table[h, s])
            else:
                a = _sample_row_reference(policy.probs[h, s], rng)
            s = _sample_row_reference(env.transitions[s, a], rng)
            actions[h], states[h + 1] = a, s
        return states, actions
    states = np.empty((H + 1, env.state_dim))
    s = states[0] = np.array(env.init_state, dtype=float)
    for h in range(H):
        a = int(policy.action_seq[h])
        mean = env.weights @ env.feature(s, a)
        if env.noise_std > 0:
            s = mean + env.noise_std * rng.standard_normal(env.state_dim)
        else:
            s = mean
        actions[h], states[h + 1] = a, s
    return states, actions


def reference_value_eval_mc(env, policy, cost_fn, n_rollouts, rng):
    """Monte-Carlo value from n reference episodes, each summed state by state."""
    totals = np.empty(n_rollouts)
    for i in range(n_rollouts):
        states, _ = reference_rollout(env, policy, rng)
        totals[i] = sum(float(cost_fn(states[h])) for h in range(env.horizon))
    return (float(totals.mean()),
            float(1.96 * totals.std(ddof=1) / np.sqrt(n_rollouts)))


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def check_engine_against_reference(env, policy, n, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    states, actions = rollouts(env, policy, n, rng)
    ref = [reference_rollout(env, policy, ref_rng) for _ in range(n)]
    assert_same_bits(states, np.stack([r[0] for r in ref]))
    assert_same_bits(actions, np.stack([r[1] for r in ref]))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def pick_components(pool, pattern, rng):
    """The pool's single first policy, or a mixture whose rows repeat
    pool entries by ``pattern``."""
    if len(pattern) == 1 and rng.random() < 0.3:
        return pool[pattern[0] % len(pool)]
    rows = [j % len(pool) for j in pattern]
    return MixedPolicy(components=tuple(pool[j] for j in rows),
                       weights=rng.dirichlet(np.ones(len(rows))))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), S=st.integers(1, 6),
       A=st.integers(1, 4), H=st.integers(1, 6), init=st.integers(0, 5),
       form=st.sampled_from(["table", "probs", "mixed"]),
       pool_size=st.integers(1, 5),
       pattern=st.lists(st.integers(0, 4), min_size=1, max_size=12),
       n=st.integers(1, 40))
def test_tabular_engine_matches_scalar_loop(seed, S, A, H, init, form,
                                            pool_size, pattern, n):
    rng = np.random.default_rng(seed)
    # sparse kernel rows put zeros after the last positive entry
    P = rng.dirichlet(np.ones(S), size=(S, A)) * (rng.random((S, A, S)) < 0.7)
    P[..., -1] += P.sum(axis=-1) == 0
    P /= P.sum(axis=-1, keepdims=True)
    mdp = TabularMdp(horizon=H, transitions=P, cost=rng.random(S),
                     init_state=init % S)
    pool = []
    for _ in range(pool_size):
        table = form == "table" or (form == "mixed" and rng.random() < 0.5)
        pool.append(Policy.deterministic(rng.integers(0, A, size=(H, S)), A)
                    if table else
                    Policy.tabular(rng.dirichlet(np.ones(A), size=(H, S))))
    policy = pick_components(pool, pattern, rng)
    check_engine_against_reference(mdp, policy, n, seed)


def knr_case(seed, dim, A, H, noise_std, pool_size, pattern):
    rng = np.random.default_rng(seed)
    env = dataclasses.replace(random_knr_system(rng, dim, A, H),
                              noise_std=noise_std)
    pool = [Policy.open_loop(rng.integers(0, A, size=H))
            for _ in range(pool_size)]
    return env, pick_components(pool, pattern, rng)


knr_cases = dict(
    seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4),
    A=st.integers(1, 3), H=st.integers(1, 6),
    noise_std=st.sampled_from([0.0, 0.05, 0.7]), pool_size=st.integers(1, 5),
    pattern=st.lists(st.integers(0, 4), min_size=1, max_size=12))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 40), **knr_cases)
def test_knr_engine_matches_scalar_loop(seed, dim, A, H, noise_std,
                                        pool_size, pattern, n):
    env, policy = knr_case(seed, dim, A, H, noise_std, pool_size, pattern)
    check_engine_against_reference(env, policy, n, seed)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 40), **dict(knr_cases, H=st.integers(1, 12)))
def test_value_eval_mc_matches_scalar_loop(seed, dim, A, H, noise_std,
                                           pool_size, pattern, n):
    # from 8 terms up numpy reduces pairwise: the totals must still be
    # summed left to right
    env, policy = knr_case(seed, dim, A, H, noise_std, pool_size, pattern)
    goal = np.linspace(-0.5, 0.5, dim)
    env = dataclasses.replace(
        env, cost=lambda s: np.sum((np.asarray(s) - goal) ** 2, axis=-1))
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = value_eval_mc(env, policy, env.cost_of, n, rng)
    want = reference_value_eval_mc(env, policy, env.cost_of, n, ref_rng)
    assert got == want
    assert rng.bit_generator.state == ref_rng.bit_generator.state


class ForcedUniform:
    """A stand-in Generator whose every uniform is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None):
        return np.full(size, self.u)


@pytest.mark.parametrize("S", [2, 3])
def test_forced_uniforms_at_ties_and_past_a_short_row(S):
    # rows may sum to 1 - 1e-12; a uniform at or above such a row's total
    # once drew the index past the row: a state that does not exist (S=2)
    # or one of probability zero (S=3)
    short = [0.5, 0.5 - 5e-13]
    P = np.zeros((S, 2, S))
    P[:, :, :2] = short
    mdp = TabularMdp(horizon=2, transitions=P, cost=np.zeros(S), init_state=0)
    stochastic = Policy.tabular(np.tile(short, (2, S, 1)))
    ones = Policy.deterministic(np.ones((2, S), dtype=int), 2)
    zeros = Policy.deterministic(np.zeros((2, S), dtype=int), 2)
    # Generator.choice normalizes the weights' cumsum, so a uniform near 1
    # draws the last component even when the weights sum to 1 - 5e-13
    mixture = MixedPolicy(components=(zeros, zeros, ones),
                          weights=np.array([0.25, 0.25, 0.5 - 5e-13]))
    for pol, low_actions, tie_actions in (
            (stochastic, [0, 0], [1, 1]), (ones, [1, 1], [1, 1]),
            (mixture, [0, 0], [0, 0])):
        states, actions = rollouts(mdp, pol, 2, ForcedUniform(0.9999999999999))
        assert states.tolist() == [[0, 1, 1]] * 2
        assert actions.tolist() == [[1, 1]] * 2
        states, actions = rollouts(mdp, pol, 1, ForcedUniform(0.25))
        assert states.tolist() == [[0, 0, 0]]
        assert actions.tolist() == [low_actions]
        # a uniform equal to a CDF entry draws the next entry, as
        # searchsorted(side="right") and Generator.choice do
        states, actions = rollouts(mdp, pol, 1, ForcedUniform(0.5))
        assert states.tolist() == [[0, 1, 1]]
        assert actions.tolist() == [tie_actions]
    tie = MixedPolicy(components=(ones, zeros), weights=np.full(2, 0.5))
    _, actions = rollouts(mdp, tie, 1, ForcedUniform(0.5))
    assert actions.tolist() == [[0, 0]]


def test_rollouts_validates_its_inputs():
    mdp = make_two_state(0.5, horizon=2)
    pol = Policy.deterministic(np.zeros((2, 2), dtype=int), num_actions=1)
    with pytest.raises(ConfigurationError, match="episode"):
        rollouts(mdp, pol, 0, np.random.default_rng(0))
    knr = make_knr_example(horizon=2)
    with pytest.raises(ConfigurationError, match="horizon"):
        rollouts(knr, Policy.open_loop([0, 1, 0]), 3, np.random.default_rng(0))
    with pytest.raises(ConfigurationError, match="action index"):
        rollouts(knr, Policy.open_loop([0, 2]), 3, np.random.default_rng(0))
    with pytest.raises(ConfigurationError, match="vector states"):
        rollouts(knr, pol, 3, np.random.default_rng(0))


def _decode_reference(index, horizon, num_actions):
    seq = np.zeros(horizon, dtype=np.int64)
    for h in range(horizon - 1, -1, -1):
        seq[h] = index % num_actions
        index //= num_actions
    return seq


def _score_reference(step, cost, bonus, init_state, seq):
    # one full rollout per sequence, no shared prefixes
    s = np.asarray(init_state, dtype=float)
    total = 0.0
    for a in seq:
        total += float(cost(s))
        if bonus is not None:
            total -= float(bonus(s, int(a)))
        s = step(s, int(a))
    return total


def _search_reference(step, cost, bonus, init_state, A, H, ids):
    best_seq, best_score = None, np.inf
    for idx in ids:
        seq = _decode_reference(int(idx), H, A)
        score = _score_reference(step, cost, bonus, init_state, seq)
        if score < best_score:  # the first minimum wins ties
            best_seq, best_score = seq, score
    return best_seq, best_score


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3),
       A=st.integers(1, 3), H=st.integers(1, 6), with_bonus=st.booleans(),
       coarse=st.booleans(), sampled=st.booleans())
def test_openloop_search_matches_per_sequence_scan(seed, dim, A, H,
                                                   with_bonus, coarse,
                                                   sampled):
    # random linear system x' = W_a x + c_a, linear-quadratic cost, bonus
    # linear in the state per action; coarse rounding forces score ties
    rng = np.random.default_rng(seed)
    W = rng.normal(scale=0.7, size=(A, dim, dim))
    c = rng.normal(size=(A, dim))
    q, r = rng.normal(size=dim), rng.uniform(0, 1)
    b_lin, b_off = rng.normal(size=(A, dim)), rng.uniform(0, 1, size=A)
    digits = 0 if coarse else 12
    x0 = rng.normal(size=dim)
    steps = []

    def rounded(x):   # Python's round on each row, as on that row alone
        return np.vectorize(lambda v: round(float(v), digits),
                            otypes=[float])(x)

    # the tree's callables act on the last axis; the reference calls the
    # same cost and bonus on one state at a time
    def step(s, a):
        steps.append(len(a))
        return np.matvec(W[a], s) + c[a]

    def cost(s):
        return rounded(np.vecdot(s, q) + r * np.vecdot(s, s))

    def bonus(s, a):
        return rounded(np.vecdot(b_lin[a], s) + b_off[a])

    total = A ** H
    if sampled:
        n = int(rng.integers(1, total + 1))
        ids = np.sort(rng.choice(total, size=n, replace=False))
    else:
        ids = np.arange(total)
    b = bonus if with_bonus else None
    seq, score = openloop_search(OpenLoopTree(step, x0, A, H, b), cost, ids)
    ref_seq, ref_score = _search_reference(
        lambda s, a: W[a] @ s + c[a], cost, b, x0, A, H, ids)
    assert np.array_equal(seq, ref_seq)
    assert score == ref_score
    # one step call per depth below the root, one row per distinct prefix
    prefixes = {tuple(_decode_reference(int(i), H, A)[:k])
                for i in ids for k in range(1, H)}
    assert len(steps) == H - 1
    assert sum(steps) == len(prefixes)


def _optimal_dp_reference(mdp, cost_table):
    # the backward recursion each expert and planner once kept a copy of
    S, H = mdp.num_states, mdp.horizon
    v = np.zeros(S)
    greedy = np.zeros((H, S), dtype=int)
    for h in range(H - 1, -1, -1):
        q = cost_table + mdp.transitions @ v
        greedy[h] = np.argmin(q, axis=1)
        v = q[np.arange(S), greedy[h]]
    return greedy


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), S=st.integers(1, 6),
       A=st.integers(1, 4), H=st.integers(1, 6), deterministic=st.booleans(),
       state_cost=st.booleans(), copies=st.integers(0, 3),
       stack=st.integers(1, 4))
@example(seed=0, S=1, A=1, H=1, deterministic=True, state_cost=False,
         copies=0, stack=1)
@example(seed=1, S=5, A=3, H=4, deterministic=False, state_cost=False,
         copies=3, stack=4)
def test_best_response_tabular_matches_reference_dp(seed, S, A, H,
                                                    deterministic,
                                                    state_cost, copies,
                                                    stack):
    # 0/1 kernels and costs on a 1/2 grid make ties common, and an action
    # whose kernel rows and costs are copied from another's ties with it
    # in every Q row; ties go to the lowest action index. A stack of the
    # cost and stack - 1 integer costs, which tie often, gives each slice
    # the one-cost call's table
    rng = np.random.default_rng(seed)
    if deterministic:
        P = np.eye(S)[rng.integers(0, S, size=(S, A))]
        cost = rng.integers(0, 3, size=S) / 2
    else:
        P = rng.dirichlet(np.ones(S), size=(S, A))
        cost = rng.uniform(0, 1, size=S)
    table = (cost[:, None] + np.zeros(A) if state_cost else
             np.round(rng.uniform(-1, 1, size=(S, A)),
                      0 if deterministic else 12))
    for _ in range(copies if A > 1 else 0):
        i, j = rng.choice(A, size=2, replace=False)
        P[:, j], table[:, j] = P[:, i], table[:, i]
    mdp = TabularMdp(horizon=H, transitions=P, cost=cost, init_state=0)
    pol = best_response_tabular(mdp, mdp.cost if state_cost else table)
    assert np.array_equal(pol.action_table,
                          _optimal_dp_reference(mdp, table))
    costs = np.concatenate([table[None], rng.integers(
        -1, 2, size=(stack - 1, S, A)).astype(float)])
    tables = best_response_tables(mdp, costs)
    assert tables.shape == (stack, H, S)
    for cost, got in zip(costs, tables):
        one = best_response_tabular(mdp, cost).action_table
        assert got.dtype == one.dtype and got.tobytes() == one.tobytes()
        assert np.array_equal(got, _optimal_dp_reference(mdp, cost))


def test_state_values_slice_is_the_policy_value():
    rng = np.random.default_rng(7)
    mdp = make_random_mdp(rng, 4, 3, 5)
    pols = [make_random_policy(rng, 4, 3, 5),
            Policy.deterministic(rng.integers(0, 3, size=(5, 4)), 3)]
    for pol in pols:
        values = state_values(mdp, pol, mdp.cost)
        assert values.shape == (6, 4)
        assert np.all(values[-1] == 0.0)
        assert values[0, mdp.init_state] == value_eval_tabular(
            mdp, pol, mdp.cost)
    # a mixture has no state values of its own
    mix = MixedPolicy(components=tuple(pols), weights=np.full(2, 0.5))
    with pytest.raises(ConfigurationError, match="not a mixture"):
        state_values(mdp, mix, mdp.cost)




# -- a mixture built on a table stack against its twin built on policies --

def kernel_of(rng, S, A, sparse):
    """A dense Dirichlet kernel, or a near-sparse one: most entries exactly
    zero, some of the rest tiny, every row summing to 1."""
    P = rng.dirichlet(np.ones(S), size=(S, A))
    if sparse:
        P *= rng.random((S, A, S)) < 0.3
        P += 1e-9 * (rng.random((S, A, S)) < 0.2)
        P[..., -1] += P.sum(axis=-1) == 0
        P /= P.sum(axis=-1, keepdims=True)
    return P


def table_mixture_and_twin(tables, A, pattern):
    """The uniform mixture over the rows of ``tables`` that ``pattern``
    picks, built on the stack itself, and its twin built on one ``Policy``
    per row (a row picked twice is one object), which stacks equal rows
    once."""
    D = len(tables)
    inverse = np.array([j % D for j in pattern])
    row_policies = [Policy.deterministic(t, A) for t in tables]
    twin = MixedPolicy(components=tuple(row_policies[j] for j in inverse),
                       weights=np.full(len(pattern), 1 / len(pattern)))
    return MixedPolicy.uniform(tables, inverse, A), twin


def random_tables(rng, D, H, S, A, equal_rows):
    """(D, H, S) random action tables; with ``equal_rows`` every second
    row repeats the first, as a separate array."""
    tables = rng.integers(0, A, size=(D, H, S))
    if equal_rows:
        tables[1::2] = tables[0]
    return tables


table_cases = dict(
    seed=st.integers(0, 2**32 - 1), S=st.integers(1, 6),
    A=st.integers(1, 4), H=st.integers(1, 6), init=st.integers(0, 5),
    sparse=st.booleans(), D=st.integers(1, 5), equal_rows=st.booleans(),
    pattern=st.lists(st.integers(0, 4), min_size=1, max_size=12))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 40), **table_cases)
def test_table_mixture_rollouts_equal_component_twin(seed, S, A, H, init,
                                                     sparse, D, equal_rows,
                                                     pattern, n):
    rng = np.random.default_rng(seed)
    mdp = TabularMdp(horizon=H, transitions=kernel_of(rng, S, A, sparse),
                     cost=rng.random(S), init_state=init % S)
    mix, twin = table_mixture_and_twin(
        random_tables(rng, D, H, S, A, equal_rows), A, pattern)
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(2):
        states, actions = rollouts(mdp, mix, n, rng_a)
        twin_states, twin_actions = rollouts(mdp, twin, n, rng_b)
        assert_same_bits(states, twin_states)
        assert_same_bits(actions, twin_actions)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
    # the episodes indexed the stack: no Policy view was built
    assert "distinct" not in vars(mix)


@settings(max_examples=150, deadline=None)
@given(items=st.lists(st.sampled_from(
           ["table", "twin", "policy", "copy", "stochastic", "components"]),
           min_size=1, max_size=8),
       signed=st.booleans(), **table_cases)
def test_table_mixture_evaluation_equals_component_twin(seed, S, A, H, init,
                                                        sparse, D,
                                                        equal_rows, pattern,
                                                        items, signed):
    # a sequence of table mixtures, their twins, policies holding equal
    # tables under other objects, stochastic policies and component
    # mixtures of both kinds of policy gives the bytes of the same
    # sequence with every table mixture replaced by its twin, and of each
    # item's own one-item call
    rng = np.random.default_rng(seed)
    mdp = TabularMdp(horizon=H, transitions=kernel_of(rng, S, A, sparse),
                     cost=rng.random(S), init_state=init % S)
    tables = random_tables(rng, D, H, S, A, equal_rows)
    stochastic = Policy.tabular(rng.dirichlet(np.ones(A), size=(H, S)))
    seq, twins = [], []
    for i, kind in enumerate(items):
        if kind in ("table", "twin"):
            mix, twin = table_mixture_and_twin(tables, A,
                                               pattern[i:] or pattern)
            seq.append(mix if kind == "table" else twin)
            twins.append(twin)
            continue
        if kind == "policy":
            item = Policy.deterministic(tables[i % D], A)
        elif kind == "copy":
            # an equal table in a fresh array and a fresh object
            item = Policy.deterministic(np.array(tables[i % D], dtype=np.int32),
                                        A)
        elif kind == "stochastic":
            item = stochastic
        else:
            comps = (Policy.deterministic(tables[i % D], A), stochastic,
                     Policy.deterministic(tables[0], A))
            item = MixedPolicy(components=comps,
                               weights=rng.dirichlet(np.ones(3)))
        seq.append(item)
        twins.append(item)
    cost = rng.uniform(-1.0, 1.0, size=(S, A)) if signed else mdp.cost
    values = value_eval_tabular(mdp, seq, cost)
    occupancies = occupancy_exact(mdp, seq)
    assert_same_bits(values, value_eval_tabular(mdp, twins, cost))
    assert_same_bits(occupancies, occupancy_exact(mdp, twins))
    for item, twin, value, occ in zip(seq, twins, values, occupancies):
        assert (np.float64(value_eval_tabular(mdp, twin, cost)).tobytes()
                == value.tobytes())
        assert_same_bits(occupancy_exact(mdp, item), occ)
    assert not any("distinct" in vars(item) for item in seq
                   if isinstance(item, MixedPolicy))


def test_table_mixture_views_build_on_first_read():
    tables = np.array([[[0, 1]], [[1, 1]], [[0, 1]]])
    mix = MixedPolicy.uniform(tables, [2, 0, 2, 1], 2)
    assert mix.rows.dtype == np.intp and not mix.rows.flags.writeable
    assert not mix.inverse.flags.writeable
    assert mix.weights.tolist() == [0.25] * 4
    assert not mix.weights.flags.writeable
    assert "distinct" not in vars(mix) and "components" not in vars(mix)
    assert len(mix.distinct) == 3
    for table, pol in zip(tables, mix.distinct):
        assert pol.num_actions == 2
        assert np.array_equal(pol.action_table, table)
    assert mix.distinct is mix.distinct
    assert len(mix.components) == 4
    for i, comp in enumerate(mix.components):
        assert mix.distinct[mix.inverse[i]] is comp
    with pytest.raises(AttributeError, match="frozen"):
        mix.weights = np.ones(4) / 4
    # built on the views, equal tables are one row, in order of first use
    restacked = MixedPolicy(components=mix.components, weights=mix.weights)
    assert restacked.rows.tolist() == [[[0, 1]], [[1, 1]]]
    assert restacked.num_actions == 2
    assert restacked.inverse.tolist() == [0, 0, 0, 1]
    # a stack of sequences has Policy.open_loop views and no num_actions
    seqs = MixedPolicy.uniform(np.array([[0, 1], [1, 0]]), [1, 1, 0])
    assert seqs.num_actions is None and seqs.rows.dtype == np.intp
    assert [c.action_seq.tolist() for c in seqs.components] == [
        [1, 0], [1, 0], [0, 1]]
    assert all(c.is_open_loop for c in seqs.distinct)
