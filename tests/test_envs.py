import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ilfo_lab.envs import (
    ConfigurationError,
    MixedPolicy,
    OccupancyMeasure,
    Policy,
    TabularMdp,
    best_response_tabular,
    occupancy_exact,
    openloop_search,
    rollout,
    state_values,
    value_eval_mc,
    value_eval_tabular,
)
from ilfo_lab.worlds import (
    make_chain,
    make_combination_lock,
    make_knr_example,
    make_random_mdp,
    make_random_policy,
    make_two_state,
)


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
    hits = sum(rollout(mdp, pol, rng).states[1] == 1 for _ in range(100_000))
    assert abs(hits / 100_000 - 0.3) < 0.01


def test_rollout_horizon_mismatch_rejected():
    mdp = make_two_state(0.5, horizon=2)
    pol = Policy.deterministic(np.zeros((1, 2), dtype=int), num_actions=1)
    with pytest.raises(ConfigurationError, match="horizon"):
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
    assert np.allclose(occ.per_step[0], expect, atol=1e-12)


def test_occupancy_uniform_two_state_hand_recursion():
    # uniform kernel and uniform policy: d_1 is flat 1/4, d_0 sits on s0
    P = np.full((2, 2, 2), 0.5)
    mdp = TabularMdp(horizon=2, transitions=P, cost=np.zeros(2), init_state=0)
    pol = Policy.tabular(np.full((2, 2, 2), 0.5))
    occ = occupancy_exact(mdp, pol)
    assert np.allclose(occ.per_step[0], [[0.5, 0.5], [0.0, 0.0]], atol=1e-12)
    assert np.allclose(occ.per_step[1], 0.25, atol=1e-12)


def test_occupancy_normalization_property():
    rng = np.random.default_rng(11)
    for _ in range(200):
        S = int(rng.integers(2, 7))
        A = int(rng.integers(1, 4))
        H = int(rng.integers(1, 6))
        mdp = make_random_mdp(rng, S, A, H)
        pol = make_random_policy(rng, S, A, H)
        occ = occupancy_exact(mdp, pol)
        sums = occ.per_step.reshape(H, -1).sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 1e-10
        assert abs(occ.average.sum() - 1.0) < 1e-10


def test_occupancy_mixture_linearity_exact():
    rng = np.random.default_rng(5)
    mdp = make_random_mdp(rng, 4, 3, 4)
    p1 = make_random_policy(rng, 4, 3, 4)
    p2 = make_random_policy(rng, 4, 3, 4)
    mix = MixedPolicy(components=(p1, p2), weights=np.array([0.3, 0.7]))
    direct = occupancy_exact(mdp, mix).per_step
    blended = 0.3 * occupancy_exact(mdp, p1).per_step + 0.7 * occupancy_exact(mdp, p2).per_step
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
        via_occ = float(np.sum(occ.per_step * cost[None, :, :]))
        assert abs(dp - via_occ) < 1e-10
        assert abs(dp - mdp.horizon * np.sum(occ.average * cost)) < 1e-10


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
    counts = np.zeros((mdp.horizon, mdp.num_states))
    for _ in range(n):
        traj = rollout(mdp, pol, rng)
        for h in range(mdp.horizon):
            counts[h, traj.states[h]] += 1
    freq = counts / n
    marg = occ.per_step.sum(axis=2)
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


def test_occupancy_measure_validation():
    bad = np.full((1, 2, 2), 0.3)
    with pytest.raises(ConfigurationError):
        OccupancyMeasure(per_step=bad)


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
    assert np.array_equal(occupancy_exact(mdp, mix).per_step, expect)
    for pol, part in zip(mix.components[:3], parts):
        assert np.array_equal(occupancy_exact(mdp, pol).per_step, part)


@settings(max_examples=150, deadline=None)
@given(mixture_specs(["table", "mixed"]))
def test_batched_value_equals_per_component_reference(spec):
    mdp, cubes, weights, mix = build_mixture(spec)
    vals = [reference_value(mdp, cube, mdp.cost) for cube in cubes]
    assert value_eval_tabular(mdp, mix, mdp.cost) == float(np.dot(weights, vals))
    for pol, val in zip(mix.components[:3], vals):
        assert value_eval_tabular(mdp, pol, mdp.cost) == val


def test_mixture_components_must_match_environment():
    mdp = make_random_mdp(np.random.default_rng(0), 2, 2, 2)
    ok = Policy.deterministic(np.zeros((2, 2), dtype=int), num_actions=2)
    assert occupancy_exact(mdp, MixedPolicy(components=(ok,),
                                            weights=np.ones(1))).horizon == 2
    wrong = [
        Policy.deterministic(np.zeros((3, 2), dtype=int), num_actions=2),
        # an action the 2-action environment does not have
        Policy.deterministic(np.full((2, 2), 2), num_actions=3),
        Policy.tabular(np.full((2, 2, 3), 1.0 / 3.0)),
        # open-loop sequences run only on a KnrSystem
        Policy.open_loop([0, 1]),
    ]
    for pol in wrong:
        for policy in (pol, MixedPolicy(components=(ok, pol),
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

    def step(s, a):
        steps.append(a)
        return W[a] @ s + c[a]

    def cost(s):
        return round(float(q @ s + r * (s @ s)), digits)

    def bonus(s, a):
        return round(float(b_lin[a] @ s + b_off[a]), digits)

    total = A ** H
    if sampled:
        n = int(rng.integers(1, total + 1))
        ids = np.sort(rng.choice(total, size=n, replace=False))
    else:
        ids = np.arange(total)
    b = bonus if with_bonus else None
    seq, score = openloop_search(step, cost, x0, A, H, ids, b)
    ref_seq, ref_score = _search_reference(
        lambda s, a: W[a] @ s + c[a], cost, b, x0, A, H, ids)
    assert np.array_equal(seq, ref_seq)
    assert score == ref_score
    prefixes = {tuple(_decode_reference(int(i), H, A)[:k])
                for i in ids for k in range(1, H)}
    assert len(steps) == len(prefixes)


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
       state_cost=st.booleans())
def test_best_response_tabular_matches_reference_dp(seed, S, A, H,
                                                    deterministic,
                                                    state_cost):
    # 0/1 kernels and costs on a 1/2 grid make ties common, which go to
    # the lowest action index
    rng = np.random.default_rng(seed)
    if deterministic:
        P = np.eye(S)[rng.integers(0, S, size=(S, A))]
        cost = rng.integers(0, 3, size=S) / 2
    else:
        P = rng.dirichlet(np.ones(S), size=(S, A))
        cost = rng.uniform(0, 1, size=S)
    mdp = TabularMdp(horizon=H, transitions=P, cost=cost, init_state=0)
    if state_cost:
        pol = best_response_tabular(mdp, mdp.cost)
        ref = _optimal_dp_reference(mdp, mdp.cost[:, None])
    else:
        table = np.round(rng.uniform(-1, 1, size=(S, A)),
                         0 if deterministic else 12)
        pol = best_response_tabular(mdp, table)
        ref = _optimal_dp_reference(mdp, table)
    assert np.array_equal(pol.action_table, ref)


def test_state_values_slice_is_the_policy_value():
    rng = np.random.default_rng(7)
    mdp = make_random_mdp(rng, 4, 3, 5)
    pols = [make_random_policy(rng, 4, 3, 5) for _ in range(3)]
    mix = MixedPolicy(components=tuple(pols), weights=np.full(3, 1 / 3))
    values = state_values(mdp, mix, mdp.cost)
    assert values.shape == (3, 6, 4)
    assert np.all(values[:, -1] == 0.0)
    for k, pol in enumerate(pols):
        assert values[k, 0, mdp.init_state] == value_eval_tabular(
            mdp, pol, mdp.cost)
