"""Bad input is rejected where it enters the package, with one message.

Each row calls a public constructor or function with one bad argument and
names the whole ConfigurationError message it must raise.  The package
checks a value once, at its entry, and trusts what it built from checked
values; these rows pin that every entry still rejects what it did.
"""

import dataclasses
import re

import numpy as np
import pytest

from ilfo_lab.discriminators import RffFeatureMap, rff_featurize
from ilfo_lab.envs import (ConfigurationError, MixedPolicy, Policy,
                           TabularMdp, Trajectory, occupancy_exact, rollouts,
                           state_values, value_eval_tabular)
from ilfo_lab.expert import ExpertDataset
from ilfo_lab.loop import MobileConfig
from ilfo_lab.mab import BanditConfig, MabInstance, run_bandits
from ilfo_lab.models import (BonusFunction, KnrBuffer, TabularBuffer,
                             TabularModel, fit_knr_model, fit_tabular)
from ilfo_lab.planner import (KnrSearchConfig, MinMaxConfig, game_value_lp,
                              solve_minmax)
from ilfo_lab.worlds import make_knr_example

ROW_SUM = np.array([[[0.5, 0.6]], [[0.5, 0.5]]])
NEGATIVE = np.array([[[1.5, -0.5]], [[0.5, 0.5]]])
NAN_ROW = np.array([[[np.nan, 0.5]], [[0.5, 0.5]]])
BAD_KERNELS = [
    (np.full((2, 2), 0.5), "transitions must be (S, A, S)"),
    (np.full((2, 1, 3), 1 / 3),
     "kernel source and target state counts differ"),
    (NEGATIVE, "negative transition probability"),
    (ROW_SUM, "transition rows must sum to 1"),
    (NAN_ROW, "transition rows must sum to 1"),
]
KERNEL_IDS = ["not_3d", "states_differ", "negative", "row_sum", "nan_row"]


def mdp(**kw):
    args = dict(horizon=2, transitions=np.full((2, 1, 2), 0.5),
                cost=np.zeros(2), init_state=0)
    args.update(kw)
    return TabularMdp(**args)


def knr_system(**kw):
    return dataclasses.replace(make_knr_example(), **kw)


def feature_map(**kw):
    args = dict(omega=np.zeros((2, 1)), offsets=np.zeros(2), bandwidth=1.0)
    args.update(kw)
    return RffFeatureMap(**args)


def tabular_model(**kw):
    args = dict(p_hat=np.full((2, 1, 2), 0.5), sigma_table=np.zeros((2, 1)))
    args.update(kw)
    return TabularModel(**args)


def knr_buffer():
    system = make_knr_example()
    buf = KnrBuffer(system.features, system.feature_dim, system.state_dim,
                    0.3)
    buf.append(np.zeros(2), 1, np.ones(2))
    return buf


GAME = (tabular_model(p_hat=np.full((2, 2, 2), 0.5),
                      sigma_table=np.zeros((2, 2))),
        np.zeros((2, 2)), np.array([0.5, 0.5]))


def solve(bonus=GAME[1], expert=GAME[2], disc="box", horizon=2,
          init_state=0, warm=None):
    return solve_minmax(GAME[0], bonus, disc, expert, MinMaxConfig(k_iters=2),
                        horizon=horizon, init_state=init_state, warm=warm)


def lp(bonus=GAME[1], expert=GAME[2], horizon=2, init_state=0):
    return game_value_lp(GAME[0], bonus, expert, horizon=horizon,
                         init_state=init_state)


STEADY = Policy.deterministic(np.zeros((2, 2), dtype=int), num_actions=1)


def table_mixture(tables=np.zeros((2, 2, 2), dtype=int), num_actions=1,
                  inverse=(0, 1), weights=np.full(2, 0.5)):
    return MixedPolicy.from_tables(tables, num_actions, inverse, weights)


# a table mixture against the (H, S) = (2, 2), one-action mdp()
TABLE_MISMATCHES = [
    ("horizon", dict(tables=np.zeros((1, 3, 2), dtype=int), inverse=[0],
                     weights=[1.0]), (3, 2), 1),
    ("states", dict(tables=np.zeros((1, 2, 3), dtype=int), inverse=[0],
                    weights=[1.0]), (2, 3), 1),
    ("num_actions", dict(num_actions=2), (2, 2), 2),
]
TABLE_EVALUATIONS = [
    ("rollouts", lambda mix: rollouts(mdp(), mix, 1, np.random.default_rng(0))),
    ("occupancy_exact", lambda mix: occupancy_exact(mdp(), mix)),
    ("value_eval_tabular",
     lambda mix: value_eval_tabular(mdp(), [STEADY, mix], np.zeros(2))),
]
BANDWIDTH_MESSAGE = "bandwidth must be a finite number > 0"
INT_CONFIG_FIELDS = [
    (MobileConfig, "t_iters"), (MobileConfig, "n_expert"),
    (MobileConfig, "buffer_capacity"), (MobileConfig, "mmd_features"),
    (MobileConfig, "knr_eval_rollouts"), (MinMaxConfig, "k_iters"),
    (KnrSearchConfig, "exhaustive_limit"), (KnrSearchConfig, "n_candidates"),
    (BanditConfig, "num_arms"), (BanditConfig, "horizon"),
]

EXPERT_MESSAGE = "expert distribution must be (S,), finite and >= 0"
GAME_CASES = [
    (dict(init_state=-1), "init_state out of range"),
    (dict(init_state=2), "init_state out of range"),
    (dict(init_state=1.5), "init_state 1.5 needs an integer index"),
    (dict(horizon=0), "horizon must be >= 1"),
    (dict(horizon=2.5), "horizon 2.5 needs an integer"),
    (dict(expert=np.array([1.0])), EXPERT_MESSAGE),
    (dict(expert=np.array([1.5, -0.5])), EXPERT_MESSAGE),
    (dict(expert=np.array([np.nan, 1.0])), EXPERT_MESSAGE),
    (dict(expert=np.array([np.inf, 0.0])), EXPERT_MESSAGE),
    (dict(bonus=np.zeros((2, 1))), "a tabular solve needs an (S, A) bonus table"),
    (dict(bonus=BonusFunction(upper=1.0, fn=lambda s, a: 0.0)),
     "a tabular solve needs an (S, A) bonus table"),
    (dict(bonus=np.array([[0.0, np.nan], [0.0, 0.0]])),
     "a tabular solve needs a finite bonus table"),
    (dict(bonus=np.array([[0.0, np.inf], [0.0, 0.0]])),
     "a tabular solve needs a finite bonus table"),
]
GAME_IDS = ["init_negative", "init_past_end", "init_fractional",
            "horizon_zero", "horizon_fractional", "expert_shape",
            "expert_negative", "expert_nan", "expert_inf", "bonus_shape",
            "bonus_no_table", "bonus_nan", "bonus_inf"]

CASES = [
    ("TabularMdp/horizon_zero", lambda: mdp(horizon=0),
     "horizon must be >= 1"),
    ("TabularMdp/horizon_fractional", lambda: mdp(horizon=2.5),
     "horizon 2.5 needs an integer"),
    *((f"TabularMdp/{i}", lambda k=k: mdp(transitions=k), msg)
      for i, (k, msg) in zip(KERNEL_IDS, BAD_KERNELS)),
    ("TabularMdp/cost_shape", lambda: mdp(cost=np.zeros(3)),
     "cost must be one value per state"),
    ("TabularMdp/cost_range", lambda: mdp(cost=np.array([0.0, 1.5])),
     "costs must lie in [0, 1]"),
    ("TabularMdp/cost_nan", lambda: mdp(cost=np.array([0.0, np.nan])),
     "costs must lie in [0, 1]"),
    ("TabularMdp/init_fractional", lambda: mdp(init_state=1.5),
     "init_state 1.5 needs an integer index"),
    ("TabularMdp/init_past_end", lambda: mdp(init_state=2),
     "init_state out of range"),
    ("KnrSystem/horizon_fractional", lambda: knr_system(horizon=2.5),
     "horizon 2.5 needs an integer"),
    ("KnrSystem/num_actions_fractional", lambda: knr_system(num_actions=2.5),
     "num_actions 2.5 needs an integer"),
    ("KnrSystem/horizon_zero", lambda: knr_system(horizon=0),
     "horizon and num_actions must be >= 1"),
    ("KnrSystem/noise_negative", lambda: knr_system(noise_std=-0.1),
     "noise_std must be a finite number >= 0"),
    ("KnrSystem/weights_nan",
     lambda: knr_system(weights=np.full((2, 4), np.nan)),
     "weights must be finite"),
    ("KnrSystem/init_nan", lambda: knr_system(init_state=[0.0, np.nan]),
     "init_state must be finite"),
    *((f"TabularModel/{i}", lambda k=k: tabular_model(p_hat=k), msg)
      for i, (k, msg) in zip(KERNEL_IDS, BAD_KERNELS)),
    ("TabularModel/sigma_shape",
     lambda: tabular_model(sigma_table=np.zeros((2, 2))),
     "sigma_table shape or sign mismatch"),
    ("TabularModel/sigma_negative",
     lambda: tabular_model(sigma_table=np.array([[-0.1], [0.0]])),
     "sigma_table shape or sign mismatch"),
    ("TabularModel/sigma_nan",
     lambda: tabular_model(sigma_table=np.array([[np.nan], [0.0]])),
     "sigma_table shape or sign mismatch"),
    ("Policy/no_form", lambda: Policy(),
     "exactly one of action_table / probs / action_seq required"),
    ("Policy/table_floats",
     lambda: Policy.deterministic(np.array([[0.0, 1.0]]), num_actions=3),
     "action_table must be (H, S) integers"),
    ("Policy/table_no_num_actions",
     lambda: Policy(action_table=np.zeros((1, 2), dtype=int)),
     "an action table needs num_actions >= 1"),
    ("Policy/num_actions_fractional",
     lambda: Policy.deterministic(np.zeros((2, 2), int), 2.5),
     "num_actions 2.5 needs an integer"),
    ("Policy/table_out_of_range",
     lambda: Policy.deterministic(np.array([[0, 3]]), num_actions=3),
     "action index out of range"),
    ("Policy/probs_not_3d", lambda: Policy.tabular(np.full((2, 2), 0.5)),
     "probs must be (H, S, A)"),
    ("Policy/probs_negative",
     lambda: Policy.tabular(np.array([[[1.5, -0.5]]])),
     "negative action probability"),
    ("Policy/probs_row_sum", lambda: Policy.tabular(np.ones((1, 2, 2))),
     "per-(h,s) action distribution must sum to 1"),
    ("Policy/probs_nan",
     lambda: Policy.tabular(np.array([[[np.nan, 0.5]]])),
     "per-(h,s) action distribution must sum to 1"),
    ("Policy/seq_not_flat", lambda: Policy.open_loop([[0, 1]]),
     "action_seq must be a flat action list"),
    ("Policy/seq_fractional", lambda: Policy.open_loop([0, 1.7]),
     "action_seq must be integers, got float64"),
    ("Policy/seq_string", lambda: Policy(action_seq=["1"]),
     "action_seq must be integers, got <U1"),
    ("Trajectory/actions_fractional",
     lambda: Trajectory(states=[0, 1], actions=[1.7]),
     "actions must be integers, got float64"),
    ("Trajectory/actions_string",
     lambda: Trajectory(states=[0, 1], actions=["1"]),
     "actions must be integers, got <U1"),
    ("Trajectory/states_bool",
     lambda: Trajectory(states=np.array([True, False]), actions=[0]),
     "states must be integers or floats, got bool"),
    ("ExpertDataset/states_nan",
     lambda: ExpertDataset(trajectories=[[[0.0, 1.0], [np.nan, 0.0]]]),
     "expert dataset states must be finite"),
    ("ExpertDataset/states_inf",
     lambda: ExpertDataset(trajectories=np.array([[0.0, np.inf]])),
     "expert dataset states must be finite"),
    ("MixedPolicy/empty",
     lambda: MixedPolicy(components=(), weights=np.array([])),
     "mixture needs at least one component"),
    ("MixedPolicy/weight_count",
     lambda: MixedPolicy(components=(Policy.open_loop([0]),),
                         weights=np.array([0.5, 0.5])),
     "one weight per component required"),
    ("MixedPolicy/weight_sum",
     lambda: MixedPolicy(components=(Policy.open_loop([0]),),
                         weights=np.array([0.9])),
     "weights must be nonnegative and sum to 1"),
    ("MixedPolicy/weight_nan",
     lambda: MixedPolicy(components=(Policy.open_loop([0]),) * 2,
                         weights=np.array([np.nan, np.nan])),
     "weights must be nonnegative and sum to 1"),
    ("MixedPolicy.from_tables/float_tables",
     lambda: table_mixture(tables=np.zeros((2, 2, 2))),
     "tables must be a (D, H, S) integer stack"),
    ("MixedPolicy.from_tables/two_dim_tables",
     lambda: table_mixture(tables=np.zeros((2, 2), dtype=int)),
     "tables must be a (D, H, S) integer stack"),
    ("MixedPolicy.from_tables/action_equal_to_A",
     lambda: table_mixture(tables=np.ones((2, 2, 2), dtype=int)),
     "action index out of range"),
    ("MixedPolicy.from_tables/negative_action",
     lambda: table_mixture(tables=np.full((2, 2, 2), -1)),
     "action index out of range"),
    ("MixedPolicy.from_tables/num_actions_zero",
     lambda: table_mixture(num_actions=0),
     "an action table needs num_actions >= 1"),
    ("MixedPolicy.from_tables/empty_inverse",
     lambda: table_mixture(inverse=[], weights=[]),
     "mixture needs at least one component"),
    ("MixedPolicy.from_tables/float_inverse",
     lambda: table_mixture(inverse=[0.0, 1.0]),
     "inverse must be (K,) integers"),
    ("MixedPolicy.from_tables/inverse_past_the_stack",
     lambda: table_mixture(inverse=[0, 2]), "inverse index out of range"),
    ("MixedPolicy.from_tables/negative_inverse",
     lambda: table_mixture(inverse=[-1, 1]), "inverse index out of range"),
    ("MixedPolicy.from_tables/weight_count",
     lambda: table_mixture(weights=np.full(3, 1 / 3)),
     "one weight per component required"),
    ("MixedPolicy.from_tables/weight_sum",
     lambda: table_mixture(weights=np.full(2, 0.4)),
     "weights must be nonnegative and sum to 1"),
    *((f"{call}/table_mixture_{name}",
       lambda evaluate=evaluate, kw=kw: evaluate(table_mixture(**kw)),
       f"action tables with (H, S) = {shape} and num_actions = {actions} "
       "do not match the environment's (H, S) = (2, 2) and num_actions = 1")
      for name, kw, shape, actions in TABLE_MISMATCHES
      for call, evaluate in TABLE_EVALUATIONS),
    ("BonusFunction/table_range",
     lambda: BonusFunction(upper=1.0, table=np.array([[1.5]])),
     "bonus table out of [0, upper]"),
    ("BonusFunction/table_nan",
     lambda: BonusFunction(upper=1.0, table=np.array([[np.nan]])),
     "bonus table out of [0, upper]"),
    ("MabInstance/mu_star_nan",
     lambda: MabInstance(means=[0.0, 0.5], mu_star=np.nan),
     "revealed optimal mean must be finite"),
    ("MabInstance/mu_star_inf",
     lambda: MabInstance(means=[0.0, 0.5], mu_star=np.inf),
     "revealed optimal mean must be finite"),
    ("RffFeatureMap/bandwidth_nan", lambda: feature_map(bandwidth=np.nan),
     BANDWIDTH_MESSAGE),
    ("RffFeatureMap/bandwidth_inf", lambda: feature_map(bandwidth=np.inf),
     BANDWIDTH_MESSAGE),
    ("rff_featurize/bandwidth_nan",
     lambda: rff_featurize(np.zeros((3, 1)), m=2, bandwidth=np.nan,
                           rng=np.random.default_rng(0)),
     BANDWIDTH_MESSAGE),
    ("RffFeatureMap/states_last_axis",
     lambda: feature_map()(np.zeros((2, 3))),
     "states must be (..., 1), got shape (2, 3)"),
    ("RffFeatureMap/states_scalar", lambda: feature_map()(0.5),
     "states must be (..., 1), got shape ()"),
    ("state_values/mixture",
     lambda: state_values(mdp(), MixedPolicy(components=(STEADY,),
                                             weights=np.ones(1)), np.zeros(2)),
     "state values take one Policy, not a mixture: got MixedPolicy"),
    *((f"{cls.__name__}/{name}_fractional",
       lambda cls=cls, name=name: cls(**{name: 20.5}),
       f"{name} 20.5 needs an integer")
      for cls, name in INT_CONFIG_FIELDS),
    ("MinMaxConfig/k_iters_bool", lambda: MinMaxConfig(k_iters=True),
     "k_iters True needs an integer"),
    ("run_bandits/horizon_bool",
     lambda: run_bandits([MabInstance(means=[0.0, 0.5], mu_star=0.5)],
                         "ucb1", True, [np.random.default_rng(0)]),
     "horizon True needs an integer"),
    ("TabularBuffer/capacity_fractional",
     lambda: TabularBuffer(2, 1, capacity=2.5),
     "capacity 2.5 needs an integer"),
    ("TabularBuffer/capacity_negative",
     lambda: TabularBuffer(2, 1, capacity=-1), "capacity must be >= 0"),
    *((f"TabularBuffer/append_action_{i}",
       lambda a=a: TabularBuffer(2, 2).append(0, a, 1),
       f"tabular action {a!r} needs an integer index")
      for i, a in (("bool", True), ("np_bool", np.True_))),
    *((f"TabularBuffer/append_{i}",
       lambda args=args: TabularBuffer(2, 2).append(*args),
       f"tabular {name} {x!r} needs an integer index")
      for i, name, x, args in (
          ("state_bool", "state", True, (True, 0, 1)),
          ("state_np_bool", "state", np.True_, (np.True_, 0, 1)),
          ("next_state_bool", "next state", True, (0, 0, True)),
          ("next_state_np_bool", "next state", np.True_, (0, 0, np.True_)))),
    ("TabularBuffer/extend_trajectory_bool_states",
     lambda: TabularBuffer(2, 2).extend_trajectory(
         Trajectory(states=np.array([True, False]), actions=[0])),
     "states must be integers or floats, got bool"),
    *((f"KnrBuffer/append_action_{i}",
       lambda a=a: knr_buffer().append(np.zeros(2), a, np.ones(2)),
       f"KNR action {a!r} needs an integer index")
      for i, a in (("bool", True), ("np_bool", np.True_))),
    ("KnrBuffer/capacity_fractional",
     lambda: KnrBuffer(make_knr_example().features, 4, 2, 0.3, capacity=2.5),
     "capacity 2.5 needs an integer"),
    ("fit_tabular/t_zero", lambda: fit_tabular(TabularBuffer(2, 1), 0, 0.1),
     "model index t must be >= 1"),
    ("fit_tabular/delta_zero",
     lambda: fit_tabular(TabularBuffer(2, 1), 1, 0.0),
     "delta must lie in (0, 1)"),
    ("fit_tabular/delta_one",
     lambda: fit_tabular(TabularBuffer(2, 1), 1, 1.0),
     "delta must lie in (0, 1)"),
    ("fit_knr_model/t_zero",
     lambda: fit_knr_model(knr_buffer(), 0.05, 2.0, t=0, delta=0.1),
     "model index t must be >= 1"),
    ("fit_knr_model/delta_zero",
     lambda: fit_knr_model(knr_buffer(), 0.05, 2.0, t=1, delta=0.0),
     "delta must lie in (0, 1)"),
    ("fit_knr_model/delta_one",
     lambda: fit_knr_model(knr_buffer(), 0.05, 2.0, t=1, delta=1.0),
     "delta must lie in (0, 1)"),
    ("solve_minmax/disc_class", lambda: solve(disc="boxx"),
     "tabular solving needs disc_class 'box', got 'boxx'"),
    ("solve_minmax/knr_disc_class",
     lambda: solve_minmax(fit_knr_model(knr_buffer(), 0.05, 2.0, t=1,
                                        delta=0.1),
                          None, "box", np.zeros(2), MinMaxConfig(k_iters=2),
                          horizon=2, init_state=np.zeros(2), num_actions=2),
     "knr solving needs an RffFeatureMap"),
    *((f"solve_minmax/warm_{i}", lambda warm=warm: solve(warm=warm),
       "a warm mask must be S = 2 bytes of 0 or 1")
      for i, warm in (("short", [b"\x01"]), ("long", [b"\x00\x01\x00"]),
                      ("not_01", [b"\x00\x02"]), ("str", ["01"]))),
    ("solve_minmax/warm_tuple", lambda: solve(warm=(b"\x00\x01",)),
     "warm must be a list of masks, got tuple"),
    ("solve_minmax/knr_warm",
     lambda: solve_minmax(fit_knr_model(knr_buffer(), 0.05, 2.0, t=1,
                                        delta=0.1),
                          None, "box", np.zeros(2), MinMaxConfig(k_iters=2),
                          horizon=2, init_state=np.zeros(2), num_actions=2,
                          warm=[]),
     "warm masks start only a tabular solve"),
    *((f"solve_minmax/{i}", lambda kw=kw: solve(**kw), msg)
      for i, (kw, msg) in zip(GAME_IDS, GAME_CASES)),
    *((f"game_value_lp/{i}", lambda kw=kw: lp(**kw), msg)
      for i, (kw, msg) in zip(GAME_IDS, GAME_CASES)),
]


@pytest.mark.parametrize("call, message", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_bad_input_is_rejected_at_its_entry(call, message):
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        call()
