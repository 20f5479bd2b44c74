"""Model-based imitation learning from state-only demonstrations.

The library couples calibrated dynamics models and optimism bonuses with
min-max occupancy matching, plus the bandit hardness experiment and numerical
checks for every supporting inequality.
"""

from .envs import (
    ConfigurationError,
    KnrSystem,
    MixedPolicy,
    Policy,
    TabularMdp,
    Trajectory,
    occupancy_exact,
    rollout,
    rollouts,
    value_eval_mc,
    value_eval_tabular,
)
from .loop import MobileConfig, RunRecord, regret_summary, run_mobile
from .mab import (
    BanditBatch,
    MabInstance,
    cumulative_regret_curve,
    make_hard_family,
    reduction_mdp,
    run_bandit,
    run_bandits,
)
from .verify import CheckReport, run_all_checks
from .worlds import (
    make_chain,
    make_combination_lock,
    make_knr_example,
    make_random_mdp,
    make_random_policy,
    make_two_state,
)

__all__ = [
    "BanditBatch",
    "CheckReport",
    "ConfigurationError",
    "KnrSystem",
    "MabInstance",
    "MixedPolicy",
    "MobileConfig",
    "Policy",
    "RunRecord",
    "TabularMdp",
    "Trajectory",
    "cumulative_regret_curve",
    "make_chain",
    "make_combination_lock",
    "make_hard_family",
    "make_knr_example",
    "make_random_mdp",
    "make_random_policy",
    "make_two_state",
    "occupancy_exact",
    "reduction_mdp",
    "regret_summary",
    "rollout",
    "rollouts",
    "run_all_checks",
    "run_bandit",
    "run_bandits",
    "run_mobile",
    "value_eval_mc",
    "value_eval_tabular",
]

__version__ = "0.1.0"
