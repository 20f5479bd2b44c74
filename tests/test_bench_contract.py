"""The benchmark's trace points and output checks must match the package.

``perfbench/workloads.py`` wraps package functions by module attribute
and tags some spans with call arguments bound by name, and
``perfbench/checks.py`` reads the records and mixtures a run returns.  A
renamed function, parameter or field would make the tracer or a check
fail, or a layer read zero, only when the benchmark runs; these tests
catch it in the suite.  The benchmark files are imported, never changed.
"""

import importlib
import inspect
import json
import os
import sys
import types

import numpy as np
import pytest

from ilfo_lab import cli
from ilfo_lab.envs import value_eval_mc
from ilfo_lab.expert import (sample_expert_states, solve_openloop_knr,
                             solve_optimal_tabular)
from ilfo_lab.loop import MobileConfig, run_mobile
from ilfo_lab.planner import MinMaxConfig
from ilfo_lab.worlds import make_chain, make_combination_lock, make_knr_example

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def _perfbench_module(name):
    # the benchmark's modules import their siblings by bare name
    sys.path.insert(0, PERFBENCH)
    try:
        yield importlib.import_module(name)
    finally:
        sys.path.remove(PERFBENCH)


@pytest.fixture(scope="module")
def workloads():
    yield from _perfbench_module("workloads")


@pytest.fixture(scope="module")
def checks():
    yield from _perfbench_module("checks")


@pytest.fixture(scope="module")
def tracer():
    yield from _perfbench_module("tracer")


def _keys_read(fn) -> set:
    """Names a tag reads from its bound-arguments mapping: the string
    constants of its code, nested code objects included."""
    keys, codes = set(), [fn.__code__]
    while codes:
        code = codes.pop()
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                codes.append(const)
            elif isinstance(const, str) and const.isidentifier():
                keys.add(const)
    return keys


def test_every_trace_point_resolves(workloads):
    points = workloads.trace_points()
    assert points
    for module, attr, name, _ in points:
        assert callable(getattr(module, attr, None)), \
            f"{module.__name__}.{attr} ({name}) does not resolve"


def test_every_trace_point_is_reached(workloads, tracer, tmp_path):
    # short chain, lock ensemble and KNR ensemble runs and a small mab-lb
    # CLI call pass through every traced call site; the CLI plays its
    # bandits through run_bandits, so mab.run_bandit alone reads zero
    config = tmp_path / "mab.json"
    config.write_text(json.dumps({"subcommand": "mab-lb", "bandit": {
        "num_arms": 3, "horizon": 60}}))
    traced = tracer.Tracer()
    with traced.installed(workloads.trace_points()):
        for build, mode in ((make_chain, "theory"),
                            (make_combination_lock, "ensemble")):
            env = build()
            data = sample_expert_states(env, solve_optimal_tabular(env), 20,
                                        np.random.default_rng(2000))
            run_mobile(env, data, MobileConfig(
                t_iters=3, n_expert=20, bonus_mode=mode,
                minmax=MinMaxConfig(k_iters=3)), np.random.default_rng(0))
        env = make_knr_example()
        data = sample_expert_states(env, solve_openloop_knr(env), 10,
                                    np.random.default_rng(2000))
        run_mobile(env, data, MobileConfig(
            t_iters=4, n_expert=10, bonus_mode="ensemble", mmd_features=8,
            knr_eval_rollouts=4, minmax=MinMaxConfig(k_iters=3)),
            np.random.default_rng(0), expert_value=0.0)
        assert cli.main(["mab-lb", "--config", str(config), "--out",
                         str(tmp_path / "out"), "--seeds", "0",
                         "--jobs", "1"]) == 0
    counts = {name: 0 for _, _, name, _ in workloads.trace_points()}
    for span in traced.take():
        counts[span[0]] += 1
    assert counts.pop("mab.run_bandit") == 0
    assert counts["discriminators.mmd_update"] == 4 * 3
    assert not [name for name, n in counts.items() if n == 0]


def test_every_tag_reads_parameters_of_its_target(workloads):
    checked = 0
    for module, attr, name, tag in workloads.trace_points():
        if tag is None:
            continue
        params = inspect.signature(getattr(module, attr)).parameters
        for key in _keys_read(tag):
            assert key in params, \
                f"tag of {name} reads '{key}', not a parameter of {attr}"
            checked += 1
    assert checked >= 5


def test_direct_calls_bind_to_their_targets(workloads):
    # the calls workloads.py makes outside its trace points, with the
    # same positional and keyword arguments
    env, policy, rng = object(), object(), object()
    calls = [
        (workloads.value_eval_mc, (env, policy, len),
         dict(n_rollouts=256, rng=rng)),
        (workloads.sample_expert_states, (env, policy, 500, rng), {}),
        (workloads.run_mobile, (env, object(), object(), rng),
         dict(expert_value=None)),
    ]
    for fn, args, kwargs in calls:
        inspect.signature(fn).bind(*args, **kwargs)


def test_short_chain_run_passes_the_benchmark_checks(checks):
    # check_tabular_run reads the mixture's components and weights and
    # each component's action_probs
    env = make_chain()
    expert = solve_optimal_tabular(env)
    data = sample_expert_states(env, expert, 50, np.random.default_rng(2000))
    cfg = MobileConfig(t_iters=6, n_expert=50,
                       minmax=MinMaxConfig(k_iters=20))
    mixture, record = run_mobile(env, data, cfg, np.random.default_rng(0))
    checks.check_tabular_run(env, cfg.bonus_mode, cfg.lam_bonus, record,
                             mixture, np.random.default_rng(1), 400)


def test_short_knr_run_passes_the_benchmark_checks(checks):
    env = make_knr_example()
    expert = solve_openloop_knr(env)
    data = sample_expert_states(env, expert, 20, np.random.default_rng(2000))
    ref, _ = value_eval_mc(env, expert, env.cost_of, n_rollouts=64,
                           rng=np.random.default_rng(9000))
    cfg = MobileConfig(t_iters=8, n_expert=20, mmd_features=16,
                       knr_eval_rollouts=8, minmax=MinMaxConfig(k_iters=3))
    _, record = run_mobile(env, data, cfg, np.random.default_rng(0),
                           expert_value=ref)
    lam_ridge = env.noise_std ** 2 / cfg.w_max ** 2
    checks.check_knr_expert(env, expert)
    checks.check_knr_covariances(record, lam_ridge)
    checks.check_knr_potential(record, lam_ridge)
    checks.check_info_gain(record, env.horizon)
    checks.check_mean_bonus(record, cfg.bonus_mode, env.horizon,
                            cfg.lam_bonus)
