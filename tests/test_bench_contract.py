"""The benchmark's trace points must match the package.

``perfbench/workloads.py`` wraps package functions by module attribute
and tags some spans with call arguments bound by name.  A renamed
function or parameter would make the tracer fail, or a layer read zero,
only when the benchmark runs; these tests catch it in the suite.  The
benchmark files are imported, never changed.
"""

import importlib
import inspect
import os
import sys
import types

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


@pytest.fixture(scope="module")
def workloads():
    # workloads.py imports its sibling modules by bare name
    sys.path.insert(0, PERFBENCH)
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.path.remove(PERFBENCH)


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
