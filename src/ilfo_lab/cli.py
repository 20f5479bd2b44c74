"""Experiment runner: strict JSON configs, deterministic execution, CSV output.

Exit codes: 0 success, 1 verify-suite check failure, 2 config error,
3 I/O failure. Parsing builds every object a config names, before anything
is written. Work units take the frozen ExperimentConfig and rebuild their
environment from it, so results do not depend on the worker count; CSVs
are byte-stable (LF endings, '.' decimals, 17 significant digits).
"""

import argparse
import dataclasses
import inspect
import json
import os
import sys
import types
import typing
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .envs import ConfigurationError, value_eval_mc
from .expert import (OPENLOOP_SEARCH_LIMIT, sample_expert_states,
                     solve_openloop_knr, solve_optimal_tabular)
from .loop import MobileConfig, regret_summary, run_mobile, write_csv_rows
from .mab import (BanditConfig, cumulative_regret_curve, fit_loglog_slope,
                  make_hard_family, run_bandits, write_regret_csv)
from .mab import run_bandit  # unused here; perfbench traces cli.run_bandit
from .planner import MinMaxConfig
from .verify import run_all_checks
from .worlds import (make_chain, make_combination_lock, make_knr_example,
                     make_two_state)

SUBCOMMANDS = ("mobile-tabular", "mobile-knr", "mab-lb", "verify-suite")
MOBILE_SUBCOMMANDS = ("mobile-tabular", "mobile-knr")

# seed bases keep the run rng, the expert sampler, and the reference-value
# estimator on separate deterministic streams per seed
EXPERT_SEED_BASE = 2000
REFERENCE_SEED_BASE = 9000
BANDIT_SEED_STRIDE = 1000

TABULAR_KINDS = ("chain", "lock", "two_state")
# env.kind -> constructor; the other env keys are its keyword arguments
ENV_FACTORIES = {"chain": make_chain, "lock": make_combination_lock,
                 "two_state": make_two_state, "knr_example": make_knr_example}

MOBILE_SUMMARY_COLUMNS = ("seed", "expert_value", "best_regret",
                          "final_regret", "best_iterate",
                          "iterations_to_threshold", "info_gain_total")
MOBILE_SUMMARY_FORMAT = "%d,%.17g,%.17g,%.17g,%d,%d,%.17g"
MAB_SUMMARY_COLUMNS = ("algorithm", "instance_id", "final_mean_regret",
                       "loglog_slope")
MAB_SUMMARY_FORMAT = "%s,%s,%.17g,%.17g"


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description."""

    subcommand: str
    seeds: tuple[int, ...] = (0,)
    out: str = "runs"
    env: dict | None = None
    mobile: MobileConfig | None = None
    bandit: BanditConfig | None = None

    def __post_init__(self):
        if self.subcommand not in SUBCOMMANDS:
            raise ConfigurationError(
                f"'subcommand' must be one of {list(SUBCOMMANDS)}")
        if not isinstance(self.seeds, tuple) or not self.seeds or any(
                type(s) is not int or s < 0 for s in self.seeds):
            raise ConfigurationError("'seeds' must be a nonempty list of ints >= 0")
        if not self.out:
            raise ConfigurationError("'out' must be a nonempty path string")
        if self.subcommand not in MOBILE_SUBCOMMANDS and (
                self.env is not None or self.mobile is not None):
            raise ConfigurationError(
                f"'env'/'mobile' do not apply to {self.subcommand}")
        if self.subcommand != "mab-lb" and self.bandit is not None:
            raise ConfigurationError(
                f"'bandit' does not apply to {self.subcommand}")
        if self.env is not None:
            env = _check_env(self.env, self.subcommand)
            if self.subcommand == "mobile-knr" and self.mobile is not None:
                _check_knr_search(env, self.mobile.minmax.knr_search)


# annotation -> (one value, a list of them), for type-error messages
_TYPE_NAMES = {int: ("an int", "ints"), float: ("a number", "numbers"),
               str: ("a string", "strings"), type(None): ("null", "nulls")}


def _matches(value, ann) -> bool:
    """Exact JSON type match (a bool is no int); a float also takes an int."""
    return type(value) in ((int, float) if ann is float else (ann,))


def _argument(value, ann, path: str):
    """The JSON value at path as an argument of annotation ann.

    A union takes the first option the value fits, a dataclass is built
    from an object, and ``tuple[X, ...]`` takes a nonempty list of X.
    """
    options = typing.get_args(ann) if isinstance(ann, types.UnionType) else (ann,)
    for option in options:
        if dataclasses.is_dataclass(option):
            if isinstance(value, dict):
                return _build(option, value, path + ".")
        elif typing.get_origin(option) is tuple:
            if isinstance(value, list) and value and all(
                    _matches(v, typing.get_args(option)[0]) for v in value):
                return tuple(value)
        elif _matches(value, option):
            return value
    wanted = " or ".join(
        f"a nonempty list of {_TYPE_NAMES[typing.get_args(o)[0]][1]}"
        if typing.get_origin(o) is tuple
        else _TYPE_NAMES.get(o, ("an object",))[0] for o in options)
    raise ConfigurationError(f"'{path}' must be {wanted}, got {value!r}")


def _build(fn, given: dict, path: str):
    """fn(**given), each key checked against fn's signature; path is the
    key prefix in messages ("env."), added to fn's own errors as well."""
    params = inspect.signature(fn, eval_str=True).parameters
    for key in given:
        if key == "lambda":
            raise ConfigurationError(
                f"'{path}lambda' is ambiguous: use 'mobile.lam_ridge' for "
                "the model fit or 'mobile.lam_bonus' for the bonus scale")
        if key not in params:
            raise ConfigurationError(f"unknown key '{path}{key}'")
    for name, param in params.items():
        if param.default is param.empty and name not in given:
            raise ConfigurationError(f"missing key '{path}{name}'")
    kwargs = {key: _argument(value, params[key].annotation, path + key)
              for key, value in given.items()}
    try:
        return fn(**kwargs)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}{exc}") from exc


def _check_env(env: dict, subcommand: str):
    """Build the environment env describes, so its own checks run."""
    args = dict(env)
    kind = args.pop("kind", None)
    if not isinstance(kind, str) or kind not in ENV_FACTORIES:
        raise ConfigurationError(
            f"'env.kind' must be one of {sorted(ENV_FACTORIES)}, got {kind!r}")
    tabular = subcommand == "mobile-tabular"
    if (kind in TABULAR_KINDS) != tabular:
        raise ConfigurationError(f"'env.kind' {kind!r} is not a "
                                 f"{'tabular' if tabular else 'knr_example'} "
                                 f"environment, as {subcommand} needs")
    return _build(ENV_FACTORIES[kind], args, "env.")


def _check_knr_search(system, search) -> None:
    """Reject an A^H that the expert's or the planner's search cannot run."""
    A, H = system.num_actions, system.horizon
    if A ** H > OPENLOOP_SEARCH_LIMIT:
        raise ConfigurationError(
            f"'env.horizon' {H}: the expert's open-loop search space "
            f"{A}^{H} exceeds {OPENLOOP_SEARCH_LIMIT}")
    if A ** H > search.exhaustive_limit and search.n_candidates == 0:
        raise ConfigurationError(
            f"'mobile.minmax.knr_search.exhaustive_limit': A^H = {A ** H} "
            f"exceeds the exhaustive budget {search.exhaustive_limit} and "
            "random shooting is disabled "
            "('mobile.minmax.knr_search.n_candidates' is 0)")


def parse_config(text: str,
                 default_subcommand: str | None = None) -> ExperimentConfig:
    """Strict JSON parse with defaults filled; unknown keys are errors."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError("config must be a JSON object")
    subcommand = raw.get("subcommand", default_subcommand)
    if default_subcommand is not None:
        if subcommand != default_subcommand:
            raise ConfigurationError(
                f"config says subcommand {subcommand!r} but the command "
                f"line says {default_subcommand!r}")
        raw["subcommand"] = subcommand
    if subcommand in MOBILE_SUBCOMMANDS:
        default_kind = "chain" if subcommand == "mobile-tabular" else "knr_example"
        raw.setdefault("env", {"kind": default_kind})
        raw.setdefault("mobile", {})
    elif subcommand == "mab-lb":
        raw.setdefault("bandit", {})
    return _build(ExperimentConfig, raw, "")


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical JSON; parse(serialize(cfg)) equals cfg."""
    d = {k: v for k, v in dataclasses.asdict(cfg).items() if v is not None}
    return json.dumps(d, indent=2, sort_keys=True) + "\n"


def _mobile_seed_task(cfg: ExperimentConfig, seed: int) -> list:
    """One seed of a mobile run; returns the summary row."""
    args = dict(cfg.env)
    env = ENV_FACTORIES[args.pop("kind")](**args)
    m = cfg.mobile
    if cfg.subcommand == "mobile-tabular":
        expert = solve_optimal_tabular(env)
        expert_value = None
    else:
        expert = solve_openloop_knr(env)
        expert_value, _ = value_eval_mc(
            env, expert, env.cost_of,
            n_rollouts=max(64, m.knr_eval_rollouts),
            rng=np.random.default_rng(REFERENCE_SEED_BASE + seed))
    data = sample_expert_states(
        env, expert, m.n_expert,
        np.random.default_rng(EXPERT_SEED_BASE + seed))
    _, record = run_mobile(env, data, m, np.random.default_rng(seed),
                           expert_value=expert_value)
    record.write_csv(os.path.join(cfg.out,
                                  f"{cfg.subcommand}-seed{seed}.csv"))
    summary = regret_summary(record)
    return [seed, record.expert_value, summary["best_regret"],
            summary["final_regret"], summary["best_iterate"],
            summary["iterations_to_threshold"], record.info_gain_total]


def _bandit_algorithm_task(cfg: ExperimentConfig, algorithm: str) -> list:
    """Every (instance, seed) run of one algorithm as one batch; writes each
    instance's curve CSV and returns its summary rows, in instance order."""
    b = cfg.bandit
    family = make_hard_family(b.num_arms, b.horizon)
    pairs = [(idx, s) for idx in range(len(family)) for s in cfg.seeds]
    batch = run_bandits(
        [family[idx] for idx, _ in pairs], algorithm, b.horizon,
        [np.random.default_rng(BANDIT_SEED_STRIDE * s + idx)
         for idx, s in pairs])
    n_seeds = len(cfg.seeds)
    rows = []
    for idx, inst in enumerate(family):
        t_grid, mean, stderr = cumulative_regret_curve(
            batch.pseudo_regret[idx * n_seeds:(idx + 1) * n_seeds])
        path = os.path.join(cfg.out, f"mab-{algorithm}-{inst.name}.csv")
        write_regret_csv(path, algorithm, inst.name, t_grid, mean, stderr)
        slope = fit_loglog_slope(t_grid, mean)
        rows.append([algorithm, inst.name, float(mean[-1]), slope])
    return rows


def _verify_knr_record(seed: int):
    """Small deterministic knr run feeding the record-based checks."""
    system = make_knr_example(noise_std=0.05, horizon=3)
    expert = solve_openloop_knr(system)
    data = sample_expert_states(system, expert, 10,
                                np.random.default_rng(EXPERT_SEED_BASE + seed))
    ref, _ = value_eval_mc(system, expert, system.cost_of, n_rollouts=16,
                           rng=np.random.default_rng(REFERENCE_SEED_BASE
                                                     + seed))
    mcfg = MobileConfig(t_iters=5, n_expert=10, mmd_features=16,
                        knr_eval_rollouts=8,
                        minmax=MinMaxConfig(k_iters=3))
    _, record = run_mobile(system, data, mcfg, np.random.default_rng(seed),
                           expert_value=ref)
    return record


def _map_tasks(fn, tasks, jobs: int):
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(*t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, *zip(*tasks)))


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> int:
    """Execute the config; write CSVs, a summary, and a config snapshot."""
    os.makedirs(cfg.out, exist_ok=True)
    with open(os.path.join(cfg.out, "config.json"), "w",
              encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_config(cfg))

    if cfg.subcommand == "verify-suite":
        reports = run_all_checks(seed=cfg.seeds[0],
                                 knr_record=_verify_knr_record(cfg.seeds[0]))
        with open(os.path.join(cfg.out, "verify_report.json"), "w",
                  encoding="utf-8", newline="\n") as fh:
            json.dump([r.to_dict() for r in reports], fh, indent=2)
            fh.write("\n")
        return 0 if all(r.passed for r in reports) else 1

    if cfg.subcommand in MOBILE_SUBCOMMANDS:
        tasks = [(cfg, seed) for seed in cfg.seeds]
        rows = _map_tasks(_mobile_seed_task, tasks, jobs)
        write_csv_rows(os.path.join(cfg.out, "summary.csv"),
                       MOBILE_SUMMARY_COLUMNS, rows, MOBILE_SUMMARY_FORMAT)
        return 0

    tasks = [(cfg, alg) for alg in cfg.bandit.algorithms]
    rows = [row for alg_rows in _map_tasks(_bandit_algorithm_task, tasks, jobs)
            for row in alg_rows]
    write_csv_rows(os.path.join(cfg.out, "summary.csv"),
                   MAB_SUMMARY_COLUMNS, rows, MAB_SUMMARY_FORMAT)
    return 0


def resolve_jobs(flag_value: int | None) -> int:
    jobs = 1 if flag_value is None else flag_value
    if jobs < 1:
        raise ConfigurationError("jobs must be >= 1")
    return jobs


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ilfo-lab",
        description="imitation-from-observation experiments and checks")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seeds",
                       help="comma-separated seed list (overrides config)")
        p.add_argument("--jobs", type=int, default=None,
                       help="parallel workers (default 1)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config is not None:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = "{}"
        cfg = parse_config(text, default_subcommand=args.subcommand)
        if args.out is not None:
            cfg = dataclasses.replace(cfg, out=args.out)
        if args.seeds is not None:
            try:
                seeds = tuple(int(x) for x in args.seeds.split(","))
            except ValueError as exc:
                raise ConfigurationError(
                    f"--seeds must be comma-separated ints: {exc}") from exc
            cfg = dataclasses.replace(cfg, seeds=seeds)
        jobs = resolve_jobs(args.jobs)
        return run_experiment(cfg, jobs=jobs)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
