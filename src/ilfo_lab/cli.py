"""Experiment runner: strict JSON configs, deterministic execution, CSV output.

Exit codes: 0 success, 1 verify-suite check failure, 2 config error,
3 I/O failure. Per-seed work units rebuild their environment from the
serialized config inside the worker, so results do not depend on the worker
count; CSVs are byte-stable (LF endings, '.' decimals, 17 significant
digits).
"""

import argparse
import dataclasses
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .envs import ConfigurationError, value_eval_mc
from .expert import (ExpertDataset, sample_expert_states, solve_openloop_knr,
                     solve_optimal_tabular)
from .loop import MobileConfig, regret_summary, run_mobile, write_csv_rows
from .mab import (ALGORITHMS, cumulative_regret_curve, fit_loglog_slope,
                  make_hard_family, run_bandit, write_regret_csv)
from .planner import KnrSearchConfig, MinMaxConfig
from .verify import run_all_checks
from .worlds import (make_chain, make_combination_lock, make_knr_example,
                     make_two_state)

SUBCOMMANDS = ("mobile-tabular", "mobile-knr", "mab-lb", "verify-suite")
TOP_KEYS = ("subcommand", "env", "mobile", "bandit", "seeds", "out")

# seed bases keep the run rng, the expert sampler, and the reference-value
# estimator on separate deterministic streams per seed
EXPERT_SEED_BASE = 2000
REFERENCE_SEED_BASE = 9000
BANDIT_SEED_STRIDE = 1000

TABULAR_KINDS = ("chain", "lock", "two_state")
ENV_KEYS = {
    "chain": ("num_states", "num_actions", "horizon", "slip"),
    "lock": ("n_chain", "num_actions", "horizon", "q", "code_seed"),
    "two_state": ("p_forward", "horizon"),
    "knr_example": ("noise_std", "horizon"),
}

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
    seeds: tuple
    out: str
    env: dict | None = None
    mobile: MobileConfig | None = None
    bandit: dict | None = None


def _check_keys(given: dict, allowed, path: str) -> None:
    for key in given:
        if key == "lambda":
            raise ConfigurationError(
                f"'{path}lambda' is ambiguous: use 'mobile.lam_ridge' for "
                "the model fit or 'mobile.lam_bonus' for the bonus scale")
        if key not in allowed:
            raise ConfigurationError(f"unknown key '{path}{key}'")


def _build_mobile(d: dict) -> MobileConfig:
    allowed = tuple(f.name for f in dataclasses.fields(MobileConfig))
    _check_keys(d, allowed, "mobile.")
    kwargs = dict(d)
    if "minmax" in kwargs:
        mm = kwargs["minmax"]
        if not isinstance(mm, dict):
            raise ConfigurationError("'mobile.minmax' must be an object")
        mm_allowed = tuple(f.name for f in dataclasses.fields(MinMaxConfig))
        _check_keys(mm, mm_allowed, "mobile.minmax.")
        mm_kwargs = dict(mm)
        if "knr_search" in mm_kwargs:
            ks = mm_kwargs["knr_search"]
            if not isinstance(ks, dict):
                raise ConfigurationError(
                    "'mobile.minmax.knr_search' must be an object")
            ks_allowed = tuple(f.name
                               for f in dataclasses.fields(KnrSearchConfig))
            _check_keys(ks, ks_allowed, "mobile.minmax.knr_search.")
            mm_kwargs["knr_search"] = KnrSearchConfig(**ks)
        kwargs["minmax"] = MinMaxConfig(**mm_kwargs)
    try:
        return MobileConfig(**kwargs)
    except TypeError as exc:
        raise ConfigurationError(f"invalid value in 'mobile': {exc}") from exc


def _build_bandit(d: dict) -> dict:
    _check_keys(d, ("num_arms", "horizon", "algorithms"), "bandit.")
    out = {"num_arms": 10, "horizon": 20_000,
           "algorithms": list(ALGORITHMS)}
    out.update(d)
    if not isinstance(out["num_arms"], int) or out["num_arms"] < 2:
        raise ConfigurationError("'bandit.num_arms' must be an int >= 2")
    if not isinstance(out["horizon"], int) or out["horizon"] < out["num_arms"]:
        raise ConfigurationError(
            "'bandit.horizon' must be an int >= bandit.num_arms")
    algs = out["algorithms"]
    if not isinstance(algs, list) or not algs:
        raise ConfigurationError("'bandit.algorithms' must be a nonempty list")
    for a in algs:
        if a not in ALGORITHMS:
            raise ConfigurationError(f"'bandit.algorithms': unknown '{a}'")
    return out


def _check_env(env: dict, subcommand: str) -> dict:
    if not isinstance(env, dict):
        raise ConfigurationError("'env' must be an object")
    kind = env.get("kind")
    if kind not in ENV_KEYS:
        raise ConfigurationError(
            f"'env.kind' must be one of {sorted(ENV_KEYS)}, got {kind!r}")
    _check_keys({k: v for k, v in env.items() if k != "kind"},
                ENV_KEYS[kind], "env.")
    if subcommand == "mobile-tabular" and kind not in TABULAR_KINDS:
        raise ConfigurationError(
            f"'env.kind' {kind!r} is not a tabular environment")
    if subcommand == "mobile-knr" and kind != "knr_example":
        raise ConfigurationError("mobile-knr requires env.kind 'knr_example'")
    return dict(env)


def parse_config(text: str,
                 default_subcommand: str | None = None) -> ExperimentConfig:
    """Strict JSON parse with defaults filled; unknown keys are errors."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError("config must be a JSON object")
    _check_keys(raw, TOP_KEYS, "")

    subcommand = raw.get("subcommand", default_subcommand)
    if subcommand is None:
        raise ConfigurationError("missing 'subcommand'")
    if subcommand not in SUBCOMMANDS:
        raise ConfigurationError(
            f"'subcommand' must be one of {list(SUBCOMMANDS)}")
    if (default_subcommand is not None and "subcommand" in raw
            and raw["subcommand"] != default_subcommand):
        raise ConfigurationError(
            f"config says subcommand {raw['subcommand']!r} but the command "
            f"line says {default_subcommand!r}")

    seeds = raw.get("seeds", [0])
    if (not isinstance(seeds, list) or not seeds
            or not all(isinstance(s, int) for s in seeds)):
        raise ConfigurationError("'seeds' must be a nonempty list of ints")
    out = raw.get("out", "runs")
    if not isinstance(out, str) or not out:
        raise ConfigurationError("'out' must be a nonempty path string")

    env = mobile = bandit = None
    if subcommand in ("mobile-tabular", "mobile-knr"):
        default_kind = "chain" if subcommand == "mobile-tabular" else "knr_example"
        env = _check_env(raw.get("env", {"kind": default_kind}), subcommand)
        mobile = _build_mobile(raw.get("mobile", {}))
    elif "env" in raw or "mobile" in raw:
        raise ConfigurationError(
            f"'env'/'mobile' do not apply to {subcommand}")
    if subcommand == "mab-lb":
        bandit = _build_bandit(raw.get("bandit", {}))
    elif "bandit" in raw:
        raise ConfigurationError(f"'bandit' does not apply to {subcommand}")

    return ExperimentConfig(subcommand=subcommand, seeds=tuple(seeds),
                            out=out, env=env, mobile=mobile, bandit=bandit)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical JSON; parse(serialize(cfg)) equals cfg."""
    d = {"subcommand": cfg.subcommand, "seeds": list(cfg.seeds),
         "out": cfg.out}
    if cfg.env is not None:
        d["env"] = cfg.env
    if cfg.mobile is not None:
        d["mobile"] = dataclasses.asdict(cfg.mobile)
    if cfg.bandit is not None:
        d["bandit"] = cfg.bandit
    return json.dumps(d, indent=2, sort_keys=True) + "\n"


def _build_env(env: dict):
    kind = env["kind"]
    args = {k: v for k, v in env.items() if k != "kind"}
    factory = {"chain": make_chain, "lock": make_combination_lock,
               "two_state": make_two_state,
               "knr_example": make_knr_example}[kind]
    return factory(**args)


def _mobile_seed_task(cfg_text: str, seed: int) -> list:
    """One seed of a mobile run; returns the summary row."""
    cfg = parse_config(cfg_text)
    env = _build_env(cfg.env)
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


def _bandit_pair_task(cfg_text: str, algorithm: str, inst_idx: int) -> list:
    """All seeds of one (algorithm, instance) pair; writes the curve CSV."""
    cfg = parse_config(cfg_text)
    b = cfg.bandit
    family = make_hard_family(b["num_arms"], b["horizon"])
    inst = family[inst_idx]
    traces = [run_bandit(inst, algorithm, b["horizon"],
                         np.random.default_rng(BANDIT_SEED_STRIDE * s
                                               + inst_idx))
              for s in cfg.seeds]
    t_grid, mean, stderr = cumulative_regret_curve(traces)
    path = os.path.join(cfg.out, f"mab-{algorithm}-{inst.name}.csv")
    write_regret_csv(path, algorithm, inst.name, t_grid, mean, stderr)
    slope = fit_loglog_slope(t_grid, mean)
    return [algorithm, inst.name, float(mean[-1]), slope]


def _verify_knr_record(seed: int):
    """Small deterministic knr run feeding the record-based checks."""
    from .envs import rollout

    system = make_knr_example(noise_std=0.05, horizon=3)
    expert = solve_openloop_knr(system)
    rng = np.random.default_rng(EXPERT_SEED_BASE + seed)
    data = ExpertDataset(trajectories=[rollout(system, expert, rng).states
                                       for _ in range(10)])
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

    cfg_text = serialize_config(cfg)
    if cfg.subcommand in ("mobile-tabular", "mobile-knr"):
        tasks = [(cfg_text, seed) for seed in cfg.seeds]
        rows = _map_tasks(_mobile_seed_task, tasks, jobs)
        write_csv_rows(os.path.join(cfg.out, "summary.csv"),
                       MOBILE_SUMMARY_COLUMNS, rows, MOBILE_SUMMARY_FORMAT)
        return 0

    b = cfg.bandit
    family_size = b["num_arms"] + 1
    tasks = [(cfg_text, alg, idx) for alg in b["algorithms"]
             for idx in range(family_size)]
    rows = _map_tasks(_bandit_pair_task, tasks, jobs)
    write_csv_rows(os.path.join(cfg.out, "summary.csv"),
                   MAB_SUMMARY_COLUMNS, rows, MAB_SUMMARY_FORMAT)
    return 0


def resolve_jobs(flag_value: int | None) -> int:
    env_value = os.environ.get("ILFO_LAB_JOBS")
    if env_value is not None:
        try:
            jobs = int(env_value)
        except ValueError as exc:
            raise ConfigurationError(
                f"ILFO_LAB_JOBS must be an int, got {env_value!r}") from exc
    else:
        jobs = flag_value if flag_value is not None else 1
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
                       help="parallel workers (ILFO_LAB_JOBS overrides)")
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
            if not seeds:
                raise ConfigurationError("--seeds must name at least one seed")
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
