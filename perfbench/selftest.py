"""Shows that every output check of the benchmark can fail.

Each workload runs one round at its benchmark settings (about 15 s in
all).  Every check then runs twice: on the real output, where it must
pass, and on a copy with one value perturbed, where it must fail under
its own name.

    python3 perfbench/selftest.py [--seed N]

Exits 0 when every perturbation was caught, 1 otherwise.
"""

from __future__ import annotations

import argparse
import copy
import math
import os
import shutil
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks                                     # noqa: E402
import workloads                                  # noqa: E402
from checks import CheckFailed                    # noqa: E402
from ilfo_lab.envs import MixedPolicy, Policy    # noqa: E402


def patched(obj, **changes):
    """Shallow copy with attributes replaced, skipping validation."""
    out = copy.copy(obj)
    out.__dict__.update(changes)
    return out


def shifted(arr, index, by):
    out = np.array(arr, dtype=float, copy=True)
    out[index] += by
    return out


def one_round(cls, seed):
    work = cls(seed)
    work.setup()
    outputs, failed = work.run_round(None)
    if failed:
        raise SystemExit(f"selftest: {failed} operations of {cls.__name__} "
                         "failed")
    return work, outputs


def tabular_cases(seed):
    chain, outs = one_round(workloads.ChainFw, seed)
    env, (mix, rec) = chain.ops[0].env, outs[0]
    h = env.horizon
    rng = lambda: np.random.default_rng([4242, seed, 0])        # noqa: E731
    stay = Policy.deterministic(np.zeros((h, env.num_states), dtype=int), 3)
    halves = np.full((h, env.num_states, 3), 0.0)
    halves[:, :, :2] = 0.5
    lock, lock_outs = one_round(workloads.LockModes, seed)
    by_mode = {op.mode: out for op, out in zip(lock.ops, lock_outs)}
    lock_h = lock.ops[0].env.horizon
    regrets = {m: [o[1].regret for op, o in zip(lock.ops, lock_outs)
                   if op.mode == m] for m in ("theory", "off")}
    lam = lock.ops[0].cfg.lam_bonus
    bump = rec.info_gain_cum.copy()     # increment 5 becomes -1e-6
    bump[5:] -= bump[5] - bump[4] + 1e-6

    def rerun(changed):
        work = workloads.ChainFw(seed)
        work.ops, work.first = chain.ops, None
        work.check(outs)
        work.check([changed])

    return [
        ("expert_value_optimal",
         lambda r: checks.check_expert_value(env, r), rec,
         patched(rec, expert_value=rec.expert_value + 1e-6)),
        ("regret_nonnegative", checks.check_regret_nonnegative, rec,
         patched(rec, regret=shifted(rec.regret, 0, -rec.regret[0] - 1e-6))),
        ("final_value_forward",
         lambda r: checks.check_final_value(env, r, mix), rec,
         patched(rec, value=shifted(rec.value, -1, 1e-6))),
        ("final_value_monte_carlo",
         lambda m: checks.check_final_value_mc(env, rec, m, rng(), 4000), mix,
         MixedPolicy(components=(stay,), weights=np.ones(1))),
        ("deterministic_components", lambda m: checks.action_tables(m), mix,
         MixedPolicy(components=(Policy.tabular(halves),),
                     weights=np.ones(1))),
        ("info_gain_increments", lambda r: checks.check_info_gain(r, h), rec,
         patched(rec, info_gain_cum=bump)),
        ("ipm_in_unit_interval", checks.check_ipm, rec,
         patched(rec, ipm=shifted(rec.ipm, 0, 1.0 - rec.ipm[0] + 1e-6))),
        ("mean_bonus_theory",
         lambda r: checks.check_mean_bonus(r, "theory", h, 1.0), rec,
         patched(rec, mean_bonus=shifted(rec.mean_bonus, 0,
                                         2 * h - rec.mean_bonus[0] + 1e-6))),
        ("mean_bonus_off",
         lambda r: checks.check_mean_bonus(r, "off", lock_h, lam),
         by_mode["off"][1],
         patched(by_mode["off"][1],
                 mean_bonus=shifted(by_mode["off"][1].mean_bonus, 0, 1e-6))),
        ("mean_bonus_ensemble",
         lambda r: checks.check_mean_bonus(r, "ensemble", lock_h, lam),
         by_mode["ensemble"][1],
         patched(by_mode["ensemble"][1], mean_bonus=shifted(
             by_mode["ensemble"][1].mean_bonus, 0,
             lam - by_mode["ensemble"][1].mean_bonus[0] + 1e-6))),
        ("chain_best_regret", lambda r: checks.check_chain_regret(r, h), rec,
         patched(rec, regret=np.maximum(rec.regret, 0.05 * h + 1e-6))),
        ("lock_bonus_ablation",
         lambda r: checks.check_lock_ablation(r, lock_h), regrets,
         {"theory": regrets["off"], "off": regrets["theory"]}),
        ("rerun_identical", lambda o: rerun(o), outs[0],
         (mix, patched(rec, value=shifted(rec.value, -1, 1e-6)))),
    ]


def knr_cases(seed):
    work, outs = one_round(workloads.KnrC08, seed)
    op, (_, rec) = work.ops[0], outs[0]
    lam = op.env.noise_std ** 2 / op.cfg.w_max ** 2
    dropped = list(rec.cov_snapshots)
    f = rec.executed_features[3]
    dropped[10] = dropped[10] - f.T @ f
    frozen = [lam * np.eye(len(rec.cov_snapshots[0]))] * len(dropped)
    flipped = Policy.open_loop(np.where(np.arange(op.env.horizon) == 0,
                                        1 - work.expert.action_seq,
                                        work.expert.action_seq))
    return [
        ("knr_expert_argmin", lambda e: checks.check_knr_expert(op.env, e),
         work.expert, flipped),
        ("knr_cov_snapshots",
         lambda r: checks.check_knr_covariances(r, lam), rec,
         patched(rec, cov_snapshots=dropped)),
        ("knr_elliptical_potential",
         lambda r: checks.check_knr_potential(r, lam), rec,
         patched(rec, cov_snapshots=frozen)),
    ]


def mab_cases(seed):
    work = workloads.MabLb(seed)
    work.setup()
    rc, failed = work.run_round(None)
    if rc != 0 or failed:
        raise SystemExit("selftest: mab-lb round failed")
    horizon, gap = work.HORIZON, 0.25 * math.sqrt(work.NUM_ARMS / work.HORIZON)
    keep = work.out + "-selftest"
    shutil.rmtree(keep, ignore_errors=True)
    shutil.copytree(work.out, keep)

    def read(name):
        with open(os.path.join(keep, name), "rb") as fh:
            return fh.read()

    name = "mab-ucb1-instance-0.csv"
    t, mean, _ = checks.parse_curve(name, read(name), "ucb1", "instance-0")
    step = mean.copy()
    step[100] = step[99] - 1e-6
    finals = {}
    last_rows = {}
    for alg, inst in work.pairs:
        f = f"mab-{alg}-{inst}.csv"
        _, m, last = checks.parse_curve(f, read(f), alg, inst)
        finals.setdefault(alg, []).append(float(m[-1]))
        last_rows[(alg, inst)] = last
    summary = read("summary.csv")
    lines = summary.decode().split("\n")
    cells = lines[1].split(",")
    cells[2] = repr(float(cells[2]) + 1e-6)
    wrong_final = "\n".join([lines[0], ",".join(cells)] + lines[2:]).encode()
    short = "\n".join(lines[:1] + lines[2:]).encode()

    def workload_check(mutate):
        """Two invocations' outputs through MabLb.check, the second
        mutated on disk."""
        w = workloads.MabLb(seed)
        w.setup()
        w.out = keep + "-check"
        for change in (lambda out: None, mutate):
            shutil.rmtree(w.out, ignore_errors=True)
            shutil.copytree(keep, w.out)
            w.check(change(w.out) or 0)

    def drop_file(out):
        os.remove(os.path.join(out, "mab-eps_greedy-instance-3.csv"))

    def flip_byte(out):
        path = os.path.join(out, "mab-known_mean_elim-instance-5.csv")
        data = bytearray(open(path, "rb").read())
        data[-3] = ord("1") if data[-3] != ord("1") else ord("2")
        open(path, "wb").write(bytes(data))

    cases = [
        ("cli_exit_code", workload_check, lambda out: None, lambda out: 2),
        ("curve_files", workload_check, lambda out: None, drop_file),
        ("csv_bytes_identical", workload_check, lambda out: None, flip_byte),
        ("curve_format",
         lambda d: checks.parse_curve(name, d, "ucb1", "instance-0"),
         read(name), read(name).replace(b",ucb1,", b",eps_greedy,", 1)),
        ("curve_t_grid", lambda x: checks.check_curve_grid(name, x, horizon),
         t, shifted(t, 7, 1e-6)),
        ("curve_increments",
         lambda m: checks.check_curve_increments(name, m, gap), mean, step),
        ("curve_below_gap_t",
         lambda m: checks.check_curve_below_gap_t(name, t, m, gap), mean,
         mean + 1e-6),
        ("instance0_delta_t",
         lambda m: checks.check_instance_zero(name, t, m, gap), mean,
         shifted(mean, 500, 1e-6)),
        ("regret_floor",
         lambda f: checks.check_regret_floor(f, work.NUM_ARMS, horizon),
         finals, {**finals, "ucb1": [0.1 * v for v in finals["ucb1"]]}),
        ("summary_matches_curve",
         lambda s: checks.check_summary(s, last_rows), summary, wrong_final),
        ("summary_rows", lambda s: checks.check_summary(s, last_rows),
         summary, short),
    ]
    return cases, lambda: (shutil.rmtree(keep, ignore_errors=True),
                           shutil.rmtree(keep + "-check", ignore_errors=True),
                           work.close())


def run_case(name, check, real, perturbed) -> bool:
    try:
        check(real)
    except CheckFailed as exc:
        print(f"FAIL {name}: the real output fails: {exc}")
        return False
    try:
        check(perturbed)
    except CheckFailed as exc:
        if exc.name == name:
            print(f"ok   {name}: {exc}")
            return True
        print(f"FAIL {name}: the perturbation tripped {exc.name} instead")
        return False
    print(f"FAIL {name}: the perturbation went unnoticed")
    return False


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="perturbation test of the checks")
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    mab, cleanup = mab_cases(args.seed)
    try:
        cases = tabular_cases(args.seed) + knr_cases(args.seed) + mab
        results = [run_case(*case) for case in cases]
    finally:
        cleanup()
    print(f"{sum(results)} of {len(results)} perturbations caught")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
