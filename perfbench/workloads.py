"""The benchmark's workloads: inputs made from the seed, one round of
operations, and the checks on what a round returns.

An operation is one loop run (seed x bonus mode) or one bandit
(algorithm, instance) pair.  Every round of a run repeats the same
operations on the same inputs, so rounds after the first must return
exactly what the first returned.  A round also records the wall and CPU
time of each of its timed units (one per loop run; the whole CLI call for
``mab_lb``), with the host's slowdown around it, in ``Workload.timings``.

Seed conventions follow the package's CLI: the loop uses
default_rng(s), the expert sampler default_rng(2000 + s), the KNR
reference value default_rng(9000 + s), bandit traces
default_rng(1000 * s + instance index).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import resource
import shutil
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

import checks
import hostspeed
from checks import require

from ilfo_lab import cli, loop, planner
from ilfo_lab.envs import value_eval_mc
from ilfo_lab.expert import (sample_expert_states, solve_openloop_knr,
                             solve_optimal_tabular)
from ilfo_lab.loop import MobileConfig, run_mobile
from ilfo_lab.mab import ALGORITHMS
from ilfo_lab.planner import MinMaxConfig
from ilfo_lab.worlds import make_chain, make_combination_lock, make_knr_example

EXPERT_SEED_BASE = 2000
REFERENCE_SEED_BASE = 9000
MC_EPISODES = 4000      # episodes of the checker's own Monte Carlo estimate
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@contextlib.contextmanager
def _timed(timings: list):
    """Append the block's (wall, cpu) seconds and the host's slowdown,
    measured just before and just after it, to ``timings``."""
    before = hostspeed.slowdown()
    t0, c0 = time.perf_counter(), cpu_seconds()
    try:
        yield
    finally:
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        timings.append((wall, cpu, 0.5 * (before + hostspeed.slowdown())))


def _span(tracer, name: str, tag: int | None = None):
    return tracer.span(name, tag) if tracer else contextlib.nullcontext()


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@dataclass
class LoopOp:
    seed: int
    mode: str
    env: object
    data: object
    cfg: MobileConfig
    expert_value: float | None = None


class Workload:
    """Inputs built once by setup(); run_round() runs every operation once,
    returns (outputs, failed operations) and leaves (wall, cpu, slowdown)
    of each timed unit in ``timings``; check() raises CheckFailed."""

    min_rounds = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.ops: list = []
        self.first = None       # what the first round returned, condensed
        self.timings: list = []

    def close(self) -> None:
        pass


class LoopWorkload(Workload):
    """Rounds of run_mobile calls; subclasses build the operations."""

    def run_round(self, tracer) -> tuple[list, int]:
        outputs, failed = [], 0
        self.timings = []
        for op in self.ops:
            try:
                with _timed(self.timings), \
                        _span(tracer, "loop.run_mobile", op.cfg.t_iters):
                    out = run_mobile(op.env, op.data, op.cfg,
                                     np.random.default_rng(op.seed),
                                     expert_value=op.expert_value)
            except Exception:      # counted as a failed operation
                traceback.print_exc(file=sys.stderr)
                out, failed = None, failed + 1
            outputs.append(out)
        return outputs, failed

    def check(self, outputs) -> None:
        prints = [None if o is None else self._fingerprint(*o)
                  for o in outputs]
        if self.first is None:
            for i, (op, out) in enumerate(zip(self.ops, outputs)):
                if out is not None:
                    self.check_op(i, op, *out)
            self.check_round(outputs)
            self.first = prints
        else:
            require(prints == self.first, "rerun_identical",
                    "a repeated round returned other results than the first")

    @staticmethod
    def _fingerprint(mixture, record) -> str:
        return _digest(record.value, record.regret, record.ipm,
                            record.mean_bonus, record.info_gain_cum,
                            record.objective)

    def check_op(self, index, op, mixture, record) -> None:
        raise NotImplementedError

    def check_round(self, outputs) -> None:
        pass


def _tabular_setup(tracer, build, seeds, n_expert):
    with _span(tracer, "worlds.build"):
        env = build()
    with _span(tracer, "expert.solve"):
        expert = solve_optimal_tabular(env)
    data = {}
    for s in seeds:
        with _span(tracer, "expert.sample"):
            data[s] = sample_expert_states(
                env, expert, n_expert,
                np.random.default_rng(EXPERT_SEED_BASE + s))
    return env, data


class ChainFw(LoopWorkload):
    """The c06 chain config cut to its first T=24 iterations: theory bonus,
    k_iters=200, 500 expert trajectories, one seed per round.  Every
    iteration costs the same (a 200-step FW solve and a 200-component
    mixture), so 24 of them weigh the parts as c06's 300 do."""

    T_ITERS = 24

    def setup(self, tracer=None) -> None:
        env, data = _tabular_setup(tracer, make_chain, [self.seed], 500)
        cfg = MobileConfig(t_iters=self.T_ITERS, n_expert=500)
        self.ops = [LoopOp(self.seed, "theory", env, data[self.seed], cfg)]

    def check_op(self, index, op, mixture, record) -> None:
        checks.check_tabular_run(
            op.env, op.mode, op.cfg.lam_bonus, record, mixture,
            np.random.default_rng([4242, self.seed, index]), MC_EPISODES)
        checks.check_chain_regret(record, op.env.horizon)


class LockModes(LoopWorkload):
    """The combination lock with k_iters=2 and bonus modes theory, off and
    ensemble on seeds s, s+1, s+2.  theory and off run T=200 iterations,
    which the ablation check needs; ensemble runs T=80, because its
    bootstrap buffers grow with t and T=200 would make it a 2 s run."""

    NUM_SEEDS = 3
    T_ITERS = {"theory": 200, "off": 200, "ensemble": 80}

    def setup(self, tracer=None) -> None:
        seeds = [self.seed + i for i in range(self.NUM_SEEDS)]
        env, data = _tabular_setup(tracer, make_combination_lock, seeds, 500)
        self.ops = [
            LoopOp(s, mode, env, data[s],
                   MobileConfig(t_iters=t_iters, n_expert=500,
                                bonus_mode=mode,
                                minmax=MinMaxConfig(k_iters=2)))
            for s in seeds for mode, t_iters in self.T_ITERS.items()]

    def check_op(self, index, op, mixture, record) -> None:
        checks.check_tabular_run(
            op.env, op.mode, op.cfg.lam_bonus, record, mixture,
            np.random.default_rng([4242, self.seed, index]), MC_EPISODES)

    def check_round(self, outputs) -> None:
        regrets = {"theory": [], "off": []}
        for op, out in zip(self.ops, outputs):
            if out is not None and op.mode in regrets:
                regrets[op.mode].append(out[1].regret)
        if regrets["theory"] and regrets["off"]:
            horizon = self.ops[0].env.horizon
            on, off = checks.check_lock_ablation(regrets, horizon)
            print(f"lock ablation: median iterations to 0.1 H: theory {on:g},"
                  f" off {off:g} (ratio {on / off:.3f})", file=sys.stderr)


class KnrC08(LoopWorkload):
    """The c08 KNR config cut to its first T=120 iterations: k_iters=3, 20
    expert trajectories, 16 random Fourier features, 8 evaluation
    rollouts, 256 reference rollouts.  The elliptical potential is a sum
    of T terms capped at 1 and its bound is about 85, so a shorter cut
    would leave that check nothing to catch."""

    T_ITERS = 120

    def setup(self, tracer=None) -> None:
        with _span(tracer, "worlds.build"):
            env = make_knr_example()
        with _span(tracer, "expert.solve"):
            expert = solve_openloop_knr(env)
        with _span(tracer, "expert.sample"):
            data = sample_expert_states(
                env, expert, 20,
                np.random.default_rng(EXPERT_SEED_BASE + self.seed))
        with _span(tracer, "expert.reference"):
            ref, _ = value_eval_mc(
                env, expert, env.cost_of, n_rollouts=256,
                rng=np.random.default_rng(REFERENCE_SEED_BASE + self.seed))
        cfg = MobileConfig(t_iters=self.T_ITERS, n_expert=20, mmd_features=16,
                           knr_eval_rollouts=8,
                           minmax=MinMaxConfig(k_iters=3))
        self.ops = [LoopOp(self.seed, "theory", env, data, cfg,
                           expert_value=ref)]
        self.expert = expert

    @staticmethod
    def _fingerprint(mixture, record) -> str:
        return _digest(record.value, record.ipm, record.mean_bonus,
                            record.info_gain_cum, record.objective,
                            *record.cov_snapshots)

    def check_op(self, index, op, mixture, record) -> None:
        if index == 0:
            checks.check_knr_expert(op.env, self.expert)
        lam_ridge = op.env.noise_std ** 2 / op.cfg.w_max ** 2
        checks.check_knr_covariances(record, lam_ridge)
        checks.check_knr_potential(record, lam_ridge)
        checks.check_info_gain(record, op.env.horizon)
        checks.check_mean_bonus(record, op.mode, op.env.horizon,
                                op.cfg.lam_bonus)


class MabLb(Workload):
    """The mab-lb CLI in-process with --jobs 1 on the default family's
    A=10 arms at horizon T=2000 (all three algorithms, 33 pairs), seed s.
    The CLI call is the round's one timed unit; at the default T=20000
    it would take 6 s."""

    min_rounds = 2       # byte identity needs a repeat
    NUM_ARMS, HORIZON = 10, 2_000

    def setup(self, tracer=None) -> None:
        self.pairs = [(alg, f"instance-{i}") for alg in ALGORITHMS
                      for i in range(self.NUM_ARMS + 1)]
        self.ops = self.pairs
        # one directory per process: the fresh set-up processes that time
        # setup_s clean up after themselves while this one runs
        self.out = os.path.join(OUT_DIR,
                                f"mab_lb-seed{self.seed}-pid{os.getpid()}")
        config = self.out + ".json"
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({"subcommand": "mab-lb",
                       "bandit": {"num_arms": self.NUM_ARMS,
                                  "horizon": self.HORIZON}}, fh)
        self.argv = ["mab-lb", "--config", config, "--out", self.out,
                     "--seeds", str(self.seed), "--jobs", "1"]
        os.environ.pop("ILFO_LAB_JOBS", None)   # it would override --jobs
        shutil.rmtree(self.out, ignore_errors=True)

    def run_round(self, tracer) -> tuple[list, int]:
        self.timings = []
        with _timed(self.timings), _span(tracer, "cli.main"):
            rc = cli.main(self.argv)
        files = {f"mab-{a}-{i}.csv" for a, i in self.pairs}
        present = set(os.listdir(self.out)) if os.path.isdir(self.out) else set()
        return rc, len(files - present)

    def check(self, rc) -> None:
        require(rc == 0, "cli_exit_code", f"mab-lb exited {rc}")
        gap = 0.25 * math.sqrt(self.NUM_ARMS / self.HORIZON)
        digests, finals, last_rows = {}, {}, {}
        for alg, inst in self.pairs:
            name = f"mab-{alg}-{inst}.csv"
            path = os.path.join(self.out, name)
            require(os.path.isfile(path), "curve_files", f"{name} missing")
            with open(path, "rb") as fh:
                data = fh.read()
            digests[name] = hashlib.sha256(data).hexdigest()
            if self.first is not None:
                continue
            t, mean, last = checks.parse_curve(name, data, alg, inst)
            checks.check_curve(name, t, mean, self.HORIZON, gap,
                               inst == "instance-0")
            finals.setdefault(alg, []).append(float(mean[-1]))
            last_rows[(alg, inst)] = last
        path = os.path.join(self.out, "summary.csv")
        require(os.path.isfile(path), "summary_rows", "summary.csv missing")
        with open(path, "rb") as fh:
            summary = fh.read()
        digests["summary.csv"] = hashlib.sha256(summary).hexdigest()
        if self.first is None:
            checks.check_regret_floor(finals, self.NUM_ARMS, self.HORIZON)
            checks.check_summary(summary, last_rows)
            self.first = digests
        else:
            require(digests == self.first, "csv_bytes_identical",
                    "a repeated invocation wrote other CSV bytes")
        shutil.rmtree(self.out, ignore_errors=True)

    def close(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.out + ".json")


WORKLOADS = {"chain_fw": ChainFw, "lock_modes": LockModes,
             "knr_c08": KnrC08, "mab_lb": MabLb}


def trace_points() -> list:
    """(module, attribute, span name, tag) of every traced call site."""
    return [
        (loop, "fit_tabular", "models.fit_tabular", None),
        (loop, "theory_bonus", "models.theory_bonus", None),
        (loop, "bootstrap_buffers", "models.bootstrap_buffers",
         lambda a, r: sum(len(b) for b in r)),
        (loop, "ensemble_bonus", "models.ensemble_bonus", None),
        (loop, "fit_knr_model", "models.fit_knr_model", lambda a, r: a["t"]),
        (loop, "solve_minmax", "planner.solve_minmax", None),
        (loop, "rollout", "envs.rollout", lambda a, r: r.horizon),
        (loop, "value_eval_tabular", "envs.mixture_value", None),
        (loop, "occupancy_exact", "envs.mixture_occupancy", None),
        (loop, "value_eval_mc", "envs.value_eval_mc", None),
        (loop, "tv_best_response", "discriminators.tv_best_response", None),
        (planner, "tv_best_response", "discriminators.tv_best_response", None),
        (planner, "best_response_tabular", "planner.best_response_tabular",
         None),
        (planner, "occupancy_exact", "planner.fw_occupancy", None),
        (planner, "best_response_knr", "planner.best_response_knr",
         _sequences_scored),
        (planner, "mmd_update", "discriminators.mmd_update", None),
        (cli, "run_bandit", "mab.run_bandit", lambda a, r: a["horizon"]),
        (cli, "cumulative_regret_curve", "mab.curve", None),
        (cli, "fit_loglog_slope", "mab.slope", None),
        (cli, "write_regret_csv", "cli.csv_write",
         lambda a, r: len(a["t_grid"])),
        (cli, "write_csv_rows", "cli.csv_write", lambda a, r: len(a["rows"])),
    ]


def _sequences_scored(a, result) -> int:
    total = a["num_actions"] ** a["horizon"]
    if total <= a["search_cfg"].exhaustive_limit:
        return total
    return min(a["search_cfg"].n_candidates, total)
