"""Benchmark of the MobILE loop and the bandit experiment.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout, importing the package from
``src/`` (no install needed).  After setting the workload up it repeats
whole rounds of the workload's operations until another round would end
past ``--seconds`` (at least ``min_rounds``), checks what every round
returned, and prints one JSON line.

Times are rescaled to the host's nominal speed (see ``hostspeed.py``):
each timed unit (one loop run, or the whole CLI call) is bracketed by a
fixed reference computation, and its times are divided by the host's
slowdown around it.  A round's time is the sum over its units of each
unit's median rescaled time over the run's rounds.

* ``--trace 0``: the end-to-end metrics of BENCHMARK.json;
* ``--trace 1``: the per-layer metrics, from rounds run with every call
  site in ``workloads.trace_points()`` wrapped.  Traced and untraced
  rounds alternate, and their round times give the tracing overhead;
  the spans go to
  ``perfbench/out/trace-<workload>-seed<n>.json``.

``--setup-only`` is used internally to time a fresh process's set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 5       # fresh-process set-ups per run; setup_s is their median


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def fresh_setup_seconds(workload: str, seed: int) -> float:
    """Wall time from spawning a fresh interpreter to the end of set-up,
    rescaled by the host's slowdown that the fresh process measures right
    after its set-up (it may run on another core than this one)."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    end, slowdown = (float(x) for x in done.stdout.split()[-2:])
    return (end - start) / slowdown


def round_seconds(rounds: list, part: int) -> float:
    """Sum over the timed units of each unit's median rescaled time over
    ``rounds`` (lists of (wall, cpu, slowdown) per unit); ``part`` 0 is
    wall, 1 is CPU."""
    return sum(statistics.median(r[i][part] / r[i][2] for r in rounds)
               for i in range(len(rounds[0])))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ilfo_lab", "__init__.py")):
        print(f"perfbench: no package sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    from checks import CheckFailed
    from tracer import Tracer, round_metrics, setup_metrics

    if not os.path.abspath(workloads.loop.__file__).startswith(SRC + os.sep):
        print("perfbench: ilfo_lab was not imported from src/", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        work.setup()
        end = time.monotonic()
        print(end, hostspeed.slowdown())
        work.close()
        return 0

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = Tracer() if args.trace else None
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    hostspeed.slowdown()    # numpy's first calls pay one-off set-up
    work.setup(tracer)
    setup_spans = tracer.take() if tracer else []
    setups = [] if args.trace else [
        fresh_setup_seconds(args.workload, args.seed)
        for _ in range(SETUP_SAMPLES)]

    # traced runs alternate untraced and traced rounds, untraced first
    min_rounds = max(work.min_rounds, 2 if args.trace else 1)
    units = {False: [], True: []}   # per round: (wall, cpu, slowdown) per unit
    traced_rounds = []
    attempted = failed = 0
    correct = True
    start = time.perf_counter()
    try:
        while True:
            traced = bool(args.trace) and len(units[False]) > len(units[True])
            t0 = time.perf_counter()
            if traced:
                with tracer.installed(workloads.trace_points()):
                    outputs, n_failed = work.run_round(tracer)
            else:
                outputs, n_failed = work.run_round(None)
            wall = time.perf_counter() - t0
            units[traced].append(work.timings)
            if traced:
                # the units' own time, without the reference runs between
                traced_rounds.append((sum(u[0] for u in work.timings),
                                      tracer.take()))
            attempted += len(work.ops)
            failed += n_failed
            work.check(outputs)
            rounds = len(units[False]) + len(units[True])
            elapsed = time.perf_counter() - start
            if rounds >= min_rounds and elapsed + wall > args.seconds:
                break
    except CheckFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        correct = False
    finally:
        work.close()

    unit_of = {m["name"]: m["unit"]
               for m in spec["end_to_end"] + spec["per_layer"]}
    if not args.trace:
        values = {
            "setup_s": statistics.median(setups),
            "run_s": round_seconds(units[False], 0),
            "cpu_s": round_seconds(units[False], 1),
            "peak_rss_mib":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        names = [m["name"] for m in spec["end_to_end"]]
    else:
        values = {}
        if traced_rounds:
            per_round = [round_metrics(w, s) for w, s in traced_rounds]
            values = {k: statistics.mean(r[k] for r in per_round)
                      for k in per_round[0]}
            values.update(setup_metrics(setup_spans))
            traced_s = round_seconds(units[True], 0)
            plain_s = round_seconds(units[False], 0)
            values.update({"trace.run_s": traced_s,
                           "trace.untraced_run_s": plain_s,
                           "trace.overhead_pct": 100.0 * (traced_s / plain_s - 1),
                           "host.slowdown": statistics.median(
                               u[2] for r in units[False] + units[True]
                               for u in r)})
            write_trace(workloads.OUT_DIR, args, setup_spans, traced_rounds)
        names = [m["name"] for m in spec["per_layer"]]
    metrics = {n: {"value": values[n], "unit": unit_of[n]}
               for n in names if n in values}
    print(json.dumps({"correct": correct and len(metrics) == len(names),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def write_trace(out_dir: str, args, setup_spans: list, rounds: list) -> None:
    def rel(spans):
        origin = spans[0][1] if spans else 0.0
        return [[n, s - origin, e - origin, p, t] for n, s, e, p, t in spans]

    path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "span_fields": ["name", "start_s", "end_s", "parent", "tag"],
                   "setup": rel(setup_spans),
                   "rounds": [{"wall_s": w, "spans": rel(s)}
                              for w, s in rounds]}, fh)


if __name__ == "__main__":
    sys.exit(main())
