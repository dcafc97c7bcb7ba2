#!/usr/bin/env python3
"""Build and run the benchmark, or check how steady it is.

Run one workload (the record's command):

    python3 perfbench/run.py --workload burst_lan --seed 1 --seconds 10 --trace 0

builds perfbench/bench.exe with dune from the checkout it sits in, runs it
with the same arguments and exits with its code.  Build output goes to
standard error, so the last line of standard output is the JSON record.

Steadiness mode:

    python3 perfbench/run.py --steady 5 --workload churn_lossy [--seed 1]
        [--seconds S] [--trace 0]

runs the workload once per seed (seed, seed+1, ...) and once more on the
first seed, then prints per metric the median, quartiles (as Python's
statistics.quantiles gives them), minimum, maximum and spread (the
interquartile distance over the median).  An end-to-end metric whose
spread exceeds its bound in BENCHMARK.json is flagged SPREAD, one above a
third of its bound is flagged WIDE, and an exact count that differs
between the two runs of the first seed is flagged NOT-REPEATED.  Exits 1
when anything is flagged SPREAD or NOT-REPEATED or a run fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")


def build():
    if not os.path.isdir(os.path.join(ROOT, "lib")):
        sys.exit("perfbench: the repository's sources (lib/) are not in this checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    # Outside an opam-initialised shell, dune is reached through opam.
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    done = subprocess.run(
        dune + ["build", "--root", ROOT, "--display", "quiet", "./perfbench/bench.exe"],
        cwd=ROOT, stdout=sys.stderr, env=env)
    if done.returncode != 0:
        sys.exit("perfbench: build failed")


def run_once(workload, seed, seconds, trace):
    done = subprocess.run(
        [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    exact = next((l.split()[2:] for l in lines if l.startswith("# exact:")), [])
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        record = None
    return done.returncode, record, exact


def steady(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    seeds = [args.seed + i for i in range(args.steady)] + [args.seed]
    values, exact, repeat, bad = {}, [], None, False
    for i, seed in enumerate(seeds):
        code, record, exact = run_once(args.workload, seed, args.seconds, args.trace)
        if code != 0 or record is None or not record["correct"]:
            print(f"run seed {seed}: FAILED (exit {code})")
            bad = True
            continue
        metrics = {k: v["value"] for k, v in record["metrics"].items()}
        print(f"run seed {seed}: attempted {record['attempted']} failed {record['failed']}"
              + "".join(f" {k} {v:.6g}" for k, v in metrics.items() if k.endswith("_s")),
              flush=True)
        if i < args.steady:
            for k, v in metrics.items():
                values.setdefault(k, []).append(v)
        else:
            repeat = metrics
    print(f"{'metric':30} {'median':>14} {'q1':>14} {'q3':>14} {'min':>14} {'max':>14} spread")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
        spread = (q3 - q1) / med if med else float("inf")
        flag = ""
        bound = bounds.get(name)
        if bound is not None and name != "setup_s":
            if spread > bound:
                flag, bad = "SPREAD", True
            elif spread > bound / 3:
                flag = "WIDE"
        if name in exact and repeat is not None and repeat.get(name) != vs[0]:
            flag, bad = (flag + " NOT-REPEATED").strip(), True
        print(f"{name:30} {med:14.6g} {q1:14.6g} {q3:14.6g} {min(vs):14.6g} {max(vs):14.6g}"
              f" {spread:.4f} {flag}")
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N")
    args = parser.parse_args()
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            args.seconds = json.load(f)["run_seconds"]
    build()
    if args.steady:
        sys.exit(steady(args))
    done = subprocess.run(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
