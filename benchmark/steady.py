#!/usr/bin/env python3
"""Steadiness of the benchmark's end-to-end metrics (benchmark/README.md).

    python3 benchmark/steady.py --sets 2 --seeds 1-10 --out runs.jsonl
    python3 benchmark/steady.py --report runs.jsonl

Runs `run.py --workload W --seed S` once per (set, workload, seed), sets
one after the other, and appends each run's result line to --out. Then,
per (workload, metric), prints each set's median and spread -- the
inter-quartile distance over the seeds as a share of the median -- and how
far the last set's median is worse than the first's, flagging a spread
above the metric's bound (or a third of it) and a drift above the bound.
setup_s is exempt from the spread rule. This is the check a benchmark must
pass before its bounds are trusted.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchstats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def collect(args, spec, out):
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    for run_set in range(args.sets):
        for workload in workloads:
            for seed in seed_range(args.seeds):
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"),
                     "--workload", workload, "--seed", str(seed)],
                    cwd=ROOT, capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if proc.returncode == 0 \
                    else None
                row = dict(set=run_set, workload=workload, seed=seed,
                           code=proc.returncode, result=result)
                out.write(json.dumps(row) + "\n")
                out.flush()
                print("set %d %-16s seed %-3d exit %d failed %s"
                      % (run_set, workload, seed, proc.returncode,
                         result and result["failed"]), flush=True)


def report(path, spec):
    values = {}  # (workload, metric) -> {set: [values]}
    bad_runs = 0
    with open(path) as f:
        for line in f:
            row = json.loads(line)
            if row["code"] != 0 or row["result"]["failed"]:
                bad_runs += 1
                continue
            for name, m in row["result"]["metrics"].items():
                values.setdefault((row["workload"], name), {}).setdefault(
                    row["set"], []).append(m["value"])
    ok = bad_runs == 0
    print("%-16s %-20s %-12s %-7s %-12s %-7s %-7s %s"
          % ("workload", "metric", "median", "spread", "median2", "spread2",
             "worse", "bound"))
    for m in spec["end_to_end"]:
        for (workload, name), by_set in sorted(values.items()):
            if name != m["name"]:
                continue
            sets = [by_set[s] for s in sorted(by_set)]
            medians = [benchstats.quartiles(v)[1] for v in sets]
            spreads = [benchstats.spread(v) for v in sets]
            worse = benchstats.worse_by(medians[0], medians[-1], m["better"])
            flags = []
            if name != "setup_s" and max(spreads) > m["bound"]:
                flags.append("SPREAD>BOUND")
            elif name != "setup_s" and max(spreads) > m["bound"] / 3:
                flags.append("spread>bound/3")
            if worse > m["bound"]:
                flags.append("DRIFT>BOUND")
            ok = ok and not any(flag.isupper() for flag in flags)
            print("%-16s %-20s %-12.6g %-7.3f %-12.6g %-7.3f %+-7.3f %.2f %s"
                  % (workload, name, medians[0], spreads[0], medians[-1],
                     spreads[-1], worse, m["bound"], " ".join(flags)))
    print("%d failed runs; %s" % (bad_runs, "ACCEPT" if ok else "REJECT"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 2")
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--out", help="append runs to this JSONL file")
    parser.add_argument("--report", metavar="PATH",
                        help="only summarize an existing JSONL file")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.report:
        return report(args.report, spec)
    if not args.out:
        parser.error("--out is required unless --report is given")
    with open(args.out, "a") as out:
        collect(args, spec, out)
    return report(args.out, spec)


if __name__ == "__main__":
    sys.exit(main())
