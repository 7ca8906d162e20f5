#!/usr/bin/env python3
"""Records a performance snapshot of the tree as BENCH_<date>.json (schema 2).

Four measurements, deliberately cheap enough to run on every perf-relevant
PR (a couple of minutes on one core):

  * the micro primitive benchmarks (build/bench/micro_primitives,
    Google Benchmark JSON) — per-op costs of the sketch/codec hot paths,
    including BM_RunProtocols/{256,1024,4096}, the per-round cost of the
    full protocol set over one convergecast tree (the simulator's
    dominant stage; bench_compare.py gates its medians with every other
    micro entry);
  * one end-to-end figure sweep (build/bench/fig6_vary_n) at reduced
    WSNQ_RUNS/WSNQ_ROUNDS — the wall clock of the whole simulator stack,
    measured over --reps repetitions (perf/bench_harness.h) so the
    snapshot records robust statistics (median, MAD, CV), not one sample.
    Stage names follow core/experiment.cc: the run-order fold reports as
    "experiment/sweep_fold" (older snapshots also carry "experiment/fold",
    the per-run fold of the former threads=1 loop);
  * one lossy sweep (build/bench/fig_loss_sweep) at the same reduced
    scale — the same stack with the fault subsystem hot (Gilbert/iid link
    chains, ARQ retransmission loops), so reliability-path regressions
    are visible separately from the lossless baseline;
  * one serving-latency run (build/tools/wsnq_served + wsnq_loadgen over
    loopback at --serve-subs concurrent subscriptions, default 100k) —
    subscribe-ack and round-push p50/p99 plus push throughput for the
    continuous-serving path, recorded as a top-level "serve" section that
    bench_compare.py deliberately ignores (loopback latency is too
    machine-sensitive for the k·MAD gate; the numbers are for humans
    reading snapshot history). --serve-subs=0 skips the section.

Schema 2 additions over the historical v1 snapshots:

  * top-level "schema": 2 and a "metadata" block (host, CPU count,
    compiler, build type, flags, relevant WSNQ_* cache options, git rev) —
    so a diff between two snapshots can first answer "same machine, same
    build?" before anyone reads a number;
  * per-bench robust statistics from the "# bench" stderr line emitted by
    bench/bench_common.h: {reps, warmup, median_s, mad_s, min_s, max_s,
    mean_s, cv} next to the single-shot wall_s;
  * per-stage profile entries now carry min_s/max_s and, where the host
    grants perf_event_open, hardware-counter and allocation deltas
    (src/perf/stage_collector.h) — every "key=value" field of the
    "# profile" line is kept.

Snapshots are committed next to each other at the repo root. Compare two
with tools/bench_compare.py, which gates noise-aware (k·MAD) and exits
non-zero on a regression:

  python3 tools/bench_compare.py BENCH_old.json BENCH_new.json

Usage:
  tools/bench_snapshot.py [--build-dir=build] [--date=YYYY-MM-DD]
                          [--runs=4] [--rounds=60] [--reps=5] [--warmup=1]
                          [--out=PATH]

--date exists so a snapshot regenerated while reproducing an old result
can overwrite the original file instead of minting a new day.
"""

import argparse
import datetime
import json
import os
import platform
import re
import signal
import subprocess
import sys

SCHEMA_VERSION = 2

TIMING_RE = re.compile(
    r"# timing figure=(?P<figure>\S+) threads=(?P<threads>\d+) "
    r"runs=(?P<runs>\d+) wall_s=(?P<wall_s>[0-9.]+)")

# "# bench ..." and "# profile ..." lines are free-form key=value; parse
# them generically so new fields (counters, allocs) flow into the snapshot
# without a tool change.
_NUMBER_RE = re.compile(r"^-?\d+$")
_FLOAT_RE = re.compile(r"^-?\d+\.\d+(e-?\d+)?$")


def parse_kv_line(line):
    """Parses "# tag key=value key=value ..." into a dict (typed values)."""
    fields = {}
    for token in line.split()[2:]:
        if "=" not in token:
            continue
        key, value = token.split("=", 1)
        if _NUMBER_RE.match(value):
            fields[key] = int(value)
        elif _FLOAT_RE.match(value):
            fields[key] = float(value)
        else:
            fields[key] = value
    return fields


def parse_bench_lines(stderr):
    """Returns the parsed "# bench" repetition-statistics lines, in order."""
    return [parse_kv_line(line) for line in stderr.splitlines()
            if line.startswith("# bench ")]


def parse_profile_stages(stderr):
    """Returns {stage: fields} from the "# profile stage=..." lines.

    Later lines win: benches that run several sweeps report cumulative
    per-stage totals each time, so the last report per stage is the
    process total."""
    stages = {}
    for line in stderr.splitlines():
        if not line.startswith("# profile stage="):
            continue
        fields = parse_kv_line(line)
        stage = fields.pop("stage", None)
        if stage:
            stages[stage] = fields
    return stages


def parse_cmake_cache(path):
    """Returns {name: value} for the VAR:TYPE=value lines of CMakeCache.txt."""
    cache = {}
    try:
        with open(path, encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if not line or line.startswith(("#", "//")):
                    continue
                if "=" not in line or ":" not in line.split("=", 1)[0]:
                    continue
                name_type, value = line.split("=", 1)
                cache[name_type.split(":", 1)[0]] = value
    except OSError:
        pass
    return cache


def git_revision():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return ""


def collect_metadata(build_dir):
    """Machine/build/compiler identity: the "same machine, same build?"
    questions a snapshot diff must answer before its numbers mean
    anything."""
    cache = parse_cmake_cache(os.path.join(build_dir, "CMakeCache.txt"))
    uname = platform.uname()
    return {
        "hostname": uname.node,
        "os": f"{uname.system} {uname.release}",
        "arch": uname.machine,
        "cpus": os.cpu_count(),
        "compiler": cache.get("CMAKE_CXX_COMPILER", ""),
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "cxx_flags": cache.get("CMAKE_CXX_FLAGS", ""),
        "options": {
            name: cache.get(name, "")
            for name in ("WSNQ_TRACING", "WSNQ_PERF_ALLOC", "WSNQ_SANITIZE",
                         "WSNQ_WERROR")
        },
        "git_rev": git_revision(),
    }


def run_micro(build_dir):
    """Returns the micro benchmark entries (name, real/cpu time, unit)."""
    binary = os.path.join(build_dir, "bench", "micro_primitives")
    out = subprocess.run([binary, "--benchmark_format=json"],
                         check=True, capture_output=True, text=True)
    report = json.loads(out.stdout)
    return {
        "num_cpus": report["context"]["num_cpus"],
        "mhz_per_cpu": report["context"]["mhz_per_cpu"],
        "benchmarks": [
            {
                "name": b["name"],
                "real_time": b["real_time"],
                "cpu_time": b["cpu_time"],
                "time_unit": b["time_unit"],
            }
            for b in report["benchmarks"]
        ],
    }


def run_sweep(build_dir, bench_name, runs, rounds, reps, warmup):
    """Runs one figure sweep binary under the repetition harness.

    Parses the "# timing" footer (single-shot wall clock, reproducible
    against v1 snapshots), the "# bench" robust statistics, and the
    "# profile" per-stage report (with counter/alloc deltas where the
    host provides them)."""
    binary = os.path.join(build_dir, "bench", bench_name)
    env = dict(os.environ, WSNQ_RUNS=str(runs), WSNQ_ROUNDS=str(rounds))
    out = subprocess.run(
        [binary, "--threads=1", "--profile", f"--reps={reps}",
         f"--warmup={warmup}"],
        check=True, capture_output=True, text=True, env=env)
    match = TIMING_RE.search(out.stderr)
    if match is None:
        raise RuntimeError(
            f"no '# timing' footer in {binary} stderr:\n{out.stderr}")
    bench_lines = parse_bench_lines(out.stderr)
    if not bench_lines:
        raise RuntimeError(
            f"no '# bench' statistics line in {binary} stderr:\n{out.stderr}")
    stats = bench_lines[0]
    return {
        "threads": int(match.group("threads")),
        "runs": int(match.group("runs")),
        "rounds": rounds,
        "wall_s": float(match.group("wall_s")),
        "reps": stats.get("reps", reps),
        "warmup": stats.get("warmup", warmup),
        "median_s": stats.get("median_s"),
        "mad_s": stats.get("mad_s"),
        "min_s": stats.get("min_s"),
        "max_s": stats.get("max_s"),
        "mean_s": stats.get("mean_s"),
        "cv": stats.get("cv"),
        "stages": parse_profile_stages(out.stderr),
    }


def parse_tagged_line(text, tag):
    """Returns the parsed fields of the last '# <tag> key=value ...' line."""
    fields = None
    for line in text.splitlines():
        if line.startswith(f"# {tag} "):
            fields = parse_kv_line(line)
    return fields


def run_serve(build_dir, subs, connections, fields, rounds, shards, threads):
    """Runs the serving daemon + load generator and records the push path.

    Starts wsnq_served on an ephemeral port, drives wsnq_loadgen at the
    requested subscriber count, and returns the loadgen latency report
    (subscribe-ack and round-push p50/p99, pushes/sec) together with the
    daemon's own "# served" shutdown stats (coalesced backend rounds,
    convergecasts, byte counters). The serving stack is wall-clock
    sensitive by design — these are latency figures, not medians over
    reps — so bench_compare.py deliberately ignores this section (it
    diffs only "benches")."""
    served_bin = os.path.join(build_dir, "tools", "wsnq_served")
    loadgen_bin = os.path.join(build_dir, "tools", "wsnq_loadgen")
    served = subprocess.Popen(
        [served_bin, "--port=0", f"--shards={shards}", f"--threads={threads}",
         "--nodes=64", "--rounds-per-sec=20"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        banner = parse_kv_line(served.stdout.readline())
        if "port" not in banner:
            raise RuntimeError("wsnq_served printed no startup banner")
        loadgen = subprocess.run(
            [loadgen_bin, f"--port={banner['port']}", f"--subs={subs}",
             f"--connections={connections}", f"--fields={fields}",
             f"--rounds={rounds}", "--timeout-sec=300"],
            check=True, capture_output=True, text=True, timeout=360)
        report = parse_tagged_line(loadgen.stdout, "loadgen")
        if report is None:
            raise RuntimeError("wsnq_loadgen printed no '# loadgen' report")
        served.send_signal(signal.SIGTERM)
        out, _ = served.communicate(timeout=30)
        if served.returncode != 0:
            raise RuntimeError(f"wsnq_served exited {served.returncode}")
        stats = parse_tagged_line(out, "served")
        if stats is None:
            raise RuntimeError("wsnq_served printed no '# served' stats")
        if report.get("ok") != 1 or report.get("errors") != 0:
            raise RuntimeError(f"loadgen reported errors: {report}")
        return {"shards": shards, "threads": threads, "loadgen": report,
                "daemon": stats}
    finally:
        if served.poll() is None:
            served.kill()


def main():
    parser = argparse.ArgumentParser(
        description="Write a BENCH_<date>.json performance snapshot.")
    parser.add_argument("--build-dir", default="build",
                        help="CMake build tree holding bench/ binaries")
    parser.add_argument("--date",
                        help="snapshot date (default: today, UTC)")
    parser.add_argument("--runs", type=int, default=4,
                        help="WSNQ_RUNS for the figure sweeps")
    parser.add_argument("--rounds", type=int, default=60,
                        help="WSNQ_ROUNDS for the figure sweeps")
    parser.add_argument("--reps", type=int, default=5,
                        help="measured repetitions per sweep (>= 3 gives "
                             "bench_compare.py a usable MAD)")
    parser.add_argument("--warmup", type=int, default=1,
                        help="unmeasured warmup repetitions per sweep")
    parser.add_argument("--out", help="output path (default BENCH_<date>.json)")
    parser.add_argument("--serve-subs", type=int, default=100000,
                        help="concurrent subscriptions for the serving "
                             "latency section (0 skips it)")
    parser.add_argument("--serve-connections", type=int, default=64,
                        help="client connections the subscriptions are "
                             "multiplexed over")
    parser.add_argument("--serve-fields", type=int, default=16,
                        help="distinct quantile fields (backend streams)")
    parser.add_argument("--serve-rounds", type=int, default=5,
                        help="complete push rounds the load generator waits "
                             "for")
    parser.add_argument("--serve-shards", type=int, default=4,
                        help="daemon --shards for the serving section")
    parser.add_argument("--serve-threads", type=int, default=4,
                        help="daemon --threads for the serving section")
    args = parser.parse_args()

    date = args.date or datetime.datetime.now(
        datetime.timezone.utc).strftime("%Y-%m-%d")
    out_path = args.out or f"BENCH_{date}.json"

    try:
        metadata = collect_metadata(args.build_dir)
        micro = run_micro(args.build_dir)
        benches = {
            "fig6": run_sweep(args.build_dir, "fig6_vary_n", args.runs,
                              args.rounds, args.reps, args.warmup),
            "loss_sweep": run_sweep(args.build_dir, "fig_loss_sweep",
                                    args.runs, args.rounds, args.reps,
                                    args.warmup),
        }
        serve = None
        if args.serve_subs > 0:
            serve = run_serve(args.build_dir, args.serve_subs,
                              args.serve_connections, args.serve_fields,
                              args.serve_rounds, args.serve_shards,
                              args.serve_threads)
    except (OSError, subprocess.CalledProcessError,
            subprocess.TimeoutExpired, RuntimeError, json.JSONDecodeError,
            KeyError, TypeError) as error:
        print(f"bench_snapshot: {error}", file=sys.stderr)
        return 1

    snapshot = {"schema": SCHEMA_VERSION, "date": date, "metadata": metadata,
                "micro": micro, "benches": benches}
    if serve is not None:
        snapshot["serve"] = serve
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(snapshot, f, indent=2, sort_keys=True)
        f.write("\n")
    serve_note = ""
    if serve is not None:
        serve_note = (f", serve {serve['loadgen']['subs']} subs "
                      f"push p50={serve['loadgen']['push_p50_ms']}ms "
                      f"p99={serve['loadgen']['push_p99_ms']}ms")
    print(f"wrote {out_path} (fig6 median_s={benches['fig6']['median_s']}, "
          f"loss_sweep median_s={benches['loss_sweep']['median_s']}, "
          f"{len(micro['benchmarks'])} micro benchmarks{serve_note})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
