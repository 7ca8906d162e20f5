#!/usr/bin/env python3
"""The wsnq benchmark: one command, four workloads (benchmark/README.md).

    python3 benchmark/run.py                         # every workload, seed 1
    python3 benchmark/run.py --workload=serve-10k --seed=3
    python3 benchmark/run.py --workload scale-64k --seed 2 --trace 1
    python3 benchmark/run.py --check                 # pre-merge, ~1/10 scale
    python3 benchmark/run.py --selftest              # statistics unit tests

Configures and builds build-bench/ (Release) on first use; the build is not
timed. Runs each requested workload from its seed for --seconds (by default
BENCHMARK.json's run_seconds), checks every answer, and prints one line per
(workload, metric) -- name, value, unit, sample count and quartiles -- plus
ops/failed_ops per workload. The last line of stdout is one JSON object
{correct, attempted, failed, metrics}: the end-to-end metrics BENCHMARK.json
lists, or with --trace 1 the per-layer ones. Exits non-zero when any check
fails.
"""

import argparse
import fcntl
import json
import math
import os
import random
import signal
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchstats  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, "build-bench")
BENCH = os.path.join(BUILD, "wsnq_bench")
CLIENT = os.path.join(BUILD, "wsnq_bench_client")
PROBE = os.path.join(BUILD, "wsnq_bench_probe")
SERVED = os.path.join(BUILD, "wsnq", "tools", "wsnq_served")

THREADS = 4          # nproc of the reference host; load never exceeds it
SETUP_SPAWNS = 40    # set-up-only starts per run, for a steady median
MIN_PASSES = 3
CHECK_SECONDS = 2.0  # measured time per workload under --check
# wsnq_bench_probe on the reference host, medians over 80 runs (README,
# "Host-speed correction"): its work time with THREADS threads, and the time
# from spawning it to its "# ready" line. They only fix the scale of the
# corrected values, which read as if measured on the reference host; in a
# comparison of two runs they cancel.
REF_PROBE_S = 0.33
REF_SPAWN_S = 0.0017
# The simulator timings the compute probe tracks (README, "Host-speed
# correction"). It does not track serve-10k, whose timings stay as measured.
PROBE_TRACKED = ("vertex_rounds_per_s", "push_p50_ms", "push_p99_ms",
                 "daemon_cpu_ms_per_round")
RUN_LIMIT_S = 170    # one workload's run must end well inside 180 s
# The programs see only their inputs, never the environment's WSNQ_* knobs
# (thread count, cache and layout switches), which would change what runs.
CHILD_ENV = {k: v for k, v in os.environ.items() if not k.startswith("WSNQ_")}

SYNTHETIC = "period=125 noise=5"  # Table 2 defaults (bench_common.h)
SIM_WORKLOADS = {
    # Fig. 6 population sweep at the §5.1.7 defaults.
    "synthetic-sweep": dict(
        runs=20, rounds=250, protocols="TAG,POS,HBC,IQ,LCLL-H,LCLL-S",
        points=["x=%d nodes=%d rho=35" % (n, n)
                for n in (128, 256, 512, 1024, 2048)]),
    # Bursty loss with stop-and-wait ARQ: the fault layer's classic paths.
    "lossy-arq": dict(
        runs=20, rounds=250, protocols="IQ,HBC,POS,LCLL-S",
        points=["x=%g nodes=1024 rho=35 loss=%g loss_model=ge burst=4 arq=1"
                % (loss, loss) for loss in (0.1, 0.3)]),
    # One large run: all threads go to in-run subtree parallelism.
    "scale-64k": dict(
        runs=1, rounds=100, protocols="TAG,HBC,IQ,LCLL-S", nodes=65536),
}
# The daemon's deployment is server configuration, fixed across seeds: the
# workload seed draws the subscription population (the traffic mix).
SERVE = dict(subs=10000, fields=16, connections=4, nodes=128, shards=4,
             threads=2, rate=50.0, sub_rate=5000.0, sub_start_s=0.1,
             check_every=50, deploy_seed=1)
WORKLOADS = list(SIM_WORKLOADS) + ["serve-10k"]

LIVE = []  # every child still to be reaped


class RunFailed(Exception):
    pass


def fail(message, code=2):
    print("run.py: %s" % message, file=sys.stderr)
    sys.exit(code)


# --- Processes ---------------------------------------------------------------

def spawn(cmd):
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                            env=CHILD_ENV)
    proc.pending = b""  # read from the pipe but not yet consumed
    LIVE.append(proc)
    return proc


def read_line(proc):
    """Reads `proc`'s next stdout line straight from the pipe (os.read, no
    Python buffering between the pipe and the clock); returns (line,
    CLOCK_MONOTONIC ns taken as soon as the read holding it returned)."""
    fd = proc.stdout.fileno()
    while b"\n" not in proc.pending:
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            break
        proc.pending += chunk
    arrived_ns = time.monotonic_ns()
    line, _, proc.pending = proc.pending.partition(b"\n")
    return line.decode(), arrived_ns


def read_rest(proc):
    chunks = [proc.pending]
    while True:
        chunk = os.read(proc.stdout.fileno(), 1 << 16)
        if not chunk:
            break
        chunks.append(chunk)
    proc.pending = b""
    return b"".join(chunks).decode()


def reap(proc):
    """Waits for `proc`; returns (exit code, resource usage)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    LIVE.remove(proc)
    proc.stdout.close()
    return proc.returncode, usage


def signal_child(proc, signum):
    # os.kill, not Popen.send_signal: the latter polls, and a poll that
    # reaps the child would leave reap() nothing to wait for. An unreaped
    # child is at worst a zombie, so its pid stays valid.
    os.kill(proc.pid, signum)


def stop_all():
    for proc in list(LIVE):
        signal_child(proc, signal.SIGKILL)
        reap(proc)


def start_timed(cmd, marker):
    """Spawns `cmd`; returns (proc, first stdout line, CLOCK_MONOTONIC ns of
    the spawn and of that line's arrival). The line must start with
    `marker`."""
    start_ns = time.monotonic_ns()
    proc = spawn(cmd)
    line, arrived_ns = read_line(proc)
    if not line.startswith(marker):
        reap(proc)
        raise RunFailed("%s: no %r line" % (os.path.basename(cmd[0]), marker))
    return proc, line, start_ns, arrived_ns


def finish_json(proc):
    """Reads the rest of `proc`'s stdout; returns (its last line as JSON,
    resource usage)."""
    out = read_rest(proc)
    code, usage = reap(proc)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        raise RunFailed("%s exited %d" % (proc.args[0], code))
    return json.loads(lines[-1]), usage


def vm_hwm_mb(pid):
    """Resident-set high-water mark of a live child [MB]. ru_maxrss would
    include this script's own high-water mark, inherited across exec."""
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RunFailed("no VmHWM for pid %d" % pid)


def cpu_s(pid):
    """User + system CPU seconds of a live child, all threads so far."""
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    # utime and stime are the 14th and 15th fields; fields[0] is the 3rd.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def setup_samples(cmd, marker, count):
    """Seconds from spawning `cmd` to its `marker` line, over `count` fresh
    starts. Each start is followed by one of the probe, which does nothing
    but print its ready line. Returns (raw seconds, seconds scaled by
    REF_SPAWN_S / the probe's spawn time next to them)."""
    raw, corrected = [], []
    for _ in range(count):
        proc, _, start_ns, ready_ns = start_timed(cmd, marker)
        signal_child(proc, signal.SIGTERM)
        reap(proc)
        probe, _, probe_start_ns, probe_ready_ns = start_timed([PROBE],
                                                               "# ready")
        reap(probe)
        elapsed = ready_ns - start_ns
        raw.append(elapsed * 1e-9)
        corrected.append(REF_SPAWN_S * elapsed /
                         (probe_ready_ns - probe_start_ns))
    return raw, corrected


def slowness():
    """How much slower the host computes now than the reference host: the
    probe's work time over REF_PROBE_S."""
    report, _ = finish_json(spawn([PROBE, "--threads=%d" % THREADS]))
    return report["probe_s"] / REF_PROBE_S


# --- Build -------------------------------------------------------------------

def build():
    for needed in ("CMakeLists.txt", "src", os.path.join("benchmark",
                                                         "CMakeLists.txt")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("%s is missing: run from a wsnq checkout" % needed)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "--build", BUILD, "-j", str(THREADS)]]
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.insert(0, ["cmake", "-S", os.path.join(ROOT, "benchmark"),
                             "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        with open(log_path, "a") as log:
            for step in steps:
                if subprocess.call(step, stdout=log, stderr=log,
                                   cwd=ROOT) != 0:
                    fail("build failed; see %s" % log_path)


# --- Inputs ------------------------------------------------------------------

def build_path(directory, name):
    directory = os.path.join(BUILD, directory)
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, name)


def sim_input(name, seed, scale):
    """Writes the workload file the simulator runner reads; returns its
    path."""
    spec = SIM_WORKLOADS[name]
    runs, rounds = spec["runs"], spec["rounds"]
    points = spec.get("points", [])
    if scale < 1.0:
        runs = min(runs, 2)
        rounds = max(10, int(rounds * scale))
    if "nodes" in spec:
        # Keep the default node density (256 nodes, rho = 35 m) at any n.
        nodes = int(spec["nodes"] * scale)
        points = ["x=%d nodes=%d rho=%.17g subtree_parallel=1"
                  % (nodes, nodes, 35.0 * math.sqrt(256.0 / nodes))]
    lines = ["runs=%d" % runs, "protocols=%s" % spec["protocols"]]
    lines += ["point %s rounds=%d seed=%d threads=%d %s"
              % (p, rounds, seed, THREADS, SYNTHETIC) for p in points]
    path = build_path("inputs", "%s-%d-%g.cfg" % (name, seed, scale))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return path


def serve_input(seed, scale):
    """Writes the subscription population (one "<field> <permille>" line
    per subscription, seeded uniform ranks); returns (path, count)."""
    count = int(SERVE["subs"] * scale)
    rng = random.Random(seed)
    path = build_path("inputs", "serve-10k-%d-%g.subs" % (seed, scale))
    with open(path, "w") as f:
        for _ in range(count):
            f.write("field-%d %d\n" % (rng.randrange(SERVE["fields"]),
                                       1 + rng.randrange(1000)))
    return path, count


# --- Metrics -----------------------------------------------------------------

def sample_metric(values, unit):
    """Median of per-repetition samples, with their quartiles."""
    q1, median, q3 = benchstats.quartiles(values)
    return dict(value=median, unit=unit, n=len(values), q1=q1, q3=q3)


def hist_metric(hist, pct, unit, per_ns):
    """Percentile `pct` of a histogram of nanoseconds, in `unit`."""
    return dict(value=hist.percentile(pct) / per_ns, unit=unit, n=hist.total,
                q1=hist.percentile(25.0) / per_ns,
                q3=hist.percentile(75.0) / per_ns,
                rule_ok=benchstats.tail_ok(hist.total, pct))


def scalar(value, unit):
    return dict(value=value, unit=unit, n=1, q1=value, q3=value)


def tail_metrics(hist, name, unit, per_ns, pcts=(50.0,)):
    """Percentiles `pcts` plus the highest tail the sample count supports,
    each named name % "<pct>"."""
    tail = benchstats.highest_tail(hist.total) or 90.0
    return {name % ("%g" % pct): hist_metric(hist, pct, unit, per_ns)
            for pct in sorted(set(pcts) | {tail})}


def host_corrected(measured, slow):
    """`measured` (name -> metric) with the PROBE_TRACKED timings scaled to
    the reference host -- throughput times the slowness, anything else
    divided by it -- plus each of them unscaled as raw.<name>. Returns
    (gated metrics, raw extras)."""
    gated, raw = dict(measured), {}
    for name in PROBE_TRACKED:
        factor = slow if name == "vertex_rounds_per_s" else 1.0 / slow
        m = measured[name]
        gated[name] = dict(m, value=m["value"] * factor,
                           q1=m["q1"] * factor, q3=m["q3"] * factor)
        raw["raw." + name] = m
    return gated, raw


# --- Simulator workloads -----------------------------------------------------

def sim_pass(cfg):
    """One fresh wsnq_bench process making one RunSweep call. Every answer
    of the pass reaches this script at once, in its result line, so each
    answer's latency is the time from the spawn to that line."""
    proc, _, start_ns, _ = start_timed([BENCH, "--workload-file=" + cfg],
                                       "# ready")
    line, answered_ns = read_line(proc)
    code, usage = reap(proc)
    if code != 0 or not line:
        raise RunFailed("wsnq_bench exited %d" % code)
    report = json.loads(line)
    return dict(wall_s=report["wall_s"], outcome=report["outcome"],
                rss_mb=report["peak_rss_mb"],
                cpu_s=usage.ru_utime + usage.ru_stime,
                answer_ms=(answered_ns - start_ns) * 1e-6)


def batch_metric(latencies, pct, unit):
    """Percentile `pct` of the answers of passes that each deliver the same
    number of answers at once, `latencies` apart."""
    return dict(value=benchstats.batch_percentile(latencies, pct), unit=unit,
                n=len(latencies),
                q1=benchstats.batch_percentile(latencies, 25.0),
                q3=benchstats.batch_percentile(latencies, 75.0))


def run_sim(name, seed, seconds, scale, single_pass):
    cfg = sim_input(name, seed, scale)
    raw_setup, setup = setup_samples(
        [BENCH, "--workload-file=" + cfg, "--setup-only"], "# ready",
        SETUP_SPAWNS)
    probes = [slowness()]
    passes = []
    start = time.monotonic()
    while True:
        passes.append(sim_pass(cfg))
        probes.append(slowness())
        elapsed = time.monotonic() - start
        # Stop before a pass that would end after the time budget.
        if single_pass or (len(passes) >= MIN_PASSES and
                           elapsed + elapsed / len(passes) > seconds):
            break
    slow = sample_metric(probes, "ratio")
    answers = [p["answer_ms"] for p in passes]
    measured = dict(
        setup_s=sample_metric(setup, "s"),
        vertex_rounds_per_s=sample_metric(
            [p["outcome"]["vertex_rounds"] / p["wall_s"] for p in passes],
            "1/s"),
        push_p50_ms=batch_metric(answers, 50.0, "ms"),
        push_p99_ms=batch_metric(answers, 99.0, "ms"),
        daemon_cpu_ms_per_round=sample_metric(
            [p["cpu_s"] * 1e3 / p["outcome"]["protocol_rounds"]
             for p in passes], "ms"),
        peak_rss_mb=sample_metric([p["rss_mb"] for p in passes], "MB"))
    metrics, raw = host_corrected(measured, slow["value"])
    first = passes[0]["outcome"]
    extras = {
        "hotspot_mj": scalar(first["hotspot_mj"], "mJ"),
        "packets_per_round": scalar(first["packets_per_round"], "packets"),
        "host.slowness": slow,
        "raw.setup_s": sample_metric(raw_setup, "s"),
        **raw,
        "raw.pass_s": sample_metric([p["wall_s"] for p in passes], "s"),
    }
    attempted = sum(p["outcome"]["protocol_rounds"] for p in passes)
    failed = sum(p["outcome"]["errors"] for p in passes)
    # Same seed, same inputs: every pass must reproduce the first exactly.
    failed += sum(p["outcome"]["protocol_rounds"] for p in passes
                  if (p["outcome"]["hotspot_mj"], p["outcome"]
                      ["packets_per_round"]) != (first["hotspot_mj"],
                                                 first["packets_per_round"]))
    return dict(metrics=metrics, extras=extras, attempted=attempted,
                failed=failed, cfg=cfg, passes=passes)


def trace_sim(name, untraced):
    spans_path = build_path("trace", name + ".jsonl")
    proc, _, _, _ = start_timed([BENCH, "--workload-file=" + untraced["cfg"],
                                 "--replay", "--spans=" + spans_path],
                                "# ready")
    replay, _ = finish_json(proc)
    self_s = benchstats.self_times(benchstats.read_spans(spans_path))
    outcome = replay["outcome"]
    reference = untraced["passes"][0]
    protocols = replay["protocols"]
    rounds = sum(p["rounds"] for p in protocols)
    hist = benchstats.Histogram(replay["round_hist"])
    hits, misses = replay["cache_hits"], replay["cache_misses"]

    metrics = {
        "core.scenario_s": scalar(self_s["core.prepare"] +
                                  self_s["core.build"], "s"),
        "core.cache_hit_ratio": scalar(hits / max(1, hits + misses),
                                       "ratio"),
        "data.materialize_s": scalar(self_s["data.materialize_values"] +
                                     self_s["data.materialize_sorted"], "s"),
        "algo.protocol_s": scalar(self_s["algo.make"] + sum(
            self_s["algo.%s.round" % p["label"]] for p in protocols), "s"),
        "algo.round_us_p50": hist_metric(hist, 50.0, "us", 1e3),
        "algo.round_us_p90": hist_metric(hist, 90.0, "us", 1e3),
        "algo.ns_per_vertex_wave": scalar(
            sum(p["round_ns"] for p in protocols) /
            max(1, sum(p["vertex_waves"] for p in protocols)), "ns"),
        "algo.oracle_s": scalar(self_s["algo.oracle"], "s"),
        "net.waves_per_round": scalar(
            sum(p["waves"] for p in protocols) / rounds, "count"),
    }
    overhead_s = replay["spans"] * replay["span_cost_ns"] * 1e-9
    extras = {
        "core.prepare_s": scalar(self_s["core.prepare"], "s"),
        "core.build_s": scalar(self_s["core.build"], "s"),
        "data.materialized_mb": scalar(replay["materialized_bytes"] / 2**20,
                                       "MB"),
        "util.parallel_efficiency": scalar(
            (replay["wall_s"] - overhead_s) /
            (THREADS * reference["wall_s"]), "ratio"),
        "trace_overhead": scalar(overhead_s / replay["wall_s"], "ratio"),
    }
    for p in protocols:
        label = p["label"]
        extras["algo.%s.self_s" % label] = scalar(
            self_s["algo.%s.round" % label], "s")
        extras.update(tail_metrics(benchstats.Histogram(p["round_hist"]),
                                   "algo.%s.round_us_p%%s" % label, "us",
                                   1e3, (50.0, 90.0)))
        extras["algo.%s.ns_per_vertex_wave" % label] = scalar(
            p["round_ns"] / max(1, p["vertex_waves"]), "ns")
        extras["algo.%s.refinements_per_round" % label] = scalar(
            p["refinements"] / p["rounds"], "count")
        extras["net.%s.packets_per_round" % label] = scalar(
            p["packets"] / p["rounds"], "packets")
        extras["net.%s.waves_per_round" % label] = scalar(
            p["waves"] / p["rounds"], "count")
    fault = replay["fault"]
    if fault["counted"]:
        uplinks = max(1, fault["uplinks"])
        extras["fault.delivery_ratio"] = scalar(fault["delivered"] / uplinks,
                                                "ratio")
        extras["fault.retx_per_uplink"] = scalar(fault["retx"] / uplinks,
                                                 "count")
        extras["fault.acks_per_uplink"] = scalar(fault["acks"] / uplinks,
                                                 "count")
    # Gate: the replay reproduces the untraced pass exactly.
    equal = (outcome["hotspot_mj"], outcome["packets_per_round"]) == (
        reference["outcome"]["hotspot_mj"],
        reference["outcome"]["packets_per_round"])
    failed = outcome["errors"] + (0 if equal else outcome["protocol_rounds"])
    return dict(metrics=metrics, extras=extras, self_s=self_s,
                attempted=outcome["protocol_rounds"], failed=failed,
                notes=["replay hotspot_mj/packets_per_round %s the untraced "
                       "pass" % ("equal" if equal else "DIFFER FROM")])


# --- Serving workload --------------------------------------------------------

def serve_plan(seed, seconds, scale):
    """Subscriptions from sub_start_s at sub_rate, then a measurement
    window of `seconds` that opens once every subscription should have been
    acknowledged."""
    subs_path, subs = serve_input(seed, scale)
    rate = SERVE["rate"]
    subscribe_s = subs / SERVE["sub_rate"]
    window_start = int(math.ceil((SERVE["sub_start_s"] + subscribe_s + 0.4) *
                                 rate))
    window_rounds = max(50, int(round(seconds * rate)))
    return dict(subs_path=subs_path, subs=subs, window_start=window_start,
                window_rounds=window_rounds,
                subscribe_rounds=int(math.ceil(subscribe_s * rate)),
                total_rounds=window_start + window_rounds)


def served_cmd():
    return [SERVED, "--port=0", "--shards=%d" % SERVE["shards"],
            "--threads=%d" % SERVE["threads"], "--nodes=%d" % SERVE["nodes"],
            "--rounds-per-sec=%g" % SERVE["rate"],
            "--seed=%d" % SERVE["deploy_seed"]]


def serve_session(plan):
    """One daemon + client session. Returns the client's report, the
    daemon's exit stats line as a dict, the daemon's CPU per round over the
    window [ms], its peak RSS [MB], and the seconds from its banner to the
    stop signal."""
    daemon, line, _, t0_ns = start_timed(served_cmd(),
                                         "# wsnq_served listening")
    # t0_ns, read as the banner came out of the pipe, is the origin of
    # every due time; the daemon starts its tick clock right after printing
    # the banner. A push received before its due time would show that t0 is
    # late (the client counts them as early_pushes).
    port = int(line.split("port=")[1].split()[0])
    client = spawn([
        CLIENT, "--port=%d" % port, "--subs-file=" + plan["subs_path"],
        "--connections=%d" % SERVE["connections"], "--t0-ns=%d" % t0_ns,
        "--rate=%g" % SERVE["rate"], "--sub-rate=%g" % SERVE["sub_rate"],
        "--sub-start-s=%g" % SERVE["sub_start_s"],
        "--window-start=%d" % plan["window_start"],
        "--window-rounds=%d" % plan["window_rounds"],
        "--check-every=%d" % SERVE["check_every"],
        "--nodes=%d" % SERVE["nodes"], "--seed=%d" % SERVE["deploy_seed"],
        "--timeout-s=%g" % (plan["total_rounds"] / SERVE["rate"] + 20)])
    # Daemon CPU over the window: read when its first round is due and
    # again once the client has every push of the window.
    window_ns = t0_ns + int(plan["window_start"] / SERVE["rate"] * 1e9)
    time.sleep(max(0.0, (window_ns - time.monotonic_ns()) * 1e-9))
    cpu_start, window_start_ns = cpu_s(daemon.pid), time.monotonic_ns()
    report, _ = finish_json(client)
    cpu_end, window_end_ns = cpu_s(daemon.pid), time.monotonic_ns()
    rounds = (window_end_ns - window_start_ns) * 1e-9 * SERVE["rate"]
    peak_rss_mb = vm_hwm_mb(daemon.pid)
    # Stopped only now: serve::Client drops frames that arrive in the same
    # read as the peer's close, so the daemon must outlive the window.
    stop_ns = time.monotonic_ns()
    signal_child(daemon, signal.SIGTERM)
    out = read_rest(daemon)
    code, _ = reap(daemon)
    stats = {}
    for stats_line in out.splitlines():
        if stats_line.startswith("# served "):
            stats = dict(kv.split("=") for kv in stats_line.split()[2:])
    if code != 0 or "backend_rounds" not in stats:
        raise RunFailed("wsnq_served exited %d without stats" % code)
    return (report, stats, (cpu_end - cpu_start) * 1e3 / rounds, peak_rss_mb,
            (stop_ns - t0_ns) * 1e-9)


def run_serve(seed, seconds, scale):
    plan = serve_plan(seed, seconds, scale)
    raw_setup, setup = setup_samples(served_cmd(),
                                     "# wsnq_served listening", SETUP_SPAWNS)
    report, stats, cpu_ms_per_round, peak_rss_mb, session_s = \
        serve_session(plan)
    push = benchstats.Histogram(report["push_hist"])
    ack = benchstats.Histogram(report["ack_hist"])
    # As measured: the compute probe does not track these timings.
    metrics = dict(
        setup_s=sample_metric(setup, "s"),
        # Paced: this reads the schedule unless the daemon falls behind.
        vertex_rounds_per_s=scalar(int(stats["backend_rounds"]) *
                                   SERVE["nodes"] / session_s, "1/s"),
        push_p50_ms=hist_metric(push, 50.0, "ms", 1e6),
        push_p99_ms=hist_metric(push, 99.0, "ms", 1e6),
        daemon_cpu_ms_per_round=scalar(cpu_ms_per_round, "ms"),
        peak_rss_mb=scalar(peak_rss_mb, "MB"))
    extras = {
        "raw.setup_s": sample_metric(raw_setup, "s"),
        **tail_metrics(ack, "ack_p%s_ms", "ms", 1e6, (50.0, 99.0)),
        "loadgen.busy_ratio": scalar(report["busy_ratio"], "ratio"),
        "loadgen.send_lag_ms_max": scalar(report["send_lag_max_ms"], "ms"),
        "serve.lateness_growth_ms": scalar(report["lateness_growth_ms"],
                                           "ms"),
        "serve.early_pushes": scalar(report["early_pushes"], "count"),
    }
    attempted = report["subs"] + report["expected_pushes"]
    failed = (report["subs"] - report["acks"] + report["expected_pushes"] -
              report["received_pushes"] + report["wrong"] + report["errors"] +
              report["unknown"] + report["closed"] + report["timed_out"])
    notes = ["%d answers checked against the oracle, %d wrong; %d late "
             "subscriptions" % (report["checked"], report["wrong"],
                                report["late_subs"])]
    return dict(metrics=metrics, extras=extras, attempted=attempted,
                failed=failed, plan=plan,
                daemon_cpu_ms_per_round=cpu_ms_per_round, notes=notes)


def trace_serve(untraced):
    plan = untraced["plan"]
    spans_path = build_path("trace", "serve-10k.jsonl")
    proc, _, _, _ = start_timed([
        BENCH, "--serve-replay", "--subs-file=" + plan["subs_path"],
        "--spans=" + spans_path, "--nodes=%d" % SERVE["nodes"],
        "--seed=%d" % SERVE["deploy_seed"], "--shards=%d" % SERVE["shards"],
        "--threads=%d" % SERVE["threads"],
        "--connections=%d" % SERVE["connections"],
        "--rounds=%d" % plan["total_rounds"],
        "--subscribe-rounds=%d" % plan["subscribe_rounds"],
        "--check-every=%d" % SERVE["check_every"]], "# ready")
    replay, _ = finish_json(proc)
    self_s = benchstats.self_times(benchstats.read_spans(spans_path))
    advance = benchstats.Histogram(replay["advance_hist"])
    subscribe = benchstats.Histogram(replay["subscribe_hist"])
    hits, misses = replay["cache_hits"], replay["cache_misses"]
    rounds = replay["rounds"]
    pushes = max(1, replay["pushes"])
    advance_s = self_s["serve.advance"]
    metrics = {
        "core.scenario_s": scalar(self_s["serve.subscribe"], "s"),
        "core.cache_hit_ratio": scalar(hits / max(1, hits + misses),
                                       "ratio"),
        "data.materialize_s": scalar(self_s["data.oracle_rows"], "s"),
        "algo.protocol_s": scalar(advance_s, "s"),
        "algo.round_us_p50": hist_metric(advance, 50.0, "us", 1e3),
        "algo.round_us_p90": hist_metric(advance, 90.0, "us", 1e3),
        "algo.ns_per_vertex_wave": scalar(
            advance_s * 1e9 / max(1, replay["convergecasts"] *
                                  (replay["nodes"] + 1)), "ns"),
        "algo.oracle_s": scalar(self_s["algo.oracle"], "s"),
        "net.waves_per_round": scalar(
            replay["convergecasts"] / max(1, replay["backend_rounds"]),
            "count"),
    }
    overhead_s = replay["spans"] * replay["span_cost_ns"] * 1e-9
    encode_s = replay["encode_ns"] * 1e-9
    extras = {
        "serve.broker.convergecasts_per_round": scalar(
            replay["convergecasts"] / rounds, "count"),
        "serve.broker.unique_ranks": scalar(replay["unique_ranks"], "count"),
        "serve.wire.encode_ns_per_push": scalar(replay["encode_ns"] / pushes,
                                                "ns"),
        "serve.wire.decode_ns_per_push": scalar(replay["decode_ns"] / pushes,
                                                "ns"),
        "serve.server.other_ms_per_round": scalar(
            untraced["daemon_cpu_ms_per_round"] -
            (advance_s + encode_s) * 1e3 / rounds, "ms"),
        "trace_overhead": scalar(overhead_s / replay["wall_s"], "ratio"),
        **tail_metrics(subscribe, "serve.broker.subscribe_us_p%s", "us",
                       1e3),
        **tail_metrics(advance, "serve.broker.advance_ms_p%s", "ms", 1e6),
    }
    failed = (replay["wrong"] + replay["expected_pushes"] - replay["pushes"])
    return dict(metrics=metrics, extras=extras, self_s=self_s,
                attempted=replay["subs"] + replay["expected_pushes"],
                failed=failed,
                notes=["replay: %d answers checked, %d wrong"
                       % (replay["checked"], replay["wrong"])])


# --- Main --------------------------------------------------------------------

def measure(name, seed, seconds, scale, trace):
    """One workload run. Returns (end-to-end result, traced result or
    None); each has metrics, extras, attempted and failed."""
    if name == "serve-10k":
        untraced = run_serve(seed, seconds, scale)
        return untraced, trace_serve(untraced) if trace else None
    untraced = run_sim(name, seed, seconds, scale, trace or scale < 1.0)
    return untraced, trace_sim(name, untraced) if trace else None


def print_result(name, result):
    for metric, m in list(result["metrics"].items()) + list(
            result["extras"].items()):
        flag = "" if m.get("rule_ok", True) else "  (fewer than 10 beyond)"
        print("%-16s %-38s %-14.7g %-7s n=%-9d q1=%-12.6g q3=%.6g%s"
              % (name, metric, m["value"], m["unit"], m["n"], m["q1"],
                 m["q3"], flag))
    for note in result.get("notes", []):
        print("%-16s # %s" % (name, note))


def print_self_times(name, self_s):
    layers = {}
    for span, seconds in self_s.items():
        layer = span.split(".")[0] if "." in span else "bench"
        layers[layer] = layers.get(layer, 0.0) + seconds
    total = sum(layers.values())
    for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
        print("%-16s self %-33s %-14.7g s       %.1f%%"
              % (name, layer, seconds, 100.0 * seconds / total))
    for span, seconds in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print("%-16s self   %-31s %-14.7g s" % (name, span, seconds))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def result_line(results, names, traced):
    """The contract JSON object: the `names` metrics of each (prefix,
    untraced, traced) entry -- from the traced result when `traced` -- with
    attempted and failed counted over everything the run executed."""
    metrics = {}
    attempted = failed = 0
    for prefix, *parts in results:
        source = parts[1] if traced else parts[0]
        for metric in names:
            m = source["metrics"][metric]
            metrics[prefix + metric] = dict(value=m["value"], unit=m["unit"])
        for part in parts:
            if part is not None:
                attempted += part["attempted"]
                failed += part["failed"]
    return dict(correct=failed == 0, attempted=attempted, failed=failed,
                metrics=metrics)


def check_result(result, listed, traced):
    """--check: the metrics a run computes against the ones BENCHMARK.json
    lists (same names and units, finite numbers, end-to-end ones non-zero);
    returns a list of problems."""
    source = result[1] if traced else result[0]
    problems = []
    for spec in listed:
        m = source["metrics"].get(spec["name"])
        if m is None or m["unit"] != spec["unit"]:
            problems.append("%s: not computed with unit %s"
                            % (spec["name"], spec["unit"]))
        elif not math.isfinite(m["value"]) or (not traced and
                                               m["value"] == 0):
            problems.append("%s = %r" % (spec["name"], m["value"]))
    extra = set(source["metrics"]) - {spec["name"] for spec in listed}
    if extra:
        problems.append("computed but not listed: %s" % sorted(extra))
    return problems


def on_alarm(signum, frame):
    raise RunFailed("workload exceeded %d s" % RUN_LIMIT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured time per workload; default: "
                             "BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", nargs="?", const="1", default="0",
                        choices=["0", "1"])
    parser.add_argument("--check", action="store_true",
                        help="every workload at ~1/10 scale, all gates")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the full report here")
    args = parser.parse_args()

    if args.selftest:
        import selftest
        return selftest.main()

    build()
    spec = load_spec()
    trace = args.trace == "1" or args.check
    scale = 0.1 if args.check else 1.0
    if args.check:
        seconds = CHECK_SECONDS
    else:
        seconds = args.seconds or spec["run_seconds"]
    names = [args.workload] if args.workload else WORKLOADS
    signal.signal(signal.SIGALRM, on_alarm)
    results = []
    try:
        for name in names:
            signal.alarm(RUN_LIMIT_S)
            untraced, traced = measure(name, args.seed, seconds, scale,
                                       trace)
            signal.alarm(0)
            print_result(name, untraced)
            print("%-16s ops=%d failed_ops=%d"
                  % (name, untraced["attempted"], untraced["failed"]))
            if traced is not None:
                print_result(name, traced)
                print_self_times(name, traced["self_s"])
                print("%-16s traced ops=%d failed_ops=%d"
                      % (name, traced["attempted"], traced["failed"]))
            prefix = "" if args.workload else name + "."
            results.append((prefix, untraced, traced))
    except RunFailed as error:
        fail(str(error), code=1)
    finally:
        signal.alarm(0)
        stop_all()

    problems = []
    if args.check:
        if [w["name"] for w in spec["workloads"]] != WORKLOADS:
            problems.append("BENCHMARK.json workloads differ from run.py")
        for _, untraced, traced in results:
            problems += check_result((untraced, traced), spec["end_to_end"],
                                     False)
            problems += check_result((untraced, traced), spec["per_layer"],
                                     True)
        for problem in problems:
            print("check: %s" % problem, file=sys.stderr)
    if args.json:
        keep = ("metrics", "extras", "attempted", "failed", "notes")
        with open(args.json, "w") as f:
            json.dump(dict(seed=args.seed, seconds=seconds, scale=scale,
                           workloads={
                               prefix.rstrip(".") or args.workload: dict(
                                   untraced={k: u[k] for k in keep if k in u},
                                   traced=t and {k: t[k] for k in keep
                                                 if k in t})
                               for prefix, u, t in results}), f, indent=1)
    traced = args.trace == "1"
    listed = spec["per_layer"] if traced else spec["end_to_end"]
    line = result_line(results, [m["name"] for m in listed], traced)
    line["correct"] = line["correct"] and not problems
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
