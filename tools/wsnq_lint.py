#!/usr/bin/env python3
"""wsnq-lint: repo-specific correctness rules generic tools can't express.

Rules
  raw-assert        No raw assert()/abort() outside src/util/check.h; all
                    invariant checking goes through WSNQ_CHECK/WSNQ_DCHECK so
                    failures are uniform, grep-able, and NDEBUG-aware.
                    (static_assert and gtest's ASSERT_* are fine.)
  raw-random        No rand()/srand()/std::random_device/std::mt19937 outside
                    src/util/rng.*; every simulation must be bit-reproducible
                    from a seed (see util/rng.h).
  raw-thread        No std::thread/std::jthread/std::async outside
                    src/util/thread_pool.*; ad-hoc threads bypass the
                    deterministic fan-out/ordered-fold discipline that keeps
                    parallel results bit-identical to serial ones.
                    (std::thread::id and std::this_thread are fine — they
                    observe threads, they don't spawn them.)
  raw-clock         No std::chrono *_clock::now() outside src/util/trace.cc
                    (prof::WallSeconds), src/util/thread_pool.cc (per-worker
                    spans), and bench/ (wall-clock sweep footers). Wall clock
                    in simulation or protocol code would leak
                    non-determinism into results and traces; time through
                    prof::WallSeconds (util/trace.h) so profiling stays
                    gated and auditable.
  perf-syscall      No perf_event_open / perf_event_attr / PERF_EVENT_IOC /
                    <linux/perf_event.h> anywhere. wsnq measures wall clock
                    (prof::ScopedTimer) and benchmark/run.py; hardware
                    counters are denied on common hosts (EPERM) and would
                    make a profile depend on the kernel it ran under.
  const-cast        No const_cast or std::const_pointer_cast anywhere.
                    Scenario artifacts (radio graphs, traces, value sources)
                    are shared const across runs and sweep points by
                    core/scenario_cache.h; casting constness away is exactly
                    the mutation-of-shared-state bug the cache's determinism
                    contract forbids, so the escape hatch is banned tree-wide.
  fault-rng         No wsnq::Rng (or util/rng.h include) inside src/fault/;
                    fault decisions must be pure counter-based hashes of
                    (seed, run, round/tick, src, dst) through the FaultKey
                    helpers (src/fault/fault_key.h), never draws from a
                    sequential stream — a stream's draw order would differ
                    across thread schedules and break the bit-identical
                    fault-injection contract.
  raw-getenv        No getenv()/secure_getenv() outside src/util/env.cc;
                    every environment read goes through util/env.h, whose
                    header lists the variables wsnq reads, so a new knob
                    cannot appear unlisted in some corner of the tree.
  test-coverage     Every .cc under src/ is referenced (via its header path,
                    e.g. "algo/hbc.h") by at least one test that is registered
                    with wsnq_test() in tests/CMakeLists.txt.
  include-guard     Every header uses the canonical guard derived from its
                    repo-relative path: WSNQ_<DIR>_<FILE>_H_.
  tracked-build     No generated build artifacts (build*/ trees, CMakeCache,
                    object files ...) are tracked by git.

Usage: wsnq_lint.py [--root REPO_ROOT] [--list-rules]
Exit status: 0 when clean, 1 when any rule fires, 2 on usage error.

Adding a rule: write a `check_<name>(root) -> list[Finding]` function and
append it to CHECKS; docs/hardening.md describes the conventions.
"""

import argparse
import os
import re
import subprocess
import sys
from typing import List, NamedTuple

# Directories scanned for C++ sources (relative to the repo root).
CXX_ROOTS = ("src", "tests", "tools", "bench", "examples")
CXX_EXTENSIONS = (".cc", ".h", ".cpp", ".hpp")

# Expected-diagnostic corpora: these trees deliberately violate the rules
# (they pin wsnq-lint and wsnq-analyzer behavior via ctest) and are only
# ever scanned by their own selftest drivers, never as production code.
CORPUS_DIRS = (os.path.join("tests", "analyzer"), os.path.join("tests", "lint"))


class Finding(NamedTuple):
    path: str  # repo-relative
    line: int  # 1-based; 0 when the finding is file-level
    rule: str
    message: str


def cxx_files(root: str):
    for top in CXX_ROOTS:
        top_abs = os.path.join(root, top)
        if not os.path.isdir(top_abs):
            continue
        for dirpath, dirnames, filenames in os.walk(top_abs):
            dirnames[:] = [d for d in dirnames if not d.startswith(".")]
            rel_dir = os.path.relpath(dirpath, root)
            if any(rel_dir == c or rel_dir.startswith(c + os.sep)
                   for c in CORPUS_DIRS):
                continue
            for name in sorted(filenames):
                if name.endswith(CXX_EXTENSIONS):
                    yield os.path.relpath(os.path.join(dirpath, name), root)


def read_lines(root: str, rel: str) -> List[str]:
    with open(os.path.join(root, rel), encoding="utf-8") as f:
        return f.readlines()


def strip_comments_and_strings(line: str) -> str:
    """Best-effort removal of // comments and string/char literals so the
    pattern rules don't fire on prose or log text. Block comments spanning
    lines are not handled; the codebase doesn't use them mid-code."""
    line = re.sub(r'"(\\.|[^"\\])*"', '""', line)
    line = re.sub(r"'(\\.|[^'\\])*'", "''", line)
    return line.split("//", 1)[0]


RAW_ASSERT_RE = re.compile(r"(?<![A-Za-z0-9_])(assert|abort)\s*\(")
RAW_RANDOM_RE = re.compile(
    r"(?<![A-Za-z0-9_])(rand|srand)\s*\(|random_device|mt19937")


def check_raw_assert(root: str) -> List[Finding]:
    findings = []
    for rel in cxx_files(root):
        if rel == os.path.join("src", "util", "check.h"):
            continue  # the one sanctioned abort() site
        for i, raw in enumerate(read_lines(root, rel), start=1):
            if RAW_ASSERT_RE.search(strip_comments_and_strings(raw)):
                findings.append(Finding(
                    rel, i, "raw-assert",
                    "use WSNQ_CHECK/WSNQ_DCHECK (util/check.h) instead of "
                    "raw assert()/abort()"))
    return findings


def check_raw_random(root: str) -> List[Finding]:
    findings = []
    allowed = {os.path.join("src", "util", "rng.h"),
               os.path.join("src", "util", "rng.cc")}
    for rel in cxx_files(root):
        if rel in allowed:
            continue
        for i, raw in enumerate(read_lines(root, rel), start=1):
            if RAW_RANDOM_RE.search(strip_comments_and_strings(raw)):
                findings.append(Finding(
                    rel, i, "raw-random",
                    "use the deterministic wsnq::Rng (util/rng.h); "
                    "rand()/std::random_device break reproducibility"))
    return findings


# std::thread/std::jthread construction and std::async, but neither
# std::thread::id (the `(?!\s*::)` guard) nor std::this_thread (the text
# after `std::` is "this_thread", which `thread\b` can't match).
RAW_THREAD_RE = re.compile(
    r"std\s*::\s*(jthread\b|async\b|thread\b(?!\s*::))")


def check_raw_thread(root: str) -> List[Finding]:
    findings = []
    allowed = {os.path.join("src", "util", "thread_pool.h"),
               os.path.join("src", "util", "thread_pool.cc")}
    for rel in cxx_files(root):
        if rel in allowed:
            continue
        for i, raw in enumerate(read_lines(root, rel), start=1):
            if RAW_THREAD_RE.search(strip_comments_and_strings(raw)):
                findings.append(Finding(
                    rel, i, "raw-thread",
                    "use wsnq::ThreadPool (util/thread_pool.h); raw "
                    "std::thread/std::async bypass the deterministic "
                    "fan-out/ordered-fold discipline"))
    return findings


# steady_clock::now(), system_clock::now(), high_resolution_clock::now() —
# with or without the std::chrono:: qualification.
RAW_CLOCK_RE = re.compile(
    r"(steady_clock|system_clock|high_resolution_clock)\s*::\s*now\s*\(")


def check_raw_clock(root: str) -> List[Finding]:
    findings = []
    allowed = {os.path.join("src", "util", "trace.cc"),
               os.path.join("src", "util", "thread_pool.cc")}
    for rel in cxx_files(root):
        if rel in allowed or rel.startswith("bench" + os.sep):
            continue
        for i, raw in enumerate(read_lines(root, rel), start=1):
            if RAW_CLOCK_RE.search(strip_comments_and_strings(raw)):
                findings.append(Finding(
                    rel, i, "raw-clock",
                    "time through prof::WallSeconds / prof::ScopedTimer "
                    "(util/trace.h); raw clock reads leak wall-clock "
                    "non-determinism into simulation code"))
    return findings


# const_cast<...> and std::const_pointer_cast<...>. Whole-token match so
# identifiers merely containing the words can't fire it.
CONST_CAST_RE = re.compile(
    r"(?<![A-Za-z0-9_])(const_cast|const_pointer_cast)\s*<")


def check_const_cast(root: str) -> List[Finding]:
    findings = []
    for rel in cxx_files(root):
        for i, raw in enumerate(read_lines(root, rel), start=1):
            if CONST_CAST_RE.search(strip_comments_and_strings(raw)):
                findings.append(Finding(
                    rel, i, "const-cast",
                    "const_cast/const_pointer_cast would let code mutate "
                    "scenario artifacts shared const across runs "
                    "(core/scenario_cache.h); restructure so mutable state "
                    "is per-run instead"))
    return findings


# wsnq::Rng construction/use or an include of util/rng.h. The `Rng` token
# is matched as a whole word so FaultRng-style names can't slip through on
# a substring technicality. The include form is matched against the raw
# line (minus trailing // comment): quoted include paths are string
# literals, so the stripped text would never contain them.
FAULT_RNG_RE = re.compile(r"(?<![A-Za-z0-9_])Rng(?![A-Za-z0-9_])")
FAULT_RNG_INCLUDE_RE = re.compile(r'#\s*include\s*[<"]util/rng\.h[>"]')


def check_fault_rng(root: str) -> List[Finding]:
    findings = []
    fault_dir = os.path.join("src", "fault") + os.sep
    keying_helper = os.path.join("src", "fault", "fault_key.h")
    for rel in cxx_files(root):
        if not rel.startswith(fault_dir) or rel == keying_helper:
            continue
        for i, raw in enumerate(read_lines(root, rel), start=1):
            if (FAULT_RNG_RE.search(strip_comments_and_strings(raw))
                    or FAULT_RNG_INCLUDE_RE.search(raw.split("//", 1)[0])):
                findings.append(Finding(
                    rel, i, "fault-rng",
                    "fault decisions must go through the counter-based "
                    "FaultBits/FaultUniform/FaultBernoulli helpers "
                    "(fault/fault_key.h), not a sequential wsnq::Rng "
                    "stream — draw order would break bit-identical "
                    "parallel fault injection"))
    return findings


# perf_event_open (direct or via syscall(__NR_/SYS_perf_event_open)),
# the attr struct, the ioctl constants, and the kernel header itself. The
# include form is matched against the raw line: <...> includes survive
# literal-stripping, but keep the raw text so a "path" include can't hide.
PERF_SYSCALL_RE = re.compile(
    r"perf_event_open|perf_event_attr|PERF_EVENT_IOC|PERF_COUNT_")
PERF_INCLUDE_RE = re.compile(r'#\s*include\s*[<"]linux/perf_event\.h[>"]')


def check_perf_syscall(root: str) -> List[Finding]:
    findings = []
    for rel in cxx_files(root):
        for i, raw in enumerate(read_lines(root, rel), start=1):
            if (PERF_SYSCALL_RE.search(strip_comments_and_strings(raw))
                    or PERF_INCLUDE_RE.search(raw.split("//", 1)[0])):
                findings.append(Finding(
                    rel, i, "perf-syscall",
                    "no hardware-counter syscalls: time through "
                    "prof::ScopedTimer (util/trace.h) and measure with "
                    "benchmark/run.py"))
    return findings


SERVE_SYSCALL_RE = re.compile(
    r"\b(socket|bind|listen|accept4?|connect|poll|ppoll|select|"
    r"epoll_create1?|epoll_ctl|epoll_wait|recv|recvmsg|recvfrom|send|"
    r"sendmsg|sendto|setsockopt|getsockopt|getsockname|shutdown)\s*\(")
SERVE_INCLUDE_RE = re.compile(
    r'#\s*include\s*[<"](sys/socket\.h|sys/epoll\.h|sys/select\.h|'
    r'poll\.h|netinet/[a-z_]+\.h|arpa/inet\.h)[>"]')


def check_serve_syscall(root: str) -> List[Finding]:
    findings = []
    serve_dir = os.path.join("src", "serve") + os.sep
    for rel in cxx_files(root):
        if rel.startswith(serve_dir):
            continue  # the sanctioned transport layer (serve/sockets.h)
        for i, raw in enumerate(read_lines(root, rel), start=1):
            if (SERVE_SYSCALL_RE.search(strip_comments_and_strings(raw))
                    or SERVE_INCLUDE_RE.search(raw.split("//", 1)[0])):
                findings.append(Finding(
                    rel, i, "serve-syscall",
                    "socket/poll syscalls are confined to src/serve/ "
                    "(serve/sockets.h, serve/server.h, serve/client.h) — "
                    "the simulation core, tools, and tests stay "
                    "transport-free so the backend is testable without a "
                    "network"))
    return findings


RAW_GETENV_RE = re.compile(r"(?<![A-Za-z0-9_])(secure_getenv|getenv)\s*\(")


def check_raw_getenv(root: str) -> List[Finding]:
    findings = []
    allowed = os.path.join("src", "util", "env.cc")
    for rel in cxx_files(root):
        if rel == allowed:
            continue
        for i, raw in enumerate(read_lines(root, rel), start=1):
            if RAW_GETENV_RE.search(strip_comments_and_strings(raw)):
                findings.append(Finding(
                    rel, i, "raw-getenv",
                    "read the environment through util/env.h "
                    "(GetEnv/PositiveIntFromEnv) and list the variable in "
                    "its header; raw getenv() calls scatter knobs"))
    return findings


def check_test_coverage(root: str) -> List[Finding]:
    findings = []
    cmake_path = os.path.join(root, "tests", "CMakeLists.txt")
    if not os.path.isfile(cmake_path):
        return [Finding("tests/CMakeLists.txt", 0, "test-coverage",
                        "missing tests/CMakeLists.txt")]
    with open(cmake_path, encoding="utf-8") as f:
        cmake = f.read()
    registered = re.findall(r"wsnq_test\(\s*([A-Za-z0-9_]+)\s*\)", cmake)
    corpus = ""
    for name in registered:
        test_rel = os.path.join("tests", name + ".cc")
        if not os.path.isfile(os.path.join(root, test_rel)):
            findings.append(Finding(
                "tests/CMakeLists.txt", 0, "test-coverage",
                f"registered test '{name}' has no tests/{name}.cc"))
            continue
        corpus += "".join(read_lines(root, test_rel))
    for rel in cxx_files(root):
        if not (rel.startswith("src" + os.sep) and rel.endswith(".cc")):
            continue
        header_ref = os.path.splitext(os.path.relpath(rel, "src"))[0] + ".h"
        header_ref = header_ref.replace(os.sep, "/")
        if header_ref not in corpus:
            findings.append(Finding(
                rel, 0, "test-coverage",
                f"no registered test references '{header_ref}'; add or "
                "extend a test in tests/ and register it with wsnq_test()"))
    return findings


GUARD_USE_RE = re.compile(r"^#ifndef\s+([A-Za-z0-9_]+)\s*$", re.MULTILINE)


def expected_guard(rel: str) -> str:
    stem = os.path.splitext(rel)[0]
    parts = stem.split(os.sep)
    if parts[0] == "src":
        parts = parts[1:]  # src/ is the include root: src/algo/hbc.h -> ALGO_HBC
    return "WSNQ_" + "_".join(p.upper() for p in parts) + "_H_"


def check_include_guard(root: str) -> List[Finding]:
    findings = []
    for rel in cxx_files(root):
        if not rel.endswith((".h", ".hpp")):
            continue
        text = "".join(read_lines(root, rel))
        want = expected_guard(rel)
        match = GUARD_USE_RE.search(text)
        got = match.group(1) if match else None
        if got != want or f"#define {want}" not in text:
            findings.append(Finding(
                rel, 0, "include-guard",
                f"include guard must be {want} (found "
                f"{got or 'no #ifndef guard'})"))
    return findings


TRACKED_BUILD_RE = re.compile(
    r"^(build[^/]*|cmake-build-[^/]*|out)/"
    r"|(^|/)(CMakeCache\.txt|CTestTestfile\.cmake|cmake_install\.cmake)$"
    r"|(^|/)CMakeFiles/"
    r"|\.(o|obj|a|so|dylib)$")


def check_tracked_build(root: str) -> List[Finding]:
    try:
        out = subprocess.run(
            ["git", "-C", root, "ls-files"],
            capture_output=True, text=True, timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return []  # not a git checkout (e.g. a tarball): nothing to enforce
    findings = []
    for tracked in out.splitlines():
        if TRACKED_BUILD_RE.search(tracked):
            findings.append(Finding(
                tracked, 0, "tracked-build",
                "generated build artifact is tracked by git; "
                "`git rm --cached` it (see .gitignore)"))
    return findings


CHECKS = [
    check_raw_assert,
    check_raw_random,
    check_raw_thread,
    check_raw_clock,
    check_const_cast,
    check_fault_rng,
    check_perf_syscall,
    check_serve_syscall,
    check_raw_getenv,
    check_test_coverage,
    check_include_guard,
    check_tracked_build,
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", default=os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))),
        help="repository root (default: parent of this script)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule names and exit")
    args = parser.parse_args()

    if args.list_rules:
        for check in CHECKS:
            print(check.__name__.replace("check_", "", 1).replace("_", "-"))
        return 0

    if not os.path.isdir(os.path.join(args.root, "src")):
        print(f"wsnq-lint: {args.root} does not look like the repo root",
              file=sys.stderr)
        return 2

    findings = []
    for check in CHECKS:
        findings.extend(check(args.root))
    for f in sorted(findings):
        location = f"{f.path}:{f.line}" if f.line else f.path
        print(f"{location}: [{f.rule}] {f.message}")
    if findings:
        print(f"wsnq-lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"wsnq-lint: clean ({len(CHECKS)} rules)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
