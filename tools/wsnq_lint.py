#!/usr/bin/env python3
"""wsnq-lint: repo-specific determinism, layering and hygiene rules.

Rules (docs/hardening.md "wsnq-lint" gives the reasons)
  raw-clock        no *_clock::now/clock_gettime/gettimeofday/timespec_get
                   outside util/trace.cc, util/thread_pool.cc and bench/
  raw-random       no rand/srand/drand48/lrand48 or std random engines
                   outside util/rng.*
  raw-thread       no std::thread/jthread/async or pthread_create outside
                   util/thread_pool.* (std::thread::id, this_thread are fine)
  perf-syscall     no perf_event_open, raw syscall(), perf_event_attr,
                   PERF_EVENT_IOC_*/PERF_COUNT_* or <linux/perf_event.h>
  unordered-iter   no unordered_map/set iteration in fold/report/export/
                   wave/replay (output) paths
  fp-reduction     no floating-point += inside an unordered-container loop
  layering         first-party includes follow the layer DAG (LAYER_ALLOWED)
  bad-suppression  a suppression names a known rule and says why
  const-cast       no const_cast/const_pointer_cast anywhere
  fault-rng        no wsnq::Rng or util/rng.h inside src/fault/ except
                   fault_key.h
  serve-syscall    socket/poll calls and headers only under src/serve/
  raw-getenv       no getenv/secure_getenv outside util/env.cc
  raw-assert       no assert()/abort() outside util/check.h
  include-guard    headers use WSNQ_<DIR>_<FILE>_H_
  test-coverage    every src/ .cc is referenced by a registered test
  tracked-build    no build artifacts tracked by git

Every rule reads source through strip_file (//, /* */ comments and
string/char literals blanked, line structure kept). The four bans resolve
typedef/using/namespace aliases, so `using Clock =
std::chrono::steady_clock; Clock::now()` is caught with no banned spelling
at the call site. unordered-iter and fp-reduction track declared container
and FP types (a .cc also sees its sibling header) and brace-depth function
contexts.

Suppression: `// wsnq-lint: allow(<rule>): <justification>` silences
<rule> on that line only; without a known rule and a justification it is
itself a bad-suppression finding and silences nothing.

Corpus: --selftest DIR checks every overlay DIR/<rule>/ (a miniature repo
root) against <rule> plus every rule its markers name, comparing the
(path, line, rule) findings with `lint-expect: <rule>[, <rule>...]`
(this line) and `lint-expect-file: <rule>` (file-level) markers.
tracked-build reads a git index, so it is pinned on a scratch `git init`
repo. Every rule must be pinned.

Usage: wsnq_lint.py [--root REPO_ROOT] [--selftest DIR] [--list-rules]
Exit status: 0 clean, 1 findings (or selftest mismatch), 2 usage error.
"""

import argparse
import functools
import os
import re
import subprocess
import sys
import tempfile
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

# Directories scanned for C++ sources (relative to the repo root).
CXX_ROOTS = ("src", "tests", "tools", "bench", "examples")
CXX_EXTENSIONS = (".cc", ".h", ".cpp", ".hpp")
# The expected-finding corpus violates the rules on purpose; only
# --selftest scans it.
CORPUS_DIR = "tests/lint"


class Finding(NamedTuple):
    path: str  # root-relative, '/'-separated
    line: int  # 1-based; 0 when the finding is file-level
    rule: str
    message: str


# --- Source model -----------------------------------------------------------

def strip_line(line: str) -> str:
    """Removes string/char literals and // comments from one line."""
    line = re.sub(r'"(\\.|[^"\\])*"', '""', line)
    line = re.sub(r"'(\\.|[^'\\])*'", "''", line)
    return line.split("//", 1)[0]


def strip_file(lines: List[str]) -> List[str]:
    """Per-line stripped source with /* */ block comments blanked too
    (line structure preserved)."""
    stripped = []
    in_block = False
    for raw in lines:
        if in_block:
            end = raw.find("*/")
            if end < 0:
                stripped.append("")
                continue
            raw = " " * (end + 2) + raw[end + 2:]
            in_block = False
        line = strip_line(raw)
        while True:
            start = line.find("/*")
            if start < 0:
                break
            end = line.find("*/", start + 2)
            if end < 0:
                line = line[:start]
                in_block = True
                break
            line = line[:start] + " " + line[end + 2:]
        stripped.append(line)
    return stripped


ALIAS_USING_RE = re.compile(
    r"\busing\s+([A-Za-z_]\w*)\s*=\s*([\w:]+(?:<[^;=]*>)?)\s*;")
ALIAS_TYPEDEF_RE = re.compile(
    r"\btypedef\s+([\w:<>,\s*&]+?)\s+([A-Za-z_]\w*)\s*;")
ALIAS_NAMESPACE_RE = re.compile(
    r"\bnamespace\s+([A-Za-z_]\w*)\s*=\s*([\w:]+)\s*;")
USING_DECL_RE = re.compile(r"\busing\s+((?:[\w]+::)+[\w]+)\s*;")
USING_NAMESPACE_RE = re.compile(r"\busing\s+namespace\s+([\w:]+)\s*;")
QUALIFIED_NAME_RE = re.compile(
    r"(?:::\s*)?[A-Za-z_]\w*(?:\s*::\s*[A-Za-z_]\w*)*")
FP_DECL_RE = re.compile(r"\b(?:double|float)\b\s*[&*]?\s*([A-Za-z_]\w*)")
SUPPRESS_RE = re.compile(
    r"//\s*wsnq-lint:\s*allow\(([^)]*)\)(?:\s*:\s*(\S.*))?")


class Source:
    """One C++ file: raw lines, stripped code lines, and (lazily) the
    aliases, declared types and suppressions the rules consult."""

    def __init__(self, root: str, rel: str):
        self.root = root
        self.rel = rel
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            self.raw = f.readlines()
        self.code = strip_file(self.raw)

    def directives(self) -> Iterable[Tuple[int, str]]:
        """(line, raw text minus // comment) of each preprocessor line that
        is code — quoted include paths survive, commented-out ones don't."""
        for i, (code, raw) in enumerate(zip(self.code, self.raw), start=1):
            if code.lstrip().startswith("#"):
                yield i, raw.split("//", 1)[0]

    @functools.cached_property
    def decl_text(self) -> str:
        """Stripped source plus, for a .cc, its sibling header's — member
        declarations (aliases, unordered containers, FP fields) live there.
        The header's own lines are scanned as their own file."""
        text = "\n".join(self.code) + "\n"
        if self.rel.endswith((".cc", ".cpp")):
            stem = os.path.join(self.root, os.path.splitext(self.rel)[0])
            for ext in (".h", ".hpp"):
                if os.path.isfile(stem + ext):
                    with open(stem + ext, encoding="utf-8") as f:
                        text += "\n".join(strip_file(f.readlines()))
                    break
        return text

    @functools.cached_property
    def aliases(self) -> Dict[str, str]:
        aliases = {}
        for name, target in ALIAS_USING_RE.findall(self.decl_text):
            aliases[name] = re.sub(r"\s+", "", target)
        for target, name in ALIAS_TYPEDEF_RE.findall(self.decl_text):
            aliases[name] = re.sub(r"\s+", "", target.strip())
        for name, target in ALIAS_NAMESPACE_RE.findall(self.decl_text):
            aliases[name] = re.sub(r"\s+", "", target)
        for qualified in USING_DECL_RE.findall(self.decl_text):
            aliases[qualified.rsplit("::", 1)[1]] = qualified
        return aliases

    @functools.cached_property
    def using_namespaces(self) -> List[str]:
        # "std" is assumed: catches unqualified steady_clock::now even
        # without the using-directive, and no first-party name collides
        # with the banned ones.
        return ["std"] + USING_NAMESPACE_RE.findall(self.decl_text)

    def resolve(self, token: str) -> str:
        """Expands the leading segment through the alias map (bounded)."""
        name = re.sub(r"\s+", "", token).lstrip(":")
        for _ in range(8):
            head, sep, tail = name.partition("::")
            expansion = self.aliases.get(head)
            if expansion is None or expansion == name:
                break
            name = expansion + (sep + tail if sep else "")
            if "<" in name:  # template alias: keep the template head only
                name = name.split("<", 1)[0]
        return name

    @functools.cached_property
    def names(self) -> List[Tuple[int, Tuple[str, ...], bool]]:
        """(line, alias-resolved ::-segments, immediately called?) for every
        qualified name in code, preprocessor lines excepted (<thread> is not
        a thread spawn)."""
        names = []
        for i, line in enumerate(self.code, start=1):
            if line.lstrip().startswith("#"):
                continue
            for m in QUALIFIED_NAME_RE.finditer(line):
                segs = tuple(s for s in self.resolve(m.group(0)).split("::")
                             if s)
                if segs:
                    is_call = bool(re.match(r"\s*\(", line[m.end():]))
                    names.append((i, segs, is_call))
        return names

    @functools.cached_property
    def suppressions(self):
        """({(line, rule)} valid suppressions, [(line, message)] malformed
        ones). Malformed suppressions silence nothing."""
        valid, bad = set(), []
        for i, raw in enumerate(self.raw, start=1):
            m = SUPPRESS_RE.search(raw)
            if not m:
                continue
            rule = m.group(1).strip()
            if rule not in RULES:
                bad.append((i, f"suppression names unknown rule '{rule}' "
                               f"(known: {', '.join(sorted(RULES))})"))
            elif not (m.group(2) or "").strip():
                bad.append((i, "suppression carries no justification; write "
                               "`// wsnq-lint: allow(<rule>): <why this is "
                               "sound>`"))
            else:
                valid.add((i, rule))
        return valid, bad


def cxx_files(root: str) -> Iterable[str]:
    for top in CXX_ROOTS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            rel_dir = os.path.relpath(dirpath, root).replace(os.sep, "/")
            if (rel_dir + "/").startswith(CORPUS_DIR + "/"):
                dirnames[:] = []
                continue
            for name in sorted(filenames):
                if name.endswith(CXX_EXTENSIONS):
                    yield f"{rel_dir}/{name}"


# --- Rule table -------------------------------------------------------------

# name -> (check(Source) -> [(line, message)], exempt paths or dir/ prefixes,
# the path prefix the rule is confined to).
FILE_RULES: Dict[str, tuple] = {}


def file_rule(name: str, exempt: Tuple[str, ...] = (), only: str = ""):
    def register(check):
        FILE_RULES[name] = (check, exempt, only)
        return check
    return register


def pattern_check(pattern: str, message: str, include: Optional[str] = None):
    """A check that fires on every code line matching `pattern`, and on
    every preprocessor line matching `include`."""
    code_re = re.compile(pattern)
    include_re = re.compile(include) if include else None

    def check(src: Source):
        hits = {i for i, code in enumerate(src.code, start=1)
                if code_re.search(code)}
        if include_re:
            hits |= {i for i, text in src.directives()
                     if include_re.search(text)}
        return [(i, message) for i in sorted(hits)]
    return check


def pattern_rule(name: str, pattern: str, message: str,
                 include: Optional[str] = None, **scope):
    file_rule(name, **scope)(pattern_check(pattern, message, include))


# Banned names as ::-segment tuples, matched segment-for-segment against the
# alias-resolved name (so std::thread::id does NOT match std::thread). Call
# bans fire only when the name is immediately invoked — a field *named*
# rand is not a call of ::rand(). Type bans fire on any reference. Suffix
# bans match trailing segments (chrono::steady_clock::now under any
# qualification).
BAN_CALL = {
    "raw-clock": {("clock_gettime",), ("gettimeofday",), ("timespec_get",),
                  ("std", "timespec_get")},
    "raw-random": {("rand",), ("srand",), ("drand48",), ("lrand48",),
                   ("std", "rand"), ("std", "srand")},
    "raw-thread": {("pthread_create",), ("std", "async")},
    # perf_event_open has no glibc wrapper, so a raw syscall() is how
    # counter plumbing would sneak back in.
    "perf-syscall": {("perf_event_open",), ("syscall",)},
}
BAN_TYPE = {
    "raw-thread": {("std", "thread"), ("std", "jthread")},
    "perf-syscall": {("perf_event_attr",)},
}
BAN_SUFFIX = {
    "raw-clock": {("steady_clock", "now"), ("system_clock", "now"),
                  ("high_resolution_clock", "now")},
    "raw-random": {("random_device",), ("mt19937",), ("mt19937_64",),
                   ("minstd_rand",), ("minstd_rand0",),
                   ("default_random_engine",), ("ranlux24",), ("ranlux48",),
                   ("knuth_b",)},
}


def ban_lines(src: Source, rule: str) -> Set[int]:
    calls, types = BAN_CALL.get(rule, set()), BAN_TYPE.get(rule, set())
    suffixes = BAN_SUFFIX.get(rule, set())
    hits = set()
    for i, segs, is_call in src.names:
        candidates = [segs] + [tuple(ns.split("::")) + segs
                               for ns in src.using_namespaces]
        if any((cand in calls and is_call) or cand in types
               for cand in candidates) or \
                any(segs[-len(s):] == s for s in suffixes):
            hits.add(i)
    return hits


def ban_rule(name: str, message: str, exempt: Tuple[str, ...]):
    file_rule(name, exempt=exempt)(
        lambda src: [(i, message) for i in sorted(ban_lines(src, name))])


ban_rule("raw-clock",
         "raw clock read; time through prof::WallSeconds / "
         "prof::ScopedTimer (util/trace.h) so wall-clock non-determinism "
         "stays out of simulation code",
         exempt=("src/util/trace.cc", "src/util/thread_pool.cc", "bench/"))
ban_rule("raw-random",
         "sequential RNG; use the counter-keyed wsnq::Rng (util/rng.h) so "
         "results are bit-reproducible from the seed",
         exempt=("src/util/rng.h", "src/util/rng.cc"))
ban_rule("raw-thread",
         "raw thread primitive; use wsnq::ThreadPool (util/thread_pool.h) — "
         "ad-hoc threads bypass the deterministic fan-out/ordered-fold "
         "discipline",
         exempt=("src/util/thread_pool.h", "src/util/thread_pool.cc"))

PERF_MESSAGE = ("hardware-counter plumbing; time through prof::ScopedTimer "
                "(util/trace.h) and measure with benchmark/run.py")
# The spellings cover what the alias-resolving ban can't see: the ioctl and
# counter constants, wrappers around the syscall, and the kernel header.
perf_spellings = pattern_check(
    r"perf_event_open|perf_event_attr|PERF_EVENT_IOC|PERF_COUNT_",
    PERF_MESSAGE, include=r'#\s*include\s*[<"]linux/perf_event\.h[>"]')


@file_rule("perf-syscall")
def check_perf_syscall(src: Source):
    lines = ban_lines(src, "perf-syscall") | {
        i for i, _ in perf_spellings(src)}
    return [(i, PERF_MESSAGE) for i in sorted(lines)]


# Function-name contexts where unordered iteration order can reach output
# (fold/aggregate/report/export/serialize paths, plus the partial-wave fold
# path of net/wave.h: part replays and fold-vertex processing feed Network
# accounting directly).
OUTPUT_CONTEXT_RE = re.compile(
    r"(?i)(fold|merge|aggregat|report|export|serial|write|rows|print|csv|"
    r"json|dump|emit|render|encode|wave|replay|convergecast)")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(([^;()]*?):([^;]*)\)")
FUNC_SIG_RE = re.compile(
    r"([A-Za-z_~]\w*)\s*\([^()]*(?:\([^()]*\)[^()]*)*\)\s*"
    r"(?:const|noexcept|final|override|->\s*[\w:<>,\s]+|WSNQ_\w+\s*\([^()]*\))*\s*$")
NON_FUNC_KEYWORDS = {"if", "for", "while", "switch", "catch", "return",
                     "sizeof", "alignof", "decltype"}


def template_decl_names(text: str, marker: str) -> Set[str]:
    """Identifiers declared with a type whose spelling contains
    `marker<...>` (balanced angle brackets, nested templates OK)."""
    names = set()
    pos = 0
    while True:
        start = text.find(marker + "<", pos)
        if start < 0:
            break
        i = start + len(marker)
        depth = 0
        while i < len(text):
            if text[i] == "<":
                depth += 1
            elif text[i] == ">":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        m = re.match(r"\s*[&*]?\s*([A-Za-z_]\w*)\s*[;={(,)]",
                     text[i + 1:i + 120])
        if m:
            names.add(m.group(1))
        pos = i + 1
    return names


def unordered_vars(src: Source) -> Set[str]:
    names = set()
    for marker in ("unordered_map", "unordered_set"):
        names |= template_decl_names(src.decl_text, marker)
    # Alias-typed declarations: `using NodeMap = std::unordered_map<..>;
    # NodeMap index_;`
    for name, target in src.aliases.items():
        if "unordered_map" in target or "unordered_set" in target:
            for m in re.finditer(r"\b%s\b\s*[&*]?\s+([A-Za-z_]\w*)\s*[;={(]"
                                 % re.escape(name), src.decl_text):
                names.add(m.group(1))
    return names


def function_contexts(code: List[str]) -> List[Optional[str]]:
    """Per-line innermost *named* function context (None outside)."""
    contexts: List[Optional[str]] = []
    stack: List[Tuple[Optional[str], int]] = []  # (name, depth-after-{)
    depth = 0
    statement = ""  # text since the last ; { }
    for line in code:
        for ch in line:
            if ch == "{":
                name = None
                sig = FUNC_SIG_RE.search(statement.strip())
                if sig and sig.group(1) not in NON_FUNC_KEYWORDS:
                    name = sig.group(1)
                depth += 1
                stack.append((name, depth))
                statement = ""
            elif ch == "}":
                depth -= 1
                while stack and stack[-1][1] > depth:
                    stack.pop()
                statement = ""
            elif ch == ";":
                statement = ""
            else:
                statement += ch
        statement += " "
        contexts.append(next((n for n, _ in reversed(stack) if n), None))
    return contexts


def base_identifier(expr: str) -> Optional[str]:
    """Trailing identifier of a range expression (`this->totals_`,
    `cache.entries_` -> entries_); None when the expr ends in a call."""
    expr = expr.strip()
    if expr.endswith(")"):
        return None
    m = re.search(r"([A-Za-z_]\w*)\s*$", expr)
    return m.group(1) if m else None


def iteration_findings(src: Source) -> List[Tuple[int, str, str]]:
    """(line, rule, message) for unordered-iter and fp-reduction."""
    containers = unordered_vars(src)
    if not containers:
        return []
    findings = []
    fp_vars = set(FP_DECL_RE.findall(src.decl_text))
    contexts = function_contexts(src.code)
    depth = 0
    loop_stack: List[int] = []  # depths of open unordered-range-for bodies
    pending_loop = False
    for i, line in enumerate(src.code, start=1):
        context = contexts[i - 1]
        in_output_path = context is not None and \
            OUTPUT_CONTEXT_RE.search(context)
        for m in RANGE_FOR_RE.finditer(line):
            base = base_identifier(m.group(2))
            if base in containers:
                pending_loop = True
                if in_output_path:
                    findings.append((
                        i, "unordered-iter",
                        f"iteration over unordered container '{base}' in "
                        f"output path '{context}': hash order is "
                        "implementation-defined; use std::map or sort "
                        "before emitting"))
        for var in containers:
            if in_output_path and re.search(
                    r"\b%s\s*\.\s*c?begin\s*\(" % re.escape(var), line):
                findings.append((
                    i, "unordered-iter",
                    f"iterator walk over unordered container '{var}' in "
                    f"output path '{context}': hash order is "
                    "implementation-defined; use std::map or sort before "
                    "emitting"))
        if loop_stack:
            for m in re.finditer(r"([A-Za-z_]\w*)\s*\+=", line):
                if m.group(1) in fp_vars:
                    findings.append((
                        i, "fp-reduction",
                        f"'{m.group(1)} +=' accumulates floating point in "
                        "unordered iteration order; FP addition is not "
                        "associative, so the sum depends on hash order — "
                        "fold from an ordered container instead"))
        for ch in line:
            if ch == "{":
                depth += 1
                if pending_loop:
                    loop_stack.append(depth)
                    pending_loop = False
            elif ch == "}":
                while loop_stack and loop_stack[-1] >= depth:
                    loop_stack.pop()
                depth -= 1
    return findings


for _rule in ("unordered-iter", "fp-reduction"):
    file_rule(_rule)(lambda src, rule=_rule: [
        (i, message) for i, r, message in iteration_findings(src)
        if r == rule])


# Layer DAG: which first-party include layers each source layer may use.
SRC_LAYERS = ("util", "net", "data", "fault", "sketch", "algo", "core",
              "mc", "serve")
LAYER_ALLOWED: Dict[str, Set[str]] = {
    "util": {"util"},
    "net": {"net", "util"},
    "data": {"data", "net", "util"},
    "fault": {"fault", "net", "util"},
    # algo and sketch are one layer group (q-digest is both an algorithm
    # and a sketch): mutual includes are legal.
    "sketch": {"sketch", "algo", "net", "util"},
    "algo": {"algo", "sketch", "net", "util"},
    "core": {"core", "algo", "sketch", "data", "fault", "net", "util"},
    # The model checker sits on top of everything it checks; nothing under
    # src/ may include mc/ back (the checker must observe, never shape, the
    # production stack).
    "mc": {"mc", "core", "algo", "sketch", "data", "fault", "net", "util"},
    # The serving daemon also sits on top of the stack: it drives the
    # simulator through core/scenario + algo/multi_quantile, and nothing
    # under src/ may include serve/ back (the simulation stays
    # transport-free; sockets are a serve-only concern, see serve-syscall).
    "serve": {"serve", "core", "algo", "sketch", "data", "fault", "net",
              "util"},
}
for _top in ("tests", "tools", "bench", "examples"):
    LAYER_ALLOWED[_top] = set(SRC_LAYERS) | {_top}
QUOTED_INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')


@file_rule("layering")
def check_layering(src: Source):
    parts = src.rel.split("/")
    layer = parts[1] if parts[0] == "src" and len(parts) > 1 else parts[0]
    allowed = LAYER_ALLOWED.get(layer)
    if allowed is None:
        return []  # not a layered location (e.g. a stray top-level file)
    findings = []
    for i, text in src.directives():
        m = QUOTED_INCLUDE_RE.match(text)
        target = m.group(1).split("/", 1)[0] if m else None
        if target in LAYER_ALLOWED and target not in allowed:
            findings.append((
                i, f"illegal include edge {layer} -> {target}; the layer "
                   f"DAG allows {layer} -> {{{', '.join(sorted(allowed))}}}"))
    return findings


file_rule("bad-suppression")(lambda src: src.suppressions[1])

pattern_rule(
    "const-cast", r"(?<![A-Za-z0-9_])(const_cast|const_pointer_cast)\s*<",
    "const_cast/const_pointer_cast would let code mutate scenario "
    "artifacts shared const across runs (core/scenario_cache.h); "
    "restructure so mutable state is per-run instead")
# The `Rng` token is a whole word so FaultRng-style names can't fire.
pattern_rule(
    "fault-rng", r"(?<![A-Za-z0-9_])Rng(?![A-Za-z0-9_])",
    "fault decisions must go through the counter-based "
    "FaultBits/FaultUniform/FaultBernoulli helpers (fault/fault_key.h), "
    "not a sequential wsnq::Rng stream — draw order would break "
    "bit-identical parallel fault injection",
    include=r'#\s*include\s*[<"]util/rng\.h[>"]',
    exempt=("src/fault/fault_key.h",), only="src/fault/")
pattern_rule(
    "serve-syscall",
    r"\b(socket|bind|listen|accept4?|connect|poll|ppoll|select|"
    r"epoll_create1?|epoll_ctl|epoll_wait|recv|recvmsg|recvfrom|send|"
    r"sendmsg|sendto|setsockopt|getsockopt|getsockname|shutdown)\s*\(",
    "socket/poll syscalls are confined to src/serve/ (serve/sockets.h, "
    "serve/server.h, serve/client.h) — the simulation core, tools, and "
    "tests stay transport-free so the backend is testable without a "
    "network",
    include=r'#\s*include\s*[<"](sys/socket\.h|sys/epoll\.h|sys/select\.h|'
            r'poll\.h|netinet/[a-z_]+\.h|arpa/inet\.h)[>"]',
    exempt=("src/serve/",))
pattern_rule(
    "raw-getenv", r"(?<![A-Za-z0-9_])(secure_getenv|getenv)\s*\(",
    "read the environment through util/env.h (GetEnv/PositiveIntFromEnv) "
    "and list the variable in its header; raw getenv() calls scatter knobs",
    exempt=("src/util/env.cc",))
pattern_rule(
    "raw-assert", r"(?<![A-Za-z0-9_])(assert|abort)\s*\(",
    "use WSNQ_CHECK/WSNQ_DCHECK (util/check.h) instead of raw "
    "assert()/abort()",
    exempt=("src/util/check.h",))


def expected_guard(rel: str) -> str:
    parts = os.path.splitext(rel)[0].split("/")
    if parts[0] == "src":
        parts = parts[1:]  # src/ is the include root: src/algo/hbc.h -> ALGO_HBC
    return "WSNQ_" + "_".join(p.upper() for p in parts) + "_H_"


@file_rule("include-guard")
def check_include_guard(src: Source):
    if not src.rel.endswith((".h", ".hpp")):
        return []
    text = "".join(src.raw)
    want = expected_guard(src.rel)
    match = re.search(r"^#ifndef\s+([A-Za-z0-9_]+)\s*$", text, re.MULTILINE)
    got = match.group(1) if match else None
    if got == want and f"#define {want}" in text:
        return []
    return [(0, f"include guard must be {want} (found "
                f"{got or 'no #ifndef guard'})")]


def check_test_coverage(root: str, sources: List[Source]) -> List[Finding]:
    rule = "test-coverage"
    cmake_path = os.path.join(root, "tests", "CMakeLists.txt")
    if not os.path.isfile(cmake_path):
        return [Finding("tests/CMakeLists.txt", 0, rule,
                        "missing tests/CMakeLists.txt")]
    with open(cmake_path, encoding="utf-8") as f:
        registered = re.findall(r"wsnq_test\(\s*([A-Za-z0-9_]+)\s*\)",
                                f.read())
    findings = []
    corpus = ""
    for name in registered:
        test_path = os.path.join(root, "tests", name + ".cc")
        if not os.path.isfile(test_path):
            findings.append(Finding(
                "tests/CMakeLists.txt", 0, rule,
                f"registered test '{name}' has no tests/{name}.cc"))
            continue
        with open(test_path, encoding="utf-8") as f:
            corpus += f.read()
    for src in sources:
        if not (src.rel.startswith("src/") and src.rel.endswith(".cc")):
            continue
        header_ref = os.path.splitext(src.rel[len("src/"):])[0] + ".h"
        if header_ref not in corpus:
            findings.append(Finding(
                src.rel, 0, rule,
                f"no registered test references '{header_ref}'; add or "
                "extend a test in tests/ and register it with wsnq_test()"))
    return findings


TRACKED_BUILD_RE = re.compile(
    r"^(build[^/]*|cmake-build-[^/]*|out)/"
    r"|(^|/)(CMakeCache\.txt|CTestTestfile\.cmake|cmake_install\.cmake)$"
    r"|(^|/)CMakeFiles/"
    r"|\.(o|obj|a|so|dylib)$")


def check_tracked_build(root: str, _sources: List[Source]) -> List[Finding]:
    try:
        out = subprocess.run(
            ["git", "-C", root, "ls-files"],
            capture_output=True, text=True, timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return []  # not a git checkout (e.g. a tarball): nothing to enforce
    return [Finding(path, 0, "tracked-build",
                    "generated build artifact is tracked by git; "
                    "`git rm --cached` it (see .gitignore)")
            for path in out.splitlines() if TRACKED_BUILD_RE.search(path)]


TREE_RULES = {
    "test-coverage": check_test_coverage,
    "tracked-build": check_tracked_build,
}
RULES = sorted(set(FILE_RULES) | set(TREE_RULES))


# --- Engine -----------------------------------------------------------------

def exempted(rel: str, exempt: Tuple[str, ...]) -> bool:
    return any(rel.startswith(e) if e.endswith("/") else rel == e
               for e in exempt)


def lint(root: str, rules: Iterable[str]) -> List[Finding]:
    rules = sorted(rules)
    sources = [Source(root, rel) for rel in cxx_files(root)]
    findings = []
    for rule in rules:
        if rule in TREE_RULES:
            findings.extend(TREE_RULES[rule](root, sources))
    for src in sources:
        suppressed = src.suppressions[0]
        for rule in rules:
            if rule not in FILE_RULES:
                continue
            check, exempt, only = FILE_RULES[rule]
            if not src.rel.startswith(only) or exempted(src.rel, exempt):
                continue
            findings.extend(Finding(src.rel, line, rule, message)
                            for line, message in check(src)
                            if (line, rule) not in suppressed)
    return sorted(set(findings))


# --- Selftest ---------------------------------------------------------------

EXPECT_RE = re.compile(
    r"lint-expect(-file)?:\s*([a-z\-]+(?:\s*,\s*[a-z\-]+)*)")


def expectations(overlay: str) -> Set[Tuple[str, int, str]]:
    """(relpath, line, rule) from the marker comments under `overlay`."""
    expected = set()
    for dirpath, _, filenames in os.walk(overlay):
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, overlay).replace(os.sep, "/")
            with open(path, encoding="utf-8") as f:
                for i, line in enumerate(f, start=1):
                    for m in EXPECT_RE.finditer(line):
                        for rule in re.split(r"\s*,\s*", m.group(2)):
                            expected.add((rel, 0 if m.group(1) else i, rule))
    return expected


def compare(label: str, expected: Set[Tuple[str, int, str]],
            found: Set[Tuple[str, int, str]]) -> bool:
    for path, line, rule in sorted(expected - found):
        print(f"{label}: MISSING    {path}:{line} [{rule}]")
    for path, line, rule in sorted(found - expected):
        print(f"{label}: UNEXPECTED {path}:{line} [{rule}]")
    return expected == found


def selftest_tracked_build() -> Tuple[bool, int]:
    """tracked-build inspects the git index, not file contents: staged
    build artifacts in a scratch repo must be exactly its findings, and a
    scratch repo with only sources staged must be clean."""
    rule = "tracked-build"
    artifacts = ["build/CMakeCache.txt", "src/quantile.o"]
    clean = ["src/quantile.cc", ".gitignore"]
    with tempfile.TemporaryDirectory(prefix="wsnq-lint-") as tmp:
        subprocess.run(["git", "init", "-q", tmp], check=True)
        for rel in artifacts + clean:
            path = os.path.join(tmp, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write("// corpus fixture\n")
        subprocess.run(["git", "-C", tmp, "add", "-f", "-A"], check=True)
        expected = {(rel, 0, rule) for rel in artifacts}
        ok = compare(rule, expected, {
            f[:3] for f in check_tracked_build(tmp, [])})
        subprocess.run(["git", "-C", tmp, "rm", "-q", "--cached", "-r", "."],
                       check=True)
        subprocess.run(["git", "-C", tmp, "add"] + clean, check=True)
        ok = compare(rule + " (clean)", set(), {
            f[:3] for f in check_tracked_build(tmp, [])}) and ok
    return ok, len(expected)


def selftest(corpus: str) -> int:
    ok, total = selftest_tracked_build()
    pinned = {"tracked-build"}
    for overlay in sorted(os.listdir(corpus)):
        overlay_root = os.path.join(corpus, overlay)
        if not os.path.isdir(overlay_root):
            continue
        expected = expectations(overlay_root)
        rules = {overlay} | {rule for _, _, rule in expected}
        unknown = sorted(rules - set(RULES))
        if unknown:
            print(f"{overlay}: names unknown rules {unknown}")
            ok = False
            continue
        found = {f[:3] for f in lint(overlay_root, rules)}
        ok = compare(overlay, expected, found) and ok
        total += len(expected)
        pinned |= rules
    unpinned = sorted(set(RULES) - pinned)
    if unpinned:
        print(f"corpus gap: rules with no corpus coverage: {unpinned}")
        ok = False
    if not ok:
        print("wsnq-lint selftest: FAIL", file=sys.stderr)
        return 1
    print(f"wsnq-lint selftest: ok ({total} expected findings, "
          f"{len(pinned)} rules pinned)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", default=os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))),
        help="repository root (default: parent of this script)")
    parser.add_argument("--selftest", metavar="DIR",
                        help="check the expected-finding corpus under DIR "
                             "instead of the tree")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule names and exit")
    args = parser.parse_args()

    if args.list_rules:
        print("\n".join(RULES))
        return 0
    if args.selftest:
        if not os.path.isdir(args.selftest):
            print(f"wsnq-lint: no such corpus dir: {args.selftest}",
                  file=sys.stderr)
            return 2
        return selftest(args.selftest)
    if not os.path.isdir(os.path.join(args.root, "src")):
        print(f"wsnq-lint: {args.root} does not look like the repo root",
              file=sys.stderr)
        return 2

    findings = lint(args.root, RULES)
    for f in findings:
        location = f"{f.path}:{f.line}" if f.line else f.path
        print(f"{location}: [{f.rule}] {f.message}")
    if findings:
        print(f"wsnq-lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"wsnq-lint: clean ({len(RULES)} rules)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
