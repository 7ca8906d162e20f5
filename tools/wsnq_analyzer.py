#!/usr/bin/env python3
"""wsnq-analyzer: AST-grade determinism & layering analysis.

The deep tier of the repo's static analysis (wsnq_lint.py is the fast
regex tier; docs/hardening.md "Static analysis"). Where the lint greps for
spellings, the analyzer resolves what a name *means* — `using clk =
std::chrono::steady_clock; clk::now()` is caught even though no banned
spelling appears — and reasons about iteration order and include layering.

Rules
  ban-clock        No raw clock reads (steady/system/high_resolution
                   _clock::now, clock_gettime, gettimeofday, timespec_get)
                   outside src/util/trace.cc, src/util/thread_pool.cc and
                   bench/. Resolves typedef/using/namespace aliases, so
                   aliased clocks can't slip through.
  ban-seq-rng      No sequential RNG (rand/srand/drand48/lrand48,
                   std::random_device, std::mt19937 and friends) outside
                   src/util/rng.*; simulations must be bit-reproducible
                   from counter-keyed draws (util/rng.h).
  ban-raw-thread   No std::thread/std::jthread/std::async/pthread_create
                   outside src/util/thread_pool.*; ad-hoc threads bypass
                   the deterministic fan-out/ordered-fold discipline.
                   (std::thread::id and std::this_thread are fine.)
  ban-perf-syscall No perf_event_open / raw syscall() / perf_event_attr
                   anywhere. Profiles are wall clock only; hardware
                   counters are denied on common hosts (EPERM) and would
                   make a profile depend on the kernel it ran under.
  unordered-iter   No iteration over std::unordered_map/unordered_set in
                   fold/aggregate/report/export/serialize paths — the
                   iteration order is implementation-defined, so anything
                   it feeds that reaches output breaks the bit-identical
                   contract. The partial-wave fold path counts as output:
                   wave/replay/convergecast contexts (net/wave.h) replay
                   sends and debit energy straight into the Network, so
                   hash order there changes accounting bytes. Lookups
                   (find/count/emplace) are fine.
  fp-reduction     No floating-point accumulation (`+=` on a double/float)
                   inside a loop over an unordered container: FP addition
                   is not associative, so the sum depends on hash order —
                   in a partial-wave fold that also means the sum depends
                   on the subtree partition.
  layering         First-party includes must respect the layer DAG
                   util <- net <- {data,fault} <- {algo,sketch} <- core
                   <- {tests,tools,bench,examples}; mc and serve sit on
                   top of core (nothing under src/ may include them
                   back). A core -> bench or net -> core include is an
                   error.
  bad-suppression  A `wsnq-analyzer: allow(...)` comment naming an unknown
                   rule or carrying no justification.

Suppression
  // wsnq-analyzer: allow(<rule>): <justification>
  silences <rule> on that line only. The justification is mandatory and
  must be non-empty — an unjustified or unknown-rule suppression is itself
  a finding (bad-suppression) and does NOT silence anything.

Engines
  libclang   compile_commands.json-driven AST walk (python3-clang; CI's
             analyze job). Callee resolution comes from the real compiler
             front end.
  fallback   built-in, dependency-free lexical-semantic engine: comment/
             string-stripped tokens, typedef/using/namespace-alias
             resolution, declared-type tracking for containers and FP
             accumulators, brace-depth function contexts. What this repo's
             ctest leg pins (tests/analyzer corpus).
  --engine=auto (default) picks libclang when importable and falls back —
  with a warning — when it is not, or when the libclang pass throws.
  layering and bad-suppression are line-based and run identically in both.

Usage: wsnq_analyzer.py [--root DIR] [--compdb DIR] [--engine E]
                        [--selftest DIR] [--list-rules]
Exit status: 0 clean, 1 findings (or selftest mismatch), 2 usage error.
"""

import argparse
import os
import re
import sys
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

RULES = {
    "ban-clock": "raw clock read outside the sanctioned timing sites",
    "ban-seq-rng": "sequential RNG outside util/rng",
    "ban-raw-thread": "raw thread/async outside util/thread_pool",
    "ban-perf-syscall": "perf_event_open / raw syscall anywhere",
    "unordered-iter": "unordered-container iteration in an output path",
    "fp-reduction": "order-sensitive FP reduction over unordered iteration",
    "layering": "include edge violates the layer DAG",
    "bad-suppression": "malformed wsnq-analyzer suppression comment",
}

CXX_ROOTS = ("src", "tests", "tools", "bench", "examples")
CXX_EXTENSIONS = (".cc", ".h", ".cpp", ".hpp")
# Expected-diagnostic corpora — scanned only via --selftest, never in tree
# mode (they violate the rules on purpose).
CORPUS_DIRS = (os.path.join("tests", "analyzer"), os.path.join("tests", "lint"))

# --- Rule data ------------------------------------------------------------

# Per-rule sanctioned locations (repo-relative path or dir/ prefix).
SANCTIONED = {
    "ban-clock": ("src/util/trace.cc", "src/util/thread_pool.cc", "bench/"),
    "ban-seq-rng": ("src/util/rng.h", "src/util/rng.cc"),
    "ban-raw-thread": ("src/util/thread_pool.h", "src/util/thread_pool.cc"),
}

# Banned callees/types as ::-segment tuples, matched segment-for-segment
# against the alias-resolved name (so std::thread::id does NOT match
# std::thread). Call bans only fire when the name is immediately invoked —
# a field *named* rand is not a call of ::rand(). Type bans fire on any
# reference. `suffix` matches trailing segments (catches
# chrono::steady_clock::now under any qualification).
BAN_CALL_EXACT = {
    "ban-clock": {
        ("clock_gettime",), ("gettimeofday",), ("timespec_get",),
        ("std", "timespec_get"),
    },
    "ban-seq-rng": {
        ("rand",), ("srand",), ("drand48",), ("lrand48",),
        ("std", "rand"), ("std", "srand"),
    },
    "ban-raw-thread": {
        ("pthread_create",), ("std", "async"),
    },
    # `syscall` itself is banned: perf_event_open has no glibc wrapper, so
    # a raw syscall() is how counter plumbing would sneak back in.
    "ban-perf-syscall": {
        ("perf_event_open",), ("syscall",),
    },
}
BAN_TYPE_EXACT = {
    "ban-clock": set(),
    "ban-seq-rng": set(),
    "ban-raw-thread": {("std", "thread"), ("std", "jthread")},
    "ban-perf-syscall": {("perf_event_attr",)},
}
BAN_SUFFIX = {
    "ban-clock": {
        ("steady_clock", "now"), ("system_clock", "now"),
        ("high_resolution_clock", "now"),
    },
    "ban-seq-rng": {
        ("random_device",), ("mt19937",), ("mt19937_64",),
        ("minstd_rand",), ("minstd_rand0",), ("default_random_engine",),
        ("ranlux24",), ("ranlux48",), ("knuth_b",),
    },
    "ban-raw-thread": set(),
    "ban-perf-syscall": set(),
}
BAN_MESSAGES = {
    "ban-clock": "raw clock read; time through prof::WallSeconds / "
                 "prof::ScopedTimer (util/trace.h) so wall-clock "
                 "non-determinism stays out of simulation code",
    "ban-seq-rng": "sequential RNG; use the counter-keyed wsnq::Rng "
                   "(util/rng.h) so results are bit-reproducible from the "
                   "seed",
    "ban-raw-thread": "raw thread primitive; use wsnq::ThreadPool "
                      "(util/thread_pool.h) — ad-hoc threads bypass the "
                      "deterministic fan-out/ordered-fold discipline",
    "ban-perf-syscall": "hardware-counter plumbing; time through "
                        "prof::ScopedTimer (util/trace.h) and measure with "
                        "benchmark/run.py",
}

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
    # under src/ may include serve/ back (the simulation must stay
    # transport-free; sockets are a serve-only concern, see the
    # serve-syscall lint rule).
    "serve": {"serve", "core", "algo", "sketch", "data", "fault", "net",
              "util"},
}
for _top in ("tests", "tools", "bench", "examples"):
    LAYER_ALLOWED[_top] = set(SRC_LAYERS) | {_top}

# Function-name contexts where unordered iteration order can reach output
# (fold/aggregate/report/export/serialize paths, plus the partial-wave
# fold path of net/wave.h: part replays and fold-vertex processing feed
# Network accounting directly, so wave/replay/convergecast contexts are
# output paths too).
OUTPUT_CONTEXT_RE = re.compile(
    r"(?i)(fold|merge|aggregat|report|export|serial|write|rows|print|csv|"
    r"json|dump|emit|render|encode|wave|replay|convergecast)")

SUPPRESS_RE = re.compile(
    r"//\s*wsnq-analyzer:\s*allow\(([^)]*)\)(?:\s*:\s*(\S.*))?")
EXPECT_DIAG_RE = re.compile(r"//\s*expect-diag:\s*([a-z\-,\s]+)")


class Finding(NamedTuple):
    path: str  # root-relative
    line: int  # 1-based
    rule: str
    message: str


def sanctioned(rule: str, rel: str) -> bool:
    rel_posix = rel.replace(os.sep, "/")
    for entry in SANCTIONED.get(rule, ()):
        if entry.endswith("/"):
            if rel_posix.startswith(entry):
                return True
        elif rel_posix == entry:
            return True
    return False


def iter_tree_files(root: str):
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


def iter_corpus_files(corpus_root: str):
    for dirpath, dirnames, filenames in os.walk(corpus_root):
        dirnames[:] = [d for d in dirnames if not d.startswith(".")]
        for name in sorted(filenames):
            if name.endswith(CXX_EXTENSIONS):
                yield os.path.relpath(os.path.join(dirpath, name),
                                      corpus_root)


# --- Shared lexical helpers ----------------------------------------------

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


def parse_suppressions(lines: List[str], rel: str
                       ) -> Tuple[Set[Tuple[int, str]], List[Finding]]:
    """Returns ({(line, rule)} valid suppressions, bad-suppression
    findings). Invalid suppressions silence nothing."""
    valid: Set[Tuple[int, str]] = set()
    findings: List[Finding] = []
    for i, raw in enumerate(lines, start=1):
        m = SUPPRESS_RE.search(raw)
        if not m:
            continue
        rule = m.group(1).strip()
        justification = (m.group(2) or "").strip()
        if rule not in RULES:
            findings.append(Finding(
                rel, i, "bad-suppression",
                f"suppression names unknown rule '{rule}' "
                f"(known: {', '.join(sorted(RULES))})"))
        elif not justification:
            findings.append(Finding(
                rel, i, "bad-suppression",
                "suppression carries no justification; write "
                "`// wsnq-analyzer: allow(<rule>): <why this is sound>`"))
        else:
            valid.add((i, rule))
    return valid, findings


INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')


def check_layering(rel: str, lines: List[str]) -> List[Finding]:
    parts = rel.split(os.sep)
    src_layer = parts[1] if parts[0] == "src" and len(parts) > 1 else parts[0]
    allowed = LAYER_ALLOWED.get(src_layer)
    if allowed is None:
        return []  # not a layered location (e.g. a stray top-level file)
    findings = []
    for i, raw in enumerate(lines, start=1):
        m = INCLUDE_RE.match(raw)
        if not m:
            continue
        target_layer = m.group(1).split("/", 1)[0]
        if target_layer not in LAYER_ALLOWED:
            continue  # not first-party (gtest/..., etc.)
        if target_layer not in allowed:
            findings.append(Finding(
                rel, i, "layering",
                f"illegal include edge {src_layer} -> {target_layer}; the "
                f"layer DAG allows {src_layer} -> "
                f"{{{', '.join(sorted(allowed))}}}"))
    return findings


# --- Fallback engine ------------------------------------------------------

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
RANGE_FOR_RE = re.compile(r"\bfor\s*\(([^;()]*?):([^;]*)\)")
FUNC_SIG_RE = re.compile(
    r"([A-Za-z_~]\w*)\s*\([^()]*(?:\([^()]*\)[^()]*)*\)\s*"
    r"(?:const|noexcept|final|override|->\s*[\w:<>,\s]+|WSNQ_\w+\s*\([^()]*\))*\s*$")
NON_FUNC_KEYWORDS = {"if", "for", "while", "switch", "catch", "return",
                     "sizeof", "alignof", "decltype"}


class FileModel:
    """Lexical-semantic model of one file: aliases, declared types,
    function contexts."""

    def __init__(self, rel: str, stripped: List[str],
                 extra_decl_text: str = ""):
        self.rel = rel
        self.lines = stripped
        # extra_decl_text: the sibling header's stripped source, so member
        # declarations (aliases, unordered containers, FP fields) are
        # visible when analyzing the .cc that iterates them. Declarations
        # only — the header's own lines are scanned as their own file.
        self.text = "\n".join(stripped) + "\n" + extra_decl_text
        self.aliases: Dict[str, str] = {}
        self.using_namespaces: List[str] = ["std"]  # optimistic: catches
        # unqualified steady_clock::now even without the using-directive,
        # and no first-party name collides with the banned ones.
        self.unordered_vars: Set[str] = set()
        self.fp_vars: Set[str] = set(FP_DECL_RE.findall(self.text))
        self._collect_aliases()
        self._collect_unordered_decls()

    def _collect_aliases(self):
        for name, target in ALIAS_USING_RE.findall(self.text):
            self.aliases[name] = re.sub(r"\s+", "", target)
        for target, name in ALIAS_TYPEDEF_RE.findall(self.text):
            self.aliases[name] = re.sub(r"\s+", "", target.strip())
        for name, target in ALIAS_NAMESPACE_RE.findall(self.text):
            self.aliases[name] = re.sub(r"\s+", "", target)
        for qualified in USING_DECL_RE.findall(self.text):
            self.aliases[qualified.rsplit("::", 1)[1]] = qualified
        for ns in USING_NAMESPACE_RE.findall(self.text):
            self.using_namespaces.append(ns)

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

    def _template_decl_names(self, marker: str) -> Set[str]:
        """Identifiers declared with a type whose spelling contains
        `marker<...>` (balanced angle brackets, nested templates OK)."""
        names = set()
        text = self.text
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

    def _collect_unordered_decls(self):
        for marker in ("unordered_map", "unordered_set"):
            self.unordered_vars |= self._template_decl_names(marker)
        # Alias-typed declarations: `using NodeMap = std::unordered_map<..>;
        # NodeMap index_;`
        for name, target in self.aliases.items():
            if "unordered_map" in target or "unordered_set" in target:
                for m in re.finditer(
                        r"\b%s\b\s*[&*]?\s+([A-Za-z_]\w*)\s*[;={(]"
                        % re.escape(name), self.text):
                    self.unordered_vars.add(m.group(1))

    def function_contexts(self) -> List[Optional[str]]:
        """Per-line innermost *named* function context (None outside)."""
        contexts: List[Optional[str]] = []
        stack: List[Tuple[Optional[str], int]] = []  # (name, depth-after-{)
        depth = 0
        statement = ""  # text since the last ; { }
        for line in self.lines:
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
            named = next((n for n, _ in reversed(stack) if n), None)
            contexts.append(named)
        return contexts


def fallback_ban_findings(model: FileModel) -> List[Finding]:
    findings = []
    seen: Set[Tuple[int, str]] = set()
    for i, line in enumerate(model.lines, start=1):
        if line.lstrip().startswith("#"):
            continue  # preprocessor line: <thread> is not a thread spawn
        for m in QUALIFIED_NAME_RE.finditer(line):
            token = m.group(0)
            resolved = model.resolve(token)
            segs = tuple(s for s in resolved.split("::") if s)
            if not segs:
                continue
            is_call = bool(re.match(r"\s*\(", line[m.end():]))
            for rule in ("ban-clock", "ban-seq-rng", "ban-raw-thread",
                         "ban-perf-syscall"):
                if sanctioned(rule, model.rel) or (i, rule) in seen:
                    continue
                candidates = [segs] + [
                    tuple(ns.split("::")) + segs
                    for ns in model.using_namespaces]
                hit = any(
                    (cand in BAN_CALL_EXACT[rule] and is_call) or
                    cand in BAN_TYPE_EXACT[rule]
                    for cand in candidates)
                if not hit:
                    for suffix in BAN_SUFFIX[rule]:
                        if len(segs) >= len(suffix) and \
                                segs[-len(suffix):] == suffix:
                            hit = True
                if hit:
                    seen.add((i, rule))
                    findings.append(Finding(model.rel, i, rule,
                                            BAN_MESSAGES[rule]))
    return findings


def base_identifier(expr: str) -> Optional[str]:
    """Trailing identifier of a range expression (`this->totals_`,
    `cache.entries_` -> entries_); None when the expr ends in a call."""
    expr = expr.strip()
    if expr.endswith(")"):
        return None
    m = re.search(r"([A-Za-z_]\w*)\s*$", expr)
    return m.group(1) if m else None


def fallback_iteration_findings(model: FileModel) -> List[Finding]:
    if not model.unordered_vars:
        return []
    findings = []
    contexts = model.function_contexts()
    depth = 0
    loop_stack: List[int] = []  # depths of open unordered-range-for bodies
    pending_loop = False
    for i, line in enumerate(model.lines, start=1):
        context = contexts[i - 1]
        in_output_path = context is not None and \
            OUTPUT_CONTEXT_RE.search(context)
        for m in RANGE_FOR_RE.finditer(line):
            base = base_identifier(m.group(2))
            if base in model.unordered_vars:
                pending_loop = True
                if in_output_path:
                    findings.append(Finding(
                        model.rel, i, "unordered-iter",
                        f"iteration over unordered container '{base}' in "
                        f"output path '{context}': hash order is "
                        "implementation-defined; use std::map or sort "
                        "before emitting"))
        for var in model.unordered_vars:
            if re.search(r"\b%s\s*\.\s*c?begin\s*\(" % re.escape(var),
                         line) and in_output_path:
                findings.append(Finding(
                    model.rel, i, "unordered-iter",
                    f"iterator walk over unordered container '{var}' in "
                    f"output path '{context}': hash order is "
                    "implementation-defined; use std::map or sort before "
                    "emitting"))
        in_unordered_loop = bool(loop_stack)
        if in_unordered_loop:
            for m in re.finditer(r"([A-Za-z_]\w*)\s*\+=", line):
                if m.group(1) in model.fp_vars:
                    findings.append(Finding(
                        model.rel, i, "fp-reduction",
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


def fallback_engine(root: str, rel_files: List[str]) -> List[Finding]:
    findings = []
    for rel in rel_files:
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            raw_lines = f.readlines()
        extra = ""
        if rel.endswith((".cc", ".cpp")):
            stem = os.path.splitext(rel)[0]
            for ext in (".h", ".hpp"):
                header = os.path.join(root, stem + ext)
                if os.path.isfile(header):
                    with open(header, encoding="utf-8") as hf:
                        extra = "\n".join(strip_file(hf.readlines()))
                    break
        model = FileModel(rel, strip_file(raw_lines), extra)
        findings.extend(fallback_ban_findings(model))
        findings.extend(fallback_iteration_findings(model))
    return findings


# --- libclang engine ------------------------------------------------------

LIBCLANG_BAN_QUALIFIED = {}
for _table in (BAN_CALL_EXACT, BAN_TYPE_EXACT):
    for _rule, _sets in _table.items():
        for _segs in _sets:
            LIBCLANG_BAN_QUALIFIED["::".join(_segs)] = _rule
for _rule, _sets in BAN_SUFFIX.items():
    for _segs in _sets:
        # Suffix names are distinctive enough to key on the full std path.
        LIBCLANG_BAN_QUALIFIED["std::" + "::".join(_segs)] = _rule
        LIBCLANG_BAN_QUALIFIED["std::chrono::" + "::".join(_segs)] = _rule


def libclang_engine(root: str, rel_files: List[str],
                    compdb_dir: str) -> List[Finding]:
    import clang.cindex as ci  # noqa: F401 — probed by the caller

    index = ci.Index.create()
    compdb = None
    if os.path.isfile(os.path.join(compdb_dir, "compile_commands.json")):
        compdb = ci.CompilationDatabase.fromDirectory(compdb_dir)

    def compile_args(path: str) -> List[str]:
        default = ["-std=c++17", "-I", os.path.join(root, "src"),
                   "-I", root]
        if compdb is None:
            return default
        cmds = compdb.getCompileCommands(path)
        if not cmds:
            return default
        args = list(cmds[0].arguments)[1:]
        out, skip = [], False
        for a in args:
            if skip:
                skip = False
                continue
            if a in ("-o", "-c"):
                skip = a == "-o"
                continue
            if os.path.basename(a) == os.path.basename(path):
                continue
            out.append(a)
        return out

    def qualified_name(cursor) -> str:
        parts = []
        c = cursor
        while c is not None and c.kind != ci.CursorKind.TRANSLATION_UNIT:
            if c.spelling:
                parts.append(c.spelling)
            c = c.semantic_parent
        return "::".join(reversed(parts))

    def rel_of(location) -> Optional[str]:
        if location.file is None:
            return None
        path = os.path.abspath(location.file.name)
        if not path.startswith(os.path.abspath(root) + os.sep):
            return None
        return os.path.relpath(path, root)

    def enclosing_function(cursor) -> Optional[str]:
        c = cursor.semantic_parent
        while c is not None and c.kind != ci.CursorKind.TRANSLATION_UNIT:
            if c.kind in (ci.CursorKind.FUNCTION_DECL,
                          ci.CursorKind.CXX_METHOD,
                          ci.CursorKind.FUNCTION_TEMPLATE):
                return c.spelling
            c = c.semantic_parent
        return None

    findings: Set[Finding] = set()

    def visit(cursor, function: Optional[str]):
        if cursor.kind in (ci.CursorKind.FUNCTION_DECL,
                           ci.CursorKind.CXX_METHOD,
                           ci.CursorKind.FUNCTION_TEMPLATE):
            function = cursor.spelling or function
        rel = rel_of(cursor.location)
        if rel is not None:
            if cursor.kind in (ci.CursorKind.CALL_EXPR,
                               ci.CursorKind.DECL_REF_EXPR,
                               ci.CursorKind.TYPE_REF):
                ref = cursor.referenced
                if ref is not None:
                    rule = LIBCLANG_BAN_QUALIFIED.get(qualified_name(ref))
                    if rule and not sanctioned(rule, rel):
                        findings.add(Finding(rel, cursor.location.line,
                                             rule, BAN_MESSAGES[rule]))
            if cursor.kind == ci.CursorKind.VAR_DECL:
                type_name = cursor.type.get_canonical().spelling
                for banned, rule in (("std::thread", "ban-raw-thread"),
                                     ("std::jthread", "ban-raw-thread")):
                    if (type_name == banned or
                            type_name.startswith(banned + " ")) and \
                            not sanctioned(rule, rel):
                        findings.add(Finding(rel, cursor.location.line,
                                             rule, BAN_MESSAGES[rule]))
            if cursor.kind == ci.CursorKind.CXX_FOR_RANGE_STMT:
                children = list(cursor.get_children())
                range_expr = children[-2] if len(children) >= 2 else None
                type_name = (range_expr.type.get_canonical().spelling
                             if range_expr is not None else "")
                if "unordered_map" in type_name or \
                        "unordered_set" in type_name:
                    if function and OUTPUT_CONTEXT_RE.search(function):
                        findings.add(Finding(
                            rel, cursor.location.line, "unordered-iter",
                            "iteration over an unordered container in "
                            f"output path '{function}': hash order is "
                            "implementation-defined; use std::map or sort "
                            "before emitting"))
                    for inner in cursor.walk_preorder():
                        if inner.kind == \
                                ci.CursorKind.COMPOUND_ASSIGNMENT_OPERATOR:
                            lhs_type = inner.type.get_canonical().spelling
                            if lhs_type in ("double", "float",
                                            "long double"):
                                inner_rel = rel_of(inner.location)
                                if inner_rel is not None:
                                    findings.add(Finding(
                                        inner_rel, inner.location.line,
                                        "fp-reduction",
                                        "floating-point accumulation in "
                                        "unordered iteration order; FP "
                                        "addition is not associative — "
                                        "fold from an ordered container "
                                        "instead"))
        for child in cursor.get_children():
            visit(child, function)

    wanted = {rel for rel in rel_files}
    for rel in rel_files:
        if not rel.endswith((".cc", ".cpp")):
            continue  # headers are analyzed through their includers
        path = os.path.join(root, rel)
        tu = index.parse(path, args=compile_args(path))
        visit(tu.cursor, None)
    # Keep only findings in the requested file set (headers included).
    return [f for f in findings if f.path in wanted]


# --- Driver ---------------------------------------------------------------

def analyze(root: str, rel_files: List[str], engine: str,
            compdb_dir: str) -> List[Finding]:
    findings: List[Finding] = []
    suppressions: Set[Tuple[str, int, str]] = set()
    for rel in rel_files:
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            raw_lines = f.readlines()
        valid, bad = parse_suppressions(raw_lines, rel)
        findings.extend(bad)
        suppressions |= {(rel, line, rule) for line, rule in valid}
        # Raw lines: stripping would blank the quoted include path.
        findings.extend(check_layering(rel, raw_lines))

    chosen = engine
    if engine == "auto":
        try:
            import clang.cindex  # noqa: F401
            chosen = "libclang"
        except ImportError:
            chosen = "fallback"
    if chosen == "libclang":
        try:
            findings.extend(libclang_engine(root, rel_files, compdb_dir))
        except Exception as error:  # noqa: BLE001 — degrade, don't die
            print(f"wsnq-analyzer: libclang engine failed ({error}); "
                  "falling back to the built-in engine", file=sys.stderr)
            chosen = "fallback"
    if chosen == "fallback":
        findings.extend(fallback_engine(root, rel_files))

    kept = [f for f in findings
            if (f.path, f.line, f.rule) not in suppressions]
    return sorted(set(kept))


def parse_expectations(root: str, rel_files: List[str]
                       ) -> Set[Tuple[str, int, str]]:
    expected = set()
    for rel in rel_files:
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            for i, raw in enumerate(f, start=1):
                m = EXPECT_DIAG_RE.search(raw)
                if not m:
                    continue
                for token in re.split(r"[\s,]+", m.group(1).strip()):
                    if token in RULES:
                        expected.add((rel, i, token))
                    elif token:
                        print(f"{rel}:{i}: expect-diag names unknown rule "
                              f"'{token}'", file=sys.stderr)
    return expected


def run_selftest(corpus: str, engine: str, compdb_dir: str) -> int:
    rel_files = list(iter_corpus_files(corpus))
    if not rel_files:
        print(f"wsnq-analyzer: no corpus files under {corpus}",
              file=sys.stderr)
        return 2
    expected = parse_expectations(corpus, rel_files)
    actual = {(f.path, f.line, f.rule)
              for f in analyze(corpus, rel_files, engine, compdb_dir)}
    missing = sorted(expected - actual)
    unexpected = sorted(actual - expected)
    for path, line, rule in missing:
        print(f"{path}:{line}: MISSING expected diagnostic [{rule}]")
    for path, line, rule in unexpected:
        print(f"{path}:{line}: UNEXPECTED diagnostic [{rule}]")
    total = len(expected)
    if missing or unexpected:
        print(f"wsnq-analyzer selftest: FAIL ({len(missing)} missing, "
              f"{len(unexpected)} unexpected of {total} expected)",
              file=sys.stderr)
        return 1
    print(f"wsnq-analyzer selftest: ok ({total} expected diagnostics, "
          f"{len(rel_files)} files)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", default=os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))),
        help="repository root (default: parent of this script)")
    parser.add_argument("--compdb", default=None,
                        help="directory holding compile_commands.json "
                             "(default: <root>/build)")
    parser.add_argument("--engine", default="auto",
                        choices=("auto", "libclang", "fallback"),
                        help="analysis engine (default: auto)")
    parser.add_argument("--selftest", metavar="DIR", default=None,
                        help="run the expected-diagnostic corpus under DIR "
                             "instead of scanning the tree")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule names and exit")
    args = parser.parse_args()

    if args.list_rules:
        for rule in sorted(RULES):
            print(rule)
        return 0

    compdb_dir = args.compdb or os.path.join(args.root, "build")

    if args.selftest:
        if not os.path.isdir(args.selftest):
            print(f"wsnq-analyzer: no such corpus dir: {args.selftest}",
                  file=sys.stderr)
            return 2
        return run_selftest(args.selftest, args.engine, compdb_dir)

    if not os.path.isdir(os.path.join(args.root, "src")):
        print(f"wsnq-analyzer: {args.root} does not look like the repo "
              "root", file=sys.stderr)
        return 2

    rel_files = list(iter_tree_files(args.root))
    findings = analyze(args.root, rel_files, args.engine, compdb_dir)
    for f in findings:
        print(f"{f.path}:{f.line}: [{f.rule}] {f.message}")
    if findings:
        print(f"wsnq-analyzer: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"wsnq-analyzer: clean ({len(RULES)} rules, "
          f"{len(rel_files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
