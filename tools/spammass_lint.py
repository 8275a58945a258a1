#!/usr/bin/env python3
"""Repo-convention linter for the spammass tree.

Rules (each printed as file:line: [rule] message):

  include-guard   Headers carry #ifndef/#define/#endif guards named after
                  their path: src/graph/web_graph.h -> SPAMMASS_GRAPH_
                  WEB_GRAPH_H_ (bench/foo.h -> SPAMMASS_BENCH_FOO_H_, etc.).
  banned-function rand/srand/atoi are forbidden everywhere (seedable
                  determinism and error-checked parsing matter for
                  reproducibility); std::random_device only inside
                  src/util/random.* so every other random draw goes through
                  the seeded util::Rng.
  using-namespace `using namespace std` is forbidden everywhere; any other
                  `using namespace` is forbidden in headers.
  include-hygiene Project includes use quotes with the full path from src/
                  (never <> for project headers); a .cc/.cpp file includes
                  its own header first; no duplicate includes in one file.
  pipeline-orchestration
                  examples/ and tools/ must obtain graphs and solver
                  artifacts through the pipeline layer (GraphSource,
                  PipelineContext, RunDetectors) instead of calling
                  pagerank::Compute*, core::EstimateSpamMass /
                  ComputeTrustRank or graph::Read* directly — the pipeline
                  is the single orchestration path, so every entry point
                  gets format sniffing, the artifact cache and run
                  manifests for free. bench/ is deliberately out of scope:
                  perf benches measure the raw kernels against the fused
                  path, which requires calling both directly.
  telemetry-timing
                  src/pipeline/ and tools/ must not use raw util::WallTimer;
                  time stages with obs::ScopedStageTimer (or a trace span)
                  so every measured interval lands in both the stage-timing
                  manifest and the trace output. bench/ is exempt:
                  google-benchmark owns its timing, and benches measure the
                  telemetry layer itself.
  wall-clock      Determinism: wall-clock sources (std::chrono::system_clock,
                  high_resolution_clock, time(), gettimeofday, localtime,
                  gmtime) are banned throughout src/ — a wall-clock value
                  that seeds an RNG or reaches an output makes solves
                  unreproducible. steady_clock (monotonic, duration-only) is
                  additionally restricted to the timing layers
                  (src/util/timer.h, src/obs/) so durations flow through
                  WallTimer / trace spans rather than ad-hoc clock reads.
  simd-isolation  Vector intrinsics (immintrin/arm_neon includes, _mm*/
                  __m256*/v*q_f32-style identifiers) are confined to
                  src/pagerank/simd* translation units: every consumer goes
                  through the runtime-dispatched shim (pagerank/simd.h), so
                  a build for a host without the instruction set only loses
                  the fast path, never correctness. As a post-pass, when a
                  vector backend TU (src/pagerank/simd_*.cc) is linted, the
                  dispatch shim src/pagerank/simd.cc must still reference
                  the portable ScalarSweepRange fallback — deleting the
                  scalar path while keeping the intrinsics is the one
                  refactor this rule exists to stop.
  resource-isolation
                  Kernel introspection (/proc/self paths, perf_event_open,
                  mincore) is confined to src/obs/ and src/util/mmap_file.cc
                  so every probe degrades gracefully in exactly one place:
                  a host without the facility reports absent metrics, never
                  zeros, and no solver or pipeline code grows a platform
                  #ifdef. Consumers read the published registry metrics
                  (process.*, graph.mmap_*) instead of re-probing. Matched
                  against comment-stripped lines WITH string literals kept,
                  since "/proc/self/..." lives inside a string.
  unordered-iteration
                  Determinism: iterating a std::unordered_{map,set,...} in
                  src/graph/, src/pagerank/, or src/pipeline/ is banned —
                  bucket order is implementation- and size-dependent, so any
                  iteration that feeds ordered output (node tables, CSR
                  emission, manifests) silently breaks the bit-identical
                  guarantee. Point lookups are fine; to traverse, copy keys
                  out and sort, or use an ordered container. Allowlist
                  entries (EXEMPT below) require a justification comment
                  proving the iteration order cannot reach any output.

Exit status 0 when clean, 1 when violations were found, 2 on usage errors.
Run locally:  python3 tools/spammass_lint.py --root .
"""

import argparse
import os
import re
import sys

SOURCE_DIRS = ("src", "tests", "bench", "examples", "tools")
SOURCE_EXTS = (".h", ".cc", ".cpp")
# Intentionally-broken fixture snippets for the analysis-tool tests live
# under tests/analysis_fixtures/; they must not fail the real-tree lint.
SKIP_DIRS = {"analysis_fixtures"}

# rand( / srand( / atoi( as whole identifiers, allowing std:: / :: prefixes.
BANNED_CALL_RE = re.compile(r"(?<![\w:.])(?:std::|::)?(rand|srand|atoi)\s*\(")
RANDOM_DEVICE_RE = re.compile(r"\bstd::random_device\b")
USING_NAMESPACE_RE = re.compile(r"^\s*using\s+namespace\s+([\w:]+)")
# Direct solver/loader orchestration that examples/ and tools/ must route
# through the pipeline layer instead.
ORCHESTRATION_RE = re.compile(
    r"\b(pagerank::(?:ComputeUniformPageRank|ComputePageRankMulti|"
    r"ComputePageRank)|"
    r"core::(?:EstimateSpamMass|ComputeTrustRank)|"
    r"graph::(?:ReadEdgeListText|ReadBinaryMmap))\s*\(")
# Directories the pipeline-orchestration rule applies to (bench/ is
# excluded: perf benches compare raw kernels against the fused path).
ORCHESTRATION_DIRS = ("examples/", "tools/")
# Raw wall timers in orchestration code bypass the stage-timing manifest
# and the trace; obs::ScopedStageTimer feeds both.
WALL_TIMER_RE = re.compile(r"\b(?:util::)?WallTimer\b")
# Directories the telemetry-timing rule applies to (bench/ is excluded:
# google-benchmark owns bench timing, and bench_obs measures telemetry).
TIMING_DIRS = ("src/pipeline/", "tools/")
# Wall-clock sources: values change run to run, so any one of them feeding
# a seed or an output breaks reproducibility. time( is matched as a whole
# identifier so RunTime(/WallTime( etc. stay clean.
WALL_CLOCK_RE = re.compile(
    r"\bstd::chrono::(?:system_clock|high_resolution_clock)\b|"
    r"\b(?:gettimeofday|localtime|localtime_r|gmtime|gmtime_r)\s*\(|"
    r"(?<![\w:.])(?:std::|::)?time\s*\(")
# steady_clock is monotonic (safe for durations, useless as data) but still
# confined to the timing layers (EXEMPT entries below) so every measured
# interval flows through util::WallTimer or an obs span.
STEADY_CLOCK_RE = re.compile(r"\bstd::chrono::steady_clock\b")
# Vector intrinsics: x86 SSE/AVX and ARM NEON headers, register types and
# intrinsic calls. Confined to src/pagerank/simd* so everything else stays
# portable and the scalar fallback can never be compiled out by accident.
INTRINSICS_RE = re.compile(
    r"#\s*include\s*<\w*intrin\.h>|"
    r"#\s*include\s*<arm_neon\.h>|"
    r"\b_mm(?:256|512)?_\w+\s*\(|\b__m(?:128|256|512)[di]?\b|"
    r"\b(?:vld1|vst1|vdup|vadd|vsub|vmul|vfma|vcvt|vget|vset)q?_\w+\s*\(|"
    r"\bfloat(?:32|64)x\d+(?:x\d+)?_t\b")
# The only files allowed to spell intrinsics.
SIMD_ALLOWED_PREFIX = "src/pagerank/simd"
# Kernel-introspection probes: /proc paths (string literals), the
# perf_event_open syscall wrapper, and the mincore residency query. The
# sanctioned homes keep the graceful-degradation logic in one place.
RESOURCE_ISOLATION_RE = re.compile(
    r"/proc/self|\bperf_event_open\b|\bmincore\s*\(")
RESOURCE_ALLOWED_PREFIXES = ("src/obs/", "src/util/mmap_file.cc")
# Determinism-critical directories: anything iterating a hash container
# here can leak bucket order into ordered output (CSR arrays, manifests).
UNORDERED_DIRS = ("src/graph/", "src/pagerank/", "src/pipeline/")
# Declaration of an unordered container variable, member, or (possibly
# ref/pointer) parameter; [^;{}] keeps the match inside one declarator even
# when template args span lines.
UNORDERED_DECL_RE = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<[^;{}]*?>\s*"
    r"(?:[&*\s]|const\b)*(\w+)\s*[;,)({=]", re.DOTALL)
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+(["<])([^">]+)[">]')
GUARD_IFNDEF_RE = re.compile(r"^\s*#\s*ifndef\s+(\w+)")
GUARD_DEFINE_RE = re.compile(r"^\s*#\s*define\s+(\w+)")

# Allowed exceptions: file path (relative, slash-normalized) -> set of rules
# that are suppressed for it. Keep this list short and justified.
EXEMPT = {
    # The seeded RNG wrapper is the one legitimate random_device user.
    "src/util/random.h": {"banned-random-device"},
    "src/util/random.cc": {"banned-random-device"},
    # The linter itself spells the banned tokens in strings.
    "tools/spammass_lint.py": {"banned-function", "banned-random-device"},
    # WallTimer IS the timing layer: steady_clock reads are its entire job,
    # and the measured durations feed benchmarks/telemetry, never solves.
    "src/util/timer.h": {"wall-clock"},
    # TraceNowNs() is the trace layer's monotonic timestamp source; span
    # timestamps are telemetry output by definition, not solver input.
    "src/obs/trace.cc": {"wall-clock"},
}


def is_exempt(relpath, rule):
    return rule in EXEMPT.get(relpath, set())


def expected_guard(relpath):
    """SPAMMASS_<PATH>_H_ with the leading src/ stripped."""
    path = relpath
    if path.startswith("src/"):
        path = path[len("src/"):]
    token = re.sub(r"[^A-Za-z0-9]", "_", path)
    return "SPAMMASS_" + token.upper() + "_"


def strip_comments_and_strings(line, in_block_comment, keep_strings=False):
    """Removes // and /* */ comments and string/char literal contents so the
    content rules don't fire on prose. Returns (code, still_in_block).
    With keep_strings=True the literal contents survive (only comments are
    removed) — the resource-isolation rule matches "/proc/self/..." paths,
    which live inside strings."""
    out = []
    i = 0
    n = len(line)
    in_string = None
    while i < n:
        ch = line[i]
        nxt = line[i + 1] if i + 1 < n else ""
        if in_block_comment:
            if ch == "*" and nxt == "/":
                in_block_comment = False
                i += 2
                continue
            i += 1
            continue
        if in_string:
            if ch == "\\":
                if keep_strings:
                    out.append(line[i:i + 2])
                i += 2
                continue
            if ch == in_string:
                in_string = None
            if keep_strings:
                out.append(ch)
            i += 1
            continue
        if ch == "/" and nxt == "/":
            break
        if ch == "/" and nxt == "*":
            in_block_comment = True
            i += 2
            continue
        if ch in "\"'":
            in_string = ch
            out.append(ch)  # keep the quote as a boundary token
            i += 1
            continue
        out.append(ch)
        i += 1
    return "".join(out), in_block_comment


class Linter:
    def __init__(self, root):
        self.root = root
        self.violations = []

    def report(self, relpath, line_no, rule, message):
        self.violations.append((relpath, line_no, rule, message))

    def lint_file(self, relpath):
        path = os.path.join(self.root, relpath)
        try:
            with open(path, encoding="utf-8") as f:
                raw_lines = f.read().splitlines()
        except (OSError, UnicodeDecodeError) as e:
            self.report(relpath, 0, "io", f"unreadable: {e}")
            return

        is_header = relpath.endswith(".h")
        code_lines = []
        literal_lines = []  # comments stripped, string contents kept
        in_block = False
        in_block_lit = False
        for line in raw_lines:
            code, in_block = strip_comments_and_strings(line, in_block)
            code_lines.append(code)
            lit, in_block_lit = strip_comments_and_strings(
                line, in_block_lit, keep_strings=True)
            literal_lines.append(lit)

        self.check_content_rules(relpath, code_lines, is_header)
        self.check_resource_isolation(relpath, literal_lines)
        if relpath.startswith(UNORDERED_DIRS):
            self.check_unordered_iteration(relpath, code_lines)
        # Includes are parsed from the raw lines: the comment/string
        # stripper above removes quoted include targets.
        self.check_includes(relpath, raw_lines)
        if is_header:
            self.check_include_guard(relpath, code_lines, raw_lines)

    def check_content_rules(self, relpath, code_lines, is_header):
        for i, code in enumerate(code_lines, start=1):
            m = BANNED_CALL_RE.search(code)
            if m and not is_exempt(relpath, "banned-function"):
                self.report(
                    relpath, i, "banned-function",
                    f"{m.group(1)}() is banned: use util/random.h for "
                    "randomness and util/string_util.h (or std::from_chars) "
                    "for parsing")
            if RANDOM_DEVICE_RE.search(code) and not is_exempt(
                    relpath, "banned-random-device"):
                self.report(
                    relpath, i, "banned-function",
                    "std::random_device outside src/util/random is banned: "
                    "draw through the seeded util::Rng so runs stay "
                    "reproducible")
            if not relpath.startswith(SIMD_ALLOWED_PREFIX) and not is_exempt(
                    relpath, "simd-isolation"):
                if INTRINSICS_RE.search(code):
                    self.report(
                        relpath, i, "simd-isolation",
                        "vector intrinsics outside src/pagerank/simd*; call "
                        "through the runtime-dispatched shim (pagerank/"
                        "simd.h) so hosts without the instruction set keep "
                        "the scalar path")
            if relpath.startswith(ORCHESTRATION_DIRS) and not is_exempt(
                    relpath, "pipeline-orchestration"):
                m = ORCHESTRATION_RE.search(code)
                if m:
                    self.report(
                        relpath, i, "pipeline-orchestration",
                        f"{m.group(1)}() called directly; examples/ and "
                        "tools/ load graphs via pipeline::GraphSource and "
                        "compute artifacts via pipeline::PipelineContext / "
                        "RunDetectors so they share the sniffing, cache and "
                        "manifest path")
            if relpath.startswith(TIMING_DIRS) and not is_exempt(
                    relpath, "telemetry-timing"):
                if WALL_TIMER_RE.search(code):
                    self.report(
                        relpath, i, "telemetry-timing",
                        "raw util::WallTimer bypasses telemetry; time "
                        "stages with obs::ScopedStageTimer (obs/"
                        "stage_timer.h) so the interval reaches both the "
                        "stage-timing manifest and the trace")
            if relpath.startswith("src/") and not is_exempt(
                    relpath, "wall-clock"):
                if WALL_CLOCK_RE.search(code):
                    self.report(
                        relpath, i, "wall-clock",
                        "wall-clock source in src/: run-to-run timestamps "
                        "must never seed RNGs or reach outputs; seed "
                        "util::Rng explicitly and time stages via "
                        "obs::ScopedStageTimer")
                elif STEADY_CLOCK_RE.search(code):
                    self.report(
                        relpath, i, "wall-clock",
                        "steady_clock outside the timing layers; measure "
                        "durations through util::WallTimer or an obs trace "
                        "span (EXEMPT requires a justification that the "
                        "value cannot reach any output)")
            m = USING_NAMESPACE_RE.match(code)
            if m:
                ns = m.group(1)
                if ns == "std" or ns.startswith("std::"):
                    self.report(
                        relpath, i, "using-namespace",
                        "`using namespace std` is banned (spell out std::)")
                elif is_header:
                    self.report(
                        relpath, i, "using-namespace",
                        f"`using namespace {ns}` in a header leaks into "
                        "every includer; move it into a .cc or drop it")

    def check_resource_isolation(self, relpath, literal_lines):
        """Confines kernel introspection to the observability units. Matched
        against comment-stripped lines with string literals kept: the /proc
        paths are strings, and prose mentions in comments must not fire."""
        if not relpath.startswith("src/"):
            return
        if relpath.startswith(RESOURCE_ALLOWED_PREFIXES):
            return
        if is_exempt(relpath, "resource-isolation"):
            return
        for i, code in enumerate(literal_lines, start=1):
            m = RESOURCE_ISOLATION_RE.search(code)
            if m:
                self.report(
                    relpath, i, "resource-isolation",
                    f"kernel introspection ({m.group(0).strip()}) outside "
                    "src/obs/ and src/util/mmap_file.cc; sample through "
                    "obs/resource.h, obs/perf_counters.h or the MmapFile "
                    "residency probes so availability fallbacks stay in "
                    "one place and metrics stay absent-not-zero")

    def check_unordered_iteration(self, relpath, code_lines):
        """Flags iteration over unordered containers in determinism-critical
        directories. Declarations are collected over the whole (stripped)
        file so a range-for can be matched against names declared anywhere
        in it; point lookups (find/count/operator[]/emplace) never match."""
        if is_exempt(relpath, "unordered-iteration"):
            return
        names = set(UNORDERED_DECL_RE.findall("\n".join(code_lines)))
        if not names:
            return
        alt = "|".join(sorted(re.escape(n) for n in names))
        range_for_re = re.compile(
            r"\bfor\s*\([^;()]*:\s*(?:\w+(?:\.|->))?(" + alt + r")\s*\)")
        begin_re = re.compile(
            r"\b(" + alt + r")\s*(?:\.|->)\s*(?:c?r?begin|c?r?end)\s*\(")
        for i, code in enumerate(code_lines, start=1):
            m = range_for_re.search(code) or begin_re.search(code)
            if m:
                self.report(
                    relpath, i, "unordered-iteration",
                    f"iterating unordered container '{m.group(1)}' leaks "
                    "bucket order into this determinism-critical layer; "
                    "copy keys out and sort, or switch to an ordered "
                    "container (EXEMPT requires a justification that the "
                    "order cannot reach any output)")

    def check_includes(self, relpath, raw_lines):
        seen = {}
        first_include = None
        for i, code in enumerate(raw_lines, start=1):
            m = INCLUDE_RE.match(code)
            if not m:
                continue
            style, target = m.groups()
            if first_include is None:
                first_include = (i, style, target)
            if target in seen:
                self.report(
                    relpath, i, "include-hygiene",
                    f'duplicate #include "{target}" (first at line '
                    f"{seen[target]})")
            else:
                seen[target] = i
            is_project = os.path.exists(
                os.path.join(self.root, "src", target)) or os.path.exists(
                    os.path.join(self.root, os.path.dirname(relpath), target))
            if style == "<" and os.path.exists(
                    os.path.join(self.root, "src", target)):
                self.report(
                    relpath, i, "include-hygiene",
                    f"project header <{target}> must use quotes")
            if style == '"' and not is_project:
                self.report(
                    relpath, i, "include-hygiene",
                    f'"{target}" does not resolve against src/ or the '
                    "including directory; use the full path from src/ for "
                    "project headers (or <> for system headers)")

        # A .cc/.cpp implementing src/<pkg>/<name>.h includes it first so the
        # header is verified self-contained.
        if relpath.endswith((".cc", ".cpp")) and relpath.startswith("src/"):
            own = os.path.splitext(relpath[len("src/"):])[0] + ".h"
            if os.path.exists(os.path.join(self.root, "src", own)):
                if first_include is None or first_include[2] != own:
                    got = first_include[2] if first_include else "nothing"
                    self.report(
                        relpath, first_include[0] if first_include else 1,
                        "include-hygiene",
                        f'own header "{own}" must be the first include '
                        f"(found {got})")

    def check_include_guard(self, relpath, code_lines, raw_lines):
        want = expected_guard(relpath)
        ifndef = None
        for i, code in enumerate(code_lines, start=1):
            m = GUARD_IFNDEF_RE.match(code)
            if m:
                ifndef = (i, m.group(1))
                break
        if ifndef is None:
            self.report(relpath, 1, "include-guard",
                        f"missing include guard (expected {want})")
            return
        line_no, name = ifndef
        if name != want:
            self.report(relpath, line_no, "include-guard",
                        f"guard {name} should be {want}")
            return
        define_ok = any(
            GUARD_DEFINE_RE.match(code) and
            GUARD_DEFINE_RE.match(code).group(1) == want
            for code in code_lines[line_no - 1:line_no + 2])
        if not define_ok:
            self.report(relpath, line_no, "include-guard",
                        f"#define {want} must directly follow the #ifndef")
        # The closing #endif conventionally carries the guard name.
        for line in reversed(raw_lines):
            if line.strip():
                if line.strip().startswith("#endif") and want not in line:
                    self.report(
                        relpath, len(raw_lines), "include-guard",
                        f"closing #endif should carry the comment "
                        f"// {want}")
                break


def check_simd_fallback(root, files, linter):
    """Post-pass of the simd-isolation rule: whenever a vector backend TU
    (src/pagerank/simd_*.cc) is part of the lint set, the dispatch shim
    src/pagerank/simd.cc must still reference the portable
    ScalarSweepRange fallback — otherwise a host without the instruction
    set has no sweep at all."""
    if not any(f.startswith("src/pagerank/simd_") and f.endswith(".cc")
               for f in files):
        return
    shim = "src/pagerank/simd.cc"
    try:
        with open(os.path.join(root, shim), encoding="utf-8") as f:
            content = f.read()
    except OSError:
        linter.report(shim, 1, "simd-isolation",
                      "vector backend TUs exist but the dispatch shim "
                      "src/pagerank/simd.cc is missing")
        return
    if "ScalarSweepRange" not in content:
        linter.report(shim, 1, "simd-isolation",
                      "dispatch shim no longer references the portable "
                      "ScalarSweepRange fallback; every (level, k, "
                      "encoding) combination must resolve to a valid sweep "
                      "on hosts without vector support")


def collect_files(root):
    files = []
    for top in SOURCE_DIRS:
        top_path = os.path.join(root, top)
        if not os.path.isdir(top_path):
            continue
        for dirpath, dirnames, filenames in os.walk(top_path):
            dirnames[:] = [d for d in dirnames
                           if not d.startswith(".") and d not in SKIP_DIRS]
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    rel = os.path.relpath(os.path.join(dirpath, name), root)
                    files.append(rel.replace(os.sep, "/"))
    return sorted(files)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".",
                        help="repo root (default: cwd)")
    parser.add_argument("files", nargs="*",
                        help="specific files to lint (default: whole tree)")
    args = parser.parse_args()

    root = os.path.abspath(args.root)
    if not os.path.isdir(root):
        print(f"spammass_lint: no such directory: {root}", file=sys.stderr)
        return 2

    files = [f.replace(os.sep, "/") for f in args.files] or collect_files(root)
    linter = Linter(root)
    for relpath in files:
        linter.lint_file(relpath)
    check_simd_fallback(root, files, linter)

    for relpath, line_no, rule, message in linter.violations:
        print(f"{relpath}:{line_no}: [{rule}] {message}")
    if linter.violations:
        print(f"spammass_lint: {len(linter.violations)} violation(s) in "
              f"{len(files)} file(s)", file=sys.stderr)
        return 1
    print(f"spammass_lint: {len(files)} file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
