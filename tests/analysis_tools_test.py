#!/usr/bin/env python3
"""Fixture tests for the static-analysis and bench-report tools.

Feeds the intentionally-broken trees under tests/analysis_fixtures/ through
tools/spammass_lint.py and tools/check_layers.py and asserts the exact
violation reports (file, line, rule) plus exit codes, and drives
tools/bench_to_json.py's --baseline guard and median pairing with stand-in
bench binaries.
Registered as the `spammass_analysis_tools` ctest; also runnable directly:

    python3 tests/analysis_tools_test.py
"""

import json
import os
import stat
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "tests", "analysis_fixtures")
LINT = os.path.join(ROOT, "tools", "spammass_lint.py")
CHECK_LAYERS = os.path.join(ROOT, "tools", "check_layers.py")
BENCH_TO_JSON = os.path.join(ROOT, "tools", "bench_to_json.py")


def run_tool(script, *argv):
    proc = subprocess.run(
        [sys.executable, script] + list(argv),
        capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout, proc.stderr


def violation_keys(stdout):
    """Extracts (file, line, rule) from each `file:line: [rule] msg` line."""
    keys = []
    for line in stdout.splitlines():
        if ": [" not in line:
            continue
        location, rest = line.split(": [", 1)
        relpath, line_no = location.rsplit(":", 1)
        rule = rest.split("]", 1)[0]
        keys.append((relpath, int(line_no), rule))
    return keys


class SpammassLintFixtureTest(unittest.TestCase):
    def setUp(self):
        self.code, self.stdout, self.stderr = run_tool(
            LINT, "--root", os.path.join(FIXTURES, "lint_tree"))

    def test_exit_code_and_count(self):
        self.assertEqual(self.code, 1, self.stdout + self.stderr)
        self.assertIn("14 violation(s)", self.stderr)

    def test_exact_violation_set(self):
        self.assertEqual(violation_keys(self.stdout), [
            ("src/core/bad_intrinsics.cc", 3, "simd-isolation"),
            ("src/core/bad_intrinsics.cc", 10, "simd-isolation"),
            ("src/core/bad_intrinsics.cc", 13, "simd-isolation"),
            ("src/core/bad_intrinsics.cc", 16, "simd-isolation"),
            ("src/core/bad_proc.cc", 10, "resource-isolation"),
            ("src/core/bad_proc.cc", 14, "resource-isolation"),
            ("src/graph/bad_iteration.cc", 13, "unordered-iteration"),
            ("src/graph/bad_iteration.cc", 21, "unordered-iteration"),
            ("src/pipeline/bad_clock.cc", 10, "wall-clock"),
            ("src/pipeline/bad_clock.cc", 15, "wall-clock"),
            ("src/util/bad_random.cc", 9, "banned-function"),
            ("src/util/bad_random.cc", 10, "banned-function"),
            ("src/util/bad_random.cc", 11, "banned-function"),
            ("tools/bad_loader.cc", 9, "pipeline-orchestration"),
        ])

    def test_messages_name_the_offenders(self):
        lines = self.stdout.splitlines()
        self.assertIn("vector intrinsics outside src/pagerank/simd*",
                      lines[0])
        self.assertIn("runtime-dispatched shim", lines[1])
        self.assertIn("kernel introspection (/proc/self)", lines[4])
        self.assertIn("absent-not-zero", lines[4])
        self.assertIn("kernel introspection (perf_event_open)", lines[5])
        self.assertIn("'host_index'", lines[6])
        self.assertIn("bucket order", lines[6])
        self.assertIn("'index'", lines[7])
        self.assertIn("wall-clock source in src/", lines[8])
        self.assertIn("steady_clock outside the timing layers", lines[9])
        self.assertIn("std::random_device", lines[10])
        self.assertIn("srand()", lines[11])
        self.assertIn("rand()", lines[12])
        self.assertIn("graph::ReadBinaryMmap() called directly", lines[13])
        self.assertIn("pipeline::GraphSource", lines[13])

    def test_simd_fallback_post_pass(self):
        # A tree whose vector backend TU exists but whose dispatch shim
        # lost the scalar fallback must fail the post-pass.
        with tempfile.TemporaryDirectory(prefix="spammass_simd_") as tree:
            pagerank = os.path.join(tree, "src", "pagerank")
            os.makedirs(pagerank)
            with open(os.path.join(pagerank, "simd_avx2.cc"), "w",
                      encoding="utf-8") as f:
                f.write("#include <immintrin.h>\n")
            with open(os.path.join(pagerank, "simd.cc"), "w",
                      encoding="utf-8") as f:
                f.write("// dispatch shim without a fallback\n")
            code, stdout, _ = run_tool(LINT, "--root", tree)
            self.assertEqual(code, 1, stdout)
            self.assertIn(
                ("src/pagerank/simd.cc", 1, "simd-isolation"),
                violation_keys(stdout))
            self.assertIn("ScalarSweepRange", stdout)


class CheckLayersFixtureTest(unittest.TestCase):
    def setUp(self):
        self.dot_path = os.path.join(
            tempfile.mkdtemp(prefix="spammass_layers_"), "dag.dot")
        self.code, self.stdout, self.stderr = run_tool(
            CHECK_LAYERS, "--root", os.path.join(FIXTURES, "layer_tree"),
            "--dot", self.dot_path)

    def test_exit_code_and_count(self):
        self.assertEqual(self.code, 1, self.stdout + self.stderr)
        self.assertIn("3 violation(s)", self.stderr)

    def test_exact_violation_set(self):
        self.assertEqual(violation_keys(self.stdout), [
            ("src/newlayer/widget.h", 1, "layer-dag"),
            ("src/stray.cc", 1, "layer-dag"),
            ("src/util/bad_dep.h", 2, "layer-dag"),
        ])

    def test_messages_explain_each_violation(self):
        lines = self.stdout.splitlines()
        self.assertIn("not a declared layer", lines[0])
        self.assertIn("directly under src/", lines[1])
        self.assertIn("layer 'util' must not include layer 'obs'", lines[2])
        self.assertIn('"obs/metrics_stub.h"', lines[2])

    def test_dot_output_draws_declared_dag(self):
        with open(self.dot_path, encoding="utf-8") as f:
            dot = f.read()
        self.assertIn("digraph spammass_layers", dot)
        # A few load-bearing declared edges.
        self.assertIn('"obs" -> "util"', dot)
        self.assertIn('"pipeline" -> "synth"', dot)
        self.assertIn('"eval" -> "pipeline"', dot)
        # The sanctioned runtime back-edge is dashed, labeled, and points
        # the opposite way from the (banned) include edge.
        self.assertIn('"util" -> "obs" [style=dashed', dot)
        self.assertIn("runtime hooks", dot)


class CheckLayersCyclicConfigTest(unittest.TestCase):
    def test_cyclic_declaration_is_a_config_error(self):
        code, stdout, stderr = run_tool(
            CHECK_LAYERS, "--root", os.path.join(FIXTURES, "layer_tree"),
            "--config", os.path.join(FIXTURES, "cyclic_layers.json"))
        self.assertEqual(code, 2, stdout + stderr)
        self.assertIn("cycle", stdout)
        self.assertIn("obs", stdout)
        self.assertIn("config error", stderr)

    def test_unknown_dependency_is_a_config_error(self):
        with tempfile.NamedTemporaryFile(
                "w", suffix=".json", delete=False) as f:
            f.write('{"layers": {"util": ["nonexistent"]}, "top_dirs": []}')
            path = f.name
        try:
            code, stdout, stderr = run_tool(
                CHECK_LAYERS, "--root", os.path.join(FIXTURES, "layer_tree"),
                "--config", path)
        finally:
            os.unlink(path)
        self.assertEqual(code, 2, stdout + stderr)
        self.assertIn("unknown layer 'nonexistent'", stdout)


class StandInPipelineBench(unittest.TestCase):
    """A stand-in bench_pipeline binary whose current run reads 1.0x."""

    CONTEXT = {
        "num_cpus": 4,
        "caches": [{"type": "Data", "level": 1, "size": 49152},
                   {"type": "Unified", "level": 3, "size": 314572800}],
        "spammass_build_type": "release",
    }

    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        # A stand-in bench_pipeline: writes a report whose independent/shared
        # pair gives a 1.0x speedup to the path in --benchmark_out=.
        report = {"context": self.CONTEXT, "benchmarks": [
            {"name": "BM_TwoDetectorsIndependentRuns", "real_time": 10.0,
             "time_unit": "ms"},
            {"name": "BM_TwoDetectorsSharedContext", "real_time": 10.0,
             "time_unit": "ms"}]}
        binary = os.path.join(self.dir.name, "bench_pipeline")
        with open(binary, "w", encoding="utf-8") as f:
            f.write(f"#!{sys.executable}\n"
                    "import sys\n"
                    "out = [a.split('=', 1)[1] for a in sys.argv\n"
                    "       if a.startswith('--benchmark_out=')][0]\n"
                    f"open(out, 'w').write({json.dumps(report)!r})\n")
        os.chmod(binary, os.stat(binary).st_mode | stat.S_IXUSR)

    def tearDown(self):
        self.dir.cleanup()


class BenchBaselineHostGuardTest(StandInPipelineBench):
    """--baseline compares ratios only against a run from a like host."""

    def run_with_baseline(self, context):
        baseline = os.path.join(self.dir.name, "baseline.json")
        with open(baseline, "w", encoding="utf-8") as f:
            # The committed run claims 2.0x: the current 1.0x is a drop.
            json.dump({"context": context, "speedups": {
                "pipeline_two_detector_cache_speedup": 2.0}}, f)
        return run_tool(BENCH_TO_JSON, "--bench-dir", self.dir.name,
                        "--suite", "pipeline", "--baseline", baseline,
                        "--out", os.path.join(self.dir.name, "out.json"))

    def test_like_host_baseline_is_compared(self):
        code, stdout, stderr = self.run_with_baseline(self.CONTEXT)
        self.assertEqual(code, 0, stdout + stderr)
        self.assertIn("REGRESSION pipeline_two_detector_cache_speedup",
                      stderr)
        self.assertNotIn("refusing baseline", stderr)

    def test_other_cpu_count_is_refused(self):
        code, stdout, stderr = self.run_with_baseline(
            dict(self.CONTEXT, num_cpus=1))
        self.assertEqual(code, 0, stdout + stderr)
        self.assertIn("refusing baseline", stderr)
        self.assertIn("num_cpus 1 in the baseline vs 4 here", stderr)
        self.assertNotIn("REGRESSION", stderr)

    def test_other_cache_sizes_are_refused(self):
        caches = [dict(c) for c in self.CONTEXT["caches"]]
        caches[1]["size"] = 272629760
        code, stdout, stderr = self.run_with_baseline(
            dict(self.CONTEXT, caches=caches))
        self.assertEqual(code, 0, stdout + stderr)
        self.assertIn("refusing baseline", stderr)
        self.assertIn("cache sizes differ", stderr)
        self.assertNotIn("REGRESSION", stderr)


class BenchBaselineSpreadTest(StandInPipelineBench):
    """A drop inside the baseline's own repetition spread stays silent."""

    def run_with_repetitions(self, numerator_times):
        # The current run reads 1.0x (setUp); the committed run claims 1.2x
        # and keeps every repetition: numerator_times over 10 ms each.
        def reps(name, times):
            name += "/repeats:5"
            return [{"name": name, "run_name": name, "run_type": "iteration",
                     "repetition_index": i, "real_time": t,
                     "time_unit": "ms"} for i, t in enumerate(times)]

        baseline = os.path.join(self.dir.name, "baseline.json")
        with open(baseline, "w", encoding="utf-8") as f:
            json.dump({"context": self.CONTEXT, "speedups": {
                "pipeline_two_detector_cache_speedup": 1.2}, "benchmarks":
                reps("BM_TwoDetectorsIndependentRuns", numerator_times)
                + reps("BM_TwoDetectorsSharedContext", [10.0] * 5)}, f)
        return run_tool(BENCH_TO_JSON, "--bench-dir", self.dir.name,
                        "--suite", "pipeline", "--baseline", baseline,
                        "--out", os.path.join(self.dir.name, "out.json"))

    def test_drop_inside_the_spread_is_silent(self):
        # Pair ratios span 0.9x..1.5x: the 0.2x drop is within 0.6x.
        code, stdout, stderr = self.run_with_repetitions(
            [9.0, 12.0, 15.0, 12.0, 11.0])
        self.assertEqual(code, 0, stdout + stderr)
        self.assertNotIn("REGRESSION", stderr)

    def test_drop_beyond_the_spread_warns(self):
        # Pair ratios span 1.15x..1.25x: the 0.2x drop exceeds 0.1x.
        code, stdout, stderr = self.run_with_repetitions(
            [11.5, 12.0, 12.5, 12.0, 12.0])
        self.assertEqual(code, 0, stdout + stderr)
        self.assertIn("REGRESSION pipeline_two_detector_cache_speedup",
                      stderr)
        self.assertIn("0.10x repetition spread", stderr)


class BenchMedianTest(unittest.TestCase):
    """Repeated benchmarks enter a ratio by their median aggregate."""

    def test_ratio_pairs_medians_not_the_last_repetition(self):
        def reps(name, times, median):
            # google-benchmark's naming for ->Repetitions(3).
            name += "/repeats:3"
            entries = [{"name": name, "run_name": name,
                        "run_type": "iteration", "real_time": t,
                        "time_unit": "ms"} for t in times]
            entries.append({"name": name + "_median", "run_name": name,
                            "run_type": "aggregate",
                            "aggregate_name": "median",
                            "real_time": median, "time_unit": "ms"})
            return entries

        # The baseline entry's last repetition is an outlier (30 ms): paired
        # by last repetition the ratio would read 6.0x, by median 2.0x.
        report = {"context": StandInPipelineBench.CONTEXT,
                  "benchmarks":
                  reps("BM_TwoDetectorsIndependentRuns", [10, 10, 30], 10)
                  + reps("BM_TwoDetectorsSharedContext", [5, 5, 5], 5)}
        with tempfile.TemporaryDirectory() as tree:
            binary = os.path.join(tree, "bench_pipeline")
            with open(binary, "w", encoding="utf-8") as f:
                f.write(f"#!{sys.executable}\n"
                        "import sys\n"
                        "out = [a.split('=', 1)[1] for a in sys.argv\n"
                        "       if a.startswith('--benchmark_out=')][0]\n"
                        f"open(out, 'w').write({json.dumps(report)!r})\n")
            os.chmod(binary, os.stat(binary).st_mode | stat.S_IXUSR)
            out = os.path.join(tree, "out.json")
            code, stdout, stderr = run_tool(
                BENCH_TO_JSON, "--bench-dir", tree, "--suite", "pipeline",
                "--out", out)
            self.assertEqual(code, 0, stdout + stderr)
            with open(out, encoding="utf-8") as f:
                speedups = json.load(f)["speedups"]
        self.assertAlmostEqual(
            speedups["pipeline_two_detector_cache_speedup"], 2.0)


class RealTreeGuardTest(unittest.TestCase):
    """The fixtures themselves must never leak into the real-tree runs."""

    def test_lint_skips_fixture_directory(self):
        code, stdout, stderr = run_tool(LINT, "--root", ROOT)
        self.assertEqual(code, 0, stdout + stderr)
        self.assertNotIn("analysis_fixtures", stdout)

    def test_check_layers_skips_fixture_directory(self):
        code, stdout, stderr = run_tool(CHECK_LAYERS, "--root", ROOT)
        self.assertEqual(code, 0, stdout + stderr)
        self.assertNotIn("analysis_fixtures", stdout)


if __name__ == "__main__":
    unittest.main()
