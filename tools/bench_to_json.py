#!/usr/bin/env python3
"""Run a perf benchmark suite and collect one merged JSON report.

Each google-benchmark binary of the selected suite is run with
--benchmark_out=<tmp>.json (--benchmark_format JSON), the per-benchmark
entries are merged, and the baseline-vs-optimized speedup ratios the PRs'
acceptance criteria track are derived from the paired entries.

Suite `solver` (bench_solver_perf + bench_multi_solve):

  * jacobi_single_thread_speedup:
        BM_SeedJacobiBaseline / BM_WeightedJacobi
  * spam_mass_two_solve_speedup (on the shared synthetic web):
        BM_SeedMassEstimationSharedWeb / BM_FusedMassEstimationSharedWeb
  * spam_mass_two_solve_speedup_large (200k-node random web):
        BM_SeedMassEstimationBaseline / BM_FusedMassEstimation
  * parallel_pool_reuse_speedup_T<k>:
        BM_ParallelJacobiFreshPool/<k> / BM_ParallelJacobiWorkspace/<k>
  * multi_solve_amortization_k<k>:
        BM_IndependentSolves/<k> / BM_FusedMultiSolve/<k>
  * simd_multi_rhs_speedup_k4 (bench_sweep_variants, power-law web):
        BM_SweepScalarF64Plain / BM_SweepSimdF64Plain
  * mixed_precision_speedup_k4 / full_variant_speedup_k4: the
    scalar/f64 sweep over the mixed-f32 and simd+f32 variants
    plus `bytes_per_edge`: the modelled traffic counters of the f64
    sweep vs. the f32 sweep and the relative reduction.

Suite `graph` (bench_graph_ops, 100k-node ingest fixtures):

  * graph_build_parallel_speedup_T<k>:
        BM_CsrBuildSerial / BM_CsrBuildParallel/<k>
  * graph_transpose_parallel_speedup_T<k>:
        BM_TransposeSerial / BM_TransposeParallel/<k>
  * mmap_load_speedup (300k-node power-law web, ~50 MB CSR; target ≥10×):
        BM_PagedLoadHeap / BM_PagedLoadMmap
    (full-validation heap load of a v2.2 file over the zero-copy
    sample-checksum mmap load of the same file)

Suite `pipeline` (bench_pipeline, shared synthetic web):

  * pipeline_two_detector_cache_speedup:
        BM_TwoDetectorsIndependentRuns / BM_TwoDetectorsSharedContext
    (the artifact cache sharing one base PageRank solve between spam mass
    and TrustRank, with every forward solve fused into one multi-RHS
    stream, vs. each detector preparing its own context)

Suite `obs` (bench_obs, 100k-node random web): ratios here are overhead
factors (instrumented time / hooks-off baseline time), not speedups —
values near 1.0 are good, and the PR 5 acceptance criterion is that
obs_disabled_overhead_T* stays ≤1.02:

  * obs_disabled_overhead_T<k>:
        BM_JacobiSweepObsDisabled/<k> / BM_JacobiSweepNoHooks/<k>
  * obs_tracing_overhead_T<k>:
        BM_JacobiSweepTracingEnabled/<k> / BM_JacobiSweepNoHooks/<k>
  * obs_sampler10ms_overhead_T<k> / obs_sampler100ms_overhead_T<k>:
        BM_JacobiSweepSampler{10,100}ms/<k> / BM_JacobiSweepNoHooks/<k>
    (the background resource sampler added on top of the default
    telemetry state; 100 ms is the CLI default period)

The disabled-path and sampler overhead labels share the ≤1.02 budget:
ratios above it print a BUDGET warning (like --baseline regressions, a
warning rather than a hard gate — machine variance makes gates flaky).

Usage:
    tools/bench_to_json.py --bench-dir build/bench --out BENCH_solver.json \
        [--suite solver|graph] [--min-time 0.1] [--baseline BENCH_solver.json]

Build-type guard: every bench binary stamps `spammass_build_type`
(release/debug, from its own NDEBUG) into the report context via
SPAMMASS_BENCHMARK_MAIN(). Reports from a non-release build are refused —
debug numbers are meaningless and once burned us by landing in the
committed BENCH_solver.json (its context still said
"library_build_type": "debug"). `--allow-non-release` downgrades the
refusal to a loud warning and stamps `"non_release_build": true` into the
output so the file can never masquerade as a real measurement.

Regression guard: `--baseline <committed BENCH_*.json>` compares every
derived ratio against the committed run and warns when one drops by more
than 10%. Warnings only — machine variance makes hard gates flaky — but
they make a silent slowdown visible in the CI log. A baseline whose
context records a different `num_cpus` or different cache sizes is
refused: its ratios measure another host (a parallel speedup from a
1-vCPU VM only measures time-slicing), so nothing is compared and the
refusal is printed instead of warnings.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

SOLVER_RATIO_PAIRS = [
    ("jacobi_single_thread_speedup", "BM_SeedJacobiBaseline",
     "BM_WeightedJacobi"),
    ("spam_mass_two_solve_speedup", "BM_SeedMassEstimationSharedWeb",
     "BM_FusedMassEstimationSharedWeb"),
    ("spam_mass_two_solve_speedup_large", "BM_SeedMassEstimationBaseline",
     "BM_FusedMassEstimation"),
    ("parallel_pool_reuse_speedup_T2", "BM_ParallelJacobiFreshPool/2",
     "BM_ParallelJacobiWorkspace/2"),
    ("parallel_pool_reuse_speedup_T4", "BM_ParallelJacobiFreshPool/4",
     "BM_ParallelJacobiWorkspace/4"),
    ("multi_solve_amortization_k2", "BM_IndependentSolves/2",
     "BM_FusedMultiSolve/2"),
    ("multi_solve_amortization_k4", "BM_IndependentSolves/4",
     "BM_FusedMultiSolve/4"),
    ("multi_solve_amortization_k8", "BM_IndependentSolves/8",
     "BM_FusedMultiSolve/8"),
    ("simd_multi_rhs_speedup_k4", "BM_SweepScalarF64Plain",
     "BM_SweepSimdF64Plain"),
    ("mixed_precision_speedup_k4", "BM_SweepScalarF64Plain",
     "BM_SweepScalarF32Plain"),
    ("full_variant_speedup_k4", "BM_SweepScalarF64Plain",
     "BM_SweepSimdF32Plain"),
]

GRAPH_RATIO_PAIRS = [
    ("graph_build_parallel_speedup_T2", "BM_CsrBuildSerial",
     "BM_CsrBuildParallel/2"),
    ("graph_build_parallel_speedup_T4", "BM_CsrBuildSerial",
     "BM_CsrBuildParallel/4"),
    ("graph_build_parallel_speedup_T8", "BM_CsrBuildSerial",
     "BM_CsrBuildParallel/8"),
    ("graph_transpose_parallel_speedup_T2", "BM_TransposeSerial",
     "BM_TransposeParallel/2"),
    ("graph_transpose_parallel_speedup_T4", "BM_TransposeSerial",
     "BM_TransposeParallel/4"),
    ("graph_transpose_parallel_speedup_T8", "BM_TransposeSerial",
     "BM_TransposeParallel/8"),
    ("mmap_load_speedup", "BM_PagedLoadHeap", "BM_PagedLoadMmap"),
]

PIPELINE_RATIO_PAIRS = [
    ("pipeline_two_detector_cache_speedup", "BM_TwoDetectorsIndependentRuns",
     "BM_TwoDetectorsSharedContext"),
]

# Overhead factors: instrumented entry over the hooks-off baseline. The
# (label, numerator, denominator) order is flipped relative to the speedup
# suites because the interesting number is how much slower telemetry makes
# the sweep, not how much faster.
OBS_RATIO_PAIRS = [
    ("obs_disabled_overhead_T2", "BM_JacobiSweepObsDisabled/2",
     "BM_JacobiSweepNoHooks/2"),
    ("obs_disabled_overhead_T4", "BM_JacobiSweepObsDisabled/4",
     "BM_JacobiSweepNoHooks/4"),
    ("obs_tracing_overhead_T2", "BM_JacobiSweepTracingEnabled/2",
     "BM_JacobiSweepNoHooks/2"),
    ("obs_tracing_overhead_T4", "BM_JacobiSweepTracingEnabled/4",
     "BM_JacobiSweepNoHooks/4"),
    ("obs_sampler10ms_overhead_T2", "BM_JacobiSweepSampler10ms/2",
     "BM_JacobiSweepNoHooks/2"),
    ("obs_sampler10ms_overhead_T4", "BM_JacobiSweepSampler10ms/4",
     "BM_JacobiSweepNoHooks/4"),
    ("obs_sampler100ms_overhead_T2", "BM_JacobiSweepSampler100ms/2",
     "BM_JacobiSweepNoHooks/2"),
    ("obs_sampler100ms_overhead_T4", "BM_JacobiSweepSampler100ms/4",
     "BM_JacobiSweepNoHooks/4"),
]

# Overhead labels held to the ≤1.02 default-state budget (the PR 5
# criterion, extended to the resource sampler): the telemetry they measure
# is always on in production runs, so it must stay in the noise. Tracing
# overhead is exempt — tracing is opt-in and buys its cost back in
# visibility.
OBS_BUDGETED_PREFIXES = ("obs_disabled_overhead", "obs_sampler")
OBS_OVERHEAD_BUDGET = 1.02

SUITES = {
    "solver": {
        "binaries": ["bench_solver_perf", "bench_multi_solve",
                     "bench_sweep_variants"],
        "ratios": SOLVER_RATIO_PAIRS,
    },
    "graph": {
        "binaries": ["bench_graph_ops"],
        "ratios": GRAPH_RATIO_PAIRS,
    },
    "pipeline": {
        "binaries": ["bench_pipeline"],
        "ratios": PIPELINE_RATIO_PAIRS,
    },
    "obs": {
        "binaries": ["bench_obs"],
        "ratios": OBS_RATIO_PAIRS,
    },
}


def run_bench(binary, min_time):
    """Runs one benchmark binary, returns its parsed JSON report."""
    fd, out_path = tempfile.mkstemp(suffix=".json")
    os.close(fd)
    try:
        cmd = [
            binary,
            f"--benchmark_out={out_path}",
            "--benchmark_out_format=json",
        ]
        if min_time:
            cmd.append(f"--benchmark_min_time={min_time}")
        subprocess.run(cmd, check=True)
        with open(out_path, encoding="utf-8") as f:
            return json.load(f)
    finally:
        os.unlink(out_path)


def real_time_ms(entry):
    unit = entry.get("time_unit", "ns")
    scale = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}[unit]
    return entry["real_time"] * scale


def report_build_type(report, binary):
    """The build type a bench report was produced by.

    Prefers the `spammass_build_type` context key (stamped by
    SPAMMASS_BENCHMARK_MAIN from the bench binary's own NDEBUG); falls
    back to google-benchmark's `library_build_type`, which only describes
    the benchmark *library* and may disagree with the bench code.
    """
    context = report.get("context") or {}
    build_type = context.get("spammass_build_type")
    if build_type is None:
        build_type = context.get("library_build_type", "unknown")
        print(f"warning: {binary} lacks spammass_build_type context; "
              f"falling back to library_build_type={build_type!r}",
              file=sys.stderr)
    return build_type


def host_mismatch(context, baseline_context):
    """Why two bench contexts describe different hosts, or None.

    Compares the CPU count and the (type, level, size) of every cache.
    """
    def caches(ctx):
        return sorted((c.get("type", ""), c.get("level", 0), c.get("size", 0))
                      for c in ctx.get("caches", []))

    context = context or {}
    baseline_context = baseline_context or {}
    reasons = []
    if context.get("num_cpus") != baseline_context.get("num_cpus"):
        reasons.append(f"num_cpus {baseline_context.get('num_cpus')} in the "
                       f"baseline vs {context.get('num_cpus')} here")
    if caches(context) != caches(baseline_context):
        reasons.append("cache sizes differ")
    return "; ".join(reasons) or None


def check_regressions(speedups, context, baseline_path, threshold=0.10):
    """Warns about ratios that dropped >threshold vs. the committed run.

    Refuses (compares nothing) when the baseline comes from another host.
    """
    try:
        with open(baseline_path, encoding="utf-8") as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"warning: cannot read baseline {baseline_path}: {e}",
              file=sys.stderr)
        return []
    mismatch = host_mismatch(context, report.get("context"))
    if mismatch:
        print(f"warning: refusing baseline {baseline_path}: {mismatch}; "
              "ratios not compared", file=sys.stderr)
        return []
    baseline = report.get("speedups", {})
    regressions = []
    for label, old in baseline.items():
        new = speedups.get(label)
        if new is None or old <= 0:
            continue
        drop = 1.0 - new / old
        if drop > threshold:
            regressions.append((label, old, new, drop))
            print(f"warning: REGRESSION {label}: {old:.2f}x -> {new:.2f}x "
                  f"({drop:.0%} drop vs. baseline)", file=sys.stderr)
    return regressions


def bytes_per_edge_summary(merged):
    """Derives the bytes-per-edge reduction from the variant counters."""
    counters = {}
    for entry in merged["benchmarks"]:
        if "bytes_per_edge" in entry:
            counters[entry["name"]] = entry["bytes_per_edge"]
    plain = counters.get("BM_SweepScalarF64Plain")
    narrow = counters.get("BM_SweepScalarF32Plain")
    if not plain or narrow is None:
        return None
    return {
        "plain_f64": plain,
        "plain_f32": narrow,
        "reduction": 1.0 - narrow / plain,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench-dir", required=True,
                        help="directory holding the built bench binaries")
    parser.add_argument("--out", required=True,
                        help="path of the merged JSON report")
    parser.add_argument("--suite", default="solver", choices=sorted(SUITES),
                        help="which benchmark suite to run (default: solver)")
    parser.add_argument("--min-time", default=None,
                        help="forwarded as --benchmark_min_time in seconds (e.g. 0.1)")
    parser.add_argument("--baseline", default=None,
                        help="committed BENCH_*.json to compare ratios "
                             "against; drops >10%% print a warning; refused "
                             "when its num_cpus or cache sizes differ")
    parser.add_argument("--allow-non-release", action="store_true",
                        help="downgrade the non-release refusal to a "
                             "warning (output is stamped non_release_build)")
    args = parser.parse_args()
    suite = SUITES[args.suite]

    merged = {"context": None, "benchmarks": [], "speedups": {}}
    times = {}
    non_release = []
    for name in suite["binaries"]:
        binary = os.path.join(args.bench_dir, name)
        if not os.path.exists(binary):
            print(f"error: {binary} not built", file=sys.stderr)
            return 1
        report = run_bench(binary, args.min_time)
        build_type = report_build_type(report, name)
        if build_type != "release":
            non_release.append((name, build_type))
        if merged["context"] is None:
            merged["context"] = report.get("context")
        for entry in report.get("benchmarks", []):
            entry["binary"] = name
            merged["benchmarks"].append(entry)
            times[entry["name"]] = real_time_ms(entry)

    if non_release:
        detail = ", ".join(f"{n} ({t})" for n, t in non_release)
        if args.allow_non_release:
            print(f"warning: NON-RELEASE BENCH RUN: {detail} — numbers are "
                  "not comparable to committed results", file=sys.stderr)
            merged["non_release_build"] = True
        else:
            print(f"error: refusing to publish non-release bench run: "
                  f"{detail}\nRebuild with -DCMAKE_BUILD_TYPE=Release or "
                  "pass --allow-non-release to record anyway.",
                  file=sys.stderr)
            return 1

    for label, baseline, optimized in suite["ratios"]:
        if baseline in times and optimized in times and times[optimized] > 0:
            merged["speedups"][label] = times[baseline] / times[optimized]

    if args.suite == "solver":
        summary = bytes_per_edge_summary(merged)
        if summary is not None:
            merged["bytes_per_edge"] = summary

    if args.suite == "obs":
        for label, ratio in merged["speedups"].items():
            if (label.startswith(OBS_BUDGETED_PREFIXES)
                    and ratio > OBS_OVERHEAD_BUDGET):
                print(f"warning: BUDGET {label}: {ratio:.3f}x exceeds the "
                      f"{OBS_OVERHEAD_BUDGET}x always-on overhead budget",
                      file=sys.stderr)

    if args.baseline:
        check_regressions(merged["speedups"], merged["context"],
                          args.baseline)

    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(merged, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out}")
    for label, ratio in merged["speedups"].items():
        print(f"  {label}: {ratio:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
