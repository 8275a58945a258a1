#!/usr/bin/env python3
"""Self-test for the benchmark, on a tiny seed and scale (about two minutes).

Run from the repository root:

    python3 perfbench/selftest.py

Checks that:
  * each workload prints every BENCHMARK.json metric, with its declared unit,
    in both modes, and that a clean run is correct;
  * a tampered v2.2 file (one flipped byte after the write) fails the run;
  * the traced layer self times account for the traced op's wall time
    within a few percent, the replayed layer calls account for most of
    RunDetectors, and the recorder's own cost is a small share of the op;
  * a directory holding only BENCHMARK.json and perfbench/ exits non-zero
    without printing a result.
Exits 0 when every check passes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCALE_FACTOR = "0.1"  # both workloads at scale 1
ACCOUNTING_TOLERANCE = 0.03
# At this scale the replay lasts a second or two, and it differs from the
# RunDetectors call it replays by run-to-run noise of several percent.
REPLAY_TOLERANCE = 0.25

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def bench(workload, trace, *extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "4", "--trace", str(trace),
         "--scale-factor", SCALE_FACTOR, *extra],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def parse(lines):
    result = json.loads(lines[-1])
    diagnostics = json.loads(lines[-2].split(" ", 1)[1])
    return result, diagnostics


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            proc, lines = bench(workload, trace)
            check(proc.returncode == 0, f"{label}: exit 0")
            if proc.returncode != 0:
                print(proc.stderr[-2000:])
                continue
            result, diagnostics = parse(lines)
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result keys")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, f"{label}: correct")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{label}: every {section} metric with its unit")
            check(all(isinstance(v["value"], (int, float))
                      for v in result["metrics"].values()),
                  f"{label}: numeric values")
            if trace:
                frac = diagnostics["trace_accounted_frac"]
                check(abs(frac - 1) <= ACCOUNTING_TOLERANCE,
                      f"{label}: traced self times cover run_s ({frac:.4f})")
                frac = diagnostics["replay_frac"]
                check(abs(frac - 1) <= REPLAY_TOLERANCE,
                      f"{label}: replay covers RunDetectors ({frac:.3f})")
                frac = result["metrics"]["bench.trace_overhead_frac"]["value"]
                check(0 < frac <= 0.01,
                      f"{label}: trace overhead is small ({frac:.2e})")

    proc, lines = bench("detect_crawl", 0, "--tamper")
    result, diagnostics = parse(lines)
    check(proc.returncode == 0 and not result["correct"]
          and result["failed"] >= 1
          and result["metrics"]["success_rate"]["value"] < 1,
          f"tampered file fails the run ({diagnostics['errors'][:1]})")

    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path)
    proc, lines = bench("core_sweep", 0, cwd=bare)
    check(proc.returncode != 0 and not any(l.startswith("{") for l in lines),
          "benchmark-only directory exits non-zero without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
