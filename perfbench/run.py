#!/usr/bin/env python3
"""The repository benchmark: crawl ingest -> detect, and a 16-lane core sweep.

Run from the repository root:

    python3 perfbench/run.py --workload detect_crawl --seed 1 --seconds 20 --trace 0

It builds perfbench/ (with the spammass libraries from src/) into
.bench_build, generates the workload's corpus from --seed under .bench_work,
runs the measured phases as separate `perfbench` processes, checks their
outputs, and prints one JSON object as the last line of stdout: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
perfbench/README.md describes the workloads and every metric.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"

# Corpus scale (synth::Yahoo2004Scenario) and the lowest flag precision a
# correct run produces, per workload. See README.md for the sizing data.
WORKLOADS = {
    "detect_crawl": {"scale": 10, "precision_floor": 0.75},
    "core_sweep": {"scale": 10, "precision_floor": 0.7},
}
SETUP_REPS = 3
# Solver and triad threads. One thread, not nproc: on a shared host a
# multi-threaded sweep waits at every barrier for whichever vCPU the
# hypervisor steals, and its times swing by a third (README.md).
THREADS = 1
# A run must end within 180 s of its start once the build is done.
RUN_BUDGET_S = 170


class BenchError(Exception):
    pass


class Runner:
    """Runs perfbench subcommands, each to completion, under one deadline."""

    def __init__(self, exe, threads, deadline, tamper):
        self.exe = exe
        self.threads = threads
        self.deadline = deadline
        self.tamper = tamper
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def call(self, command, *args):
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run exceeded its time budget")
        proc = subprocess.Popen([str(self.exe), command, *map(str, args)],
                                stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=remaining)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        if proc.returncode != 0:
            raise BenchError(f"perfbench {command} exited {proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def tally(self, ok, errors=()):
        """Counts one checked operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.extend(errors)


def build():
    """Configures (once) and builds the perfbench executable."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else ROOT / target) / "perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return build_dir / "perfbench"


def make_corpus(run, work, workload, seed, trace):
    """Generates the workload's corpus (untimed) and ingests it once.

    Returns (corpus dir, ingest output). For detect_crawl the ingest is the
    first set-up repetition; for core_sweep it is input preparation.
    """
    corpus = work / workload
    corpus.mkdir(parents=True)
    run.call("gen", "--dir", corpus, "--seed", seed,
             "--scale", WORKLOADS[workload]["scale"])
    ingest = run.call("ingest", "--dir", corpus, *trace_flag(trace),
                      *(["--tamper"] if run.tamper else []))
    run.tally(ingest["ok"], ingest["errors"])
    return corpus, ingest


def trace_flag(trace):
    return ["--trace"] if trace else []


def detect(run, corpus, seed, trace=False):
    op = run.call("detect", "--dir", corpus, "--seed", seed,
                  "--threads", run.threads, "--precision-floor",
                  WORKLOADS["detect_crawl"]["precision_floor"], *trace_flag(trace))
    run.tally(op["ok"], op["errors"])
    return op


def sweep(run, corpus, seed, seconds, setups, trace=False):
    """`setups` setups, then rounds until they sum to `seconds` (at least
    one), all traced with `trace`."""
    out = run.call("sweep", "--dir", corpus, "--seed", seed,
                   "--threads", run.threads, "--seconds", seconds,
                   "--setups", setups, "--precision-floor",
                   WORKLOADS["core_sweep"]["precision_floor"], *trace_flag(trace))
    for r in out["rounds"]:
        run.tally(r["ok"] and out["ok"], out["errors"])
    return out


def detect_ops(run, corpus, seed, seconds):
    """Untraced detect ops until their summed run time reaches `seconds`."""
    ops = []
    while not ops or sum(op["run_s"] for op in ops) < seconds:
        ops.append(detect(run, corpus, seed))
    return ops


# ---- End-to-end run (--trace 0) ---------------------------------------------

def e2e_detect_crawl(run, work, seed, seconds):
    corpus, first = make_corpus(run, work, "detect_crawl", seed, False)
    setups = [first] + [run.call("ingest", "--dir", corpus)
                        for _ in range(SETUP_REPS - 1)]
    for s in setups[1:]:
        run.tally(s["ok"], s["errors"])
    ops = detect_ops(run, corpus, seed, seconds)
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "run_s": statistics.median(op["run_s"] for op in ops),
        "cpu_s": statistics.median(op["cpu_s"] for op in ops),
        "peak_rss_mb": max(op["peak_rss_mb"] for op in ops),
        "flag_precision": min(op["precision"] for op in ops),
    }, {"n": ops[0]["n"], "m": ops[0]["m"], "ops": len(ops),
        "v22_bytes": first["file_bytes"]}


def e2e_core_sweep(run, work, seed, seconds):
    corpus, _ = make_corpus(run, work, "core_sweep", seed, False)
    out = sweep(run, corpus, seed, seconds, SETUP_REPS)
    rounds = out["rounds"]
    return {
        "setup_s": statistics.median(out["setup_s"]),
        "run_s": statistics.median(r["s"] for r in rounds),
        "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
        "peak_rss_mb": out["peak_rss_mb"],
        "flag_precision": out["precision"],
    }, {"n": out["n"], "m": out["m"], "rounds": len(rounds)}


# ---- Traced run (--trace 1) --------------------------------------------------

def span_groups(spans, root_name):
    """Per root span named `root_name`: {span name: {"self_s", "dur_s", attrs}}.

    Self time is a span's duration minus its children's durations. Sums run
    over every span of a name in the group; attributes come from the first.
    """
    dur = [s["end"] - s["start"] for s in spans]
    child = [0.0] * len(spans)
    root_of = []
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            child[s["parent"]] += dur[i]
        root_of.append(i if s["parent"] < 0 else root_of[s["parent"]])
    groups = {}
    for i, s in enumerate(spans):
        root = root_of[i]
        if spans[root]["name"] != root_name:
            continue
        entry = groups.setdefault(root, {}).setdefault(s["name"], dict(
            {k: v for k, v in s.items() if k not in ("name", "parent", "start", "end")},
            self_s=0.0, dur_s=0.0))
        entry["self_s"] += dur[i] - child[i]
        entry["dur_s"] += dur[i]
    return list(groups.values())


def solve_layer(prefix, span, threads, triad):
    """Computed solver throughput from the bytes-per-edge model
    (docs/performance.md): each sweep reads a 4 B source id per edge plus
    8 B per active lane, so bytes = edges * (4 * sweeps + 8 * lane_iterations).
    """
    seconds = span["self_s"]
    gb = span["edges"] * (4 * span["sweeps"] + 8 * span["lane_iterations"]) / 1e9
    return {
        f"pagerank.{prefix}_lane_iterations": span["lane_iterations"],
        f"pagerank.{prefix}_gb_per_s": gb / seconds,
        f"pagerank.{prefix}_roofline_frac": gb / seconds / triad,
        f"pagerank.{prefix}_cpu_util": span["cpu_s"] / (seconds * threads),
    }


def traced(run, work, seed, primary):
    """Both flows traced on one corpus at the `primary` workload's scale:
    the ingest, one detect op, one sweep setup and round, and the triad.
    Names shared by the two flows take the value of the `primary` flow."""
    threads = run.threads
    corpus, ingest = make_corpus(run, work, primary, seed, True)
    d_op = detect(run, corpus, seed, trace=True)
    s_out = sweep(run, corpus, seed, 0, 1, trace=True)
    triad = run.call("triad", "--threads", threads)
    run.tally(triad["ok"])
    triad_gbps = triad["triad_gb_per_s"]

    ingest_group = span_groups(ingest["spans"], "setup")[0]
    run_group = span_groups(d_op["spans"], "run")[0]
    setup_group = span_groups(s_out["spans"], "setup")[0]
    round_group = span_groups(s_out["spans"], "round")[0]
    forward = run_group["pagerank.forward_solve"]
    multi = round_group["pagerank.sweep_round"]
    write_s = ingest_group["graph.write_v22"]["self_s"]
    m = {
        "graph.ingest_load_s": ingest_group["graph.ingest_load"]["self_s"],
        "graph.write_v22_s": write_s,
        "graph.write_v22_gb_per_s": ingest["file_bytes"] / write_s / 1e9,
        "graph.transpose_s": run_group["graph.transpose"]["self_s"],
        "graph.transpose_rss_delta_mb": run_group["graph.transpose"]["rss_delta_mb"],
        "graph.first_touch_minor_faults": run_group["run"]["minor_faults"],
        "pagerank.seed_solve_s": run_group["pagerank.seed_solve"]["self_s"],
        "pagerank.seed_solve_sweeps": run_group["pagerank.seed_solve"]["sweeps"],
        "pagerank.forward_solve_s": forward["self_s"],
        "pagerank.forward_sweeps": forward["sweeps"],
        "pagerank.base_solve_s": setup_group["pagerank.base_solve"]["self_s"],
        "pagerank.base_solve_sweeps": setup_group["pagerank.base_solve"]["sweeps"],
        "pagerank.sweep_round_s": multi["self_s"],
        "pipeline.run_detectors_s": run_group["pipeline.run_detectors"]["dur_s"],
        "pipeline.unattributed_s": run_group["pipeline.run_detectors"]["self_s"],
        "pipeline.manifest_write_s": run_group["pipeline.manifest_write"]["self_s"],
        "host.triad_gb_per_s": triad_gbps,
    }
    m.update(solve_layer("forward", forward, threads, triad_gbps))
    m.update(solve_layer("sweep", multi, threads, triad_gbps))

    if primary == "detect_crawl":
        root, group, out = "run", run_group, d_op
        m["graph.mmap_load_s"] = run_group["graph.mmap_load"]["self_s"]
    else:
        root, group, out = "round", round_group, s_out
        m["graph.mmap_load_s"] = setup_group["graph.mmap_load"]["self_s"]
    m["core.flagged"] = out["flagged"]
    m["core.mass_from_scores_s"] = group["core.mass_from_scores"]["self_s"]
    m["core.detect_candidates_s"] = group["core.detect_candidates"]["self_s"]
    # What the recorder cost the traced process, measured per span (Begin,
    # End and the attribute probes) and charged against the op it traced.
    op_s = group[root]["dur_s"]
    m["bench.trace_overhead_frac"] = out["span_count"] * out["span_cost_s"] / op_s
    accounted = sum(v["self_s"] for k, v in group.items() if k != root)
    detectors = run_group["pipeline.run_detectors"]
    diagnostics = {
        "trace_self_time_s": accounted, "traced_op_s": op_s,
        "trace_accounted_frac": accounted / op_s,
        "replay_frac": 1 - detectors["self_s"] / detectors["dur_s"],
        "span_cost_s": out["span_cost_s"],
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"trace-{primary}-seed{seed}.json").write_text(json.dumps(
        {"workload": primary, "seed": seed,
         "phases": {"ingest": ingest["spans"], "detect": d_op["spans"],
                    "sweep": s_out["spans"]},
         "metrics": m, "diagnostics": diagnostics}, indent=1))
    return m, diagnostics


# ---- Reporting -------------------------------------------------------------

def declared_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def proc_noise():
    """CPU steal seconds (all CPUs) and the 1-minute load average."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        steal = int(fields[8]) / os.sysconf("SC_CLK_TCK")
        with open("/proc/loadavg") as f:
            load = float(f.read().split()[0])
        return steal, load
    except (OSError, ValueError, IndexError):
        return None, None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test knobs (selftest.py); the benchmark proper never sets them.
    parser.add_argument("--scale-factor", type=float, default=1.0,
                        help="multiply every corpus scale (tiny self-test runs)")
    parser.add_argument("--tamper", action="store_true",
                        help="corrupt each ingested file before its reload check")
    args = parser.parse_args()
    # On SIGTERM, unwind like Ctrl-C: Runner.call kills and reaps the running
    # child, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for spec in WORKLOADS.values():
        spec["scale"] *= args.scale_factor

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: spammass sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 2
    try:
        exe = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    run = Runner(exe, THREADS, time.monotonic() + RUN_BUDGET_S, args.tamper)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    steal0, _ = proc_noise()
    try:
        if args.trace:
            metrics, info = traced(run, work, args.seed, args.workload)
        elif args.workload == "detect_crawl":
            metrics, info = e2e_detect_crawl(run, work, args.seed, args.seconds)
        else:
            metrics, info = e2e_core_sweep(run, work, args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired, KeyError, ValueError) as e:
        print(f"perfbench: {args.workload}: {e!r}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    steal1, load = proc_noise()

    if not args.trace:
        metrics["success_rate"] = (run.attempted - run.failed) / run.attempted
    info.update(threads=THREADS, errors=run.errors[:8],
                steal_s=None if steal0 is None else steal1 - steal0,
                loadavg_1m=load)
    print("diagnostics " + json.dumps(info))
    units = declared_units(args.trace)
    if set(units) != set(metrics):
        print(f"perfbench: measured {sorted(metrics)} but BENCHMARK.json "
              f"declares {sorted(units)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in sorted(units)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
