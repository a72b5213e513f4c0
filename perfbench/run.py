#!/usr/bin/env python3
"""Whole-step BD benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Builds perfbench/ (which compiles the hydrobd
library from the repository's sources) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs the workload in its own process
with OMP_NUM_THREADS=2.  It prints the metrics with their units and sample
counts, and as the last stdout line one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports BENCHMARK.json's
end_to_end metrics, --trace 1 its per_layer metrics.  Exits non-zero without
a result line when the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
THREADS = "2"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds step_bench; build output goes to stderr.
    A later build re-runs the configuration itself when a CMakeLists.txt
    changed."""
    steps = [["cmake", "--build", build_dir, "--target", "step_bench",
              "-j", "4"]]
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.insert(0, ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "step_bench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    try:
        expected = expected_metrics(args.trace)
        exe = build(build_dir)
    except (OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        print(f"perfbench: setup failed: {e}", file=sys.stderr)
        return 1

    span_dir = os.path.join(build_dir, "spans")
    os.makedirs(span_dir, exist_ok=True)
    # Telemetry knobs would attach streams or recorders to the driver.
    env = {k: v for k, v in os.environ.items() if not k.startswith("HBD_")}
    env["OMP_NUM_THREADS"] = THREADS
    # A fixed glibc mmap threshold: the repeated setups free large buffers,
    # which would otherwise raise the allocator's dynamic threshold and
    # leave later allocations in the heap, where freed memory stays
    # resident.  Peak RSS then tracked the allocator's history, not the
    # program's live memory (57 or 73 MiB on krylov_n500, by seed).
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    try:
        proc = subprocess.run(
            [exe, args.workload, str(args.seed), repr(args.seconds),
             str(args.trace), span_dir],
            env=env, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.SubprocessError as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: step_bench exited {proc.returncode}",
              file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
        metrics = result["metrics"]
        units = {k: m["unit"] for k, m in metrics.items()}
    except (ValueError, KeyError, TypeError) as e:
        print(f"perfbench: unreadable step_bench result: {e}",
              file=sys.stderr)
        return 1
    if not result.get("correct") and units != expected:
        print("perfbench: the run failed before its metrics were complete",
              file=sys.stderr)
        return 1
    if units != expected:
        print(f"perfbench: metrics {sorted(metrics)} do not match "
              f"BENCHMARK.json {sorted(expected)}", file=sys.stderr)
        return 1

    for name, m in metrics.items():
        print(f"  {name:26s} {m['value']:14.6g} {m['unit']:8s} "
              f"(n={m['samples']})")
    print(f"  steps attempted {result['attempted']}, failed "
          f"{result['failed']}, correct {result['correct']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
