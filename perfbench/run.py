#!/usr/bin/env python3
"""Repository benchmark: builds the simulator from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: paper_loop, fault_campaign, fleet_serve (see BENCHMARK.json for
why each exists), and grid_thermal, the paper_loop closed loop at 4x4 thermal
cells per core, where the RC step dominates. grid_thermal is not listed in
BENCHMARK.json: on a shared 4-vCPU host its first_decision_p99_ms, the
maximum of ~40 samples, spread beyond the bound. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; with
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones. Build output goes to standard error. The exit code is 0 only when the
run completed and every correctness check passed.

End-to-end times are medians over repetitions, in reference seconds: host
time scaled by how fast a fixed calibration kernel ran meanwhile on the CPUs
the repetition was pinned to (src/host_speed.hpp), so that drifts in
co-tenant load on a shared host do not move them. The same figures in plain
host time are printed above the result line. Per-layer times are host time.

Optional flags for the benchmark's own tests: --lanes L (default 2),
--size small, --queue-depth N.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_loop", "grid_thermal", "fault_campaign", "fleet_serve")
# Fixed lane count for the parallel workloads; never "all hardware threads".
DEFAULT_LANES = 2
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--lanes", type=int, default=DEFAULT_LANES)
    parser.add_argument("--size", choices=("small",))
    parser.add_argument("--queue-depth", type=int)
    return parser.parse_args()


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    build_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = build_root / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "rltherm_perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            subprocess.run(step, check=True, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as error:
            fail(f"build failed: {error}")
    return build_dir / "rltherm_perfbench"


def expected_metrics(trace):
    """Metric name -> unit for this mode, from BENCHMARK.json when present."""
    manifest = ROOT / "BENCHMARK.json"
    if not manifest.is_file():
        return None
    spec = json.loads(manifest.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    args = parse_args()
    binary = build()
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--lanes", str(args.lanes), "--scenario-dir", str(ROOT / "scenarios")]
    if args.size:
        command += ["--size", args.size]
    if args.queue_depth is not None:
        command += ["--queue-depth", str(args.queue_depth)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")

    lines = run.stdout.splitlines()
    if not lines:
        fail(f"{args.workload} printed nothing (exit code {run.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{args.workload} did not end with a JSON result (exit code {run.returncode})")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"unexpected result keys {sorted(result)}")
    expected = expected_metrics(args.trace == "1")
    if expected is not None:
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        if printed != expected:
            fail(f"printed metrics do not match BENCHMARK.json: {sorted(set(printed) ^ set(expected))}")

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
