#!/usr/bin/env python3
"""Tests of the repository benchmark, at small input sizes.

    python3 perfbench/tests/test_perfbench.py

Each case runs perfbench/run.py (which builds the benchmark on first use) and
checks the printed result: every metric named in BENCHMARK.json with its
unit, the layer separation between workloads, failed-operation accounting
under forced admission rejections, and digests that do not depend on the
lane count.
"""

import json
import math
import re
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]
# Runnable but left out of BENCHMARK.json; its traced run still has to show
# that it is the workload where the RC step dominates.
EXTRA_WORKLOADS = ["grid_thermal"]


def run_bench(workload, trace=0, lanes=None, queue_depth=None, seed=7):
    command = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
               "--seconds", "0.5", "--trace", str(trace), "--size", "small"]
    if lanes is not None:
        command += ["--lanes", str(lanes)]
    if queue_depth is not None:
        command += ["--queue-depth", str(queue_depth)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.splitlines()
    if not lines:
        raise AssertionError(f"{workload}: no output\n{done.stderr}")
    result = json.loads(lines[-1])
    digest = re.search(r"^digest ([0-9a-f]{16})", done.stdout, re.MULTILINE)
    return done.returncode, result, digest.group(1) if digest else None


class MetricsTest(unittest.TestCase):
    def check_metrics(self, result, section):
        expected = {m["name"]: m["unit"] for m in MANIFEST[section]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(printed, expected)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
            self.assertTrue(math.isfinite(metric["value"]), name)

    def test_every_metric_is_printed_with_its_unit(self):
        layers = {}
        for workload in WORKLOADS + EXTRA_WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, result, _ = run_bench(workload, trace=trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(sorted(result),
                                     ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.check_metrics(result, section)
                    if trace == 0:
                        for metric in result["metrics"].values():
                            self.assertGreater(metric["value"], 0)
                    else:
                        layers[workload] = {k: v["value"] for k, v in result["metrics"].items()}

        # The workloads separate the layers.
        self.assertGreaterEqual(layers["grid_thermal"]["thermal.rc.step.share"], 0.5)
        self.assertLessEqual(layers["paper_loop"]["thermal.rc.step.share"], 0.3)
        self.assertGreater(layers["fleet_serve"]["serve.submit.calls"], 0)
        self.assertGreater(layers["fleet_serve"]["store.checkpoint.bytes"], 0)
        self.assertGreater(layers["fault_campaign"]["fault.injected"], 0)
        for workload, values in layers.items():
            for name, value in values.items():
                if name.startswith(("serve.", "store.")) and workload != "fleet_serve":
                    self.assertEqual(value, 0, f"{workload} {name}")
                if name.startswith(("fault.", "safety.")) and workload != "fault_campaign":
                    self.assertEqual(value, 0, f"{workload} {name}")

    def test_rejected_admissions_count_as_failed(self):
        _, normal, _ = run_bench("fleet_serve")
        self.assertEqual(normal["failed"], 0)
        _, squeezed, _ = run_bench("fleet_serve", queue_depth=1)
        self.assertGreater(squeezed["failed"], 0)

    def test_digests_do_not_depend_on_lane_count(self):
        for workload in ("fault_campaign", "fleet_serve"):
            with self.subTest(workload=workload):
                _, _, one_lane = run_bench(workload, lanes=1)
                _, _, two_lanes = run_bench(workload, lanes=2)
                self.assertIsNotNone(one_lane)
                self.assertEqual(one_lane, two_lanes)


if __name__ == "__main__":
    unittest.main()
