#!/usr/bin/env python3
"""The benchmark's own tests, on --quick (shrunken) workloads.

    python3 perfbench/test_perfbench.py

Checks that every workload prints every end-to-end and per-layer metric
of BENCHMARK.json with its unit and passes its correctness check, that the
traced spans nest inside their parents with non-negative self times, and
that the benchmark refuses to run without the simulator's sources.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, seed=3, cwd=ROOT):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


class PerfbenchTest(unittest.TestCase):
    def check_result(self, workload, trace, metrics):
        done = run(workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-3000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(
            sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"], done.stderr[-3000:])
        self.assertGreaterEqual(result["attempted"], 1)
        if workload != "rpc_openloop":
            self.assertEqual(result["failed"], 0)
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in metrics))
        for m in metrics:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        return result

    def test_every_workload_prints_every_metric(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                result = self.check_result(w["name"], 0, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0)
                self.check_result(w["name"], 1, SPEC["per_layer"])

    def test_spans_nest_with_nonnegative_self_time(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                done = run(w["name"], 1, seed=4)
                self.assertEqual(done.returncode, 0, done.stderr[-3000:])
                path = os.path.join(ROOT, ".bench_build",
                                    "spans-%s-4.jsonl" % w["name"])
                with open(path) as f:
                    spans = [json.loads(line) for line in f]
                by_id = {s["id"]: s for s in spans}
                names = {s["name"] for s in spans}
                for name in ("instance", "cluster_build", "workload_build",
                             "app_start", "warmup", "window", "slice",
                             "harvest", "invariants"):
                    self.assertIn(name, names)
                for s in spans:
                    self.assertLessEqual(s["start_s"], s["end_s"])
                    self.assertGreaterEqual(s["self_s"], -1e-9, s)
                    if s["parent"] < 0:
                        continue
                    parent = by_id[s["parent"]]
                    self.assertLessEqual(parent["start_s"], s["start_s"], s)
                    self.assertLessEqual(s["end_s"], parent["end_s"], s)
                    self.assertEqual(parent["instance"], s["instance"], s)

    def test_refuses_to_run_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
        done = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"),
             "--workload", "bulk_2host", "--seed", "1", "--seconds", "1",
             "--trace", "0"], cwd=bare, capture_output=True, text=True,
            timeout=180)
        shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
