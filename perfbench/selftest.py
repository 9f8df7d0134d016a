#!/usr/bin/env python3
"""Self-tests of the benchmark, on smoke runs (a few requests per workload).

Run from the repository root:

    python3 perfbench/selftest.py

Checks that every metric of BENCHMARK.json is printed by name with its unit,
that the traced run's span file parses, that counts and simulated times
repeat exactly for one seed, that a flipped output bit fails the run, and
that the benchmark refuses to run without the library sources.
"""
import functools
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
# Every workload ctb_perfbench runs; BENCHMARK.json gates a subset of them.
WORKLOADS = ("inception-infer", "inception-train", "serve-churn")
SPAN_NAMES = {"request", "service.get", "kernels.execute", "dnn.im2col",
              "dnn.col2im"}


def invoke(root, workload, seed, trace, *extra):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


@functools.lru_cache(maxsize=None)
def smoke(workload, seed, trace, extra=(), repeat=0):
    """(exit code, result object, provenance) of one smoke run; `repeat`
    tells apart runs that must not share the cache."""
    proc = invoke(ROOT, workload, seed, trace, "--smoke", *extra)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise AssertionError("no result from %s:\n%s" % (workload, proc.stderr))
    return (proc.returncode, json.loads(lines[-1]),
            json.loads(lines[-2])["provenance"])


def spec_units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def exact(metric_name, unit):
    """Per-layer metrics that must repeat exactly for one seed: work counts,
    hit ratio, and everything computed by the simulator."""
    return (unit in ("count", "B") or metric_name == "service.hit_ratio"
            or metric_name.startswith(("gpusim.", "baselines.")))


class SmokeTest(unittest.TestCase):
    def test_gated_workloads_are_known_workloads(self):
        self.assertLessEqual({w["name"] for w in SPEC["workloads"]},
                             set(WORKLOADS))

    def check_metrics(self, result, kind):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(units, spec_units(kind))
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_untraced_run_prints_every_end_to_end_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, res, prov = smoke(w, 1, 0)
                self.assertEqual(rc, 0)
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                self.check_metrics(res, "end_to_end")
                self.assertEqual(res["metrics"]["ok_rate"]["value"], 1)
                for key in ("seed", "isa", "worker_threads", "nproc",
                            "telemetry_compiled_in", "commit"):
                    self.assertIn(key, prov)
                self.assertEqual(prov["worker_threads"], 1)

    def test_traced_run_prints_every_per_layer_metric_and_spans(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, res, prov = smoke(w, 1, 1)
                self.assertEqual(rc, 0)
                self.assertTrue(res["correct"])
                self.check_metrics(res, "per_layer")
                path = os.path.join(ROOT, os.environ.get(
                    "CARGO_TARGET_DIR") or ".bench_build", "perfbench",
                    "spans", "%s-seed1.json" % w)
                with open(path) as f:
                    doc = json.load(f)
                self.assertEqual(doc["provenance"]["workload"], w)
                cols = doc["columns"]
                spans = [dict(zip(cols, s)) for s in doc["spans"]]
                self.assertTrue(spans)
                for i, s in enumerate(spans):
                    self.assertIn(s["name"], SPAN_NAMES)
                    self.assertLessEqual(s["start_us"], s["end_us"])
                    self.assertLess(s["parent"], i)
                    if s["parent"] >= 0:
                        p = spans[s["parent"]]
                        self.assertEqual(p["request"], s["request"])
                        self.assertLessEqual(p["start_us"], s["start_us"])
                        self.assertGreaterEqual(p["end_us"], s["end_us"])
                self.assertEqual(
                    sum(s["name"] == "service.get" for s in spans),
                    res["metrics"]["service.get.calls"]["value"])

    def test_counts_and_sim_values_repeat_exactly_for_one_seed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                traced = [smoke(w, 1, 1)[1]["metrics"],
                          smoke(w, 1, 1, repeat=1)[1]["metrics"]]
                for name, m in traced[0].items():
                    if exact(name, m["unit"]):
                        self.assertEqual(m["value"], traced[1][name]["value"],
                                         name)
                untraced = [smoke(w, 1, 0)[1]["metrics"],
                            smoke(w, 1, 0, repeat=1)[1]["metrics"]]
                for name in ("sim_speedup_vs_vbatch", "sim_us_per_req"):
                    self.assertEqual(untraced[0][name], untraced[1][name], name)

    def test_second_seed_gives_same_metrics_and_correct_outputs(self):
        for w in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    rc, res, _ = smoke(w, 2, trace)
                    self.assertEqual(rc, 0)
                    self.assertTrue(res["correct"])
                    self.assertEqual(set(res["metrics"]),
                                     set(smoke(w, 1, trace)[1]["metrics"]))
                    if trace == 0:
                        self.assertEqual(res["metrics"]["ok_rate"]["value"], 1)

    def test_flipped_output_bit_fails_the_run(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, res, _ = smoke(w, 1, 0, ("--flip-bit",))
                self.assertNotEqual(rc, 0)
                self.assertFalse(res["correct"])
                self.assertGreaterEqual(res["failed"], 1)
                self.assertLess(res["metrics"]["ok_rate"]["value"], 1)

    def test_refuses_to_run_without_library_sources(self):
        bare = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                            or ".bench_build", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = invoke(bare, WORKLOADS[0], 1, 0)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
