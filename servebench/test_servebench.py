#!/usr/bin/env python3
"""Tests of the serving benchmark itself, on the tiny inputs.

Run from the repository root (builds the benchmark first if needed):

    python3 servebench/test_servebench.py

Checks that every workload emits every metric BENCHMARK.json names with
its unit, that each kind of corrupted answer trips the correctness checks
it should (each check named), that the
answer digest does not depend on the session's pool size, and that the
benchmark fails cleanly without the library sources.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, str(HERE))
import run  # noqa: E402

TINY_OPS = 24  # whole rounds of every workload (rounds of 24, 8 and 6 ops)

# (workload, traced, --corrupt kind, checks that must report a violation)
CORRUPTIONS = [
    ("warm-serve", False, "flow", {"theorem6"}),
    ("warm-serve", True, "flow", {"theorem6", "rebuild_flow"}),
    ("warm-serve", False, "lp", {"lp_lift"}),
    ("warm-serve", True, "lp", {"lp_lift", "rebuild_lp"}),
    ("warm-serve", False, "centrality", {"centrality_scores"}),
    ("warm-serve", True, "centrality",
     {"centrality_scores", "rebuild_centrality"}),
    ("warm-serve", True, "coloring", {"rebuild_partition"}),
    ("warm-serve", False, "cache", {"warm_all_hit"}),
    ("cold-compress", False, "flow", {"theorem6"}),
    ("cold-compress", True, "flow", {"theorem6", "rebuild_flow"}),
    ("cold-compress", False, "coloring", {"pinned_singleton"}),
    ("cold-compress", False, "resume", {"resume_refines"}),
    ("cold-compress", False, "lp", {"lp_lift"}),
    ("edit-churn", False, "flow", {"edit_fresh_equal"}),
    ("edit-churn", False, "coloring", {"edit_fresh_equal", "edit_q_bound"}),
    ("edit-churn", True, "edit", {"rebuild_edit"}),
]


def declared_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def run_bench(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--tiny", "--ops", str(TINY_OPS), "--trace",
         str(trace)] + list(extra),
        stdout=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def serve(workload, workdir, *extra):
    """Runs the binary's serve step directly; returns (exit code, report)."""
    proc = subprocess.run(
        [str(run.BINARY), "serve", "--workload", workload, "--seed", "3",
         "--tiny", "--dir", str(workdir), "--ops", str(TINY_OPS)]
        + list(extra),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


class ServeBenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.end_to_end, cls.per_layer, cls.workloads = declared_metrics()
        cls.work = run.BUILD / "test-work"
        shutil.rmtree(cls.work, ignore_errors=True)
        for workload in cls.workloads:
            d = cls.work / workload
            d.mkdir(parents=True)
            subprocess.run([str(run.BINARY), "gen", "--workload", workload,
                            "--seed", "3", "--tiny", "--dir", str(d),
                            "--batches", "12"], check=True, timeout=170)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def test_workloads_match_the_binary(self):
        self.assertEqual(sorted(self.workloads), sorted(run.WORKLOADS))

    def test_every_metric_with_its_unit(self):
        for workload in self.workloads:
            for trace, declared in ((0, self.end_to_end), (1, self.per_layer)):
                with self.subTest(workload=workload, trace=trace):
                    code, details, result = run_bench(workload, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    ops = TINY_OPS * (run.PROCESSES if trace == 0 else 1)
                    self.assertEqual(result["attempted"], ops)
                    self.assertEqual(result["failed"], 0)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, declared)
                    for name, metric in result["metrics"].items():
                        self.assertIsInstance(metric["value"], (int, float),
                                              name)
                    self.assertIn("digest", details["details"])
                    self.assertIn("sizes", details["details"])
                    if trace == 0:
                        for name in self.end_to_end:
                            self.assertGreater(
                                result["metrics"][name]["value"], 0, name)

    def test_corrupted_answer_trips_the_checks(self):
        for workload, traced, kind, checks in CORRUPTIONS:
            with self.subTest(workload=workload, traced=traced, kind=kind):
                code, report = serve(workload, self.work / workload,
                                     "--corrupt", kind,
                                     *(["--trace"] if traced else []))
                self.assertEqual(code, 1)
                self.assertFalse(report["correct"])
                tripped = set(report["details"]["violations_by_check"])
                self.assertLessEqual(checks, tripped)

    def test_corruptions_reach_every_check(self):
        named = set().union(*(checks for *_, checks in CORRUPTIONS))
        self.assertLessEqual(
            {"theorem6", "lp_lift", "centrality_scores", "pinned_singleton",
             "resume_refines", "warm_all_hit", "edit_fresh_equal",
             "edit_q_bound", "rebuild_flow", "rebuild_partition",
             "rebuild_centrality", "rebuild_lp", "rebuild_edit"}, named)

    def test_digest_independent_of_pool_size(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                digests = set()
                for threads in ("1", "2"):
                    for traced in ([], ["--trace"]):
                        code, report = serve(workload, self.work / workload,
                                             "--threads", threads, *traced)
                        self.assertEqual(code, 0)
                        digests.add(report["details"]["digest"])
                self.assertEqual(len(digests), 1, digests)

    def test_fails_without_the_library_sources(self):
        # A copy holding only BENCHMARK.json and the benchmark directory.
        alone = run.BUILD / "test-alone"
        shutil.rmtree(alone, ignore_errors=True)
        alone.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", alone)
        shutil.copytree(HERE, alone / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = subprocess.run(
                [sys.executable, str(alone / HERE.name / "run.py"),
                 "--workload", "warm-serve", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=alone, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(alone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
