#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

    python3 -B perfbench/test_perfbench.py

Each test drives perfbench/run.py on short horizons, so the first test to
run also builds the binary.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIMULATED = ("avg_cost", "delivered_frac", "mean_backlog_pkts")


def run(*args, cwd=ROOT):
    """Runs the benchmark in `cwd`; returns the finished process."""
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *map(str, args)], cwd=cwd,
        capture_output=True, text=True, timeout=600)


def bench(*args, cwd=ROOT):
    """Runs the benchmark in `cwd`; returns (exit code, parsed last stdout
    line or None)."""
    p = run(*args, cwd=cwd)
    lines = p.stdout.strip().splitlines()
    return p.returncode, (json.loads(lines[-1]) if lines else None)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_short_runs_emit_exactly_the_declared_metrics(self):
        names = [w["name"] for w in self.spec["workloads"]] + ["hex-500"]
        for workload in names:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, out = bench("--workload", workload, "--seed", 3,
                                      "--seconds", 0, "--trace", trace,
                                      "--slots", 3, "--sims", 1)
                    self.assertEqual(code, 0)
                    self.assertTrue(out["correct"])
                    self.assertEqual(out["failed"], 0)
                    self.assertGreaterEqual(out["attempted"], 3)
                    declared = {m["name"]: m["unit"] for m in self.spec[key]}
                    emitted = {k: v["unit"] for k, v in out["metrics"].items()}
                    self.assertEqual(emitted, declared)

    def test_seed_reaches_the_program(self):
        runs = {seed: bench("--workload", "paper-baseline", "--seed", seed,
                            "--seconds", 0, "--slots", 40, "--sims", 2)
                for seed in (7, 8)}
        again = bench("--workload", "paper-baseline", "--seed", 7,
                      "--seconds", 0, "--slots", 40, "--sims", 2)
        value = {seed: {k: out["metrics"][k]["value"] for k in SIMULATED}
                 for seed, (_, out) in runs.items()}
        self.assertNotEqual(value[7], value[8])
        self.assertEqual(
            value[7], {k: again[1]["metrics"][k]["value"] for k in SIMULATED})

    def test_injected_decision_mismatch_fails_the_replay_check(self):
        code, out = bench("--workload", "paper-baseline", "--seconds", 0,
                          "--trace", 1, "--slots", 10, "--inject-mismatch", 4)
        self.assertEqual(code, 1)
        self.assertFalse(out["correct"])
        self.assertEqual(out["metrics"]["replay.mismatch_slots"]["value"], 1)

    def test_delivered_beyond_admitted_fails_the_run(self):
        # The program's delivered count includes packets the queue law
        # creates (README.md, "Known failure"); on this input seed it
        # exceeds the admitted count, and the check must fail the run.
        p = run("--workload", "paper-baseline", "--seed", 152456876,
                "--sims", 1, "--seconds", 0)
        self.assertEqual(p.returncode, 1)
        self.assertFalse(json.loads(p.stdout.strip().splitlines()[-1])
                         ["correct"])
        self.assertIn("delivered exceeds admitted packets", p.stderr)

    def test_usage_errors_print_no_result(self):
        for args in (("--workload", "nope"), ("--workload", "flash-crowd",
                                              "--trace", 2)):
            with self.subTest(args=args):
                code, out = bench(*args)
                self.assertEqual(code, 2)
                self.assertIsNone(out)

    def test_fails_without_the_library_sources(self):
        # Inside the (ignored) build tree, so the test writes only under
        # the checkout.
        os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
        with tempfile.TemporaryDirectory(
                dir=os.path.join(ROOT, ".bench_build")) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, out = bench("--workload", "paper-baseline", cwd=tmp)
            self.assertNotEqual(code, 0)
            self.assertIsNone(out)


if __name__ == "__main__":
    unittest.main()
