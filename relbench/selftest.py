"""Toy-size self-test of the benchmark command.

Run from the repository root::

    python3 relbench/selftest.py

Drives every workload end to end on the toy graph (untraced and traced),
checks that a deliberately perturbed answer makes the correctness gate
fail the run (exit 3, ``"correct": false``), and that a checkout without
the program exits 2 without printing a result.  Needs only the standard
library, numpy and scipy.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from gate import check_ranking  # noqa: E402
from run import WORKLOADS  # noqa: E402  (every workload, listed or not)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--seed", "7", "--seconds", "1",
         "--size", "toy", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc, result


class WorkloadsRunEndToEnd(unittest.TestCase):
    def check(self, workload: str, trace: str) -> None:
        proc, result = bench("--workload", workload, "--trace", trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
        self.assertEqual(set(result["metrics"]),
                         {entry["name"] for entry in listed})
        for entry in listed:
            metric = result["metrics"][entry["name"]]
            self.assertEqual(metric["unit"], entry["unit"])
            self.assertIsInstance(metric["value"], float)
        if trace == "0":
            for name, metric in result["metrics"].items():
                self.assertGreater(metric["value"], 0.0, name)

    def test_untraced(self) -> None:
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, "0")

    def test_traced(self) -> None:
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, "1")


class GateRejectsPerturbedScores(unittest.TestCase):
    def test_perturbed_answer_fails_the_run(self) -> None:
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc, result = bench("--workload", workload, "--trace", "0",
                                     "--perturb")
                self.assertEqual(proc.returncode, 3, proc.stderr[-3000:])
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertIn("problem:", proc.stdout)

    def test_gate_tolerances(self) -> None:
        keys = ["a", "b", "c"]
        scores = [0.5, 0.5, 0.25]
        self.assertIsNone(check_ranking(scores, keys, [("a", 0.5), ("b", 0.5)], 2))
        # Equal scores may come in either order; a wrong score may not.
        self.assertIsNone(check_ranking(scores, keys, [("b", 0.5), ("a", 0.5)], 2))
        self.assertIsNotNone(
            check_ranking(scores, keys, [("a", 0.5), ("c", 0.25)], 2))
        self.assertIsNotNone(
            check_ranking(scores, keys, [("a", 0.5 + 1e-6), ("b", 0.5)], 2))


class BrokenCheckoutExitsWithoutResult(unittest.TestCase):
    def test_missing_program(self) -> None:
        (ROOT / ".relbench").mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".relbench"))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc, result = bench("--workload", WORKLOADS[0], "--trace", "0",
                                 cwd=bare, script=bare / HERE.name / "run.py")
            self.assertEqual(proc.returncode, 2)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
