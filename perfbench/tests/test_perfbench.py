#!/usr/bin/env python3
"""Self-test of the benchmark, at the self-test's tiny populations.

    python3 -m unittest discover -s perfbench/tests -v

Runs perfbench/run.py as the benchmark driver does (so the first test
also builds it) and checks that:
  - every workload prints every metric BENCHMARK.json names, with its
    unit, traced and untraced;
  - the deterministic counts repeat exactly from run to run;
  - a corrupted reference digest is reported as a failed operation, and
    compare.py refuses results from different build types.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
RUN = BENCH / "run.py"
WORKLOADS = ("reproduce", "study_fx8", "study_fx64")
DETERMINISTIC = ("instr.ff_", "fx8.", "cache.", "os.vm_faults",
                 "os.jobs_completed", "artifacts.private_runs",
                 "artifacts.study_runs", "artifacts.transition_runs")


def run(workload, trace, seed=0, references=None):
    """One tiny run; returns (full stdout, parsed result line)."""
    command = [sys.executable, str(RUN), "--workload", workload, "--seed",
               str(seed), "--seconds", "0.5", "--trace", str(trace),
               "--scale", "tiny"]
    if references is not None:
        command += ["--references", str(references)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          check=True)
    return done.stdout, json.loads(done.stdout.splitlines()[-1])


class Metrics(unittest.TestCase):
    def test_every_workload_prints_every_named_metric(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    stdout, result = run(workload, trace)
                    self.assertTrue(stdout.startswith("manifest: "))
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    expected = {m["name"]: m["unit"] for m in spec[key]}
                    printed = {name: value["unit"] for name, value in
                               result["metrics"].items()}
                    self.assertEqual(printed, expected)
                    lines = {line.split()[0]: line.split()[-1]
                             for line in stdout.splitlines()
                             if line.startswith("  ")}
                    self.assertEqual(lines, expected)


class Determinism(unittest.TestCase):
    def test_counts_repeat_exactly(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, first = run(workload, 1, seed=3)
                _, second = run(workload, 1, seed=3)
                counts = [name for name in first["metrics"]
                          if name.startswith(DETERMINISTIC)]
                self.assertTrue(counts)
                for name in counts:
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"], name)


class Correctness(unittest.TestCase):
    def test_corrupted_reference_digest_fails_one_operation_per_pass(self):
        references = json.loads((BENCH / "references.json").read_text())
        digests = references["tiny"]["study_fx8"]["0"]["digests"]
        session = sorted(digests)[0]
        digests[session] = "0" * 16
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
            corrupted = Path(tmp) / "references.json"
            corrupted.write_text(json.dumps(references))
            _, result = run("study_fx8", 0, references=corrupted)
        passes = result["attempted"] // 9
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], passes)

    def test_compare_refuses_mixed_build_types(self):
        stdout, _ = run("study_fx8", 0)
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
            a, b = Path(tmp) / "a.log", Path(tmp) / "b.log"
            a.write_text(stdout)
            b.write_text(stdout.replace('"build_type": "RelWithDebInfo"',
                                        '"build_type": "Release"'))
            same = subprocess.run([sys.executable, str(BENCH / "compare.py"),
                                   str(a), str(a)], capture_output=True)
            mixed = subprocess.run([sys.executable, str(BENCH / "compare.py"),
                                    str(a), str(b)], capture_output=True)
        self.assertEqual(same.returncode, 0)
        self.assertEqual(mixed.returncode, 2)


if __name__ == "__main__":
    unittest.main()
