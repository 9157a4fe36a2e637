#!/usr/bin/env python3
"""Tests of the benchmark itself: its spec, its failure without sources, and
the determinism of its workloads.

    python3 perfbench/test_perfbench.py        (about 2 minutes; builds first)
"""

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


class SpecTest(unittest.TestCase):
    def test_benchmark_json_is_generated_from_the_tables(self):
        committed = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(committed, run.spec())

    def test_binary_declares_the_per_layer_table(self):
        source = (HERE / "main.cpp").read_text()
        block = source[source.index("kLayerMetrics[]"):]
        block = block[:block.index("};")]
        declared = re.findall(r'\{"([^"]+)", "([^"]+)"\}', block)
        self.assertEqual(declared,
                         [(m["name"], m["unit"]) for m in run.PER_LAYER])

    def test_setup_has_the_widest_bound(self):
        bounds = {m["name"]: m["bound"] for m in run.END_TO_END}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class WithoutSourcesTest(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        # A directory holding only BENCHMARK.json and the benchmark's files.
        alone = run.ROOT / ".bench_build" / "alone"
        shutil.rmtree(alone, ignore_errors=True)
        shutil.copytree(HERE, alone / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", alone)
        try:
            proc = subprocess.run(
                ["python3", "perfbench/run.py", "--workload", "hunt",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=alone, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(alone, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class DeterminismTest(unittest.TestCase):
    def test_work_is_identical_across_orders_and_worker_counts(self):
        proc = subprocess.run(["python3", str(HERE / "run.py"), "--selftest"],
                              capture_output=True, text=True, timeout=1200)
        print(proc.stdout)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("selftest: PASS", proc.stdout)


if __name__ == "__main__":
    unittest.main()
