"""Self-tests of the benchmark: BENCHMARK.json against its contract, the
C++ self-test, metric names the benchmark binary prints, the correctness gate's
corrupted-reference self-test, and failure outside a full checkout.

    python3 -m unittest discover -s perfbench/tests -v

Run from the root of a checkout.  The metric and gate tests build the
benchmark (as run.py does) and run every workload briefly: a few minutes.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
CHECKOUT = BENCH.parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402  (perfbench/run.py)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")


def load_spec():
    return json.loads((CHECKOUT / "BENCHMARK.json").read_text())


def run_bench(binary, workload, trace, extra=()):
    done = subprocess.run(
        [str(binary), "--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), *extra],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=300, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


class ContractTest(unittest.TestCase):
    def test_keys_and_limits(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertLessEqual(len((CHECKOUT / "BENCHMARK.json").read_bytes()),
                             64 * 1024)
        self.assertTrue(1 <= len(spec["paths"]) <= 16)
        for p in spec["paths"]:
            self.assertRegex(p, PATH)
            self.assertFalse(p.startswith("/") or ".." in p.split("/"))
        self.assertTrue(len(spec["command"]) <= 32)
        for arg in spec["command"]:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/") or ".." in arg.split("/"))
        self.assertIsInstance(spec["run_seconds"], int)
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        self.assertTrue(1 <= len(spec["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(spec["per_layer"]) <= 128)

    def test_names_units_bounds(self):
        spec = load_spec()
        names = []
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            names.append(w["name"])
        self.assertEqual(tuple(names), run.WORKLOADS)
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        metrics = spec["end_to_end"] + spec["per_layer"]
        for m in metrics:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)), "names used once")
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


class BinaryTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out = run.build_dir()
        cls.binary = run.build(cls.out)

    def test_selftest_binary(self):
        subprocess.run([str(self.out / "perfbench_selftest")], check=True,
                       timeout=60)

    def test_metric_names_match_spec(self):
        spec = load_spec()
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            expected = {m["name"]: m["unit"] for m in listed}
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    result = run_bench(self.binary, workload, trace)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)

    def test_corrupted_reference_fails_the_gate(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = run_bench(self.binary, workload, 0,
                                    ("--corrupt-reference",))
                self.assertFalse(result["correct"])

    def test_fails_without_the_program_sources(self):
        bare = self.out / "bare_checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(CHECKOUT / "BENCHMARK.json", bare)
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "meta_storm",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, timeout=180, check=False)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
