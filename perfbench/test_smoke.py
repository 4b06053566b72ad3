"""Smoke test for the benchmark: every workload at a tiny size.

Run from the repository root::

    python3 perfbench/test_smoke.py        # or: python3 -m pytest perfbench

Checks that each workload prints every metric ``BENCHMARK.json`` names,
with its unit, in both modes; that a corrupted reference fails the run
with ``output_match`` < 1; that the traced pass's span file adds up to
its wall time; and that the command refuses to run without sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench", "smoke")
sys.path.insert(0, HERE)

from layers import read_spans  # noqa: E402

#: Tiny pass sizes: 1 attack row (8 cells), 10 trials, 300 pages.
TINY = {"table1": 1, "fuzz-diff": 10, "population": 300}


def bench(*args: str, cwd: str = ROOT):
    """Run the benchmark command; returns (exit code, stdout lines)."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        command = json.load(handle)["command"]
    proc = subprocess.run(
        [sys.executable if c == "python3" else c for c in command] + list(args),
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            cls.spec = json.load(handle)
        os.makedirs(SCRATCH, exist_ok=True)

    def run_tiny(self, workload: str, trace: int, *extra: str):
        code, lines = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                            "--trace", str(trace), "--size", str(TINY[workload]), *extra)
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        return code, result

    def test_workloads_print_every_metric(self):
        self.assertEqual(sorted(w["name"] for w in self.spec["workloads"]), sorted(TINY))
        for workload in TINY:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, result = self.run_tiny(workload, trace)
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    wanted = {m["name"]: m["unit"] for m in self.spec[key]}
                    printed = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(printed, wanted)
                    for value in result["metrics"].values():
                        self.assertIsInstance(value["value"], (int, float))
                    if trace == 0:
                        self.assertEqual(result["metrics"]["output_match"]["value"], 1.0)
                    else:
                        self.check_span_file(workload)

    def check_span_file(self, workload: str):
        header, arrays = read_spans(os.path.join(ROOT, ".perfbench", f"spans-{workload}.bin"))
        starts, ends, parents = arrays["start"], arrays["end"], arrays["parent"]
        self.assertGreater(header["count"], 0)
        own = [e - s for s, e in zip(starts, ends)]
        for index, parent in enumerate(parents):
            if parent >= 0:
                self.assertLessEqual(starts[parent], starts[index])
                self.assertLessEqual(ends[index], ends[parent])
                own[parent] -= ends[index] - starts[index]
        self.assertTrue(all(t >= 0 for t in own))
        roots = sum(e - s for p, s, e in zip(parents, starts, ends) if p < 0)
        overhead = header["wall_ns"] - roots
        self.assertGreaterEqual(overhead, 0)
        self.assertEqual(sum(own) + overhead, header["wall_ns"])

    def test_corrupted_reference_fails(self):
        path = os.path.join(SCRATCH, "references.json")
        if os.path.exists(path):
            os.remove(path)
        code, _ = bench("--workload", "fuzz-diff", "--size", "10", "--pin", "3",
                        "--reference", path)
        self.assertEqual(code, 0)
        code, result = self.run_tiny("fuzz-diff", 0, "--reference", path)
        self.assertEqual((code, result["correct"]), (0, True))

        with open(path, encoding="utf-8") as handle:
            references = json.load(handle)
        for entry in references.values():
            entry["digest"] = "0" * 64
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(references, handle)
        code, result = self.run_tiny("fuzz-diff", 0, "--reference", path)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertLess(result["metrics"]["output_match"]["value"], 1.0)

    def test_refuses_without_sources(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in self.spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = bench("--workload", "table1", "--seed", "0", "--seconds", "1",
                            "--trace", "0", cwd=bare)
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])

    def test_fuzz_backstop_matches_cli(self):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        from repro.__main__ import FUZZ_MAX_EVENTS as cli
        from workloads import FUZZ_MAX_EVENTS as ours

        self.assertEqual(ours, cli)


if __name__ == "__main__":
    unittest.main()
