"""Self-test of the benchmark itself (not part of the package's test suite).

    python3 bench/selftest.py

Checks that every work counter of the traced run repeats exactly between
two runs with the same seed, that those runs verify clean, and that the
runner (run.py) refuses to run, without printing a result, in a directory that
holds only BENCHMARK.json and bench/. Takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# per-layer metrics that are timings, not counts of work
TIMED = {"checker.parallel_speedup", "trace.overhead"}


def run(cwd: Path, workload: str, seed: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


class BenchmarkSelfTest(unittest.TestCase):
    def test_counters_repeat_exactly(self) -> None:
        counters = [m["name"] for m in SPEC["per_layer"]
                    if m["unit"] not in ("s", "ns") and m["name"] not in TIMED]
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                results = []
                for _ in range(2):
                    proc = run(ROOT, w["name"], 7)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    results.append({k: result["metrics"][k]["value"] for k in counters})
                self.assertEqual(results[0], results[1])

    def test_fails_without_the_program(self) -> None:
        scratch = ROOT / ".bench_tmp"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run(Path(tmp), SPEC["workloads"][0]["name"], 1)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
