"""Self-test of the benchmark, with every workload at a tiny size.

    python3 bench/selftest.py

It checks three things:
- each workload emits exactly the metrics BENCHMARK.json names, traced and
  untraced, and passes on the program's own outputs;
- a deliberately corrupted output is counted as a failed item.  The
  corruption is one flipped CSV byte for evolve-long and one gap pushed
  past 1e-5 for the other two;
- without ./src the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY_SECONDS = 0.1


def _flip_csv_byte(workload, i, out):
    data = bytearray(workload.csv.read_bytes())
    data[len(data) // 2] ^= 0x01
    workload.csv.write_bytes(bytes(data))


def _push_oracle_gap(workload, i, out):
    out["J"] += 1e-3


def _push_dense_gap(workload, i, out):
    payload = json.loads(out["stdout"])
    payload["classical"] += 1e-3
    out["stdout"] = json.dumps(payload)


CORRUPT = {"oracle-bd": _push_oracle_gap, "dense-analyze": _push_dense_gap, "evolve-long": _flip_csv_byte}


def _on_second_call(corrupt):
    """Corrupt the first timed item only, after an intact warm-up item."""
    calls = []

    def tamper(workload, i, out):
        calls.append(i)
        if len(calls) == 2:
            corrupt(workload, i, out)

    return tamper


def _run(name, trace, tamper=None):
    return run.run_benchmark(name, seed=7, seconds=TINY_SECONDS, trace=trace, tamper=tamper,
                             setup_launches=1, import_launches=1)


class BenchmarkSelfTest(unittest.TestCase):
    def test_every_metric_emitted_and_outputs_correct(self):
        for name in run.WORKLOADS:
            for trace, section in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    result, report = _run(name, trace)
                    self.assertEqual(report["failures"], [])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    expected = {m["name"]: m["unit"] for m in SPEC[section]}
                    emitted = {key: m["unit"] for key, m in result["metrics"].items()}
                    self.assertEqual(emitted, expected)

    def test_corrupted_output_is_a_failed_item(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                result, report = _run(name, False, _on_second_call(CORRUPT[name]))
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], 1)
                self.assertEqual(report["failures"][0]["item"], 0)

    def test_exits_nonzero_without_sources(self):
        with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=run.ROOT) as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(Path(run.__file__).parent, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "oracle-bd", "--seed", "1",
                                   "--seconds", "1", "--trace", "0"],
                                  cwd=tmp, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
