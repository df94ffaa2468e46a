"""Self-tests of the benchmark itself (not of permpat).

    python3 perfbench/selftest.py

Runs every workload at smoke size, checks that the printed metric and
workload names match BENCHMARK.json, that a wrong reference fails the
run, that a seed fixes the job list and the traced call counts, and that
the benchmark refuses to run without the program's source.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
import types
import unittest
from pathlib import Path

import child
import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


def smoke(workload: str, trace: int, seed: int = 3) -> dict:
    code, lines = bench("--workload", workload, "--seed", str(seed),
                        "--seconds", "1", "--trace", str(trace), "--smoke")
    assert code == 0, lines[-2:]
    return json.loads(lines[-1])


class BenchmarkTest(unittest.TestCase):

    def test_workload_names_match_spec(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(workloads.WORKLOADS))

    def test_smoke_runs_report_the_spec_metrics(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in workloads.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    out = smoke(workload, trace)
                    self.assertEqual(set(out), {"correct", "attempted",
                                                "failed", "metrics"})
                    self.assertTrue(out["correct"])
                    self.assertEqual(out["failed"], 0)
                    self.assertGreaterEqual(out["attempted"], 1)
                    self.assertEqual({n: m["unit"] for n, m
                                      in out["metrics"].items()}, expected)
                    for name, m in out["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)
                        self.assertNotIsInstance(m["value"], bool, name)
                        self.assertTrue(math.isfinite(m["value"]), name)
                        if trace == 0:
                            self.assertGreater(m["value"], 0, name)

    def test_wrong_reference_fails_the_run(self):
        key = ("census", "12", 2, 2)
        saved = workloads.PINNED[key]
        workloads.PINNED[key] = saved + 1
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = run.main(["--workload", "census", "--smoke",
                                 "--seconds", "1"])
        finally:
            workloads.PINNED[key] = saved
        out = json.loads(buf.getvalue().splitlines()[-1])
        self.assertEqual(code, 1)
        self.assertFalse(out["correct"])
        self.assertGreater(out["failed"], 0)

    def test_seed_fixes_jobs_and_traced_counts(self):
        for workload in workloads.WORKLOADS:
            self.assertEqual(workloads.build_jobs(workload, 7, smoke=True),
                             workloads.build_jobs(workload, 7, smoke=True))
        self.assertNotEqual(workloads.build_jobs("query", 7),
                            workloads.build_jobs("query", 8))

        def counts(out):
            return {n: m["value"] for n, m in out["metrics"].items()
                    if n.endswith((".calls", ".hit_ratio"))}
        self.assertEqual(counts(smoke("query", 1, seed=5)),
                         counts(smoke("query", 1, seed=5)))

    def test_missing_program_exits_nonzero_without_result(self):
        with tempfile.TemporaryDirectory(dir=ROOT,
                                         prefix=".perfbench-selftest-") as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, lines = bench("--workload", "count", "--seconds", "1",
                                cwd=bare)
        self.assertNotEqual(code, 0)
        self.assertFalse(any(line.startswith('{"correct"') for line in lines))

    def test_missing_wrapped_name_is_reported_absent(self):
        tracer = child.Tracer()
        tracer.wrap(types.SimpleNamespace(), "_occurs_using_final",
                    "words.occurs_final", bool)
        self.assertEqual(tracer.absent, ["words.occurs_final"])
        one_pass = {"wall_s": 1.0, "scale": 1.0,
                    "layers": {"spans": {}, "absent": tracer.absent}}
        values, extra = run.layer_metrics([one_pass], [one_pass], [], [0.1],
                                          0.1)
        self.assertEqual(extra["absent_layers"], ["words.occurs_final"])
        for name in ("calls", "s", "hit_ratio"):
            self.assertEqual(values[f"words.occurs_final.{name}"], 0)
        self.assertEqual(values["counting.nodes_per_avoider"], 0)
        self.assertEqual(values["bigraphs.from_mask.calls"], 0)

    def test_closed_forms_match_known_values(self):
        self.assertEqual([workloads.catalan(n) for n in range(1, 9)],
                         [1, 2, 5, 14, 42, 132, 429, 1430])
        self.assertEqual([workloads.gessel_1234(n) for n in range(1, 9)],
                         [1, 2, 6, 23, 103, 513, 2761, 15767])
        self.assertEqual([workloads.bona_1342(n) for n in range(1, 10)],
                         [1, 2, 6, 23, 103, 512, 2740, 15485, 91245])
        self.assertEqual([workloads.stirling_212(n, 2) for n in range(1, 6)],
                         [1, 3, 15, 105, 945])
        self.assertEqual([workloads.furedi_hajnal(n, 2) for n in (2, 5)],
                         [3, 9])


if __name__ == "__main__":
    unittest.main()
