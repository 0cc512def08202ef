"""The benchmark's own tests.

Run from the repository root::

    python3 perfbench/selftest.py

A tiny-size pass of every workload, untraced and traced, must emit
exactly the metrics ``BENCHMARK.json`` names, with their units, and
report no failure; tampered records, a lost set-up stamp and a kernel
rate outside the ledger band must fail the checks and show in
``error_rate``; the exact work counts must repeat for one seed;
comparisons of different workload definitions are refused; and without
the program beside it the benchmark exits non-zero without a result.
The file name keeps it out of the repository's pytest collection.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from argparse import Namespace
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Per-layer metrics that are exact work counts, identical for one seed.
EXACT = (
    "golden.instr_per_fault",
    "golden.restores_per_fault",
    "golden.prefix_replayed_per_fault",
    "records.bytes_per_fault",
    "pgolden.cycles_per_fault",
)


def tiny(workload: str, trace: int, seed: int = 7, tamper=None) -> dict:
    args = Namespace(workload=workload, seed=seed, seconds=1, trace=trace)
    return run.run(args, size="tiny", tamper=tamper)


def rewrite_records(path: str, change, record_type: str = "record") -> None:
    """Apply *change* to every *record_type* line of a results file in place."""
    with open(path, encoding="utf-8") as handle:
        lines = [json.loads(line) for line in handle]
    with open(path, "w", encoding="utf-8") as handle:
        for line in lines:
            if line.get("type") == record_type:
                change(line)
            handle.write(json.dumps(line, sort_keys=True, separators=(",", ":")) + "\n")


class MetricsTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            cls.bench = json.load(handle)

    def expect(self, section: str) -> dict[str, str]:
        return {metric["name"]: metric["unit"] for metric in self.bench[section]}

    def test_workloads_match_benchmark_json(self):
        self.assertEqual(
            sorted(workload["name"] for workload in self.bench["workloads"]),
            sorted(WORKLOADS),
        )

    def test_every_workload_emits_every_metric(self):
        for workload in WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = tiny(workload, trace)
                    self.assertEqual(result["failed"], 0, result["problems"])
                    self.assertGreater(result["attempted"], 0)
                    emitted = {
                        name: entry["unit"] for name, entry in result["metrics"].items()
                    }
                    self.assertEqual(emitted, self.expect(section))
                    if trace == 0:
                        for name, entry in result["metrics"].items():
                            self.assertGreater(entry["value"], 0, name)

    def test_exact_counts_repeat_for_one_seed(self):
        for workload in ("campaign-golden", "campaign-pipeline"):
            with self.subTest(workload=workload):
                first, second = tiny(workload, 1), tiny(workload, 1)
                for name in EXACT:
                    self.assertEqual(
                        first["metrics"][name]["value"], second["metrics"][name]["value"], name
                    )


class NegativeTest(unittest.TestCase):
    def test_tampered_outcome_fails(self):
        def flip(op):
            rewrite_records(op.out, lambda line: line.update(
                outcome="silent-corruption" if line["index"] == 0 else line["outcome"]
            ))

        result = tiny("campaign-golden", 0, tamper=flip)
        self.assertGreater(result["failed"], 0)
        self.assertGreater(result["error_rate"], 0)

    def test_tampered_detail_fails_the_oracle(self):
        def reword(op):
            rewrite_records(op.out, lambda line: line.update(detail=line["detail"] + "!"))

        result = tiny("campaign-pipeline", 0, tamper=reword)
        self.assertGreater(result["failed"], 0)
        self.assertTrue(any("oracle" in problem for problem in result["problems"]))

    def test_tampered_point_fails(self):
        def shift(op):
            rewrite_records(op.out, lambda line: line["objectives"].update(miss_rate=-1.0),
                            record_type="point")

        result = tiny("dse-sweep", 0, tamper=shift)
        self.assertGreater(result["failed"], 0)

    def test_tampered_service_job_fails(self):
        def drop(watched):
            watched["records"] = watched["records"][1:]

        result = tiny("campaign-golden", 1, tamper=drop_service(drop))
        self.assertGreater(result["failed"], 0)
        self.assertTrue(any("service job" in problem for problem in result["problems"]))

    def test_unstamped_set_up_fails(self):
        def unstamp(op):
            os.remove(op.cli.report_path + ".kernel")

        result = tiny("campaign-golden", 0, tamper=unstamp)
        self.assertGreater(result["failed"], 0)
        self.assertNotIn("setup_s", result["metrics"])
        self.assertTrue(any("set-up time is unknown" in problem
                            for problem in result["problems"]))

    def test_kernel_outside_the_model_band_fails(self):
        with mock.patch.object(layers, "KERNEL_MODEL_BAND", (10.0, 11.0)):
            result = tiny("campaign-golden", 1, tamper=drop_service(lambda watched: None))
        self.assertGreater(result["failed"], 0)
        self.assertTrue(any("outside the band" in problem for problem in result["problems"]))


def drop_service(change):
    """A tamper hook that touches only service jobs (dicts), not CLI ops."""
    return lambda target: change(target) if isinstance(target, dict) else None


class CompareTest(unittest.TestCase):
    def result_set(self, fingerprint: str, value: float) -> dict:
        return {
            "definition": {"fingerprint": fingerprint, "workload": "w"},
            "host": {"nproc": 2},
            "failed": 0,
            "metrics": {"ops_per_s": {"value": value, "unit": "1/s"}},
        }

    def test_refuses_different_definitions(self):
        self.assertEqual(
            compare.compare([self.result_set("a", 1.0)], [self.result_set("b", 1.0)]), 1
        )

    def test_compares_equal_definitions(self):
        self.assertEqual(
            compare.compare([self.result_set("a", 1.0)], [self.result_set("a", 2.0)]), 0
        )


class StandaloneTest(unittest.TestCase):
    def test_fails_without_the_program(self):
        bare = os.path.join(ROOT, ".perfbench", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "campaign-golden",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
