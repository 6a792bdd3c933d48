"""Self-tests of the benchmark.

    python3 bench/selftest.py        # about 70 s on one core

The file name keeps it out of the repository's pytest collection: these
tests run whole workloads in child processes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from unittest import mock
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run as bench_run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# counts that must repeat exactly between runs at one seed
REPEATABLE = (".work", ".nodes", ".words", "cyclic.mu.computed", "gf.field_ctx.misses")

_children = {}


def child(workload, seed, trace):
    key = (workload, seed, trace)
    if key not in _children:
        _children[key] = bench_run.run_child(workload, seed, trace)
    return _children[key]


class WorkloadRuns(unittest.TestCase):
    def test_checks_pass_and_trace_changes_no_output(self):
        for w in workloads.WORKLOADS:
            off, on = child(w, 1, 0), child(w, 1, 1)
            self.assertEqual(off["failures"], [], w)
            self.assertGreater(off["attempted"], 0, w)
            self.assertGreaterEqual(len(off["calibration_s"]), 2, w)
            self.assertEqual(off["digest"], on["digest"], w)
            self.assertEqual(off["counts"], on["counts"], w)

    def test_counts_repeat_at_one_seed(self):
        for w in workloads.WORKLOADS:
            first = child(w, 1, 1)["layers"]
            again = bench_run.run_child(w, 1, 1)["layers"]
            for name, value in first.items():
                if name.endswith(REPEATABLE):
                    self.assertEqual(value, again[name], f"{w}: {name}")

    def test_seed_changes_only_order_and_random_words(self):
        for w in workloads.WORKLOADS:
            a, b = child(w, 1, 0), child(w, 2, 0)
            self.assertEqual(a["counts"], b["counts"], w)
            if w != "transform":
                self.assertEqual(a["digest"], b["digest"], w)
        ids = [t for t, _ in workloads.tasks("bounds")]
        self.assertNotEqual([t for t, _ in workloads.ordered_tasks("bounds", 1)], ids)
        self.assertEqual(sorted(t for t, _ in workloads.ordered_tasks("bounds", 1)), sorted(ids))

    def test_layers_reach_their_workloads(self):
        table = child("table", 1, 1)["layers"]
        self.assertGreater(table["cyclic.min_distance.bz.calls"], 0)
        self.assertEqual(table["cyclic.mu.computed"], table["cyclic.min_distance.bz.calls"]
                         + table["cyclic.min_distance.q2.calls"])
        work = sum(table[f"cyclic.min_distance.{k}.work"] for k in ("bz", "q2", "qp"))
        self.assertEqual(work, child("table", 1, 0)["counts"]["work"])
        bounds = child("bounds", 1, 1)["layers"]
        for name in ("cyclic.min_distance.qp.calls", "cyclic.ht_bound.calls",
                     "ramsey.szemeredi_r.nodes", "polyring.factor_xn_minus_1.calls"):
            self.assertGreater(bounds[name], 0, name)
        transform = child("transform", 1, 1)["layers"]
        self.assertGreater(transform["mstransform.naive_up_scan.words"], 0)
        self.assertEqual(transform["cyclic.min_distance.q2.calls"], 0)


class Spans(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        recorded = [["cyclic.mu", 0.0, 10.0, -1, {"divisors": 3}],
                    ["cyclic.min_distance", 2.0, 5.0, 0, {"kind": "q2", "work": 6, "exact": True}],
                    ["cyclic.bch_bound", 3.0, 4.0, 1, None]]
        m = spans.layer_metrics(recorded, misses=0)
        self.assertAlmostEqual(m["cyclic.mu.self_s"], 7.0)
        self.assertAlmostEqual(m["cyclic.min_distance.q2.self_s"], 2.0)
        self.assertAlmostEqual(m["cyclic.bch_bound.self_s"], 1.0)
        self.assertAlmostEqual(m["cyclic.min_distance.q2.codewords_per_s"], 3.0)
        self.assertEqual(m["cyclic.mu.computed"], 1)
        self.assertAlmostEqual(m["cyclic.mu.computed_frac"], 1 / 3)

    def test_uncalled_layers_report_zero(self):
        m = spans.layer_metrics([], misses=0)
        self.assertEqual(m["cyclic.ht_bound.calls"], 0)
        self.assertEqual(m["cyclic.ht_bound.self_s"], 0.0)
        self.assertEqual(m["ramsey.szemeredi_r.nodes_per_s"], 0.0)
        self.assertEqual(m["cyclic.min_distance.exact_frac"], 1.0)

    def test_install_skips_missing_modules_and_rebinds_imports(self):
        import uplab

        tracer = spans.Tracer()
        with mock.patch.object(spans, "LAYER_MODULES", ("no_such_module",)):
            self.assertEqual(spans.install(tracer), 0)
        self.assertGreater(spans.install(tracer), 0)
        self.assertIs(uplab.cyclic.factor_xn_minus_1, uplab.polyring.factor_xn_minus_1)
        self.assertIs(uplab.mu, uplab.cyclic.mu)
        uplab.mu(7, 2)
        names = {s[0] for s in tracer.spans}
        self.assertTrue({"cyclic.mu", "cyclic.min_distance", "polyring.factor_xn_minus_1",
                         "gf.field_ctx"} <= names)


class Contract(unittest.TestCase):
    def test_benchmark_json_names_every_metric(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, bench_run.E2E_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, spans.metric_units())

    def test_result_line(self):
        for trace, keys in ((0, set(bench_run.E2E_UNITS)), (1, set(spans.metric_units()))):
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "table",
                                   "--seed", "5", "--seconds", "1", "--trace", str(trace)],
                                  capture_output=True, text=True, timeout=180)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(set(result["metrics"]), keys)

    def test_refuses_without_program_sources(self):
        bare = HERE / "results" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("results"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "table",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
