"""Tests of the benchmark's own plumbing: metric names and units, the
correctness gates, and agreement between run.py and BENCHMARK.json.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They need no build: metrics are computed from synthetic job records.
"""

import json
import os
import struct
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import metrics  # noqa: E402

FIELDS = ["wall_ns", "app_ns", "checksum", "checksum_min", "remote_ops", "ams",
          "bytes", "agg_ops", "agg_batches", "get_bytes"]
GUPS_SUM = 0x1234_5678_9ABC_DEF0
STENCIL_SUM = 1713378896833.5344


def f64_bits(x):
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def synthetic(workload, trace, jobs=3, steps=20):
    """A job-binary record with plausible, correct steps."""
    cks = f64_bits(STENCIL_SUM) if workload == "stencil" else GUPS_SUM
    ref = ({"stencil_checksum": STENCIL_SUM} if workload == "stencil"
           else {"gups_checksum": GUPS_SUM})

    def row(i):
        wall = 3_000_000 + 1_000 * i
        return [wall, int(wall * 0.8), cks, cks, 754, 754, 800_088, 47_064, 736, 0]

    out = []
    for j in range(jobs):
        out.append({
            "launch_unix_ns": 1_000,
            "body_start_unix_ns": 6_000_000 + j,
            "first_step_unix_ns": 20_000_000 + j,
            "peak_rss_bytes": (20 << 20) + j,
            "warmup": [row(0), row(1)],
            "steps": [row(i) for i in range(steps)],
            "traced_steps": [row(i) for i in range(steps)] if trace else [],
            "spans": ([{"name": "step", "count": steps, "total_ns": 10_000, "self_ns": 100},
                       {"name": "core.xor", "count": 5 * steps, "total_ns": 9_900,
                        "self_ns": 9_900}] if trace else []),
            "span_sample": [],
            "probes": {name: 1.5 for name in metrics.PROBED} if trace else {},
        })
    return {"ranks": 2, "host_cores": 2, "effective_config": "RuntimeConfig { .. }",
            "reference": ref, "fields": FIELDS, "jobs": out}


class MetricNames(unittest.TestCase):
    def test_names_match_pattern_and_carry_units(self):
        names = [n for n, *_ in metrics.END_TO_END + metrics.PER_LAYER]
        self.assertEqual(len(names), len(set(names)), "metric names are unique")
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
            self.assertRegex(name, metrics.NAME_RE)
            self.assertRegex(metrics.UNITS[name], metrics.UNIT_RE)
        for name in metrics.WORKLOADS:
            self.assertRegex(name, metrics.NAME_RE)

    def test_probe_names_are_emitted_by_the_job_binary(self):
        with open(os.path.join(HERE, "src", "probes.rs")) as f:
            src = f.read()
        for name in metrics.PROBED:
            self.assertIn('"%s"' % name, src)
            self.assertIn(name, metrics.UNITS)


class EveryWorkloadEmitsEveryMetric(unittest.TestCase):
    def test_end_to_end(self):
        for w in metrics.WORKLOADS:
            result, _ = metrics.result_line(w, 0, synthetic(w, trace=False))
            self.assertTrue(result["correct"], w)
            self.assertEqual(set(result["metrics"]), {n for n, *_ in metrics.END_TO_END}, w)
            for name, unit, *_ in metrics.END_TO_END:
                m = result["metrics"][name]
                self.assertEqual(m["unit"], unit)
                self.assertGreater(m["value"], 0, "%s on %s is never 0" % (name, w))

    def test_per_layer(self):
        for w in metrics.WORKLOADS:
            result, details = metrics.result_line(w, 1, synthetic(w, trace=True))
            self.assertTrue(result["correct"], w)
            self.assertEqual(set(result["metrics"]), {n for n, *_ in metrics.PER_LAYER}, w)
            self.assertIn("core.xor", details["self_time_share"])

    def test_result_has_exactly_the_contract_keys(self):
        result, _ = metrics.result_line("gups", 0, synthetic("gups", trace=False))
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIsInstance(result["attempted"], int)
        self.assertIsInstance(result["failed"], int)


class OutsideLoad(unittest.TestCase):
    def test_a_few_slowed_jobs_do_not_move_the_step_metrics(self):
        raw = synthetic("gups", trace=False, jobs=8)
        quiet, _ = metrics.result_line("gups", 0, raw)
        # Load from outside slows one job in eight threefold.
        for row in raw["jobs"][5]["steps"]:
            row[0] *= 3
        loaded, _ = metrics.result_line("gups", 0, raw)
        for name in ("throughput_per_s", "step_p50_us", "step_p90_us"):
            self.assertEqual(loaded["metrics"][name], quiet["metrics"][name], name)


class Gates(unittest.TestCase):
    def test_planted_wrong_checksum_raises_fail_frac(self):
        for w in metrics.WORKLOADS:
            raw = synthetic(w, trace=False)
            good, _ = metrics.result_line(w, 0, raw)
            raw["jobs"][1]["steps"][3][2] ^= 1 << 40
            raw["jobs"][1]["steps"][3][3] ^= 1 << 40
            bad, details = metrics.result_line(w, 0, raw)
            self.assertEqual(bad["failed"], 1, w)
            self.assertFalse(bad["correct"], w)
            self.assertLess(bad["metrics"]["ok_frac"]["value"], good["metrics"]["ok_frac"]["value"])
            self.assertTrue(details["gate_notes"])

    def test_ranks_disagreeing_fails_the_step(self):
        raw = synthetic("procs_gups_agg", trace=False)
        raw["jobs"][0]["warmup"][0][3] -= 1
        result, _ = metrics.result_line("procs_gups_agg", 0, raw)
        self.assertEqual(result["failed"], 1)

    def test_stencil_tolerance(self):
        for rel, ok in ((1e-12, True), (1e-6, False)):
            raw = synthetic("stencil", trace=False)
            bits = f64_bits(STENCIL_SUM * (1 + rel))
            raw["jobs"][0]["steps"][0][2:4] = [bits, bits]
            result, _ = metrics.result_line("stencil", 0, raw)
            self.assertEqual(result["failed"] == 0, ok, rel)

    def test_failed_job_counts_as_a_failed_step(self):
        raw = synthetic("procs_gups_agg", trace=False)
        raw["jobs"][2] = {"error": "rank process failed"}
        result, _ = metrics.result_line("procs_gups_agg", 0, raw)
        self.assertEqual(result["failed"], 1)
        self.assertFalse(result["correct"])

    def test_refuses_rupcxx_environment(self):
        env = dict(os.environ, RUPCXX_AGG="on")
        r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", "gups",
                            "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(r.returncode, 0)
        self.assertEqual(r.stdout, "")
        self.assertIn("RUPCXX_AGG", r.stderr)


class BenchmarkJson(unittest.TestCase):
    def test_lists_exactly_what_run_py_emits(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual(spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(spec["paths"], ["perfbench"])
        self.assertIsInstance(spec["run_seconds"], int)
        self.assertEqual({w["name"]: w["why"] for w in spec["workloads"]}, metrics.WORKLOADS)
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        self.assertEqual([(m["name"], m["unit"], m["better"], m["bound"])
                          for m in spec["end_to_end"]], metrics.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         metrics.PER_LAYER)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


if __name__ == "__main__":
    unittest.main()
