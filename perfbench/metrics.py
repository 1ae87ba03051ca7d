"""Metric definitions, correctness gates and metric computation for the
rupcxx benchmark.

Pure functions over the raw record that ``perfbench-job`` writes, so the
benchmark's plumbing can be tested without building or running anything.
``BENCHMARK.json`` at the repository root must list exactly the workloads
and metrics defined here (``test_plumbing.py`` checks it).
"""

import math
import re
import statistics
import struct

RANKS = 2
GUPS_UPDATES = 200_000
STENCIL_POINTS = (2 * 32) * 32 * 32  # global grid of the (2,1,1) x 32^3 job
STENCIL_ITERS = 10
# The stencil checksum is a float sum in a fixed order; the repository's
# own stencil tests accept this relative error against the serial code.
STENCIL_REL_TOL = 1e-9

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# name -> why (one line each)
WORKLOADS = {
    "gups": "GUPS, 2 threads, per-op SharedArray proxy xors on the word-atomic fabric path; aggregation, ndarray and conduits idle",
    "stencil": "3-D Jacobi on a (2,1,1) grid: strided ghost gets via ndarray copy, async_copy_fence and barriers each iteration",
    "procs_gups_agg": "the gups stream as 2 OS processes via net::aggregate over the shm conduit: wire codec, net::remote, advance(); launch in setup",
}

# (name, unit, better, bound)
# The 2-vCPU reference host is shared: a fixed ALU loop on it varies by
# +-15% from second to second and a memory-bound one by +-25%, in phases
# that last tens of seconds and that every job of a run shares. Runs are
# 30 seconds, but the time metrics still need the largest bound the
# contract allows, 0.25; set-up gets the same (largest) bound.
END_TO_END = [
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("step_p50_us", "us", "lower", 0.25),
    ("step_p90_us", "us", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("ok_frac", "frac", "higher", 0.01),
    ("peak_rss_mib", "MiB", "lower", 0.1),
]

# (name, unit, better); values from the traced run.
PER_LAYER = [
    ("floor.atomic_xor_ns", "ns", "lower"),
    ("core.xor_ns", "ns", "lower"),
    ("core.xor_over_floor", "ratio", "lower"),
    ("core.upc_direct_xor_ns", "ns", "lower"),
    ("core.upc_direct_xor_over_floor", "ratio", "lower"),
    ("core.proxy_overhead", "ratio", "lower"),
    ("core.xor_agg_ns", "ns", "lower"),
    ("core.xor_agg_over_floor", "ratio", "lower"),
    ("core.copy_fence_us", "us", "lower"),
    ("net.fabric.xor_u64_ns", "ns", "lower"),
    ("net.fabric.xor_u64_over_floor", "ratio", "lower"),
    ("net.fabric.remote_ops_per_step", "count", "lower"),
    ("net.fabric.ams_per_step", "count", "lower"),
    ("net.fabric.bytes_per_step", "B", "lower"),
    ("net.agg.fence_us", "us", "lower"),
    ("net.agg.ops_per_batch", "count", "higher"),
    ("net.agg.batches_per_step", "count", "lower"),
    ("net.remote.get_u64_rtt_ns", "ns", "lower"),
    ("runtime.barrier_us", "us", "lower"),
    ("runtime.allreduce_us", "us", "lower"),
    ("runtime.advance_ns", "ns", "lower"),
    ("runtime.advance_yield", "count", "higher"),
    ("runtime.launch_ms", "ms", "lower"),
    ("ndarray.copy_ghost_us", "us", "lower"),
    ("ndarray.ghost_bytes_per_step", "B", "lower"),
    ("apps.timed_frac", "frac", "higher"),
    ("apps.stencil.serial_point_ns", "ns", "lower"),
    ("apps.stencil.parallel_eff", "frac", "higher"),
    ("apps.step_p99_us", "us", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.coverage", "frac", "higher"),
]

UNITS = {n: u for n, u, *_ in END_TO_END + PER_LAYER}

# Layer metrics the job's probes report by these exact names.
PROBED = [
    "floor.atomic_xor_ns",
    "core.xor_ns",
    "core.xor_over_floor",
    "core.upc_direct_xor_ns",
    "core.upc_direct_xor_over_floor",
    "core.proxy_overhead",
    "core.xor_agg_ns",
    "core.xor_agg_over_floor",
    "core.copy_fence_us",
    "net.fabric.xor_u64_ns",
    "net.fabric.xor_u64_over_floor",
    "net.agg.fence_us",
    "net.remote.get_u64_rtt_ns",
    "runtime.barrier_us",
    "runtime.allreduce_us",
    "runtime.advance_ns",
    "runtime.advance_yield",
    "ndarray.copy_ghost_us",
    "apps.stencil.serial_point_ns",
    "apps.stencil.parallel_eff",
]


def units_per_step(workload):
    """Work units of one step: GUPS updates summed over ranks, or stencil
    grid-point updates."""
    if workload == "stencil":
        return STENCIL_POINTS * STENCIL_ITERS
    return RANKS * GUPS_UPDATES


def quantile(values, q):
    """Linear-interpolated quantile of a non-empty list, 0 <= q <= 1."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def step_ok(workload, reference, row):
    """The correctness gate of one step. ``row`` is a dict of the job's
    step fields; ``reference`` is the job file's reference object."""
    if row["checksum"] != row["checksum_min"]:
        return False  # ranks disagree on the global checksum
    if workload == "stencil":
        got = struct.unpack("<d", struct.pack("<Q", row["checksum"]))[0]
        want = reference["stencil_checksum"]
        return abs(got - want) <= STENCIL_REL_TOL * max(abs(want), 1.0)
    # Every GUPS-family workload replays the same HPCC stream over the same
    # table, so all of them must equal the one serial replay (and thereby
    # each other).
    return row["checksum"] == reference["gups_checksum"]


def _rows(job, key, fields):
    return [dict(zip(fields, r)) for r in job.get(key, [])]


def gate(raw):
    """Apply the correctness gates to every step of every job.

    Returns ``(attempted, failed, notes)``. A wrong or disagreeing
    checksum fails its step; a job that panicked, crashed or timed out
    (recorded as ``{"error": ...}``) counts as one attempted, failed step.
    """
    workload, fields = raw["workload_name"], raw["fields"]
    attempted = failed = 0
    notes = []
    for i, job in enumerate(raw["jobs"]):
        if "error" in job:
            attempted += 1
            failed += 1
            notes.append("job %d: %s" % (i, job["error"]))
            continue
        for key in ("warmup", "steps", "traced_steps"):
            for n, row in enumerate(_rows(job, key, fields)):
                attempted += 1
                if not step_ok(workload, raw["reference"], row):
                    failed += 1
                    notes.append("job %d %s %d: checksum %d" % (i, key, n, row["checksum"]))
    return attempted, failed, notes


def _median_over_jobs(jobs, f):
    vals = [f(j) for j in jobs]
    vals = [v for v in vals if v is not None]
    return statistics.median(vals) if vals else None


def end_to_end(raw, attempted, failed):
    """End-to-end metrics from the untraced steps of every good job."""
    workload, fields = raw["workload_name"], raw["fields"]
    jobs = [j for j in raw["jobs"] if "error" not in j]
    per_job = [[r["wall_ns"] for r in _rows(j, "steps", fields)] for j in jobs]
    per_job = [w for w in per_job if w]
    out = {"ok_frac": 1.0 - failed / max(attempted, 1)}
    if per_job:
        # Every job is a fresh process at one of a fixed set of heap
        # layouts, which move step times by up to 2x, so each statistic is
        # taken per job. Load from outside the job only ever slows a job
        # down, so the run reports the job at the first quartile of step
        # time (the third of throughput) rather than the median job.
        units = units_per_step(workload)
        out["throughput_per_s"] = quantile([units * len(w) / (sum(w) / 1e9) for w in per_job], 0.75)
        out["step_p50_us"] = quantile([quantile(w, 0.5) for w in per_job], 0.25) / 1e3
        out["step_p90_us"] = quantile([quantile(w, 0.9) for w in per_job], 0.25) / 1e3
    if jobs:
        out["setup_s"] = _median_over_jobs(
            jobs, lambda j: (j["first_step_unix_ns"] - j["launch_unix_ns"]) / 1e9
        )
        # In-process jobs share one process whose peak only grows, so the
        # first job's peak is the smallest; rank processes are fresh per job.
        out["peak_rss_mib"] = min(j["peak_rss_bytes"] for j in jobs) / 2**20
    return out, {"steps": sum(map(len, per_job)), "jobs": len(per_job),
                 "steps_per_job_min": min(map(len, per_job), default=0)}


def per_layer(raw):
    """Per-layer metrics of a traced run: probe results (median over
    jobs), exact CommStats deltas per step, and the span summary."""
    fields = raw["fields"]
    jobs = [j for j in raw["jobs"] if "error" not in j]
    out = {}
    for name in PROBED:
        v = _median_over_jobs(jobs, lambda j: j["probes"].get(name))
        if v is not None:
            out[name] = v
    steps = [r for j in jobs for r in _rows(j, "steps", fields)]
    traced = [r for j in jobs for r in _rows(j, "traced_steps", fields)]
    samples = {}
    if steps:
        med = lambda key: statistics.median(r[key] for r in steps)  # noqa: E731
        out["net.fabric.remote_ops_per_step"] = med("remote_ops")
        out["net.fabric.ams_per_step"] = med("ams")
        out["net.fabric.bytes_per_step"] = med("bytes")
        agg_ops, batches = med("agg_ops"), med("agg_batches")
        out["net.agg.batches_per_step"] = batches
        out["net.agg.ops_per_batch"] = agg_ops / batches if batches else 0.0
        out["ndarray.ghost_bytes_per_step"] = med("get_bytes")
        out["apps.timed_frac"] = statistics.median(r["app_ns"] / r["wall_ns"] for r in steps)
        walls = [r["wall_ns"] for r in steps]
        out["apps.step_p99_us"] = quantile(walls, 0.99) / 1e3
        samples["untraced_steps"] = len(walls)
        if traced:
            tw = [r["wall_ns"] for r in traced]
            out["trace.overhead_frac"] = quantile(tw, 0.5) / quantile(walls, 0.5) - 1.0
            samples["traced_steps"] = len(tw)
    if jobs:
        out["runtime.launch_ms"] = _median_over_jobs(
            jobs, lambda j: (j["body_start_unix_ns"] - j["launch_unix_ns"]) / 1e6
        )
    step_total = step_self = 0
    layers = {}
    for j in jobs:
        for s in j["spans"]:
            if s["name"] == "step":
                step_total += s["total_ns"]
                step_self += s["self_ns"]
            else:
                layers[s["name"]] = layers.get(s["name"], 0) + s["self_ns"]
    if step_total:
        out["trace.coverage"] = 1.0 - step_self / step_total
    self_time = {"step (uncovered)": step_self / step_total if step_total else None}
    self_time.update({k: v / step_total for k, v in sorted(layers.items())} if step_total else {})
    return out, samples, self_time


def result_line(workload, trace, raw):
    """Gate and compute: returns ``(result, details)`` where ``result`` is
    the object the benchmark prints last."""
    raw = dict(raw, workload_name=workload)
    attempted, failed, notes = gate(raw)
    e2e, counts = end_to_end(raw, attempted, failed)
    details = {"gate_notes": notes[:20], "samples": counts}
    if trace:
        metrics, samples, self_time = per_layer(raw)
        details["samples"].update(samples)
        details["self_time_share"] = self_time
        spec = PER_LAYER
    else:
        metrics = e2e
        spec = END_TO_END
    out = {}
    for name, unit, *_ in spec:
        if metrics.get(name) is not None:
            out[name] = {"value": metrics[name], "unit": unit}
    missing = [n for n, *_ in spec if n not in out]
    correct = failed == 0 and not missing
    if missing:
        details["missing_metrics"] = missing
    result = {"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": out}
    return result, details
