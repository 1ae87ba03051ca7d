#!/usr/bin/env python3
"""rupcxx benchmark runner.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds ``perfbench-job`` (the package in
this directory) in release mode, runs workload ``W`` for ``S`` seconds of
timed steps, checks every step's result against a serial reference, and
prints one JSON object as the last line of standard output:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``. The full record (provenance, effective runtime config,
sample counts, per-layer self time) goes to ``perfbench/out/``.

The inputs are deterministic by construction: GUPS replays the fixed HPCC
stream and the stencil starts from a fixed field, so ``--seed`` is only
recorded. The command exits non-zero when the build fails, any
``RUPCXX_*`` variable is set, or a correctness gate fails.
"""

import argparse
import glob
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import metrics  # noqa: E402

ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=840)
    if r.returncode != 0:
        log("perfbench: build failed")
        sys.exit(1)
    exe = os.path.join(target_dir(), "release", "perfbench-job")
    if not os.path.isabs(exe):
        exe = os.path.join(ROOT, exe)
    return exe


# Jobs per run, as (heap layouts, passes). Every job is a fresh process
# and runtime: the step time of one process depends on its heap layout,
# so a run samples several layouts. Each pass runs every layout once, so
# the jobs of one layout lie seconds apart and a burst of load from
# outside the jobs rarely slows all of them.
JOBS = {0: (12, 4), 1: (4, 1)}
# A traced job runs untraced steps, traced steps and the probes, each
# given about a third of its share of the run.
PHASES = {0: 1, 1: 3}
DEADLINE_S = 170


def run_exe(exe, args, timeout):
    """Run the job binary in its own process group, so a hung job and any
    rank processes it launched are all stopped, and read its output file.

    The job gets the same argument strings and an empty environment on
    every run: the measured step times depend on heap offsets, and those
    depend on how much the process allocated for its arguments and
    environment before the runtime started."""
    out_file = os.path.join(OUT, "raw.json")
    if os.path.exists(out_file):
        os.remove(out_file)
    cmd = ["perfbench-job"] + args + ["--out", os.path.relpath(out_file, ROOT)]
    proc = subprocess.Popen(cmd, executable=exe, cwd=ROOT, env={}, stdout=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        code = None
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # a hung job or stray rank processes
    except ProcessLookupError:
        pass
    proc.wait()
    if code != 0:
        return None, "timed out after %ds" % timeout if code is None else "exited with %d" % code
    with open(out_file) as f:
        return json.load(f), None


def run_jobs(exe, workload, seconds, trace, t0):
    """Run the reference and every job of one run; returns the raw record
    that ``metrics.result_line`` takes, or ``(None, error)``."""
    reference, err = run_exe(exe, ["--workload", workload, "--reference"], 60)
    if reference is None:
        return None, "reference: " + err
    layouts, passes = JOBS[trace]
    phase = "%.3f" % (seconds / (layouts * passes) / PHASES[trace])
    raw = {"reference": reference, "jobs": []}
    for job in [j for _ in range(passes) for j in range(layouts)]:
        remaining = DEADLINE_S - (time.monotonic() - t0)
        out, err = run_exe(exe, ["--workload", workload, "--job", str(job),
                                 "--phase-seconds", phase, "--trace", str(trace),
                                 "--run-dir", os.path.relpath(OUT, ROOT)],
                           min(30 + 20 * float(phase), remaining))
        if out is None:
            raw["jobs"].append({"error": "job %d %s" % (job, err), "layout": job})
            continue
        raw["jobs"].append(dict(out.pop("job"), layout=job))
        raw.update(out)
    if "fields" not in raw:
        return None, "no job completed"
    return raw, None


def read(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return None


def provenance(seed):
    """Where and on what the numbers were measured."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        commit = r.stdout.strip() or None
    digest = hashlib.sha256()
    files = ["Cargo.toml", "Cargo.lock"]
    for pattern in ("crates/**/*.rs", "crates/**/Cargo.toml", "perfbench/src/*.rs",
                    "perfbench/Cargo.toml", "perfbench/*.py"):
        files += sorted(glob.glob(pattern, root_dir=ROOT, recursive=True))
    for rel in files:
        data = read(os.path.join(ROOT, rel))
        if data is not None:
            digest.update(rel.encode() + b"\0" + data.encode() + b"\0")
    cpu = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for idx in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = (read(idx + "/level") or "").strip()
        kind = (read(idx + "/type") or "").strip()
        size = (read(idx + "/size") or "").strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches["L" + level] = size
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "host_cores": os.cpu_count(),
        "cpu_model": cpu,
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "seed": seed,
        "inputs": "deterministic by construction (fixed HPCC stream, fixed stencil field)",
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(metrics.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = ap.parse_args()
    if not 1 <= a.seconds <= 120:
        ap.error("--seconds must be 1..120")
    pinned = sorted(k for k in os.environ if k.startswith("RUPCXX_"))
    if pinned:
        log("perfbench: refusing to run with %s set: every layer is pinned" % ", ".join(pinned))
        sys.exit(2)

    t0 = time.monotonic()
    exe = build()
    os.makedirs(OUT, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (a.workload, a.seed, a.trace)
    raw, err = run_jobs(exe, a.workload, a.seconds, a.trace, t0)
    if raw is None:
        # The whole run failed: one attempted, failed step; no metrics.
        log("perfbench: job %s" % err)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        sys.exit(1)
    result, details = metrics.result_line(a.workload, a.trace, raw)
    record = {
        "provenance": provenance(a.seed),
        "workload": a.workload,
        "trace": a.trace,
        "seconds": a.seconds,
        "ranks": raw["ranks"],
        "job_host_cores": raw["host_cores"],
        "effective_config": raw["effective_config"],
        "reference": raw["reference"],
        "result": result,
        **details,
    }
    with open(os.path.join(OUT, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    with open(os.path.join(OUT, tag + ".raw.json"), "w") as f:
        json.dump(raw, f)
    for name, m in result["metrics"].items():
        log("%-34s %14.6g %s" % (name, m["value"], m["unit"]))
    for note in details["gate_notes"]:
        log("gate: " + note)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
