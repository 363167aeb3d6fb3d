"""The usteen benchmark: one run of one workload, one JSON result line.

    python3 perfbench/run.py --workload catalog-r2|catalog-r3|compute-mix
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports usteen from ``src/`` there
and builds nothing.  Every pass of a workload runs in a fresh interpreter
(``workloads.py``).

``--trace 0`` first starts one unrecorded interpreter so that bytecode
caches exist, then ``SETUP_PROBES`` interpreters that only set up, then
whole passes until the next pass would end after ``--seconds``; at least
one pass always runs.  It prints the end-to-end metrics.  Their times are
wall times scaled to a reference speed of the machine (see ``Clock`` in
``workloads.py``); the raw wall times go to the run record.

* ``setup_s``: median over every interpreter of the run of the time from
  its start to its first measured operation;
* ``certify_s``: median time of one pass, every output certified;
* ``requests_per_s``, ``request_p50_ms``, ``request_p95_ms``: over every
  operation of every pass.  An operation is one request of compute-mix,
  or one check of a catalog (what ``usteen verify --check`` waits for);
* ``peak_rss_mb``: median of the passes' own ``ru_maxrss``.

``--trace 1`` ignores ``--seconds``: it runs one untraced and one traced
pass and prints the per-layer metrics, the per-check times of the untraced
pass and ``trace.overhead``, the ratio of the traced to the untraced pass.

Each run appends a record with the git sha, the GF(2) kernel, the Python
and NumPy versions, nproc and the BLAS thread setting to
``perfbench/results/runs.jsonl``.  Outputs that fail an oracle make
``correct`` false; operations that raise, exit nonzero or FAIL are
``failed``, and their outputs are not checked.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# importing workloads pins BLAS to one thread in this process's environment,
# which every interpreter started here inherits
from workloads import ALL_CHECKS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_PROBES = 3
DEADLINE_S = 175  # a run must end within 180 s


class Runner:
    def __init__(self, workload, seed, workdir):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def spawn(self, mode):
        """Start one interpreter for ``mode`` and return its result object."""
        spawned_at = time.monotonic()
        cmd = [sys.executable, str(HERE / "workloads.py"), self.workload,
               "--seed", str(self.seed), "--mode", mode,
               "--spawned-at", repr(spawned_at), "--workdir", str(self.workdir)]
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                              timeout=max(1.0, self.deadline - spawned_at))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"{self.workload} {mode} interpreter exited {proc.returncode}")
        return json.loads(proc.stdout.splitlines()[-1])


def percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def untraced(runner, seconds):
    runner.spawn("setup")  # writes bytecode caches; users do not pay this on every run
    probes = [runner.spawn("setup") for _ in range(SETUP_PROBES)]
    passes = []
    start = time.monotonic()
    while True:
        passes.append(runner.spawn("pass"))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    latencies = [t for p in passes for t in p["latencies"]]
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] for p in probes + passes), "s"),
        "certify_s": (statistics.median(p["pass_s"] for p in passes), "s"),
        "requests_per_s": (len(latencies) / sum(latencies), "1/s"),
        "request_p50_ms": (1000.0 * percentile(latencies, 0.50), "ms"),
        "request_p95_ms": (1000.0 * percentile(latencies, 0.95), "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    extra = {"raw_setup_s": [p["raw_setup_s"] for p in probes + passes],
             "latency_samples": len(latencies)}
    return passes, extra, metrics


def traced(runner):
    plain = runner.spawn("pass")
    tr = runner.spawn("trace")
    units = {"self_s": "s", "bytes_written": "bytes"}
    metrics = {}
    for name, value in tr["layers"].items():
        suffix = name.split(".", 1)[1]
        unit = units.get(suffix, "s" if suffix.endswith("_s") else "count")
        metrics[name] = (value, unit)
    checks = plain.get("checks", {})
    for cid in ALL_CHECKS:
        metrics[f"harness.{cid}_s"] = (checks.get(cid, 0.0), "s")
    metrics["trace.overhead"] = (tr["pass_s"] / plain["pass_s"], "ratio")
    return [plain, tr], {"trace_file": tr["trace_file"]}, metrics


def git_sha():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None):
    ap = argparse.ArgumentParser(description="usteen benchmark: one run of one workload")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "usteen" / "__init__.py").is_file():
        sys.exit(f"no usteen sources under {ROOT / 'src'}: run from a checkout of the repository")
    workdir = RESULTS / f"{args.workload}-seed{args.seed}-{'trace' if args.trace else 'run'}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(args.workload, args.seed, workdir)
    if args.trace:
        passes, extra, metrics = traced(runner)
    else:
        passes, extra, metrics = untraced(runner, args.seconds)

    errors = [e for p in passes for e in p["errors"]]
    for e in errors[:20]:
        print(f"error: {e}", file=sys.stderr)
    for f in [f for p in passes for f in p["failures"]][:20]:
        print(f"failed: {f}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "kernel": passes[0]["kernel"],
        "python": platform.python_version(), "numpy": passes[0]["numpy"],
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "pass_s": [p["pass_s"] for p in passes], "raw_pass_s": [p["raw_pass_s"] for p in passes],
        "speed": [p["speed"] for p in passes], "checks": [p.get("checks") for p in passes],
        **extra, "result": result,
    }
    with open(RESULTS / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
