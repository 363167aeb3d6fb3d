"""Steadiness of the benchmark: repeated runs of each workload, and their spread.

    python3 perfbench/steady.py --runs 10 [--first-seed 1]
    python3 perfbench/steady.py --compare LOG_A LOG_B

The first form runs ``run.py`` ``--runs`` times for each workload of
``BENCHMARK.json``, with seeds ``first-seed``, ``first-seed + 1``, ...,
visiting the workloads in forward order on even rounds and in reverse order
on odd ones.  Each run's record
from ``results/runs.jsonl`` (git sha, kernel, Python, NumPy, nproc, BLAS
threads and the result) goes to ``results/steady-<time>.jsonl``.  It then
prints, per workload and end-to-end metric, the median, the quartiles and
the spread (quartile distance over median) against the metric's bound from
``BENCHMARK.json``, and the share of failed operations.

The second form compares two such logs: for every metric the shift of the
second median from the first, in the metric's worse direction, against the
bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(spec, workload, seed):
    runs_log = RESULTS / "runs.jsonl"
    before = runs_log.stat().st_size if runs_log.exists() else 0
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    with open(runs_log) as fh:
        fh.seek(before)
        record = json.loads(fh.read().splitlines()[-1])
    record["run_wall_s"] = wall
    return record


def by_workload(records):
    out = {}
    for rec in records:
        out.setdefault(rec["workload"], []).append(rec)
    return out


def summarize(spec, records):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for workload, recs in sorted(by_workload(records).items()):
        results = [r["result"] for r in recs]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{workload}: {len(recs)} runs, failed {failed}/{attempted}, "
              f"failed shares {shares}, all correct {all(r['correct'] for r in results)}")
        for name, m in bounds.items():
            vals = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / med
            flag = "ok" if spread <= m["bound"] / 3 else ("within" if spread <= m["bound"] else "OVER")
            print(f"  {name:15s} median {med:10.4f} {m['unit']:4s} q1 {q1:10.4f} q3 {q3:10.4f} "
                  f"spread {spread:6.3f} bound {m['bound']:.2f} {flag}")


def compare(spec, log_a, log_b):
    a = by_workload(read_log(log_a))
    b = by_workload(read_log(log_b))
    for workload in sorted(set(a) & set(b)):
        print(workload)
        for m in spec["end_to_end"]:
            med_a = statistics.median(r["result"]["metrics"][m["name"]]["value"] for r in a[workload])
            med_b = statistics.median(r["result"]["metrics"][m["name"]]["value"] for r in b[workload])
            worse = (med_b - med_a) / med_a if m["better"] == "lower" else (med_a - med_b) / med_a
            flag = "ok" if worse <= m["bound"] else "WORSE"
            print(f"  {m['name']:15s} {med_a:10.4f} -> {med_b:10.4f}  worse by {worse:+.3f} "
                  f"bound {m['bound']:.2f} {flag}")


def read_log(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def main(argv=None):
    ap = argparse.ArgumentParser(description="repeat benchmark runs and report their spread")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--compare", nargs=2, metavar="LOG", default=None)
    args = ap.parse_args(argv)
    spec = load_spec()
    if args.compare:
        compare(spec, *args.compare)
        return
    workloads = [w["name"] for w in spec["workloads"]]
    RESULTS.mkdir(parents=True, exist_ok=True)
    log = RESULTS / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.jsonl"
    records = []
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for workload in order:
            rec = run_once(spec, workload, args.first_seed + i)
            records.append(rec)
            with open(log, "a") as fh:
                fh.write(json.dumps(rec) + "\n")
            m = rec["result"]["metrics"]
            print(f"round {i} {workload} seed {args.first_seed + i}: "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in m.items()), flush=True)
    print(f"log: {log}")
    summarize(spec, records)


if __name__ == "__main__":
    main()
