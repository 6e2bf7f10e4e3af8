#!/usr/bin/env python3
"""Self-test of the opwat benchmark at tiny scale.

    python3 opwat_bench/selftest.py

Runs every workload of BENCHMARK.json through run.py with `--scale tiny`:
once untraced and twice traced, with the same seed.  Checks that

  - every run exits 0 and ends with a well-formed result line whose
    correctness gates passed and in which no operation failed;
  - the untraced run prints exactly the end-to-end metrics, and the
    traced runs exactly the per-layer metrics, each with its declared
    unit and a finite value;
  - the exact counts (measure.traces, infer.<step>.decided, store.bytes,
    ...) repeat exactly across the two traced runs.

Exits non-zero on the first failure.
"""
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 5
SECONDS = 2
EXACT = ["measure.traces", "measure.hops", "traix.crossings", "infer.scope_ifaces",
         "infer.port-capacity.decided", "infer.rtt-colo.decided",
         "infer.multi-ixp.decided", "infer.private-links.decided",
         "store.rows", "store.bytes"]


def run(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", str(trace), "--scale", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit(f"FAIL {workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        sys.exit(f"FAIL {workload} trace={trace}: correct={result['correct']} "
                 f"failed={result['failed']} attempted={result['attempted']}\n{proc.stdout[-2000:]}")
    return result["metrics"]


def check_names(workload, metrics, declared):
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        sys.exit(f"FAIL {workload}: missing {sorted(set(want) - set(metrics))}, "
                 f"unexpected {sorted(set(metrics) - set(want))}")
    for name, m in metrics.items():
        if m["unit"] != want[name] or not math.isfinite(m["value"]):
            sys.exit(f"FAIL {workload}: {name} = {m}")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in bench["workloads"]:
        name = w["name"]
        check_names(name, run(name, 0), bench["end_to_end"])
        first, second = run(name, 1), run(name, 1)
        check_names(name, first, bench["per_layer"])
        for k in EXACT:
            if first[k]["value"] != second[k]["value"]:
                sys.exit(f"FAIL {name}: {k} changed between runs: "
                         f"{first[k]['value']} != {second[k]['value']}")
        print(f"ok {name}: {len(bench['end_to_end'])} end-to-end and "
              f"{len(first)} per-layer metrics; exact counts repeat", flush=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
