#!/usr/bin/env python3
"""Self-test of the perfbench benchmark at small scale.

Runs every workload named in BENCHMARK.json for a short time on a small
federation, untraced and traced, and checks that:
  * the run exits 0 and its last stdout line is the result object with
    exactly the keys correct/attempted/failed/metrics, correct == true;
  * every end-to-end metric (untraced) and every per-layer metric (traced)
    named in BENCHMARK.json is present, with the unit BENCHMARK.json gives;
  * loopback doorbell batching still coalesces through the endpoint
    decorator: rpc.coalesced_per_batch > 1 on approx_loopback;
  * the Chrome trace of each traced run passes tools/trace_summary.py.

Usage (from the repository root): python3 perfbench/selftest.py
Takes about a minute after the first build.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out", "selftest")
SEED = 11
SMALL = ["--rows", "60000", "--seconds", "2", "--setups", "1", "--out", OUT]


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--trace", str(trace)] + SMALL
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    if p.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {p.returncode}\n"
                             f"{p.stderr[-3000:]}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        raise AssertionError(f"{workload}: {result}")
    return result


def check_metrics(workload, trace, result, declared):
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if set(got) != set(want):
        raise AssertionError(
            f"{workload} trace={trace}: missing {sorted(set(want) - set(got))}, "
            f"unexpected {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        if got[name]["unit"] != unit:
            raise AssertionError(f"{workload}: {name} unit {got[name]['unit']}"
                                 f" != {unit}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    summary = os.path.join(ROOT, "tools", "trace_summary.py")
    for w in bench["workloads"]:
        name = w["name"]
        check_metrics(name, 0, run(name, 0), bench["end_to_end"])
        traced = run(name, 1)
        check_metrics(name, 1, traced, bench["per_layer"])
        if name == "approx_loopback":
            cpb = traced["metrics"]["rpc.coalesced_per_batch"]["value"]
            if not cpb > 1:
                raise AssertionError(f"doorbell batching lost: {cpb}")
        trace_file = os.path.join(OUT, f"trace_{name}_seed{SEED}.json")
        if os.path.isfile(summary):
            subprocess.run([sys.executable, summary, trace_file], check=True,
                           stdout=subprocess.DEVNULL)
        print(f"selftest: {name} ok", flush=True)
    print("selftest OK")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print(f"selftest FAILED: {e}", file=sys.stderr)
        sys.exit(1)
