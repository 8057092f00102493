#!/usr/bin/env python3
"""Smoke tests for bench_compare.py's gate mode — exit codes only.

CI invokes this directly (python3 tools/bench_compare_test.py); it
builds throwaway artifact directories under a tempdir and asserts the
exit-code contract: 0 clean / tolerated-baseline, 3 divergence or
broken current artifact, 2 unusable current directory. Stdout/stderr of
the tool is swallowed unless a case fails. No third-party dependencies.
"""

import json
import os
import subprocess
import sys
import tempfile

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "bench_compare.py")


def write(dirpath, name, payload):
    os.makedirs(dirpath, exist_ok=True)
    path = os.path.join(dirpath, name)
    with open(path, "w", encoding="utf-8") as f:
        if isinstance(payload, str):
            f.write(payload)
        else:
            json.dump(payload, f)
    return path


def run(*argv):
    return subprocess.run([sys.executable, TOOL, *argv],
                          capture_output=True, text=True)


CASES = []


def case(name):
    def wrap(fn):
        CASES.append((name, fn))
        return fn
    return wrap


GOOD = {"bit_identical": 1, "ledgers_match": 1,
        "answers_checksum": 12345, "wall_seconds": 0.5}


@case("gate passes on identical clean artifacts")
def _(tmp):
    write(f"{tmp}/prev", "BENCH_a.json", GOOD)
    write(f"{tmp}/curr", "BENCH_a.json", GOOD)
    return run("--gate", f"{tmp}/prev", f"{tmp}/curr"), 0


@case("checksum divergence fails with exit 3")
def _(tmp):
    write(f"{tmp}/prev", "BENCH_a.json", GOOD)
    write(f"{tmp}/curr", "BENCH_a.json", dict(GOOD, answers_checksum=999))
    return run("--gate", f"{tmp}/prev", f"{tmp}/curr"), 3


@case("determinism flag 0 fails with exit 3")
def _(tmp):
    write(f"{tmp}/prev", "BENCH_a.json", GOOD)
    write(f"{tmp}/curr", "BENCH_a.json", dict(GOOD, bit_identical=0))
    return run("--gate", f"{tmp}/prev", f"{tmp}/curr"), 3


@case("plan_matches_admission 0 fails with exit 3")
def _(tmp):
    write(f"{tmp}/prev", "BENCH_dp_cache.json", GOOD)
    write(f"{tmp}/curr", "BENCH_dp_cache.json",
          dict(GOOD, plan_matches_admission=0))
    return run("--gate", f"{tmp}/prev", f"{tmp}/curr"), 3


@case("missing previous directory is tolerated")
def _(tmp):
    write(f"{tmp}/curr", "BENCH_a.json", GOOD)
    return run("--gate", f"{tmp}/no-such-dir", f"{tmp}/curr"), 0


@case("empty previous directory is tolerated")
def _(tmp):
    os.makedirs(f"{tmp}/prev")
    write(f"{tmp}/curr", "BENCH_a.json", GOOD)
    return run("--gate", f"{tmp}/prev", f"{tmp}/curr"), 0


@case("malformed previous file is tolerated")
def _(tmp):
    write(f"{tmp}/prev", "BENCH_a.json", "{truncated artifact")
    write(f"{tmp}/curr", "BENCH_a.json", GOOD)
    return run("--gate", f"{tmp}/prev", f"{tmp}/curr"), 0


@case("non-object previous file is tolerated")
def _(tmp):
    write(f"{tmp}/prev", "BENCH_a.json", "[1, 2, 3]")
    write(f"{tmp}/curr", "BENCH_a.json", GOOD)
    return run("--gate", f"{tmp}/prev", f"{tmp}/curr"), 0


@case("malformed current file fails with exit 3, not a crash")
def _(tmp):
    write(f"{tmp}/prev", "BENCH_a.json", GOOD)
    write(f"{tmp}/curr", "BENCH_a.json", "not json at all")
    return run("--gate", f"{tmp}/prev", f"{tmp}/curr"), 3


@case("NaN checksum on both sides is missing, not divergence")
def _(tmp):
    nan = dict(GOOD)
    del nan["answers_checksum"]
    write(f"{tmp}/prev", "BENCH_a.json",
          json.dumps(nan)[:-1] + ', "answers_checksum": NaN}')
    write(f"{tmp}/curr", "BENCH_a.json",
          json.dumps(nan)[:-1] + ', "answers_checksum": NaN}')
    return run("--gate", f"{tmp}/prev", f"{tmp}/curr"), 0


@case("NaN determinism flag fails with exit 3")
def _(tmp):
    base = dict(GOOD)
    del base["bit_identical"]
    write(f"{tmp}/curr", "BENCH_a.json",
          json.dumps(base)[:-1] + ', "bit_identical": NaN}')
    return run("--gate", f"{tmp}/no-prev", f"{tmp}/curr"), 3


# A BENCH_serving.json-shaped artifact: per-class latency quantiles and
# achieved rates are timing-only; the two checksums fingerprint the DWRR
# admission schedule and the answers.
SERVING = {"bit_identical": 1, "ledgers_match": 1,
           "answers_checksum": "111", "fair_admission_checksum": "222",
           "l0_offered_qps": 50.0, "l0_achieved_qps": 49.2,
           "l0_high_p50_seconds": 0.002, "l0_high_p99_seconds": 0.011,
           "l0_low_p999_seconds": 0.094, "l0_evicted": 3}


@case("serving latency/qps swings never trip the gate")
def _(tmp):
    noisy = dict(SERVING, l0_achieved_qps=7.5, l0_high_p50_seconds=0.9,
                 l0_high_p99_seconds=4.2, l0_low_p999_seconds=31.0,
                 l0_evicted=480)
    write(f"{tmp}/prev", "BENCH_serving.json", SERVING)
    write(f"{tmp}/curr", "BENCH_serving.json", noisy)
    return run("--gate", f"{tmp}/prev", f"{tmp}/curr"), 0


@case("fair_admission_checksum divergence fails with exit 3")
def _(tmp):
    write(f"{tmp}/prev", "BENCH_serving.json", SERVING)
    write(f"{tmp}/curr", "BENCH_serving.json",
          dict(SERVING, fair_admission_checksum="999"))
    return run("--gate", f"{tmp}/prev", f"{tmp}/curr"), 3


@case("no current artifacts fails with exit 2")
def _(tmp):
    os.makedirs(f"{tmp}/curr")
    return run("--gate", f"{tmp}/prev", f"{tmp}/curr"), 2


@case("file mode diff on clean files exits 0")
def _(tmp):
    a = write(f"{tmp}/x", "BENCH_a.json", GOOD)
    b = write(f"{tmp}/y", "BENCH_a.json", dict(GOOD, wall_seconds=0.7))
    return run(a, b), 0


@case("file mode on unreadable input exits 2")
def _(tmp):
    a = write(f"{tmp}/x", "BENCH_a.json", GOOD)
    return run(a, f"{tmp}/does-not-exist.json"), 2


def main():
    failed = 0
    for name, fn in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            proc, want = fn(tmp)
        if proc.returncode == want:
            print(f"PASS  {name}")
        else:
            failed += 1
            print(f"FAIL  {name}: exit {proc.returncode}, want {want}")
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
    print(f"\n{len(CASES) - failed}/{len(CASES)} passed")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
