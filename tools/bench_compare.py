#!/usr/bin/env python3
"""Diff BENCH_*.json files, optionally gating on answer divergence.

The benches emit flat JSON objects (see bench/bench_util.h BenchJson), so
successive PRs leave a perf trajectory. This tool makes that trajectory
readable, and gives CI a correctness gate over it:

File mode — print a per-metric delta table:

    tools/bench_compare.py old/BENCH_pipeline_speedup.json \
                           new/BENCH_pipeline_speedup.json

For numeric metrics it prints old, new, absolute delta, and percent
change; string metrics print old -> new when they differ. Exits 0 on a
successful comparison (deltas are informational, not a gate), 2 on
unreadable input.

Gate mode — compare two directories of BENCH_*.json and FAIL only on
answer/ledger divergence, never on timing:

    tools/bench_compare.py --gate prev-bench-dir curr-bench-dir

Per bench present in the current directory the gate checks:
  * the bench's own recorded determinism verdicts: any `bit_identical`,
    `ledgers_match`, `plan_matches_admission` or other 0/1 flag named in
    GATE_FLAGS that reads 0 is a failure;
  * every `*_checksum` key (answers_checksum, fair_admission_checksum,
    ...) against the previous run's file (matched by name): present in
    both but different means this PR changed the actual answers or a
    deterministic schedule — a correctness regression the timing deltas
    cannot excuse. Keys that carry timing or rate data (anything with a
    `seconds`, `qps`, `p50/p99/p999`, or `wall` component, e.g. the
    per-class latency quantiles BENCH_serving.json emits) are never
    checksum-compared, whatever their spelling — timing is trajectory
    data, not a gate.
A missing, empty, or malformed previous directory/file is reported and
tolerated (first run, new bench, expired or truncated artifact) — prior
artifacts are advisory, never a crash. A malformed *current* file is a
gate failure (exit 3): this CI run produced it, so something is broken
right now. NaN or null metrics are treated as missing, not as values —
NaN never equals itself, so comparing it raw would report phantom
divergence. Timing metrics are printed as the usual delta tables but
never fail the gate. Exits 0 when clean, 3 on divergence, 2 on
unreadable input in file mode or an unusable current directory. No
third-party dependencies.
"""

import argparse
import glob
import json
import math
import os
import sys

# 0/1 verdicts the emitting bench already computed; 0 means the bench saw
# divergence in-run (its own exit code should have caught it, the gate
# re-checks the recorded artifact so a swallowed exit code cannot hide it).
GATE_FLAGS = ("bit_identical", "ledgers_match", "plan_matches_admission")

# Substrings that mark a key as timing/rate data. Such keys are shown in
# the delta tables but can never gate — not even if a bench names one
# "*_checksum" by accident (latency is machine noise, not an answer).
TIMING_MARKERS = ("seconds", "qps", "p50", "p99", "p999", "wall",
                  "latency", "throughput")


def is_gated_checksum(key):
    """True for keys the gate compares bit-for-bit across runs."""
    lower = key.lower()
    if not lower.endswith("_checksum"):
        return False
    return not any(marker in lower for marker in TIMING_MARKERS)


def load(path, required=True):
    """Parse one BENCH_*.json. required=True exits 2 on failure (file
    mode / current artifacts must be present); required=False returns
    None so gate mode can decide how bad a broken file is."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        if required:
            sys.exit(2)
        return None
    if not isinstance(data, dict):
        print(f"bench_compare: {path} is not a flat JSON object",
              file=sys.stderr)
        if required:
            sys.exit(2)
        return None
    return data


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def is_missing(v):
    """None and NaN are both 'the bench did not produce this metric'.
    NaN must not reach comparisons: NaN != NaN, so a raw compare turns
    one broken metric into a phantom divergence on every run."""
    return v is None or (isinstance(v, float) and math.isnan(v))


def fmt(v):
    if is_number(v):
        if isinstance(v, int) or float(v).is_integer():
            return str(int(v))
        return f"{v:.6g}"
    return str(v)


def diff_rows(old, new, show_all=False):
    keys = list(old.keys()) + [k for k in new.keys() if k not in old]
    rows = []
    for key in keys:
        a, b = old.get(key), new.get(key)
        if is_missing(a) or is_missing(b):
            if is_missing(a) and is_missing(b) and not show_all:
                continue
            rows.append((key, fmt(a) if not is_missing(a) else "-",
                         fmt(b) if not is_missing(b) else "-",
                         "added/removed", ""))
            continue
        if is_number(a) and is_number(b):
            delta = b - a
            if delta == 0 and not show_all:
                continue
            pct = f"{100.0 * delta / a:+.1f}%" if a != 0 else "n/a"
            rows.append((key, fmt(a), fmt(b), f"{delta:+.6g}", pct))
        else:
            if a == b and not show_all:
                continue
            rows.append((key, fmt(a), fmt(b),
                         "=" if a == b else f"{fmt(a)} -> {fmt(b)}", ""))
    return rows


def print_table(rows):
    if not rows:
        print("no metric changed")
        return
    headers = ("metric", "old", "new", "delta", "pct")
    widths = [max(len(headers[i]), max(len(r[i]) for r in rows))
              for i in range(5)]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(line)
    print("-" * len(line))
    for r in rows:
        print("  ".join(v.ljust(w) for v, w in zip(r, widths)))


def run_gate(prev_dir, curr_dir, show_all=False):
    curr_files = sorted(glob.glob(os.path.join(curr_dir, "BENCH_*.json")))
    if not curr_files:
        print(f"bench_compare: no BENCH_*.json under {curr_dir}",
              file=sys.stderr)
        sys.exit(2)
    have_prev = os.path.isdir(prev_dir)
    if not have_prev:
        print(f"gate: no previous bench directory at {prev_dir} "
              "(first run or expired artifact) — checksum checks skipped")

    failures = []
    for curr_path in curr_files:
        name = os.path.basename(curr_path)
        print(f"\n=== {name} ===")
        # A broken current artifact is this run's bug, not an expired
        # baseline: fail the gate instead of crashing out with exit 2.
        curr = load(curr_path, required=False)
        if curr is None:
            failures.append(f"{name}: current artifact is unreadable")
            continue

        for flag in GATE_FLAGS:
            v = curr.get(flag)
            if is_missing(v):
                if flag in curr:
                    failures.append(
                        f"{name}: {flag} is NaN/null (verdict unusable)")
                continue
            if v == 0:
                failures.append(f"{name}: {flag} = 0 (in-run divergence)")

        prev_path = os.path.join(prev_dir, name)
        if not have_prev or not os.path.isfile(prev_path):
            print("(no previous file to compare against)")
            continue
        prev = load(prev_path, required=False)
        if prev is None:
            print("(previous file malformed — treated as absent)")
            continue
        print_table(diff_rows(prev, curr, show_all))

        for key in sorted(set(prev) | set(curr)):
            if not is_gated_checksum(key):
                continue
            a, b = prev.get(key), curr.get(key)
            if not is_missing(a) and not is_missing(b) and a != b:
                failures.append(
                    f"{name}: {key} {a} -> {b} "
                    "(this PR changed the bench's actual answers)")

    print()
    if failures:
        print("gate: FAILED — answer/ledger divergence:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        sys.exit(3)
    print("gate: OK — no answer or ledger divergence "
          "(timing deltas above are informational)")


def main():
    parser = argparse.ArgumentParser(
        description="Diff BENCH_*.json files; --gate fails only on "
                    "answer/ledger divergence.")
    parser.add_argument("old", help="baseline BENCH_*.json (or directory "
                        "of them with --gate)")
    parser.add_argument("new", help="candidate BENCH_*.json (or directory "
                        "of them with --gate)")
    parser.add_argument("--all", action="store_true",
                        help="also print unchanged metrics")
    parser.add_argument("--gate", action="store_true",
                        help="directory mode: fail (exit 3) on checksum or "
                        "determinism-flag divergence, tolerate missing "
                        "baselines, never fail on timing")
    args = parser.parse_args()

    if args.gate:
        run_gate(args.old, args.new, args.all)
        return

    print_table(diff_rows(load(args.old), load(args.new), args.all))


if __name__ == "__main__":
    main()
