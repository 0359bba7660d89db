#!/usr/bin/env python3
"""Compares the sim-clock results of two vdisk_bench builds, round by round.

    python3 bench/compare_rounds.py --parent OLD/vdisk_bench --change NEW/vdisk_bench \
        [--seeds 1-10] [vm-fleet seq-stream cold-tier]

Runs one untraced round per (binary, workload, seed) and prints, per
(workload, seed), either `identical` (same fingerprint and the same
end-to-end and per-layer sim-clock metrics) or each sim-clock metric that
differs, with its relative change and its BENCHMARK.json bound (`-` for
per-layer metrics, which have none). Wall-clock metrics are not compared.

Exits non-zero when any round is not `ok` or has failed ops or read
mismatches. A changed metric alone does not fail the run: it is the report.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("vm-fleet", "seq-stream", "cold-tier")
ROUND_TIMEOUT_S = 120


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}


def run_round(binary, workload, seed):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--traced", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                          timeout=ROUND_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def problems(tag, record):
    if record is None:
        return ["%s: round did not finish" % tag]
    out = []
    if not record["ok"]:
        out.append("%s: round not ok" % tag)
    if record["failed"] or record["mismatches"]:
        out.append("%s: %d failed, %d mismatches" % (tag, record["failed"], record["mismatches"]))
    return out


def differences(old, new, bound):
    rows = []
    for section in ("end_to_end", "per_layer"):
        for name, m in old[section].items():
            a = m["value"]
            b = new[section].get(name, {}).get("value")
            if a == b:
                continue
            change = "n/a" if b is None or a == 0 else "%+.2f%%" % (100.0 * (b - a) / abs(a))
            limit = "%.0f%%" % (100 * bound[name]) if name in bound else "-"
            rows.append("    %-36s %14.6g -> %-14.6g %9s  bound %s" % (name, a, b, change, limit))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="vdisk_bench built from the parent tree")
    ap.add_argument("--change", required=True, help="vdisk_bench built from the changed tree")
    ap.add_argument("--seeds", default="1-10", help="seed or inclusive range, e.g. 3 or 1-10")
    ap.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = ap.parse_args()
    bound = bounds()

    errors = []
    identical = 0
    total = 0
    for workload in args.workloads:
        for seed in parse_seeds(args.seeds):
            old = run_round(args.parent, workload, seed)
            new = run_round(args.change, workload, seed)
            tag = "%s seed %d" % (workload, seed)
            bad = problems(tag + " parent", old) + problems(tag + " change", new)
            total += 1
            if bad:
                errors += bad
                print("%-22s FAILED" % tag)
                continue
            rows = differences(old, new, bound)
            if old["fingerprint"] == new["fingerprint"] and not rows:
                identical += 1
                print("%-22s identical %s" % (tag, new["fingerprint"]))
            else:
                print("%-22s %s -> %s" % (tag, old["fingerprint"], new["fingerprint"]))
                print("\n".join(rows))
            sys.stdout.flush()
    print("%d of %d rounds identical" % (identical, total))
    for e in errors:
        print("compare_rounds: " + e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
