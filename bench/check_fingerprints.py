#!/usr/bin/env python3
"""Checks a vdisk_bench build against the checked-in sim-clock fingerprints.

    python3 bench/check_fingerprints.py [--binary .bench_build/perfbench/vdisk_bench]

Runs one untraced round per (workload, seed) listed in bench/fingerprints.json
with compare_rounds.py's round runner and requires each round to be `ok`,
with no failed op and no read mismatch, and its fingerprint to match exactly.
A change that moves the simulation on purpose updates the file and says why.
"""
import argparse
import json
import os
import sys

import compare_rounds

FINGERPRINTS = os.path.join(compare_rounds.ROOT, "bench", "fingerprints.json")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--binary",
                    default=os.path.join(compare_rounds.ROOT, ".bench_build", "perfbench",
                                         "vdisk_bench"),
                    help="the vdisk_bench to check (default: perfbench/run.py's build)")
    args = ap.parse_args()
    with open(FINGERPRINTS) as f:
        expected = json.load(f)
    failures = 0
    for workload, seeds in sorted(expected.items()):
        for seed, want in sorted(seeds.items(), key=lambda kv: int(kv[0])):
            tag = "%s seed %s" % (workload, seed)
            record = compare_rounds.run_round(args.binary, workload, int(seed))
            bad = compare_rounds.problems(tag, record)
            if not bad and record["fingerprint"] != want:
                bad = ["%s: fingerprint %s, expected %s" % (tag, record["fingerprint"], want)]
            print("%-22s %s" % (tag, "ok " + want if not bad else "FAILED"))
            for b in bad:
                print("check_fingerprints: " + b, file=sys.stderr)
            failures += bool(bad)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
