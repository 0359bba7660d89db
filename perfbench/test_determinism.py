#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_determinism.py [workload ...]

Builds perfbench (as run.py does), runs the oracle/stream self-checks, then
for each workload runs one round twice with the same seed and once with
another seed. The two same-seed rounds must agree on every sim-clock metric
and on the fingerprint of all latency samples; the other seed must change
them (the seed really drives the inputs). Every round must verify cleanly.
Exits non-zero on the first failure.
"""
import json
import os
import subprocess
import sys

import run


def round_record(binary, workload, seed):
    proc = subprocess.run([binary, "--workload", workload, "--seed", str(seed)],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                          env=run.ROUND_ENV, timeout=run.ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit("FAIL: %s seed %d exited with %d" % (workload, seed, proc.returncode))
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    if not rec["ok"] or rec["mismatches"] or rec["failed"]:
        sys.exit("FAIL: %s seed %d did not verify cleanly: %r" %
                 (workload, seed, {k: rec[k] for k in ("ok", "mismatches", "failed")}))
    return rec


def sim_clock(rec):
    return rec["fingerprint"], rec["end_to_end"], rec["per_layer"]


def main():
    workloads = sys.argv[1:] or list(run.WORKLOADS)
    build_dir = os.path.join(run.ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    binary = run.build(build_dir)
    if subprocess.run(["cmake", "--build", build_dir, "--target", "oracle_test"],
                      stdout=subprocess.DEVNULL).returncode != 0:
        sys.exit("FAIL: oracle_test did not build")
    if subprocess.run([os.path.join(build_dir, "oracle_test")]).returncode != 0:
        sys.exit("FAIL: oracle_test")
    for workload in workloads:
        a, b, c = (round_record(binary, workload, seed) for seed in (1, 1, 2))
        if sim_clock(a) != sim_clock(b):
            sys.exit("FAIL: %s: two rounds of seed 1 disagree on sim-clock metrics" % workload)
        if a["fingerprint"] == c["fingerprint"]:
            sys.exit("FAIL: %s: seeds 1 and 2 produced identical runs" % workload)
        print("%s: seed 1 twice identical (fingerprint %s), seed 2 differs" %
              (workload, a["fingerprint"]))
    print("test_determinism: ok")


if __name__ == "__main__":
    main()
