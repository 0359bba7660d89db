#!/usr/bin/env python3
"""End-to-end virtual-disk benchmark entry point.

    python3 perfbench/run.py --workload vm-fleet --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds perfbench/ (and the src/ libraries it
links) with CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build),
then runs rounds of the workload, each in a fresh vdisk_bench process, until
--seconds have passed and at least MIN_ROUNDS ran. Every round replays the
same seed, so every round must print the same sim-clock fingerprint; sim-clock
metrics come from the first round, wall-clock ones are medians over rounds.

--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics of the traced ones (plus trace.overhead, traced / untraced
host_ops_per_s); the first traced round's per-op spans are written under
<build dir>/spans/. The last stdout line is the result; the run exits
non-zero without one when the build, a round or a check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("vm-fleet", "seq-stream", "cold-tier")
MIN_ROUNDS = 3          # untraced rounds; traced runs add one (2 + 2 alternating)
ROUND_TIMEOUT_S = 60
# A round faults in up to ~1.3 GB of simulated device pages. Backing malloc's
# heap with transparent huge pages (glibc >= 2.35; ignored by older ones)
# cuts those faults ~45x, which otherwise cost a quarter of the round's time
# and most of its run-to-run spread.
ROUND_ENV = dict(os.environ, GLIBC_TUNABLES="glibc.malloc.hugetlb=1")
RUN_BUDGET_S = 120      # no new round starts after this, whatever --seconds says


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    jobs = str(min(os.cpu_count() or 1, 4))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cfg, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "vdisk_bench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "vdisk_bench")


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check(result, trace):
    for key, kind in (("correct", bool), ("attempted", int), ("failed", int), ("metrics", dict)):
        if not isinstance(result.get(key), kind):
            fail("result field %r missing or not %s" % (key, kind.__name__))
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("unexpected result fields %s" % sorted(result))
    if result["attempted"] < 1:
        fail("no op attempted")
    want = expected_metrics(trace)
    if want is not None and sorted(want) != sorted(result["metrics"]):
        missing = sorted(set(want) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(want))
        fail("metric names differ from BENCHMARK.json: missing %s, extra %s" % (missing, extra))
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            fail("metric %s is malformed: %r" % (name, m))
        if want is not None and m["unit"] != want[name]:
            fail("metric %s has unit %r, BENCHMARK.json says %r" % (name, m["unit"], want[name]))


def run_round(binary, workload, seed, traced, spans):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--traced", str(int(traced))]
    if spans:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=ROUND_TIMEOUT_S, text=True, env=ROUND_ENV)
    except subprocess.TimeoutExpired:
        fail("round exceeded %d s" % ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        fail("vdisk_bench exited with %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("vdisk_bench printed no round record")


def aggregate(rounds, trace):
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    correct = all(r["ok"] and r["mismatches"] == 0 for r in rounds)
    if len({r["fingerprint"] for r in rounds}) != 1:
        print("perfbench: rounds of one seed disagree on sim-clock results", file=sys.stderr)
        correct = False
    if not trace:
        metrics = dict(plain[0]["end_to_end"])
        for name, unit in (("host_ops_per_s", "op/s"), ("peak_rss_mb", "MB"), ("setup_s", "s")):
            metrics[name] = {"value": statistics.median(r[name] for r in plain), "unit": unit}
    else:
        metrics = dict(traced[0]["per_layer"])
        for name, m in traced[0]["per_layer_wall"].items():
            value = statistics.median(r["per_layer_wall"][name]["value"] for r in traced)
            metrics[name] = {"value": value, "unit": m["unit"]}
        overhead = (statistics.median(r["host_ops_per_s"] for r in traced) /
                    statistics.median(r["host_ops_per_s"] for r in plain))
        metrics["trace.overhead"] = {"value": overhead, "unit": "x"}
    return {"correct": correct, "attempted": rounds[0]["attempted"],
            "failed": max(r["failed"] for r in rounds), "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload not in WORKLOADS:
        fail("unknown workload %r (expected one of %s)" % (args.workload, ", ".join(WORKLOADS)))

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    binary = build(build_dir)
    span_file = None
    if args.trace:
        os.makedirs(os.path.join(build_dir, "spans"), exist_ok=True)
        span_file = os.path.join(build_dir, "spans", "%s-seed%d.csv" % (args.workload, args.seed))

    min_rounds = MIN_ROUNDS + (1 if args.trace else 0)
    rounds = []
    start = time.monotonic()
    while len(rounds) < min_rounds or time.monotonic() - start < args.seconds:
        if time.monotonic() - start > RUN_BUDGET_S:
            break
        traced = bool(args.trace) and len(rounds) % 2 == 1
        spans = span_file if traced and not any(r["traced"] for r in rounds) else None
        record = run_round(binary, args.workload, args.seed, traced, spans)
        record["traced"] = traced
        rounds.append(record)

    result = aggregate(rounds, args.trace)
    check(result, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
