#!/usr/bin/env python3
"""Compares the printed output of sim-clock benches from two builds.

    python3 bench/compare_benches.py PARENT_BUILD CHANGE_BUILD [bench ...]

PARENT_BUILD and CHANGE_BUILD are CMake build directories of the repository
(the benches sit in BUILD/bench/). Each bench runs once from each build; the
default set is the sims whose output is a pure function of the code. Prints,
per bench, `identical` or a unified diff of the two outputs (stdout and
stderr together).

Exits non-zero when a binary is missing, crashes (dies on a signal) or runs
past the timeout. A non-zero exit status alone is reported, not fatal: some
benches exit non-zero on a failed shape check, and that is their output. A
changed output alone does not fail the run either: it is the report.
"""
import argparse
import difflib
import os
import subprocess
import sys

DEFAULT_BENCHES = (
    "bench_tiering",
    "bench_qos_interference",
    "bench_scrub_mttd",
    "bench_health_detection",
    "bench_fig12_failure_recovery",
)
BENCH_TIMEOUT_S = 600


def run_bench(build, name):
    """Returns (output, exit status, problem); problem is None when it ran."""
    path = os.path.join(build, "bench", name)
    if not os.access(path, os.X_OK):
        return "", None, "%s: no such binary" % path
    try:
        proc = subprocess.run([path], stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                              timeout=BENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "", None, "%s: still running after %d s" % (path, BENCH_TIMEOUT_S)
    if proc.returncode < 0:
        return proc.stdout, proc.returncode, "%s: killed by signal %d" % (path, -proc.returncode)
    return proc.stdout, proc.returncode, None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="build directory of the parent tree")
    ap.add_argument("change", help="build directory of the changed tree")
    ap.add_argument("benches", nargs="*", default=list(DEFAULT_BENCHES))
    args = ap.parse_args()

    errors = []
    identical = 0
    for name in args.benches:
        old, old_rc, old_err = run_bench(args.parent, name)
        new, new_rc, new_err = run_bench(args.change, name)
        bad = [e for e in (old_err, new_err) if e]
        if bad:
            errors += bad
            print("%-30s FAILED" % name)
            continue
        status = "" if old_rc == new_rc else " (exit %d -> %d)" % (old_rc, new_rc)
        if old == new:
            identical += 1
            print("%-30s identical%s" % (name, status))
        else:
            print("%-30s differs%s" % (name, status))
            sys.stdout.writelines(difflib.unified_diff(
                old.splitlines(True), new.splitlines(True),
                fromfile="%s/bench/%s" % (args.parent, name),
                tofile="%s/bench/%s" % (args.change, name)))
        sys.stdout.flush()
    print("%d of %d benches identical" % (identical, len(args.benches)))
    for e in errors:
        print("compare_benches: " + e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
