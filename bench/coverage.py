#!/usr/bin/env python3
"""Executable-line coverage of src/, per directory, for ctest and perfbench.

    python3 bench/coverage.py BUILD_DIR [--jobs N] [--files] [--skip-build]

Builds the repository (tests and benches) into BUILD_DIR/tests and
perfbench's vdisk_bench into BUILD_DIR/perfbench, both with gcc's
--coverage at -O0, then runs

  * ctest in BUILD_DIR/tests, without the exhaustive replica-protocol
    explorer (it takes minutes at -O0 and adds no line the rest misses);
  * one seed-1 round of each perfbench workload (vm-fleet, seq-stream,
    cold-tier): the code the end-to-end scoreboard measures.

and reads the counts with gcov's JSON output. A line is executable when gcov
reports it for a source under src/; it is covered when any object file that
compiles it (a header is compiled into many) ran it. Prints, per src/
directory (or per file with --files), the executable lines and the share
each of the two runs covered. Counts of earlier runs are cleared first, so
the build directory can be reused; --skip-build reuses it as built. Uses
only cmake, ctest and gcc's gcov.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("vm-fleet", "seq-stream", "cold-tier")
FLAGS = ["-DCMAKE_BUILD_TYPE=Debug", "-DCMAKE_CXX_FLAGS=--coverage -O0",
         "-DCMAKE_EXE_LINKER_FLAGS=--coverage"]


def run(cmd, **kw):
    print("+ " + " ".join(cmd), file=sys.stderr)
    return subprocess.run(cmd, **kw).returncode


def build(source, build_dir, jobs, target=None):
    if run(["cmake", "-S", source, "-B", build_dir] + FLAGS, stdout=sys.stderr) != 0:
        sys.exit("cmake configure failed: " + build_dir)
    cmd = ["cmake", "--build", build_dir, "-j", str(jobs)]
    if target:
        cmd += ["--target", target]
    if run(cmd, stdout=sys.stderr) != 0:
        sys.exit("build failed: " + build_dir)


def files_under(top, suffix):
    for dirpath, _, names in os.walk(top):
        for name in names:
            if name.endswith(suffix):
                yield os.path.join(dirpath, name)


def clear_counts(build_dir):
    for path in files_under(build_dir, ".gcda"):
        os.remove(path)


def line_hits(build_dir):
    """{src file: {line: hit}} over every object compiled in build_dir."""
    hits = {}
    for note in files_under(build_dir, ".gcno"):
        out = subprocess.run(["gcov", "-t", "-j", "-o", os.path.dirname(note), note],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                             cwd=os.path.dirname(note)).stdout
        for doc in out.splitlines():
            if not doc.strip():
                continue
            report = json.loads(doc)
            cwd = report.get("current_working_directory", "")
            for f in report["files"]:
                path = os.path.normpath(os.path.join(cwd, f["file"]))
                if not path.startswith(SRC + os.sep):
                    continue
                lines = hits.setdefault(os.path.relpath(path, ROOT), {})
                for line in f["lines"]:
                    n = line["line_number"]
                    lines[n] = lines.get(n, False) or line["count"] > 0
    return hits


def rows(hits, per_file):
    """{row name: (executable, covered)}"""
    out = {}
    for path, lines in hits.items():
        if not lines:
            continue  # declarations only
        key = path if per_file else os.path.dirname(path)
        total, covered = out.get(key, (0, 0))
        out[key] = (total + len(lines), covered + sum(lines.values()))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("build_dir", help="where the two coverage builds go")
    ap.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    ap.add_argument("--files", action="store_true", help="one row per source file")
    ap.add_argument("--skip-build", action="store_true", help="reuse the builds as they are")
    args = ap.parse_args()
    tests_dir = os.path.abspath(os.path.join(args.build_dir, "tests"))
    bench_dir = os.path.abspath(os.path.join(args.build_dir, "perfbench"))

    if not args.skip_build:
        build(ROOT, tests_dir, args.jobs)
        build(os.path.join(ROOT, "perfbench"), bench_dir, args.jobs, "vdisk_bench")
    clear_counts(tests_dir)
    clear_counts(bench_dir)
    if run(["ctest", "--test-dir", tests_dir, "-j", str(args.jobs),
            "-E", "ReplicaProtocolExplorerTest"], stdout=subprocess.DEVNULL) != 0:
        print("note: some tests failed; their coverage still counts", file=sys.stderr)
    for workload in WORKLOADS:
        if run([os.path.join(bench_dir, "vdisk_bench"), "--workload", workload, "--seed", "1"],
               stdout=subprocess.DEVNULL) != 0:
            sys.exit("vdisk_bench failed on " + workload)

    tests = rows(line_hits(tests_dir), args.files)
    bench = rows(line_hits(bench_dir), args.files)
    width = max([len(k) for k in tests] + [len("total")])
    print("%-*s %7s %9s %9s" % (width, "path", "lines", "ctest", "perfbench"))
    total = [0, 0, 0]
    for key in sorted(tests):
        n, t = tests[key]
        b = bench.get(key, (n, 0))[1]
        total = [total[0] + n, total[1] + t, total[2] + b]
        print("%-*s %7d %8.1f%% %8.1f%%" % (width, key, n, 100.0 * t / n, 100.0 * b / n))
    print("%-*s %7d %8.1f%% %8.1f%%" % (width, "total", total[0], 100.0 * total[1] / total[0],
                                        100.0 * total[2] / total[0]))


if __name__ == "__main__":
    main()
