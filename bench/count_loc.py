#!/usr/bin/env python3
"""Counts the non-blank, non-comment source lines of each directory.

    python3 bench/count_loc.py [--since REF] [--files] [dirs...]

With no dirs, counts every directory under src/ (each one a row) and prints
the total. A line counts when it holds something other than whitespace, a
`//` comment or part of a `/* ... */` comment. With --since, each row also
shows the count at git revision REF and the change to the working tree.
With --files, each file is its own row instead of each directory.

ROADMAP's LOC gates count with it, e.g.
`python3 bench/count_loc.py --since 8e1eee7 src/cluster src/tier`.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SUFFIXES = (".h", ".cc", ".cpp", ".hpp", ".c")


def count_code(text):
    """Non-blank lines that are not entirely comment."""
    n = 0
    in_block = False
    for line in text.splitlines():
        code = []
        i = 0
        while i < len(line):
            if in_block:
                end = line.find("*/", i)
                if end < 0:
                    i = len(line)
                else:
                    in_block = False
                    i = end + 2
                continue
            if line.startswith("//", i):
                break
            if line.startswith("/*", i):
                in_block = True
                i += 2
                continue
            if line[i] == '"':
                # Skip a string literal so "//" or "/*" inside it is code.
                j = i + 1
                while j < len(line) and line[j] != '"':
                    j += 2 if line[j] == "\\" else 1
                code.append(line[i:j + 1])
                i = j + 1
                continue
            code.append(line[i])
            i += 1
        if "".join(code).strip():
            n += 1
    return n


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          stdout=subprocess.PIPE, text=True).stdout


def worktree_files(path):
    full = os.path.join(ROOT, path)
    if os.path.isfile(full):
        return [path]
    out = []
    for dirpath, _, names in os.walk(full):
        for name in names:
            if name.endswith(SUFFIXES):
                out.append(os.path.relpath(os.path.join(dirpath, name), ROOT))
    return sorted(out)


def ref_files(ref, path):
    listing = git("ls-tree", "-r", "--name-only", ref, "--", path)
    return [f for f in listing.splitlines() if f.endswith(SUFFIXES)]


def count_worktree(files):
    total = 0
    for f in files:
        with open(os.path.join(ROOT, f), encoding="utf-8", errors="replace") as fh:
            total += count_code(fh.read())
    return total


def count_ref(ref, files):
    return sum(count_code(git("show", "%s:%s" % (ref, f))) for f in files)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--since", metavar="REF", help="also count at git revision REF")
    parser.add_argument("--files", action="store_true", help="one row per file")
    parser.add_argument("dirs", nargs="*", help="directories or files (default: src/*)")
    args = parser.parse_args()

    paths = [os.path.normpath(p) for p in args.dirs]
    if not paths:
        src = os.path.join(ROOT, "src")
        paths = sorted("src/" + d for d in os.listdir(src)
                       if os.path.isdir(os.path.join(src, d)))
    if args.since:
        git("rev-parse", "--verify", "--quiet", args.since + "^{commit}")

    rows = []
    for path in paths:
        now_files = worktree_files(path)
        then_files = ref_files(args.since, path) if args.since else []
        if args.files:
            for f in sorted(set(now_files) | set(then_files)):
                rows.append((f, [f] if f in now_files else [], [f] if f in then_files else []))
        else:
            rows.append((path, now_files, then_files))

    width = max(len("total"), max(len(r[0]) for r in rows))
    if args.since:
        print("%-*s %8s %8s %8s" % (width, "path", args.since[:8], "now", "change"))
    else:
        print("%-*s %8s" % (width, "path", "now"))
    total_now = total_then = 0
    for name, now_files, then_files in rows:
        now = count_worktree(now_files)
        total_now += now
        if args.since:
            then = count_ref(args.since, then_files)
            total_then += then
            print("%-*s %8d %8d %+8d" % (width, name, then, now, now - then))
        else:
            print("%-*s %8d" % (width, name, now))
    if len(rows) > 1:
        if args.since:
            print("%-*s %8d %8d %+8d" % (width, "total", total_then, total_now,
                                          total_now - total_then))
        else:
            print("%-*s %8d" % (width, "total", total_now))
    return 0


if __name__ == "__main__":
    sys.exit(main())
