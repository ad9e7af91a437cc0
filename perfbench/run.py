#!/usr/bin/env python3
"""Build the toolchain benchmark from source, then run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke]

The pipestitch library (src/) and the psbench program are built with
CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
as RelWithDebInfo, the repository's default build type. The first run
builds everything; later runs rebuild only what changed. Build output
goes to stderr, so stdout ends with psbench's result line.

Every argument is passed to psbench, plus the source's provenance
(`git describe` when run from a git checkout, and a SHA-256 over src/
and perfbench/) for the record it prints; with --trace 1 the span
trace is written next to the build as trace-<workload>.json.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "RelWithDebInfo"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """SHA-256 over every file under src/ and perfbench/, path + bytes."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_describe():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return ""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT,
            capture_output=True, text=True, check=False)
    except OSError:
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no pipestitch sources (src/CMakeLists.txt) next to perfbench/")
    target_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target_root, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", build_dir, "--target", "psbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, check=False).returncode:
            fail("build failed: " + " ".join(step))
    return build_dir


def option(args, name):
    return args[args.index(name) + 1] if name in args[:-1] else None


def main():
    args = sys.argv[1:]
    build_dir = build()
    cmd = [os.path.join(build_dir, "psbench"), *args,
           "--git-describe", git_describe(),
           "--source-digest", source_digest()]
    if option(args, "--trace") not in (None, "0"):
        workload = option(args, "--workload") or "unknown"
        cmd += ["--trace-out",
                os.path.join(build_dir, f"trace-{workload}.json")]
    sys.exit(subprocess.run(cmd, check=False).returncode)


if __name__ == "__main__":
    main()
