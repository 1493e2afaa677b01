#!/usr/bin/env python3
"""Builds the sweep-cell benchmark from source and runs one workload.

Usage (from the repository root):

    python3 cellbench/run.py --workload bin2_sweep --seed 1 --seconds 20 --trace 0

The simulator libraries under src/ and the benchmark binary in cellbench/
are built with CMake into $CARGO_TARGET_DIR/cellbench (default
.bench_build/cellbench).
Build output goes to stderr; stdout carries only the binary's output, whose
last line is the JSON result.  Exits non-zero, printing no result, when the
sources or the build are missing or the binary fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("cellbench: simulator sources (src/) not found; cannot build")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "cellbench",
                    "-j", "4"], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "cellbench")


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(ROOT, target, "cellbench"))
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("cellbench: build failed: %s" % e)
    cmd = [binary, *sys.argv[1:], "--repo", ROOT,
           "--out", os.path.join(build_dir, "run")]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
