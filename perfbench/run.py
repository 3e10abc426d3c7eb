#!/usr/bin/env python3
"""Serving benchmark entry point.

Builds the vsq_perfbench program (and the vsq library from ../src) in Release
mode, then runs one workload and passes its output through; the last stdout
line is the JSON result. Run from the repository root:

  python3 perfbench/run.py --workload mlp_closed --seed 1 --seconds 10 --trace 0

The build tree goes to $CARGO_TARGET_DIR (default .bench_build) under the
current directory; archives for the run are written to a temporary
directory inside it and removed afterwards, and traced runs leave their span
CSV in <build>/traces. Build output goes to stderr. See NOTES.md.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170  # a run must end well within 180 s


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: vsq sources (src/) not found next to perfbench/", file=sys.stderr)
        return None
    cmake_dir = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(cmake_dir, "vsq_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if binary is None:
        return 1

    workdir = tempfile.mkdtemp(prefix="work-", dir=build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--workdir", workdir,
           "--trace-dir", os.path.join(build_dir, "traces")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s and was killed", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
