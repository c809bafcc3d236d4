#!/usr/bin/env python3
"""Build and run the Paraprox end-to-end benchmark.

    python3 perfbench/run.py --workload <paper_mix|small_burst|fleet_sync> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Configures and builds perfbench/ (which
compiles the library from src/) in Release mode into the directory named
by CARGO_TARGET_DIR, default .bench_build, then runs the benchmark binary
with the given arguments.  Build output goes to stderr; the binary's last
stdout line is the JSON result.  Exits non-zero without a result when the
build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TARGET = "paraprox_perfbench"


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    # The Makefile appears only after a configure that succeeded.
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", TARGET,
                  "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return False
    return True


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not build(build_dir):
        return 1
    binary = os.path.join(build_dir, TARGET)
    command = [binary, *sys.argv[1:], "--scratch",
               os.path.join(build_dir, "run")]
    result = subprocess.run(command)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
