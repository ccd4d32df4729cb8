#!/usr/bin/env python3
"""Build the repo benchmark from source, then run it.

Run from the repository root:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The build directory is $CARGO_TARGET_DIR if set, else .bench_build, relative
to the current directory. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Exits non-zero if the build fails or
an output check fails.
"""
import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1
    result = subprocess.run([os.path.join(build, "perfbench")] + sys.argv[1:])
    return result.returncode if result.returncode >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
