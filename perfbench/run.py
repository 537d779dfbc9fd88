#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, which builds the library from
src/) into $CARGO_TARGET_DIR, or .bench_build when that is unset;
later calls rebuild incrementally. Build output is shown (on stderr)
only when a step fails, so the last line on stdout is the JSON result.
Exits non-zero, without a result, when the build fails or the run
times out, and with the benchmark's own code otherwise (1 when a
correctness gate failed).
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(target):
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j4"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(cmd))
            sys.exit(2)
    return os.path.join(out, target)


def self_test():
    """The C++ self-test, then its declared workloads and metrics
    against BENCHMARK.json."""
    proc = subprocess.run([build("perfbench_selftest")], timeout=RUN_TIMEOUT_S,
                          stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    declared = {tuple(line.split()[1:]) for line in proc.stdout.splitlines()
                if line.startswith("declared ")}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        doc = json.load(f)
    listed = {("workload", w["name"]) for w in doc["workloads"]}
    listed |= {("metric", m["name"], m["unit"])
               for m in doc["end_to_end"] + doc["per_layer"]}
    same = declared == listed
    print("%s BENCHMARK.json lists exactly the declared workloads and metrics"
          % ("ok  " if same else "FAIL"))
    return proc.returncode if same else 1


def main(argv):
    if argv == ["--self-test"]:
        return self_test()
    binary = build("perfbench")
    try:
        return subprocess.run([binary] + argv,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
