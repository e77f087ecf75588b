#!/usr/bin/env python3
"""Build and run the sweep benchmark.

    python3 perfbench/run.py --workload <fresh-n64|cascade-n64|models-n16>
                             --seed <n> --seconds <s> --trace <0|1>
                             [--case-stride <k>] [--record-reference]

Run from the repository root.  The benchmark binary (dvperf) is built from
the checkout's sources with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) -- a no-op when it is up to date -- and
then run once.  Its stdout is relayed; the last line is one JSON object
with the keys correct, attempted, failed and metrics.  Sweep manifests and
the per-case progress log are written under the build directory.  Exits
non-zero, without a result line, if the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quietly(command, timeout):
    """Run a build step, sending its output to our stderr."""
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(command)}")
    if done.returncode != 0:
        fail(f"failed ({done.returncode}): {' '.join(command)}")


def build(directory):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the library sources (src/) are missing from this checkout")
    if not os.path.isfile(os.path.join(directory, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", directory,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_quietly(configure, BUILD_TIMEOUT_S)
    run_quietly(["cmake", "--build", directory, "-j",
                 str(os.cpu_count() or 1)], BUILD_TIMEOUT_S)
    return os.path.join(directory, "dvperf")


def check_result(line):
    """The last stdout line must be the result object."""
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and result["attempted"] >= 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--case-stride", type=int, default=1,
                        help="keep every k-th case (shortened smoke runs)")
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite perfbench/reference/<workload>.tsv "
                             "(reference seed only)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1 or args.case_stride < 1:
        fail("--seed must be >= 0, --seconds and --case-stride >= 1")

    directory = build_dir()
    binary = build(directory)
    run_dir = os.path.join(directory, "run")
    os.makedirs(run_dir, exist_ok=True)
    env = dict(os.environ)
    env["DV_ARTIFACT_DIR"] = os.path.join(run_dir, "artifacts")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--reference-dir", os.path.join(HERE, "reference"),
               "--case-stride", str(args.case_stride)]
    if args.record_reference:
        command.append("--record-reference")
    log_path = os.path.join(run_dir, "dvperf.log")
    with open(log_path, "w") as log:
        try:
            done = subprocess.run(command, cwd=run_dir, env=env,
                                  stdout=subprocess.PIPE, stderr=log,
                                  text=True, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"dvperf timed out after {RUN_TIMEOUT_S} s (log: {log_path})")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines or not check_result(lines[-1]):
        with open(log_path) as log:
            sys.stderr.writelines(log.readlines()[-20:])
        sys.stderr.write(done.stdout)
        fail(f"dvperf failed (exit {done.returncode}, log: {log_path})")
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
