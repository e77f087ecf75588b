#!/usr/bin/env python3
"""Smoke test of the sweep benchmark.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json in shortened form (every 8th case,
a 1-second window) at the reference seed 0x5eed, untraced and traced, and
fails if a result line is missing, if any metric BENCHMARK.json names is
missing, non-finite or has a different or empty unit, if an unnamed
metric appears, or if any case failed (fail_frac != 0).  It also checks
that the benchmark refuses to run, without printing a result, in a
directory holding only BENCHMARK.json and the benchmark's own files.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_SEED = 0x5EED


def run(args, cwd):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py")]
                          + args, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def check_workload(config, workload, trace):
    """Returns a list of problems; empty when the run is sound."""
    done = run(["--workload", workload, "--seed", str(REFERENCE_SEED),
                "--seconds", "1", "--trace", str(trace),
                "--case-stride", "8"], ROOT)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}: {done.stderr[-1500:]}"]
    try:
        result = json.loads(done.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return [f"{where}: last stdout line is not a JSON result"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys are {sorted(result)}")
        return problems
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"{where}: fail_frac is {result['failed']}/"
                        f"{result['attempted']} at the reference seed")
    if result["attempted"] < 1:
        problems.append(f"{where}: nothing attempted")
    expected = config["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    for spec in expected:
        name = spec["name"]
        got = metrics.get(name)
        if got is None:
            problems.append(f"{where}: metric {name} missing")
            continue
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: metric {name} is not finite: {value}")
        if not got.get("unit") or got["unit"] != spec["unit"]:
            problems.append(f"{where}: metric {name} has unit "
                            f"{got.get('unit')!r}, expected {spec['unit']!r}")
    extra = set(metrics) - {spec["name"] for spec in expected}
    if extra:
        problems.append(f"{where}: unnamed metrics {sorted(extra)}")
    return problems


def check_bare_directory(config):
    """Only BENCHMARK.json and the benchmark's paths: must fail cleanly."""
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    bare = os.path.join(build_root, "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in config["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         config["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=bare, env=env, capture_output=True, text=True,
        timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        return ["bare directory: the benchmark ran or printed a result"]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        config = json.load(f)
    problems = []
    for workload in config["workloads"]:
        for trace in (0, 1):
            found = check_workload(config, workload["name"], trace)
            print(f"{workload['name']} --trace {trace}: "
                  f"{'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    bare = check_bare_directory(config)
    print(f"bare directory refused: {'ok' if not bare else 'FAILED'}")
    problems += bare
    for problem in problems:
        print(problem, file=sys.stderr)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
