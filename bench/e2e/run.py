#!/usr/bin/env python3
"""Build bench_e2e from this checkout's sources and run one workload.

Usage (from the repository root):

    python3 bench/e2e/run.py --workload sweep --seed 1 --seconds 20 --trace 0

The first run configures and builds into build-e2e/ (the library
sources under src/ plus bench/e2e); later runs only re-check the
build. bench_e2e's own report goes to stdout, and the last stdout
line is one JSON object:

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"<name>": {"value": x, "unit": "<unit>"}, ...}}

holding every end_to_end metric of BENCHMARK.json with --trace 0 and
every per_layer metric with --trace 1. Exit status: 0 on a verified
run, 1 when a check failed, 2 on a usage, build or run error (no
JSON line is printed then).
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-e2e")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def run_group(cmd, timeout, stdout=None):
    """Run cmd in its own process group; kill the whole group on
    timeout or interruption, and always wait for it to end."""
    proc = subprocess.Popen(cmd, stdout=stdout, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        die(f"'{os.path.basename(cmd[0])}' exceeded {timeout} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("library sources not found under src/; run from a full "
            "checkout of the repository")
    cmake = shutil.which("cmake")
    if cmake is None:
        die("cmake not found on PATH")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append([cmake, "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append([cmake, "--build", BUILD, "--target", "bench_e2e",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        if run_group(step, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
            die("build failed: " + " ".join(step))
    return os.path.join(BUILD, "bench_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # Turn a polite kill into a normal exit so run_group cleans up.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(2))

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as error:
        die(f"cannot read {spec_path}: {error}")
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        die(f"unknown workload '{args.workload}' (one of {workloads})")
    if args.seed < 0 or not args.seconds > 0:
        die("--seed must be >= 0 and --seconds > 0")

    binary = build()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = os.path.join(BUILD, "runs", tag + ".json")
    os.makedirs(os.path.dirname(result_path), exist_ok=True)
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--json", result_path,
           "--tmp", os.path.join(BUILD, "tmp", f"{tag}-{os.getpid()}")]
    if args.trace:
        cmd.append("--traced")
    sys.stdout.flush()
    status = run_group(cmd, RUN_TIMEOUT_S)
    if status not in (0, 1) or not os.path.isfile(result_path):
        die(f"bench_e2e exited with status {status}")

    with open(result_path) as f:
        report = json.load(f)
    section, source = (("per_layer", "layers") if args.trace
                       else ("end_to_end", "metrics"))
    measured = report.get(source, {})
    metrics = {}
    for metric in spec[section]:
        name = metric["name"]
        if name not in measured:
            die(f"bench_e2e did not report '{name}'")
        value = measured[name]["value"]
        if not math.isfinite(value):
            die(f"'{name}' is not finite: {value}")
        metrics[name] = {"value": value, "unit": metric["unit"]}
    print(json.dumps({"correct": bool(report["correct"]) and status == 0,
                      "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]),
                      "metrics": metrics}))
    return 0 if status == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
