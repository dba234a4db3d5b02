#!/usr/bin/env python3
"""Smoke test for bench_e2e (ctest: bench_e2e_smoke).

Runs every workload named in BENCHMARK.json at --scale 0.02 with one
timed run of each unit, traced, and asserts that each end_to_end
and per_layer metric is reported, finite and in the declared unit,
and that no check failed (failed_frac == 0).

    python3 smoke.py --binary build-e2e/bench_e2e \
        --benchmark BENCHMARK.json --tmp build-e2e/smoke
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys


def check_section(measured, declared, where, problems):
    for metric in declared:
        name = metric["name"]
        got = measured.get(name)
        if got is None:
            problems.append(f"{where}: '{name}' missing")
        elif got["unit"] != metric["unit"]:
            problems.append(f"{where}: '{name}' unit {got['unit']!r}, "
                            f"BENCHMARK.json says {metric['unit']!r}")
        elif not math.isfinite(got["value"]):
            problems.append(f"{where}: '{name}' = {got['value']}")


def main():
    parser = argparse.ArgumentParser(description="bench_e2e smoke test")
    parser.add_argument("--binary", required=True)
    parser.add_argument("--benchmark", required=True)
    parser.add_argument("--tmp", required=True)
    args = parser.parse_args()

    with open(args.benchmark) as f:
        spec = json.load(f)
    shutil.rmtree(args.tmp, ignore_errors=True)
    os.makedirs(args.tmp)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        result = os.path.join(args.tmp, workload + ".json")
        cmd = [args.binary, "--workload", workload, "--scale", "0.02",
               "--reps", "1", "--traced",
               "--json", result,
               "--tmp", os.path.join(args.tmp, workload)]
        status = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                                timeout=60).returncode
        if status != 0 or not os.path.isfile(result):
            problems.append(f"{workload}: exit status {status}")
            continue
        with open(result) as f:
            report = json.load(f)
        check_section(report["metrics"], spec["end_to_end"], workload,
                      problems)
        check_section(report["layers"], spec["per_layer"], workload,
                      problems)
        if report["failed"] != 0 or \
                report["metrics"]["failed_frac"]["value"] != 0:
            problems.append(f"{workload}: failures {report['failures']}")
        if not report.get("spans"):
            problems.append(f"{workload}: traced run recorded no spans")
    for problem in problems:
        print("FAIL:", problem)
    print("bench_e2e smoke:", "ok" if not problems else
          f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
