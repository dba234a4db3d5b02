#!/usr/bin/env python3
"""Compare two directories of bench_e2e run JSONs (stdlib only).

    python3 bench/e2e/compare.py BEFORE_DIR AFTER_DIR [--write-baseline FILE]

Every *.json file bench_e2e wrote with --json is one run. Runs are
grouped by workload; for each (workload, metric) the row shows each
side's median, quartiles (statistics.quantiles, n=4) and run count,
the change of the medians, and a label against the metric's bound in
BENCHMARK.json:

  worse           AFTER's median is worse than BEFORE's by more than
                  the bound
  unresolved      a side has fewer than 3 runs (its spread is
                  unknown), or its quartile spread exceeds the bound
                  and AFTER does not beat BEFORE on every run
  better          AFTER's median beats BEFORE's by more than BEFORE's
                  own quartile spread and by more than the bound
  within bound    anything else

Metrics without a bound (failed_frac, sim_miss_pct) must match
exactly: labelled "equal" or "differs". A host/build fingerprint that
differs between the sides is reported before the table and every
bounded row is labelled unresolved. Exit status 1 when any row is
worse or differs, or a run failed a check.

--write-baseline writes both sides' summaries, fingerprints and
command lines to FILE (how bench/e2e/baseline.json is produced).
"""

import argparse
import glob
import json
import os
import statistics
import sys

# Fingerprint fields that legitimately differ between compared runs.
IGNORED_FINGERPRINT = {"git_sha", "seed"}


def load_runs(directory):
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            run = json.load(f)
        if "workload" in run and "metrics" in run:
            run["_path"] = path
            runs.append(run)
    if not runs:
        sys.exit(f"compare.py: no bench_e2e run JSONs in {directory}")
    return runs


def summary(values):
    values = sorted(values)
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def spread(s):
    return (s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0


def label(metric, before, after, bvals, avals, fingerprint_ok):
    if metric is None:
        return "equal" if sorted(bvals) == sorted(avals) else "differs"
    if not fingerprint_ok or min(before["n"], after["n"]) < 3:
        return "unresolved"
    higher = metric["better"] == "higher"
    base = before["median"]
    change = (after["median"] - base) / abs(base) if base else 0.0
    gain = change if higher else -change
    if gain < -metric["bound"]:
        return "worse"
    all_better = (min(avals) > max(bvals)) if higher \
        else (max(avals) < min(bvals))
    if max(spread(before), spread(after)) > metric["bound"] and \
            not all_better:
        return "unresolved"
    if gain > max(spread(before), metric["bound"]):
        return "better"
    return "within bound"


def fingerprints(runs):
    prints = set()
    for run in runs:
        fp = {k: v for k, v in run.get("fingerprint", {}).items()
              if k not in IGNORED_FINGERPRINT}
        prints.add(json.dumps(fp, sort_keys=True))
    return prints


def grouped(runs):
    by = {}
    for run in runs:
        for name, metric in run["metrics"].items():
            by.setdefault((run["workload"], name), []).append(
                metric["value"])
    return by


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("before")
    parser.add_argument("after")
    parser.add_argument("--write-baseline")
    args = parser.parse_args()

    with open(os.path.join(here, "..", "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    before_runs = load_runs(args.before)
    after_runs = load_runs(args.after)

    status = 0
    before_fp = fingerprints(before_runs)
    after_fp = fingerprints(after_runs)
    fingerprint_ok = before_fp == after_fp and len(before_fp) == 1
    if not fingerprint_ok:
        print("WARNING: host/build fingerprints differ; timing rows are "
              "unresolved")
        for side, prints in (("before", before_fp), ("after", after_fp)):
            for fp in sorted(prints):
                print(f"  {side}: {fp}")
    for run in before_runs + after_runs:
        if run.get("failed", 0) != 0 or not run.get("correct", False):
            print(f"FAILED CHECKS: {run['_path']}: {run.get('failures')}")
            status = 1

    before = grouped(before_runs)
    after = grouped(after_runs)
    header = (f"{'workload':9} {'metric':18} {'before med [q1, q3] n':34} "
              f"{'after med [q1, q3] n':34} {'change':>8}  label")
    print(header)
    print("-" * len(header))
    rows = []
    order = [w["name"] for w in spec["workloads"]]
    keys = sorted(set(before) & set(after),
                  key=lambda k: (order.index(k[0]) if k[0] in order
                                 else len(order), k[1]))
    for workload, name in keys:
        bvals, avals = before[(workload, name)], after[(workload, name)]
        b, a = summary(bvals), summary(avals)
        verdict = label(bounds.get(name), b, a, bvals, avals,
                        fingerprint_ok)
        if verdict in ("worse", "differs"):
            status = 1
        change = ((a["median"] - b["median"]) / abs(b["median"]) * 100
                  if b["median"] else 0.0)
        fmt = lambda s: (f"{s['median']:.4g} [{s['q1']:.4g}, "
                         f"{s['q3']:.4g}] {s['n']}")
        print(f"{workload:9} {name:18} {fmt(b):34} {fmt(a):34} "
              f"{change:+7.1f}%  {verdict}")
        rows.append({"workload": workload, "metric": name, "before": b,
                     "after": a, "label": verdict})
    for missing in sorted(set(before) ^ set(after)):
        print(f"only in one side: {missing[0]} {missing[1]}")

    if args.write_baseline:
        def runs_of(runs):
            """Command template and seeds per workload."""
            out = {}
            for r in runs:
                entry = out.setdefault(r["workload"], {
                    "command": " ".join([
                        "python3", "bench/e2e/run.py", "--workload",
                        r["workload"], "--seed", "<seed>", "--seconds",
                        "%g" % r.get("seconds", 0), "--trace",
                        "1" if r.get("traced") else "0"]),
                    "seeds": []})
                entry["seeds"] = sorted(entry["seeds"] + [r["seed"]])
            return out
        baseline = {
            "paths": spec["paths"],
            "fingerprint": [json.loads(fp) for fp in sorted(before_fp)],
            "sets": {"first": runs_of(before_runs),
                     "second": runs_of(after_runs)},
            "rows": rows,
        }
        with open(args.write_baseline, "w") as f:
            json.dump(baseline, f, indent=1, sort_keys=True)
            f.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
