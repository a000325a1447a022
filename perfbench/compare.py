#!/usr/bin/env python3
"""Compare perfbench runs of two commits made on the same host.

Usage, from the repository root::

    python3 perfbench/compare.py --base a1.out a2.out ... \\
        --cand b1.out b2.out ...

Each file holds the captured standard output of one ``run.py`` run.
Per metric the medians of the two sides are compared; a metric
regresses when the candidate's median is worse than the base's by more
than the bound ``BENCHMARK.json`` gives it.  Runs whose host
fingerprints differ (CPU model, usable cores, Python build, or
calibration kernel time more than ``CALIBRATION_SLACK`` apart) are not
compared: the difference is reported instead of a regression.  Work
counters of runs with the same seed are compared exactly, so a time
change can be told apart from a change in the work done.

Exit status: 0 no regression, 1 regression, 3 not comparable.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Any, Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CALIBRATION_SLACK = 0.10
HOST_KEYS = ("cpu_model", "nproc", "python", "machine")


def load(path: str) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """The (detail, result) records of one run's output."""
    detail = result = None
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line.startswith("{"):
                continue
            record = json.loads(line)
            if "detail" in record:
                detail = record["detail"]
            elif "metrics" in record:
                result = record
    if detail is None or result is None:
        raise SystemExit(f"{path}: no perfbench result found")
    return detail, result


def host_mismatch(base: List[Dict[str, Any]],
                  cand: List[Dict[str, Any]]) -> List[str]:
    problems = []
    for key in HOST_KEYS:
        seen = {str(d["fingerprint"][key]) for d in base + cand}
        if len(seen) > 1:
            problems.append(f"{key}: {sorted(seen)}")
    calib = [statistics.median(d["fingerprint"]["calibration_s"]
                               for d in side) for side in (base, cand)]
    if abs(calib[1] / calib[0] - 1) > CALIBRATION_SLACK:
        problems.append(f"calibration_s: base {calib[0]:.4f} vs "
                        f"cand {calib[1]:.4f}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--cand", nargs="+", required=True)
    args = parser.parse_args(argv)
    base = [load(p) for p in args.base]
    cand = [load(p) for p in args.cand]
    details = [d for d, _ in base], [d for d, _ in cand]

    workloads = {d["workload"] for d in details[0] + details[1]}
    if len(workloads) != 1:
        print(f"not comparable: mixed workloads {sorted(workloads)}")
        return 3
    problems = host_mismatch(*details)
    if problems:
        print("not comparable: host fingerprints differ")
        for problem in problems:
            print(f"  {problem}")
        return 3

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    regressed = False
    print(f"{'metric':<28} {'base':>12} {'cand':>12} {'worse':>8}  verdict")
    names = sorted(set(base[0][1]["metrics"]) & set(cand[0][1]["metrics"]))
    for name in names:
        b = statistics.median(r["metrics"][name]["value"] for _, r in base)
        c = statistics.median(r["metrics"][name]["value"] for _, r in cand)
        meta = bounds.get(name, {})
        worse = (c - b) if meta.get("better") == "lower" else (b - c)
        change = worse / b if b else 0.0
        verdict = ""
        if "bound" in meta:
            verdict = "REGRESSED" if change > meta["bound"] else "ok"
            regressed |= change > meta["bound"]
        print(f"{name:<28} {b:>12.6g} {c:>12.6g} {change:>+8.1%}  "
              f"{verdict}")

    counters = {}
    for d in details[0]:
        counters[d["seed"]] = d["work_counters"]
    same = [d["work_counters"] == counters[d["seed"]]
            for d in details[1] if d["seed"] in counters]
    if same:
        print("work counters: "
              + ("identical" if all(same) else "DIFFER")
              + f" on {len(same)} same-seed run(s)")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
