#!/usr/bin/env python3
"""perfbench: the repository's benchmark (see README.md beside this file).

Usage, from the repository root::

    python3 perfbench/run.py --workload table|prove|check --seed N \\
        --seconds S --trace 0|1

Draws the workload's inputs from ``--seed``, repeats timed passes over
them for ``--seconds`` (at least ``MIN_PASSES``), checks
every verdict against the referees, and prints two JSON lines: a
detail record (host fingerprint, effective toggles, work counters,
referee failures) and, last, the result::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

Every time is scaled to one reference host speed by
``speed.Sampler`` (the detail record keeps the raw times too).
``--trace 0`` reports the end-to-end metrics with every instrument
off; ``--trace 1`` alternates plain and traced passes and reports the
per-layer metrics.  Exits 1 when a referee fails and 2 when the
program's source is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

# The benchmark's own modules are imported inside functions, once
# ``main`` has put them on the path: ``REPRO_*`` must be unset before
# ``repro`` is imported, and the set-up probe times that import.
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_PASSES = 3
#: With ``--trace 1``: at least this many (plain, traced) pass pairs.
MIN_TRACED_PAIRS = 2
SETUP_PROBES = 5

#: End-to-end metrics and their units (BENCHMARK.json lists the same).
END_TO_END = {
    "wall_s": "s", "cpu_s": "s", "item_p50_s": "s", "item_tail_s": "s",
    "decided_frac": "frac", "peak_rss_mb": "MB", "setup_s": "s"}


def scrub_env() -> List[str]:
    """Unset every ``REPRO_*`` toggle before the program is imported."""
    removed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in removed:
        del os.environ[key]
    return removed


def setup_probe(workload: str, seed: int) -> int:
    """One cold set-up: program import plus input construction."""
    import speed

    with speed.Sampler() as sampler:
        start = time.perf_counter()
        import workloads

        workloads.draw(workload, seed)
        took = time.perf_counter() - start
    print(json.dumps({"setup_s": took * sampler.factor(),
                      "raw_s": took}))
    return 0


def measure_setup(workload: str, seed: int) -> List[Dict[str, float]]:
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return samples


def effective_toggles() -> Dict[str, Any]:
    from repro import cert, obs
    from repro.obs import metrics
    from repro.sat import cube, solver, template

    return {
        "flat_solver": solver.flat_enabled(),
        "sat_profile": solver.profile_enabled(),
        "sat_proofs": solver.proofs_enabled(),
        "sat_simplify": solver.simplify_enabled(),
        "sat_debug": solver.debug_checks_enabled(),
        "cubes": cube.cubes_enabled(),
        "frame_templates": template.templates_enabled(),
        "metrics": metrics.metrics_enabled(),
        "trace_sink": obs.trace.active_sink() is not None,
        "certification": cert.certification_enabled(),
    }


def run_pass(workload: str, inputs, tracer) -> Any:
    """One timed pass in a fresh registry, cold template cache."""
    from repro import obs
    from repro.sat import clear_template_cache

    import layers
    import speed
    import workloads

    gc.collect()
    clear_template_cache()
    reg = obs.Registry("perfbench")
    if tracer is not None:
        tracer.install()
    try:
        with obs.scoped(reg), speed.Sampler() as sampler:
            cpu = os.times()
            start = time.perf_counter()
            rec = workloads.PASSES[workload](inputs)
            rec.wall_s = time.perf_counter() - start
            end = os.times()
    finally:
        if tracer is not None:
            tracer.uninstall()
    rec.cpu_s = sum(end[:4]) - sum(cpu[:4])
    rec.speed = sampler.factor()
    rec.item_speed = {key: sampler.factor_near(at)
                      for key, at in rec.item_at.items()}
    snapshot = reg.snapshot()
    rec.counters = layers.work_counters(snapshot)
    rec.traced = tracer is not None
    if rec.traced:
        parallel = workload == "table"
        rec.layers, rec.layer_details = layers.layer_metrics(
            snapshot, rec.wall_s,
            jobs=workloads.TABLE_JOBS if parallel else 1,
            netlists=inputs.netlists, parallel=parallel)
    return rec


def referee_passes(workload: str, inputs, records) -> Dict[str, Any]:
    """Count attempted/failed operations across all passes."""
    import referees
    import workloads

    attempted = sum(r.attempted for r in records)
    failures: List[str] = []
    for i, rec in enumerate(records):
        failures += [f"pass {i}: {e}" for e in rec.errors]
        for key, v in rec.verdicts.items():
            problem = referees.check(workload, v,
                                     inputs.facts.get(key, {}))
            if problem:
                failures.append(f"pass {i}: {key}: {problem}")

    def summary(rec):
        return {k: (v["cells"] if "cells" in v
                    else (v["status"], v.get("bound")))
                for k, v in rec.verdicts.items()}

    checks = {
        "verdicts repeat on every pass":
            all(summary(r) == summary(records[0]) for r in records),
        "work counters repeat on every pass":
            all(r.counters == records[0].counters for r in records),
    }
    if workload == "table":
        # Byte-identical tables at any jobs: re-run three mid-cost rows
        # in-process and compare with the jobs=2 pass.
        from repro import obs

        mid = len(inputs.profiles) // 2
        subset = inputs.profiles[mid - 1:mid + 2]
        with obs.scoped():
            serial = workloads.table_pass(inputs, jobs=1, profiles=subset)
        checks["jobs=1 cells equal jobs=2 cells"] = all(
            serial.verdicts[p.name] == records[0].verdicts[p.name]
            for p in subset)
    for name, ok in checks.items():
        attempted += 1
        if not ok:
            failures.append(f"check failed: {name}")
    return {"attempted": attempted, "failed": len(failures),
            "failures": failures, "checks": checks}


def end_to_end(workload: str, records, setup: List[Dict[str, float]],
               rss_kb: int) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    import layers
    import workloads

    plain = [r for r in records if not r.traced]
    # Per item, the mean over passes of the scaled times.  An item is
    # scaled by the host's speed around it where the item ran in this
    # process, else (table rows, run in workers) by the pass's factor;
    # the factor tracks the host only in part, so a short item's median
    # over a few passes would still flip, where its mean moves smoothly.
    per_item = {key: statistics.fmean(
                    r.item_s[key] * r.item_speed.get(key, r.speed)
                    for r in plain)
                for key in plain[0].item_s}
    items = list(per_item.values())
    tail_q = layers.tail_quantile(len(items))
    first = plain[0]
    values = {
        "wall_s": statistics.median(r.wall_s * r.speed for r in plain),
        "cpu_s": statistics.median(r.cpu_s * r.speed for r in plain),
        "item_p50_s": statistics.median(items),
        "item_tail_s": workloads.tail_item(items),
        "decided_frac": first.decided / first.attempted,
        "peak_rss_mb": rss_kb / 1024.0,
        "setup_s": statistics.median(s["setup_s"] for s in setup),
    }
    detail = {"items": len(items), "item_tail_quantile": tail_q,
              "item_s": {k: round(v, 6) for k, v in per_item.items()},
              "samples_per_item": len(plain),
              "speed_factors": [r.speed for r in plain],
              "raw_wall_s_passes": [r.wall_s for r in plain],
              "raw_cpu_s_passes": [r.cpu_s for r in plain],
              "setup_samples": setup,
              "peak_rss_of": "largest table worker"
              if workload == "table" else "benchmark process"}
    return {k: {"value": v, "unit": END_TO_END[k]}
            for k, v in values.items()}, detail


def per_layer(records) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    import layers

    plain = [r for r in records if not r.traced]
    traced = [r for r in records if r.traced]
    names = traced[0].layers.keys()
    values = {name: statistics.median(r.layers[name] for r in traced)
              for name in names}
    values["trace.overhead_frac"] = (
        statistics.median(r.wall_s * r.speed for r in traced)
        / statistics.median(r.wall_s * r.speed for r in plain) - 1)
    self_s = {layer: statistics.median(r.layer_details["self_s"][layer]
                                       for r in traced)
              for layer in traced[0].layer_details["self_s"]}
    detail = {"self_s": self_s,
              "unattributed_base": traced[0].layer_details[
                  "unattributed_base"],
              "sat_tail_quantile": traced[0].layer_details[
                  "sat_tail_quantile"],
              "traced_passes": len(traced), "plain_passes": len(plain)}
    return {k: {"value": v, "unit": layers.PER_LAYER_UNITS[k]}
            for k, v in values.items()}, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("table", "prove", "check"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: program source not found under {SRC}",
              file=sys.stderr)
        return 2
    removed = scrub_env()
    sys.path[:0] = [SRC, HERE]
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    import host
    import layers
    import workloads
    from repro.obs.metrics import use_metrics
    from repro.sat.solver import use_sat_profile

    before = host.fingerprint()
    inputs = workloads.draw(args.workload, args.seed)
    tracer = layers.Tracer() if args.trace else None
    min_passes = 2 * MIN_TRACED_PAIRS if args.trace else MIN_PASSES
    records = []
    with use_sat_profile(False), use_metrics(False):
        toggles = effective_toggles()
        start = time.perf_counter()
        while True:
            # Past the minimum, start a pass only if a typical one still
            # ends within --seconds.
            if len(records) >= min_passes and (
                    time.perf_counter() - start
                    + statistics.median(r.wall_s for r in records)
                    > args.seconds):
                break
            traced = tracer if len(records) % 2 else None
            records.append(run_pass(args.workload, inputs, traced))
    who = resource.RUSAGE_CHILDREN if args.workload == "table" \
        else resource.RUSAGE_SELF
    rss_kb = resource.getrusage(who).ru_maxrss

    verdict = referee_passes(args.workload, inputs, records)
    if args.trace:
        metrics, detail = per_layer(records)
    else:
        setup = measure_setup(args.workload, args.seed)
        metrics, detail = end_to_end(args.workload, records, setup, rss_kb)
    after = host.calibrate()
    print(json.dumps({"detail": {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "passes": len(records), "inputs": inputs.keys,
        "recorded_cost_s": inputs.recorded,
        "fingerprint": dict(before, calibration_after_s=after),
        "toggles": toggles, "repro_env_unset": removed,
        "workload_sets": {"certification": args.workload == "prove"},
        "work_counters": records[0].counters,
        "checks": verdict["checks"], "failures": verdict["failures"][:20],
        **detail}}))
    print(json.dumps({"correct": verdict["failed"] == 0,
                      "attempted": verdict["attempted"],
                      "failed": verdict["failed"], "metrics": metrics}))
    return 0 if verdict["failed"] == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
