"""Record ``pool.json``: the candidates every seeded draw picks from.

Usage (from the repository root; about fifteen minutes for every
section)::

    python3 perfbench/record.py [table] [prove] [check] [protocols]

With no arguments every section is re-recorded.

For every candidate it stores what a draw or a referee needs:

* ``table`` -- per (profile, variant): the row's cost and its golden
  cells (profile, |T'|, average bound per column) at jobs=1, verified
  identical at jobs=2.  The cost is measured the way a pass measures a
  row: the median over ``REPS`` jobs=2 passes over every candidate of
  the row's time, scaled by the pass's ``speed.Sampler`` factor (rows
  timed alone at jobs=1 ranked differently, so matched draws differed
  by up to 18% in total);
* ``prove`` -- per (design, variant, target): certified ``prove()`` cost
  and, within ``diameter.exact``'s size guard, the exact first-hit time;
* ``check`` -- per (design, variant): ``TBVEngine`` cost, per-target
  complete-BMC cost and exact first-hit times;
* ``protocols`` -- the item costs of the fixed protocol items.

Other costs are the best of ``REPS`` seconds, a design's items timed in
pass order.  Costs only balance the draws; they never gate a result.  The golden cells and
first-hit times are referee facts, so re-record the ``table``, ``prove``
and ``check`` sections only at a commit whose output is known to be
right.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from dataclasses import replace  # noqa: E402

from repro import obs  # noqa: E402
from repro.cert import use_certification  # noqa: E402
from repro.core import TBVEngine  # noqa: E402
from repro.core.prove import prove  # noqa: E402
from repro.diameter.exact import MAX_EXPLICIT_BITS, \
    first_hit_time  # noqa: E402
from repro.gen import iscas89  # noqa: E402
from repro.sat import clear_template_cache  # noqa: E402
from repro.unroll import bmc  # noqa: E402

import host  # noqa: E402
import speed  # noqa: E402
import workloads as w  # noqa: E402


#: Repetitions per timing.  The best of several catches the host's fast
#: periods reliably, so recorded costs compare across candidates.
REPS = 5


def timed_in_order(calls):
    """Best-of-``REPS`` seconds of each call, and its last result.

    Each repetition runs ``calls`` in order from a cold frame-template
    cache, the way a pass runs one design's items.
    """
    best = [float("inf")] * len(calls)
    results = [None] * len(calls)
    for _ in range(REPS):
        clear_template_cache()
        with obs.scoped():
            for i, call in enumerate(calls):
                start = time.perf_counter()
                results[i] = call()
                best[i] = min(best[i], time.perf_counter() - start)
    return [round(b, 5) for b in best], results


def exact_facts(net, target):
    bits = len(net.state_elements) + len(net.inputs)
    if bits > MAX_EXPLICIT_BITS:
        return {"in_guard": False}
    return {"in_guard": True, "first_hit": first_hit_time(net, target)}


def record_table():
    candidates = [(design, variant) for design in w.TABLE_DESIGNS
                  for variant in range(w.TABLE_VARIANTS)]
    profiles = [replace(iscas89.profile(design), name=f"{design}~{variant}")
                for design, variant in candidates]
    with obs.scoped():
        serial = w.table_pass(None, jobs=1, profiles=profiles)
    costs = {p.name: [] for p in profiles}
    for rep in range(REPS):
        clear_template_cache()
        with obs.scoped(), speed.Sampler() as sampler:
            rec = w.table_pass(None, jobs=w.TABLE_JOBS, profiles=profiles)
        for p in profiles:
            if rec.verdicts[p.name] != serial.verdicts[p.name]:
                raise SystemExit(f"{p.name}: cells differ at jobs=1 "
                                 f"and jobs={w.TABLE_JOBS}")
            costs[p.name].append(rec.item_s[p.name] * sampler.factor())
        print(f"table pass {rep} factor {sampler.factor():.3f}",
              file=sys.stderr, flush=True)
    return [{"design": design, "variant": variant,
             "cost": round(statistics.median(costs[p.name]), 5),
             "cells": serial.verdicts[p.name]["cells"]}
            for (design, variant), p in zip(candidates, profiles)]


def record_prove():
    out = []
    with use_certification(True):
        for design in w.PROVE_SLOTS:
            for variant in range(w.VARIANTS):
                net = w.iscas_netlist(design, variant)
                targets = list(dict.fromkeys(net.targets))
                targets = targets[:w.PROVE_POOL_TARGETS]
                costs, results = timed_in_order(
                    [lambda t=t: prove(net, t) for t in targets])
                for target, cost, result in zip(targets, costs, results):
                    entry = {"design": design, "variant": variant,
                             "target": target, "cost": cost,
                             "status": result.status}
                    entry.update(exact_facts(net, target))
                    out.append(entry)
                print(f"prove {design}~{variant} {sum(costs):.3f}",
                      file=sys.stderr, flush=True)
    return out


def record_check():
    out = []
    for design in w.CHECK_SLOTS:
        for variant in range(w.VARIANTS):
            net = w.iscas_netlist(design, variant)
            reports = TBVEngine(w.CHECK_STRATEGY).run(net).reports
            checked = [r for r in reports if r.status != "proven"]
            costs, _ = timed_in_order([
                lambda: TBVEngine(w.CHECK_STRATEGY).run(net)] + [
                lambda r=r: bmc(net, r.target, max_depth=w.CHECK_MAX_DEPTH,
                                complete_bound=r.bound) for r in checked])
            bmc_cost = {r.target: c for r, c in zip(checked, costs[1:])}
            targets = []
            for report in reports:
                entry = {"target": report.target,
                         "cost": bmc_cost.get(report.target, 0.0)}
                entry.update(exact_facts(net, report.target))
                targets.append(entry)
            out.append({"design": design, "variant": variant,
                        "engine_cost": costs[0], "targets": targets})
            print(f"check {design}~{variant} {costs[0]:.3f}",
                  file=sys.stderr, flush=True)
    return out


def record_protocols():
    """Item costs of the fixed protocol items (they are never drawn,
    but their costs place the drawn items' quantiles)."""
    out = {"prove": {}, "check": {}}
    with use_certification(True):
        for name in w.PROVE_PROTOCOLS:
            net = w.protocol_netlist(name)
            (out["prove"][name],), _ = timed_in_order(
                [lambda: prove(net, net.targets[0])])
    for name in w.CHECK_PROTOCOLS:
        net = w.protocol_netlist(name)
        (out["check"][name],), _ = timed_in_order([lambda: [
            bmc(net, r.target, max_depth=w.CHECK_MAX_DEPTH,
                complete_bound=r.bound)
            for r in TBVEngine(w.CHECK_STRATEGY).run(net).reports
            if r.status != "proven"]])
    return out


SECTIONS = {"table": record_table, "prove": record_prove,
            "check": record_check, "protocols": record_protocols}


def main(argv=None) -> int:
    """Re-record the named sections (default: all) of ``pool.json``."""
    names = (argv if argv is not None else sys.argv[1:]) or list(SECTIONS)
    pool = w.load_pool() if os.path.exists(w.POOL_FILE) else {}
    pool["fingerprint"] = host.fingerprint()
    for name in names:
        pool[name] = SECTIONS[name]()
    with open(w.POOL_FILE, "w") as handle:
        json.dump(pool, handle, indent=None, separators=(",", ":"))
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
