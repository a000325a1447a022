"""Workload inputs and timed passes for the ``perfbench`` benchmark.

Three workloads, each a repeatable *pass* over inputs drawn from the
benchmark seed (see README.md for why each was chosen):

* ``table`` -- the Table 1 harness (``run_table``, columns original /
  COM / COM,RET,COM) at ``jobs=2`` over every mid-size ISCAS89 profile;
  the seed picks the generator variant of each profile outside
  ``TABLE_FIXED``.
* ``prove`` -- certified ``prove()`` on the ``gen.protocols``
  properties plus a seeded sample of ISCAS89 targets.
* ``check`` -- the ``repro-check`` flow, uncertified:
  ``TBVEngine("COM,RET,COM").run`` once per design, then a complete
  ``bmc`` per target, on protocol designs plus seeded ISCAS89 designs.

Inputs are in-memory netlists built by ``repro.gen``; nothing goes
through a file format.  A draw is *cost-matched*: the seed picks
variants (and, for ``prove`` and ``check``, targets) at random, then a
seeded local search swaps choices until the draw's recorded total,
median-item and tail-item costs are within ``MATCH_TOLERANCE`` of a
typical draw's, so every seed measures about the same amount of work.
Recorded costs, golden Table 1 cells and exact first-hit times live in
``pool.json`` (``record.py``).
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cert import use_certification
from repro.core import TBVEngine
from repro.core.prove import prove
from repro.experiments.runner import PIPELINES, run_table
from repro.gen import iscas89, protocols
from repro import unroll

HERE = os.path.dirname(os.path.abspath(__file__))
POOL_FILE = os.path.join(HERE, "pool.json")

WORKLOADS = ("table", "prove", "check")

#: Worker processes for ``table``: the workload is defined at jobs=2.
TABLE_JOBS = 2
#: Mid-size profiles (15..250 registers).  The 500+-register ones are
#: left out: S13207_1 alone takes ~30 s and would set the join time.
TABLE_DESIGNS = (
    "S344", "S349", "S1196", "S1238", "S641", "S713", "S991", "S382",
    "S400", "S444", "S526N", "S499", "S953", "S967", "S635", "S838_1",
    "S938", "S1269", "S1512", "S1423", "S4863", "S3271", "S3330", "PROLOG",
    "S5378", "S3384", "S9234_1", "S6669")
TABLE_VARIANTS = 6
#: Designs whose variant is the same for every seed.  Their rows are
#: the 11th to 20th cheapest of the 28, so they hold the median (the
#: 14th and 15th) and the tail item (the 18th).  Drawn freely, a
#: variant change moved a neighbour across the median or tail position
#: and shifted those figures by up to 40%; fixed, the two figures come
#: from the same rows every time, and the tail row's neighbours cost
#: about the same.
TABLE_FIXED = {
    "S838_1": 0, "S938": 0, "S635": 0, "S713": 0, "S641": 0, "S1269": 0,
    "S953": 1, "S967": 1, "S1512": 3, "S1423": 2}
#: The other designs draw only variants whose recorded cost lies outside
#: the fixed rows' cost range widened by this share, so that no drawn
#: row lands among the fixed ones.
TABLE_BAND_MARGIN = 0.1

#: Generator variants for the ``prove`` / ``check`` ISCAS89 designs.
VARIANTS = 4
#: ``prove``: ISCAS89 design -> number of its targets drawn per pass.
#: Several targets per design, so work the portfolio repeats across
#: targets of one netlist shows in ``portfolio.calls_per_netlist``.
#: The counts put the median and the tail item inside the dense
#: S953/S967 cluster rather than on a cost cliff between designs.
PROVE_SLOTS = {
    "S27": 1, "S208_1": 1, "S298": 4, "S386": 3, "S510": 3, "S953": 8,
    "S967": 8, "S1423": 2, "S3271": 3}
#: At most this many targets per design enter the recorded pool.
PROVE_POOL_TARGETS = 12
#: The designs holding the median and the tail item keep one variant
#: for every seed (the seed still picks their targets): recorded costs
#: do not always rank variants as a timed pass does (see
#: ``CHECK_FIXED``), so a drawn variant could move those two figures.
PROVE_FIXED = {"S953": 0, "S967": 3}
#: ``check``: ISCAS89 design -> number of its targets checked per pass.
#: The median item falls in the S641/S953 cluster and the tail item in
#: the S3271/S5378 one.
CHECK_SLOTS = {
    "S27": 1, "S298": 2, "S386": 4, "S641": 14, "S953": 14, "S3271": 10,
    "S5378": 4}
#: As ``PROVE_FIXED``, for the S641/S953 and S3271 clusters: S953
#: variant 3 was recorded as cheap as variant 0 but checks 50% slower,
#: and moved ``item_p50_s`` by 40% on a seed that drew it.
CHECK_FIXED = {"S641": 0, "S953": 0, "S3271": 0}
CHECK_STRATEGY = "COM,RET,COM"
CHECK_MAX_DEPTH = 100

#: Protocol designs with known-good invariants (PROVEN is required).
#: Arbiters stay at <= 5 requesters: certification and deep complete
#: BMC blow up beyond that.
PROVE_PROTOCOLS = ("arbiter3", "arbiter4", "arbiter5", "fifo2", "fifo3",
                   "credit2", "credit3")
CHECK_PROTOCOLS = ("arbiter4", "arbiter5", "fifo3", "credit2")

SLOT_CANDIDATES = 64
MATCH_TOLERANCE = 0.01
MATCH_STEPS = 20000
REFERENCE_DRAWS = 31


def variant_seed(variant: int) -> Optional[int]:
    """Generator seed of a variant; variant 0 is the stock design."""
    return None if variant == 0 else variant


def iscas_netlist(design: str, variant: int):
    """The ISCAS89-profile netlist of ``design`` in ``variant``."""
    return iscas89.generate(design, seed=variant_seed(variant))


def generate_row(label: str, scale: float = 1.0):
    """``run_table`` generator for ``<design>~<variant>`` labels.

    Module-level so the table's worker processes can call it.
    """
    design, _, variant = label.partition("~")
    return iscas89.generate(design, seed=variant_seed(int(variant)),
                            scale=scale)


def protocol_netlist(name: str):
    """``arbiterN`` / ``fifoN`` / ``creditN`` from ``gen.protocols``."""
    for prefix, make in (("arbiter", protocols.round_robin_arbiter),
                         ("fifo", protocols.fifo_with_flags),
                         ("credit", protocols.credit_channel)):
        if name.startswith(prefix):
            return make(int(name[len(prefix):]))[0]
    raise ValueError(f"unknown protocol design {name!r}")


def load_pool(path: str = POOL_FILE) -> Dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Seeded, cost-matched draws
# ----------------------------------------------------------------------
def matched_choice(options: List[List[Any]], seed: int,
                   stats: Callable[[List[Any]], Tuple[float, ...]]
                   ) -> List[Any]:
    """Pick one entry per slot so the draw's ``stats`` are typical.

    ``options[i]`` lists the candidates for slot ``i``; ``stats`` maps a
    choice to a few recorded-cost statistics (total, median item, tail
    item).  The seed draws a random choice; a seeded local search then
    re-draws single slots while that brings every statistic closer to
    its median over ``REFERENCE_DRAWS`` fixed reference draws, stopping
    once all are within ``MATCH_TOLERANCE``.
    """
    def random_pick(rng: random.Random) -> List[Any]:
        return [rng.choice(slot) for slot in options]

    samples = [stats(random_pick(random.Random(f"reference-{i}")))
               for i in range(REFERENCE_DRAWS)]
    reference = [statistics.median(column) for column in zip(*samples)]

    def gap(choice: List[Any]) -> float:
        return max(abs(value / ref - 1)
                   for value, ref in zip(stats(choice), reference))

    rng = random.Random(seed)
    chosen = random_pick(rng)
    best = gap(chosen)
    for _ in range(MATCH_STEPS):
        if best <= MATCH_TOLERANCE:
            break
        slot = rng.randrange(len(options))
        trial = list(chosen)
        trial[slot] = rng.choice(options[slot])
        trial_gap = gap(trial)
        if trial_gap <= best:  # sideways moves escape plateaus
            chosen, best = trial, trial_gap
    return chosen


def tail_item(items: List[float]) -> float:
    """The item time with exactly 10 items beyond it (the largest when
    there are 10 or fewer)."""
    return sorted(items)[max(0, len(items) - 11)]


def item_stats(total: float, items: List[float]) -> Tuple[float, ...]:
    """(total, median item, tail item) of recorded costs."""
    return total, statistics.median(items), tail_item(items)


@dataclass
class Inputs:
    """One workload's drawn inputs, ready for timed passes."""

    workload: str
    seed: int
    #: table: ``DesignProfile`` per row, labelled ``<design>~<variant>``
    profiles: List[Any] = field(default_factory=list)
    #: prove: ``(key, netlist, target)``; check: ``(key, netlist)`` with
    #: the netlist's target list restricted to the checked targets
    items: List[Tuple] = field(default_factory=list)
    #: referee facts: item key -> {"protocol": bool, "first_hit": ...}
    facts: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: distinct netlists the pass runs on
    netlists: int = 0
    #: recorded (total, median item, tail item) cost of the draw, in
    #: seconds on the recording host
    recorded: Tuple[float, ...] = ()

    @property
    def keys(self) -> List[str]:
        if self.workload == "table":
            return [p.name for p in self.profiles]
        return [item[0] for item in self.items]


def _group(entries: List[Dict[str, Any]], *fields: str
           ) -> Dict[Tuple, List[Dict[str, Any]]]:
    out: Dict[Tuple, List[Dict[str, Any]]] = {}
    for entry in entries:
        out.setdefault(tuple(entry[f] for f in fields), []).append(entry)
    return out


def draw_table(pool: Dict[str, Any], seed: int) -> Inputs:
    rows = _group(pool["table"], "design")
    band = [row["cost"] for row in pool["table"]
            if TABLE_FIXED.get(row["design"]) == row["variant"]]
    low = min(band) * (1 - TABLE_BAND_MARGIN)
    high = max(band) * (1 + TABLE_BAND_MARGIN)

    def allowed(row: Dict[str, Any]) -> bool:
        if row["design"] in TABLE_FIXED:
            return row["variant"] == TABLE_FIXED[row["design"]]
        return not low <= row["cost"] <= high

    options = [[row for row in rows[(design,)] if allowed(row)]
               for design in TABLE_DESIGNS]

    # Two workers drain the rows longest-first, so the pass's wall time
    # tracks the larger of half the total and the longest row.
    def stats(chosen: List[Dict[str, Any]]) -> Tuple[float, ...]:
        costs = [row["cost"] for row in chosen]
        return item_stats(max(sum(costs) / TABLE_JOBS, max(costs)), costs)

    chosen = matched_choice(options, seed, stats)
    chosen.sort(key=lambda row: -row["cost"])
    profiles = [replace(iscas89.profile(row["design"]),
                        name=f"{row['design']}~{row['variant']}")
                for row in chosen]
    return Inputs("table", seed, profiles=profiles,
                  netlists=len(profiles),
                  recorded=stats(chosen),
                  facts={p.name: {"cells": row["cells"]}
                         for p, row in zip(profiles, chosen)})


def slot_options(workload: str, variants: Dict[str, List[Dict[str, Any]]],
                 slots: Dict[str, int], fixed: Dict[str, int]
                 ) -> List[List[Tuple]]:
    """Per slot, ``SLOT_CANDIDATES`` (variant entry, target subset) pairs.

    The candidates are the same for every seed, so every seed is matched
    against one reference; the seed only picks among them.  A design in
    ``fixed`` offers only that variant.
    """
    options = []
    for design, count in slots.items():
        rng = random.Random(f"{workload}-{design}")
        entries = [e for e in variants[design]
                   if e["variant"] == fixed.get(design, e["variant"])]
        slot = []
        for _ in range(SLOT_CANDIDATES):
            entry = rng.choice(entries)
            slot.append((entry, sorted(rng.sample(entry["targets"], count),
                                       key=lambda t: t["target"])))
        options.append(slot)
    return options


def _variants(entries: List[Dict[str, Any]]
              ) -> Dict[str, List[Dict[str, Any]]]:
    """Pool entries grouped as design -> variants, targets deduplicated
    (a generated design may list a target twice)."""
    out: Dict[str, List[Dict[str, Any]]] = {}
    for entry in entries:
        unique = {t["target"]: t for t in reversed(entry["targets"])}
        out.setdefault(entry["design"], []).append(
            dict(entry, targets=list(unique.values())))
    return out


def _add_protocols(inputs: Inputs, names: Tuple[str, ...]) -> None:
    for name in names:
        net = protocol_netlist(name)
        net.signature()
        target = net.targets[0]
        inputs.items.append((f"{name}/t{target}", net, target))
        inputs.facts[f"{name}/t{target}"] = {
            "protocol": True, "first_hit": None, "in_guard": True}


def _add_slots(inputs: Inputs, chosen: List[Tuple]) -> None:
    for entry, subset in chosen:
        design, variant = entry["design"], entry["variant"]
        net = iscas_netlist(design, variant)
        net.signature()  # lazy set-up, paid before the first item
        for t in subset:
            key = f"{design}~{variant}/t{t['target']}"
            inputs.items.append((key, net, t["target"]))
            inputs.facts[key] = {"protocol": False,
                                 "first_hit": t.get("first_hit"),
                                 "in_guard": t["in_guard"]}
    inputs.netlists += len(chosen)


def draw_prove(pool: Dict[str, Any], seed: int) -> Inputs:
    designs = _variants(
        {"design": d, "variant": v, "targets": targets}
        for (d, v), targets in _group(pool["prove"], "design",
                                      "variant").items())
    options = slot_options("prove", designs, PROVE_SLOTS, PROVE_FIXED)
    fixed = list(pool["protocols"]["prove"].values())

    def stats(chosen: List[Tuple]) -> Tuple[float, ...]:
        costs = fixed + [t["cost"] for _, subset in chosen for t in subset]
        return item_stats(sum(costs), costs)

    chosen = matched_choice(options, seed, stats)
    inputs = Inputs("prove", seed, recorded=stats(chosen),
                    netlists=len(PROVE_PROTOCOLS))
    _add_protocols(inputs, PROVE_PROTOCOLS)
    _add_slots(inputs, chosen)
    return inputs


def draw_check(pool: Dict[str, Any], seed: int) -> Inputs:
    options = slot_options("check", _variants(pool["check"]), CHECK_SLOTS,
                           CHECK_FIXED)
    fixed = list(pool["protocols"]["check"].values())

    # A checked target pays its BMC plus an even share of its design's
    # TBVEngine run.
    def stats(chosen: List[Tuple]) -> Tuple[float, ...]:
        costs = fixed + [t["cost"] + entry["engine_cost"] / len(subset)
                         for entry, subset in chosen for t in subset]
        return item_stats(sum(costs), costs)

    chosen = matched_choice(options, seed, stats)
    inputs = Inputs("check", seed, recorded=stats(chosen),
                    netlists=len(CHECK_PROTOCOLS))
    _add_protocols(inputs, CHECK_PROTOCOLS)
    _add_slots(inputs, chosen)
    # The flow runs once per design, on the design's checked targets.
    by_net: Dict[int, Tuple[str, Any, List[int]]] = {}
    for key, net, target in inputs.items:
        design = key.split("/")[0]
        by_net.setdefault(id(net), (design, net, []))[2].append(target)
    inputs.items = []
    for design, net, targets in by_net.values():
        scoped = net.copy()
        scoped.targets = targets
        inputs.items.append((design, scoped))
    return inputs


def draw(workload: str, seed: int,
         pool: Optional[Dict[str, Any]] = None) -> Inputs:
    """Build ``workload``'s inputs for ``seed`` (same seed, same inputs)."""
    pool = pool if pool is not None else load_pool()
    return {"table": draw_table, "prove": draw_prove,
            "check": draw_check}[workload](pool, seed)


# ----------------------------------------------------------------------
# Timed passes
# ----------------------------------------------------------------------
@dataclass
class PassRecord:
    """What one pass did: per-item seconds and verdicts."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    item_s: Dict[str, float] = field(default_factory=dict)
    #: multiplies this pass's times into reference-speed seconds
    #: (``speed.Sampler.factor``)
    speed: float = 1.0
    #: in-process workloads: ``perf_counter`` at each item's start, and
    #: the item's local speed factor (``speed.Sampler.factor_near``)
    item_at: Dict[str, float] = field(default_factory=dict)
    item_speed: Dict[str, float] = field(default_factory=dict)
    #: item key -> verdict dict (see ``referees``)
    verdicts: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: operations attempted / decided in this pass
    attempted: int = 0
    decided: int = 0
    errors: List[str] = field(default_factory=list)
    #: deterministic work counters (``layers.work_counters``)
    counters: Dict[str, int] = field(default_factory=dict)
    #: traced passes only: per-layer metrics and their details
    traced: bool = False
    layers: Dict[str, float] = field(default_factory=dict)
    layer_details: Dict[str, Any] = field(default_factory=dict)


def _cells(row) -> List[Any]:
    if row.error is not None:
        return [f"error: {row.error}"] * len(PIPELINES)
    out = []
    for pipeline in PIPELINES:
        col = row.columns.get(pipeline)
        if col is None or not col.ok:
            out.append(f"error: {col.error if col else 'missing'}")
        else:
            out.append([list(col.profile), col.useful, col.average])
    return out


def table_pass(inputs: Inputs, jobs: int = TABLE_JOBS,
               profiles: Optional[List[Any]] = None) -> PassRecord:
    rec = PassRecord()
    profiles = profiles if profiles is not None else inputs.profiles
    rows = run_table(generate_row, profiles, jobs=jobs)
    for profile, row in zip(profiles, rows):
        cells = _cells(row)
        rec.item_s[profile.name] = sum(
            col.seconds for col in row.columns.values())
        rec.verdicts[profile.name] = {"cells": cells}
        rec.attempted += len(cells)
        rec.decided += sum(1 for cell in cells if not isinstance(cell, str))
    return rec


def prove_pass(inputs: Inputs) -> PassRecord:
    rec = PassRecord()
    with use_certification(True):
        for key, net, target in inputs.items:
            rec.attempted += 1
            start = rec.item_at[key] = time.perf_counter()
            try:
                result = prove(net, target)
            except Exception as exc:  # a crash is a failed operation
                rec.item_s[key] = time.perf_counter() - start
                rec.verdicts[key] = {"status": "error",
                                     "error": f"{type(exc).__name__}: "
                                              f"{exc}"}
                continue
            rec.item_s[key] = time.perf_counter() - start
            rec.verdicts[key] = {
                "status": result.status, "bound": result.bound,
                "net": net, "target": target,
                "cex": result.counterexample,
                "degraded": result.degraded,
                "reason": result.exhaustion_reason}
            if result.status in ("proven", "falsified"):
                rec.decided += 1
    return rec


def check_pass(inputs: Inputs) -> PassRecord:
    rec = PassRecord()
    for key, net in inputs.items:
        start = time.perf_counter()
        try:
            reports = TBVEngine(CHECK_STRATEGY).run(net).reports
        except Exception as exc:
            rec.attempted += len(net.targets)
            rec.errors.append(f"{key}: {type(exc).__name__}: {exc}")
            for target in net.targets:
                rec.verdicts[f"{key}/t{target}"] = {"status": "error",
                                                    "error": str(exc)}
            continue
        share = (time.perf_counter() - start) / max(1, len(reports))
        for report in reports:
            item = f"{key}/t{report.target}"
            rec.attempted += 1
            verdict: Dict[str, Any] = {"bound": report.bound, "net": net,
                                       "target": report.target,
                                       "cex": None}
            start = rec.item_at[item] = time.perf_counter()
            if report.status == "proven":
                verdict["status"] = "proven"
            else:
                try:
                    # Through the module: traced passes wrap ``bmc`` there.
                    check = unroll.bmc(net, report.target,
                                       max_depth=CHECK_MAX_DEPTH,
                                       complete_bound=report.bound)
                    verdict["status"] = check.status
                    verdict["cex"] = check.counterexample
                except Exception as exc:
                    verdict = {"status": "error",
                               "error": f"{type(exc).__name__}: {exc}"}
            rec.item_s[item] = share + time.perf_counter() - start
            rec.verdicts[item] = verdict
            if verdict["status"] in ("proven", "falsified"):
                rec.decided += 1
    return rec


PASSES = {"table": table_pass, "prove": prove_pass, "check": check_pass}
