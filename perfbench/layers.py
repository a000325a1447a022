"""Per-layer timing for the traced run, from outside the program.

``Tracer.install()`` wraps each layer's public functions (``LAYERS``)
and ``uninstall()`` restores them; nothing inside ``src/`` changes.
A wrapper records the outermost call into its layer -- re-entrant calls
pass straight through -- and keeps a stack of open layer calls, so each
call also knows its *self* time (its duration minus the time of the
layer calls nested inside it).

The numbers travel as counters on the program's own ``repro.obs``
registry (``perfbench.<layer>.calls|busy_ns|self_ns``).  That makes
the table workload's worker processes report through the path their
registry snapshots already take: forked workers inherit the installed
wrappers, and their counters come home merged under
``parallel/table/<row>/`` prefixes, which ``leaf_sums`` folds back by
leaf name.  SAT solve latencies land in log-spaced histogram-bucket
counters (``perfbench.sat.hist.<bucket>``) that merge the same way.
"""

from __future__ import annotations

import functools
import importlib
import math
import pkgutil
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

from repro import obs

#: layer -> public callables ("module:function" or "module:Class.method")
LAYERS: Dict[str, Tuple[str, ...]] = {
    "com": ("repro.transform.redundancy:redundancy_removal",),
    "ret": ("repro.transform.retime:retime",),
    "ret.lp": ("repro.transform.retime:linprog",),
    "strash": ("repro.transform.strash:strash",),
    "sim.ternary": ("repro.sim.ternary:ternary_eval",
                    "repro.sim.ternary:ternary_initial_state",
                    "repro.sim.ternary:constant_state_elements"),
    "sim.random": ("repro.sim.random_sim:random_signatures",
                   "repro.sim.random_sim:signature_classes"),
    "rebuild": ("repro.netlist.rebuild:rebuild",),
    "structural": ("repro.diameter.structural:StructuralAnalysis.__init__",
                   "repro.diameter.structural:StructuralAnalysis.bound",
                   "repro.diameter.structural:StructuralAnalysis.bounds"),
    "portfolio": ("repro.core.portfolio:compare_strategies",),
    "unroll": ("repro.unroll.unroller:Unrolling.__init__",
               "repro.unroll.unroller:Unrolling.frame"),
    "bmc": ("repro.unroll.bmc:bmc",),
    "kind": ("repro.unroll.induction:k_induction",),
    "localize": ("repro.transform.localize_cegar:localization_refinement",),
    "sat": ("repro.sat.solver:Solver.solve",),
    "cert.drat": ("repro.cert:certify_unsat",),
    "cert.replay": ("repro.cert:certify_witness",),
    "gen": ("repro.gen.profiles:synthesize",),
    # The table's worker task: a root like the pass itself, not a layer.
    "task": ("repro.parallel.workers:run_design",),
}
ROOTS = ("task",)

#: SAT latency histogram resolution: buckets per power of two.
HIST_STEPS = 8
PREFIX = "perfbench."


def _resolve(spec: str) -> Tuple[Any, str]:
    module_name, _, path = spec.partition(":")
    owner: Any = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Installs and removes the layer wrappers."""

    def __init__(self) -> None:
        self._stack: List[List[Any]] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    def _wrap(self, layer: str, fn: Callable,
              count_frames: bool) -> Callable:
        stack = self._stack
        calls, busy, own = (f"{PREFIX}{layer}.{k}"
                            for k in ("calls", "busy_ns", "self_ns"))
        is_sat = layer == "sat"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for open_call in stack:
                if open_call[0] == layer:
                    return fn(*args, **kwargs)
            frames = len(args[0].frames) if count_frames else 0
            open_call = [layer, 0]
            stack.append(open_call)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                took = time.perf_counter_ns() - start
                stack.pop()
                if stack:
                    stack[-1][1] += took
                reg = obs.get_registry()
                reg.counter(calls)
                reg.counter(busy, took)
                reg.counter(own, took - open_call[1])
                if is_sat:
                    bucket = int(math.log2(max(took, 1)) * HIST_STEPS)
                    reg.counter(f"{PREFIX}sat.hist.{bucket}")
                if count_frames:
                    reg.counter(f"{PREFIX}unroll.frames",
                                len(args[0].frames) - frames)
        return wrapper

    def install(self) -> None:
        # Import every program module first: a module imported while
        # the wrappers are in place would keep them after uninstall.
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(info.name)
        for layer, specs in LAYERS.items():
            for spec in specs:
                owner, attr = _resolve(spec)
                original = vars(owner)[attr]
                wrapper = self._wrap(layer, original,
                                     spec.endswith("Unrolling.frame"))
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
                    continue
                # Module-level function: rebind every ``from x import f``
                # copy in the program's modules too.
                for module in list(sys.modules.values()):
                    if not getattr(module, "__name__", "").startswith(
                            "repro"):
                        continue
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, wrapper)

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


def leaf_sums(snapshot: Dict[str, Any]) -> Dict[str, int]:
    """Counters summed by leaf name.

    Worker telemetry arrives under ``parallel/<pool>/<label>/`` key
    prefixes; dropping the prefix folds every copy of a counter into
    one.  ``cert.*`` counters are the exception: the executor also
    folds them in un-prefixed, so only the top-level key counts.
    """
    counters: Dict[str, int] = {}
    for key, value in snapshot.get("counters", {}).items():
        leaf = key.rsplit("/", 1)[-1]
        if leaf.startswith("cert.") and "/" in key:
            continue
        counters[leaf] = counters.get(leaf, 0) + value
    return counters


def hist_quantile(counters: Dict[str, int], q: float) -> float:
    """Seconds at quantile ``q`` of the SAT latency histogram."""
    head = f"{PREFIX}sat.hist."
    buckets = sorted((int(k[len(head):]), v) for k, v in counters.items()
                     if k.startswith(head))
    total = sum(v for _, v in buckets)
    if not total:
        return 0.0
    rank = q * total
    seen = 0
    for bucket, count in buckets:
        seen += count
        if seen >= rank:
            return 2 ** ((bucket + 0.5) / HIST_STEPS) / 1e9
    return 2 ** ((buckets[-1][0] + 0.5) / HIST_STEPS) / 1e9


def tail_quantile(n: int) -> float:
    """The highest quantile with at least 10 of ``n`` samples above it."""
    return max(0.0, 1.0 - 10.0 / n) if n else 0.0


#: Per-layer metrics of the traced run and their units.
PER_LAYER_UNITS: Dict[str, str] = {
    "com.calls": "count", "com.busy_s": "s", "com.sat_queries": "count",
    "com.merges": "count", "com.merges_per_query": "ratio",
    "ret.busy_s": "s", "ret.lp_s": "s", "strash.busy_s": "s",
    "sim.ternary_s": "s", "sim.ternary_calls": "count", "sim.random_s": "s",
    "netlist.rebuild_calls": "count", "netlist.rebuild_s": "s",
    "gen.busy_s": "s",
    "structural.calls": "count", "structural.busy_s": "s",
    "structural.gc_refine_s": "s",
    "portfolio.calls": "count", "portfolio.busy_s": "s",
    "portfolio.calls_per_netlist": "ratio",
    "unroll.frames": "count", "unroll.encode_s": "s",
    "template.bulk_clauses": "count",
    "bmc.calls": "count", "bmc.busy_s": "s", "kind.calls": "count",
    "kind.busy_s": "s", "localize.busy_s": "s",
    "sat.solve_calls": "count", "sat.solve_s": "s", "sat.solve_p50_s": "s",
    "sat.solve_tail_s": "s", "sat.conflicts": "count",
    "sat.decisions": "count", "sat.propagations": "count",
    "sat.props_per_s": "1/s",
    "cert.checked": "count", "cert.drat_s": "s", "cert.replay_s": "s",
    "cert.lemmas_checked": "count",
    "parallel.tasks": "count", "parallel.worker_busy_s": "s",
    "parallel.idle_s": "s", "parallel.efficiency": "frac",
    "unattributed_frac": "frac", "trace.overhead_frac": "frac",
}


def layer_metrics(snapshot: Dict[str, Any], wall_s: float,
                  jobs: int, netlists: int, parallel: bool
                  ) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """The per-layer metrics of one traced pass, plus details."""
    c = leaf_sums(snapshot)

    def busy(layer: str) -> float:
        return c.get(f"{PREFIX}{layer}.busy_ns", 0) / 1e9

    def calls(layer: str) -> int:
        return c.get(f"{PREFIX}{layer}.calls", 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    solve_calls = calls("sat")
    solve_tail_q = tail_quantile(solve_calls)
    worker_busy = busy("task")
    m: Dict[str, float] = {
        "com.calls": calls("com"),
        "com.busy_s": busy("com"),
        "com.sat_queries": c.get("com.sat_queries", 0),
        "com.merges": c.get("com.merges", 0),
        "com.merges_per_query": ratio(c.get("com.merges", 0),
                                      c.get("com.sat_queries", 0)),
        "ret.busy_s": busy("ret"),
        "ret.lp_s": busy("ret.lp"),
        "strash.busy_s": busy("strash"),
        "sim.ternary_s": busy("sim.ternary"),
        "sim.ternary_calls": calls("sim.ternary"),
        "sim.random_s": busy("sim.random"),
        "netlist.rebuild_calls": calls("rebuild"),
        "netlist.rebuild_s": busy("rebuild"),
        "gen.busy_s": busy("gen"),
        "structural.calls": calls("structural"),
        "structural.busy_s": busy("structural"),
        # The program's own always-on span (GC refinement is private).
        "structural.gc_refine_s": sum(
            stat["total_s"] for path, stat in snapshot["timers"].items()
            if path.endswith("diameter.structural/gc_refine")),
        "portfolio.calls": calls("portfolio"),
        "portfolio.busy_s": busy("portfolio"),
        "portfolio.calls_per_netlist": ratio(calls("portfolio"), netlists),
        "unroll.frames": c.get(f"{PREFIX}unroll.frames", 0),
        "unroll.encode_s": busy("unroll"),
        "template.bulk_clauses": c.get("template.bulk_clauses", 0),
        "bmc.calls": calls("bmc"),
        "bmc.busy_s": busy("bmc"),
        "kind.calls": calls("kind"),
        "kind.busy_s": busy("kind"),
        "localize.busy_s": busy("localize"),
        "sat.solve_calls": solve_calls,
        "sat.solve_s": busy("sat"),
        "sat.solve_p50_s": hist_quantile(c, 0.5),
        "sat.solve_tail_s": hist_quantile(c, solve_tail_q),
        "sat.conflicts": c.get("sat.conflicts", 0),
        "sat.decisions": c.get("sat.decisions", 0),
        "sat.propagations": c.get("sat.propagations", 0),
        "sat.props_per_s": ratio(c.get("sat.propagations", 0), busy("sat")),
        "cert.checked": c.get("cert.checked", 0),
        "cert.drat_s": busy("cert.drat"),
        "cert.replay_s": busy("cert.replay"),
        "cert.lemmas_checked": c.get("cert.lemmas_checked", 0),
        "parallel.tasks": c.get("parallel.tasks", 0),
        "parallel.worker_busy_s": worker_busy,
        "parallel.idle_s": max(0.0, jobs * wall_s - worker_busy)
        if parallel else 0.0,
        "parallel.efficiency": ratio(worker_busy, jobs * wall_s)
        if parallel else 0.0,
    }
    self_s = {layer: c.get(f"{PREFIX}{layer}.self_ns", 0) / 1e9
              for layer in LAYERS if layer not in ROOTS}
    # In-process the root is the pass (``wall_s``); in the table it is
    # the worker task, so the share is of worker busy time.
    base = worker_busy if parallel else wall_s
    m["unattributed_frac"] = ratio(base - sum(self_s.values()), base)
    details = {"self_s": self_s, "sat_tail_quantile": solve_tail_q,
               "unattributed_base": "worker busy time" if parallel
               else "pass wall time"}
    return m, details


def work_counters(snapshot: Dict[str, Any]) -> Dict[str, int]:
    """Deterministic work counts; equal on every pass of one seed."""
    c = leaf_sums(snapshot)
    return {name: c.get(name, 0) for name in (
        "sat.solve_calls", "sat.conflicts", "sat.propagations",
        "com.sat_queries", "template.bulk_clauses", "cert.lemmas_checked")}
