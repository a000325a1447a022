"""Verdict referees that do not trust the code under test.

Each function returns ``None`` when the output agrees with its referee
and a one-line reason otherwise; every reason counts as one failed
operation in the result.

* A counterexample is replayed through ``repro.sim``'s bit-parallel
  simulator from the design's fixed initial state; it must hit the
  target exactly at its claimed depth.
* The ``gen.protocols`` invariants are known to hold: PROVEN only.
* Within ``repro.diameter.exact``'s size guard the exact first-hit
  time (recorded in ``pool.json``) must agree with the verdict, and a
  bound must exceed it -- a bound that is too small is a false PROVEN.
* Table 1 cells must equal the golden cells recorded for the draw.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.netlist.types import GateType
from repro.sim import BitParallelSimulator


def _input_free(net, vid: int) -> bool:
    """True when ``vid``'s cone reaches no primary input."""
    seen, todo = set(), [vid]
    while todo:
        v = todo.pop()
        if v in seen:
            continue
        seen.add(v)
        gate = net.gate(v)
        if gate.type is GateType.INPUT:
            return False
        if not gate.is_state:
            todo.extend(gate.fanins)
    return True


def replay(net, target: int, cex) -> Optional[str]:
    """Referee a counterexample by simulation."""
    if cex is None:
        return "falsified without a counterexample"
    if len(cex.inputs) != cex.depth + 1:
        return (f"trace of {len(cex.inputs)} steps for claimed depth "
                f"{cex.depth}")
    sim = BitParallelSimulator(net)
    reset = sim.initial_state()
    for vid in net.state_elements:
        gate = net.gate(vid)
        fixed = gate.type is not GateType.REGISTER or \
            _input_free(net, gate.fanins[1])
        if fixed and cex.initial_state.get(vid, 0) & 1 != reset[vid] & 1:
            return f"state element {vid} starts off its initial value"
    state = dict(cex.initial_state)
    for t, inputs in enumerate(cex.inputs):
        values, state = sim.step(state, inputs)
        if t == cex.depth:
            return None if values[target] & 1 else \
                f"target is 0 at the claimed depth {t}"
    return "trace ends before its depth"  # pragma: no cover


def verdict(v: Dict[str, Any], facts: Dict[str, Any]) -> Optional[str]:
    """Referee one ``prove`` / ``check`` target verdict."""
    status = v["status"]
    if status == "error":
        return f"exception: {v.get('error')}"
    if v.get("degraded"):
        return f"degraded ({v.get('reason')})"
    if facts.get("protocol") and status != "proven":
        return f"known invariant reported {status}"
    if status == "falsified":
        problem = replay(v["net"], v["target"], v["cex"])
        if problem:
            return f"counterexample: {problem}"
    if not facts.get("in_guard"):
        return None
    hit, bound = facts.get("first_hit"), v.get("bound")
    if status == "proven" and hit is not None:
        return f"PROVEN, but the target is hit at time {hit}"
    if status == "falsified" and hit is None:
        return "FALSIFIED, but the target is unreachable"
    if status == "falsified" and v["cex"].depth < hit:
        return f"counterexample at {v['cex'].depth} before first hit {hit}"
    if hit is not None and bound is not None and bound <= hit:
        return f"bound {bound} does not exceed first-hit time {hit}"
    return None


def table_row(v: Dict[str, Any], facts: Dict[str, Any]) -> Optional[str]:
    """Referee one Table 1 row against its golden cells."""
    for cell in v["cells"]:
        if isinstance(cell, str):
            return cell
    if v["cells"] != facts["cells"]:
        return f"cells {v['cells']} differ from golden {facts['cells']}"
    return None


def check(workload: str, v: Dict[str, Any],
          facts: Dict[str, Any]) -> Optional[str]:
    return (table_row if workload == "table" else verdict)(v, facts)
