"""COM: redundancy removal by inductive SAT sweeping (Section 3.1).

"The idea of this approach is to attempt to identify two semantically-
equivalent vertices u and v; when two such vertices are found, all
fanout edges from v are moved to u ... Identification of semantically-
equivalent vertices may be performed efficiently by structural analysis
or by BDD and SAT sweeping with no need to analyze the state space of
the netlist."

The engine reproduced here follows the classic van Eijk scheme:

1. ternary constant propagation seeds constant merges,
2. random simulation from the initial states partitions vertices into
   candidate equivalence classes,
3. the classes are refined by signal correspondence, first on an
   initial-state-constrained base frame, then to an inductive fixpoint:
   one SAT query per step asks whether some candidate pair can differ
   on the next frame while every class holds on a free current frame,
   and its model splits every class at once,
4. surviving classes are merged onto their topologically-shallowest
   representative and the netlist is rebuilt (hash-consing doubles as
   the structural-analysis merge pass).

Redundancy removal preserves the semantics of every retained vertex,
so by Theorem 1 diameter bounds carry over unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .. import obs
from ..core.record import StepKind, TransformResult, TransformStep
from ..netlist import (
    GateType,
    Netlist,
    combinational_fanins,
    rebuild,
    topological_order,
)
from ..options import current
from ..resilience import Budget, Cancelled
from ..sat import SAT, UNSAT, CnfSink, Solver, encode_frame, \
    encode_init_state, encode_mux, lit_not, pos
from ..sat.template import get_template, netlist_has_const0
from ..sim import constant_state_elements, random_signatures


@dataclass
class SweepConfig:
    """Tunables for the sweeping engine.

    ``max_rounds`` caps the inductive refinement steps (one all-pairs
    step query each, plus the bisection re-asks below).  The
    refinement must reach a *fixpoint* for the surviving merges to be
    sound (each survivor's proof assumes the other candidates), so if
    the cap is hit while classes are still splitting, ALL remaining
    candidate classes are discarded.  ``None`` (the default) iterates
    to the fixpoint, reached within one step per candidate pair.

    ``conflict_budget`` follows the ``Solver.solve`` contract (None =
    unlimited, ``n >= 0`` = per-query cap) and applies to every sweep
    query individually.  An inconclusive query is re-asked on each
    half of its pairs; an inconclusive single pair is dropped (its
    member leaves the class), which is always sound.
    """

    sim_cycles: int = 16
    sim_width: int = 64
    seed: int = 2004
    conflict_budget: Optional[int] = 2000
    max_rounds: Optional[int] = None
    max_class_size: int = 64


def _levels(net: Netlist) -> Dict[int, int]:
    levels: Dict[int, int] = {}
    for vid in topological_order(net):
        fanins = combinational_fanins(net, vid)
        levels[vid] = 0 if not fanins else 1 + max(
            levels[f] for f in fanins)
    return levels


class _InductiveChecker:
    """SAT checks for the induction step and the initial-state base."""

    def __init__(self, net: Netlist, config: SweepConfig,
                 budget: Optional[Budget] = None) -> None:
        self.config = config
        self.budget = budget
        # One "frame" template serves all three encodes below: frame 0
        # with its next-state tail (a full stamp), and the tail-less
        # frame 1 / base frame (``with_next=False`` stops at the core
        # boundary, exactly the plain ``encode_frame`` shape).
        tmpl = get_template(net, "frame") if current().templates \
            else None
        has_const0 = tmpl.has_const0 if tmpl is not None \
            else netlist_has_const0(net)
        # Step model: frame 0 with free leaves feeding frame 1.
        self.step_solver = Solver()
        sink = CnfSink(self.step_solver)
        state0 = {vid: pos(self.step_solver.new_var())
                  for vid in net.state_elements}
        if has_const0:
            # Pin the shared true literal up front in both paths so
            # template/direct variable numbering agrees (see
            # Unrolling._bootstrap for the parity rationale).
            _ = sink.true_lit
        with obs.span("encode"):
            if tmpl is not None:
                self.frame0, nxt = tmpl.stamp(sink, state0)
                assert nxt is not None
                state1: Dict[int, int] = nxt
            else:
                self.frame0 = encode_frame(net, sink, dict(state0))
                state1 = {}
                for vid in net.state_elements:
                    gate = net.gate(vid)
                    if gate.type is GateType.REGISTER:
                        state1[vid] = self.frame0[gate.fanins[0]]
                    else:
                        data, clock = gate.fanins
                        out = pos(self.step_solver.new_var())
                        encode_mux(sink, out, self.frame0[clock],
                                   self.frame0[data], self.frame0[vid])
                        state1[vid] = out
            if tmpl is not None:
                self.frame1, _ = tmpl.stamp(sink, state1,
                                            with_next=False)
            else:
                self.frame1 = encode_frame(net, sink, state1)
        # Base model: single frame constrained to the initial states.
        self.base_solver = Solver()
        base_sink = CnfSink(self.base_solver)
        base_state = {vid: pos(self.base_solver.new_var())
                      for vid in net.state_elements}
        if has_const0:
            _ = base_sink.true_lit
        encode_init_state(net, base_sink, base_state)
        with obs.span("encode"):
            if tmpl is not None:
                self.base_frame, _ = tmpl.stamp(
                    base_sink, base_state, with_next=False)
            else:
                self.base_frame = encode_frame(net, base_sink,
                                               dict(base_state))

    def refine(self, classes: List[List[int]],
               base: bool) -> Optional[List[List[int]]]:
        """One refinement step: can some pair differ on the base frame
        (or on frame 1, given every class equality on frame 0)?
        Returns ``classes`` itself when not, else a strictly finer
        partition split by the model (and the bisection's drops); None
        when the budget drains mid-step."""
        solver = self.base_solver if base else self.step_solver
        frame = self.base_frame if base else self.frame1
        sink = CnfSink(solver)
        pairs = [(cls[0], other) for cls in classes for other in cls[1:]]
        assumptions = []
        for a, b in ([] if base else pairs):
            # eq -> (a <-> b) on frame 0
            eq = pos(solver.new_var())
            la, lb = self.frame0[a], self.frame0[b]
            sink.add_clause([lit_not(eq), lit_not(la), lb])
            sink.add_clause([lit_not(eq), la, lit_not(lb)])
            assumptions.append(eq)
        diffs = []
        for a, b in pairs:
            # diff -> (a xor b)  (one direction suffices)
            diff = pos(solver.new_var())
            la, lb = frame[a], frame[b]
            sink.add_clause([lit_not(diff), la, lb])
            sink.add_clause([lit_not(diff), lit_not(la), lit_not(lb)])
            diffs.append((diff, a, b))
        retired = assumptions + [diff for diff, _, _ in diffs]
        model: List[bool] = []

        def value(v: int) -> bool:
            lit = frame[v]
            return model[lit >> 1] != bool(lit & 1)

        dropped: Set[int] = set()
        pending = [diffs]
        while pending:
            if _budget_drained(self.budget):
                return None  # the sweep is abandoned with its solvers
            chunk = pending.pop()
            act = pos(solver.new_var())
            sink.add_clause([lit_not(act)] + [d for d, _, _ in chunk])
            retired.append(act)
            obs.counter("com.sat_queries")
            result = solver.solve(assumptions + [act],
                                  conflict_budget=self.config.conflict_budget,
                                  budget=self.budget)
            if result == UNSAT:
                continue
            if result == SAT:
                model = solver.model
                # A model splits at least one of its pairs; one that
                # does not (a corrupted answer) counts as inconclusive.
                if any(value(a) != value(b) for _, a, b in chunk):
                    break
                model = []
            if len(chunk) == 1:
                dropped.add(chunk[0][2])
            else:
                half = len(chunk) // 2
                pending += [chunk[half:], chunk[:half]]
        # Retire every one-shot literal with a level-0 unit, which
        # satisfies its guard clauses for good: live leftovers would
        # cost every later query decisions and propagations.
        for lit in retired:
            solver.add_clause([lit_not(lit)])
        if not model and not dropped:
            return classes
        refined = []
        for cls in classes:
            groups: Dict[Tuple[bool, bool], List[int]] = {}
            for v in cls:
                key = (v in dropped, bool(model) and value(v))
                groups.setdefault(key, []).append(v)
            refined.extend(g for g in groups.values() if len(g) > 1)
        return refined


def _candidate_classes(net: Netlist, config: SweepConfig,
                       roots: Set[int]) -> List[List[int]]:
    signatures = random_signatures(net, cycles=config.sim_cycles,
                                   width=config.sim_width, seed=config.seed)
    classes: Dict[Tuple[int, ...], List[int]] = {}
    for vid, sig in signatures.items():
        if vid in roots:
            classes.setdefault(sig, []).append(vid)
    out = []
    for members in classes.values():
        members.sort()
        if len(members) > 1:
            out.append(members[:config.max_class_size])
    return out


def redundancy_removal(
    net: Netlist,
    config: Optional[SweepConfig] = None,
    name_suffix: str = "com",
    budget: Optional[Budget] = None,
) -> TransformResult:
    """Apply the COM redundancy-removal engine to ``net``.

    Returns a :class:`TransformResult` whose step is trace-equivalence
    preserving (Theorem 1): the diameter bound of any retained vertex
    set is unchanged.  Instrumented under the ``transform.com`` span
    with counters ``com.rounds`` (refinement steps, base and
    inductive), ``com.sat_queries`` (SAT calls, bisection re-asks
    included) and ``com.merges``.

    ``budget`` makes the sweep cooperative: cancellation raises
    :class:`Cancelled`; exhaustion discards every not-yet-verified
    candidate class (the surviving merges would otherwise rest on an
    unfinished fixpoint — discarding is sound, the transform simply
    merges less) and is recorded via the ``com.budget_aborts``
    counter.  Ternary-constant merges never need SAT and are kept.
    """
    with obs.span("transform.com"):
        return _sweep(net, config or SweepConfig(), name_suffix, budget)


def _budget_drained(budget: Optional[Budget]) -> bool:
    """Cooperative sweep check: raises on cancellation, True when the
    budget is exhausted and SAT work must stop."""
    if budget is None:
        return False
    if budget.cancelled:
        raise Cancelled(budget_name=budget.name)
    return budget.exhausted() is not None


def _refine(checker: _InductiveChecker, classes: List[List[int]],
            base: bool, max_steps: Optional[int]) -> List[List[int]]:
    """Refine ``classes`` to the fixpoint of ``checker.refine``.

    Every changing step removes at least one candidate pair, so the
    fixpoint arrives within ``total pairs + 1`` steps; ``max_steps``
    (if set) is a resource valve.  Survivors are only proven under
    assumptions that may since have been refuted, so a refinement the
    cap or the budget stops short of its fixpoint returns no classes.
    """
    limit = max_steps if max_steps is not None else \
        sum(len(cls) - 1 for cls in classes) + 1
    phase = "base" if base else "step"
    for step in range(limit):
        if not classes:
            return classes
        obs.counter("com.rounds")
        refined = checker.refine(classes, base)
        if refined is None:
            obs.counter("com.budget_aborts")
            return []
        changed = refined is not classes
        classes = refined
        obs.progress(
            "com.sweep", phase=phase, round=step, of=limit,
            classes=len(classes),
            pairs=sum(len(cls) - 1 for cls in classes),
            changed=changed)
        if not changed:
            return classes
    return []


def _sweep(
    net: Netlist,
    config: SweepConfig,
    name_suffix: str,
    budget: Optional[Budget] = None,
) -> TransformResult:
    substitution: Dict[int, int] = {}

    # Phase 1: ternary constants (state elements stuck at a constant).
    const_map = constant_state_elements(net)
    work = net
    if const_map:
        base = net.copy()
        c0 = base.const0()
        c1_candidates = [v for v, g in base.gates()
                         if g.type is GateType.NOT and g.fanins == (c0,)]
        c1 = c1_candidates[0] if c1_candidates else base.add_gate(
            GateType.NOT, (c0,))
        substitution = {vid: (c1 if value else c0)
                        for vid, value in const_map.items()}
        work = base

    # Phase 2/3: simulation candidates refined to an inductive fixpoint.
    in_cone = set(work)
    classes = _candidate_classes(work, config, in_cone)
    if classes and _budget_drained(budget):
        obs.counter("com.budget_aborts")
        classes = []
    if classes:
        checker = _InductiveChecker(work, config, budget)
        # Initial states first: a pair the base case dropped after the
        # step fixpoint would leave standing the proofs that assumed it.
        classes = _refine(checker, classes, True, None)
        classes = _refine(checker, classes, False, config.max_rounds)
        levels = _levels(work)

        def rep_key(v: int):
            gate = work.gate(v)
            is_const = gate.type is GateType.CONST0 or (
                gate.type is GateType.NOT
                and work.gate(gate.fanins[0]).type is GateType.CONST0)
            return (0 if is_const else 1, levels.get(v, 0), v)

        def resolves_to(v: int) -> int:
            seen = set()
            while v in substitution and v not in seen:
                seen.add(v)
                v = substitution[v]
            return v

        for cls in classes:
            rep = min(cls, key=rep_key)
            for other in cls:
                if other == rep or other in substitution:
                    continue
                if resolves_to(rep) == other:
                    continue  # would create a substitution cycle
                substitution[other] = rep

    obs.counter("com.merges", len(substitution))
    out, mapping = rebuild(work, substitution=substitution,
                           name=f"{net.name}-{name_suffix}")
    target_map = {t: mapping.get(t) for t in net.targets}
    step = TransformStep(
        name="COM",
        kind=StepKind.TRACE_EQUIVALENT,
        target_map=target_map,
    )
    return TransformResult(netlist=out, step=step, mapping=mapping)
