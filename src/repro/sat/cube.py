"""Cube-and-conquer: split one hard SAT query into a cube set.

The PR 3 pool parallelizes *across* designs and strategies; a single
hard BMC or k-induction query still serializes everything.  This
module attacks that query directly, in the cube-and-conquer style
(Heule et al.): pick the most influential decision variables by a
lookahead score (VSIDS activity accumulated by the incremental solver
so far, with occurrence counts over the stamped formula as the cold
tie-break), and split the search space into the ``2^k`` sign
combinations of the top ``k`` variables.  Each *cube* is an assumption
list; the union of the cubes is a tautology over the split variables,
so

* the original query is SAT  iff  **some** cube is SAT, and
* the original query is UNSAT iff  **every** cube is UNSAT,

which is exactly the join rule :func:`join_cubes` implements.  Cubes
are fanned across :class:`~repro.parallel.ParallelExecutor` workers in
work-stealing mode with first-win cancellation: a SAT cube sets the
pool-wide cancel event (threaded through the worker budgets, so losers
abort at their next per-conflict budget check), while UNSAT requires
every cube to complete.

Determinism contract: cubes are generated, labelled and *joined* in a
fixed order (negative phase first — the subspace the sequential solver
would explore first under the default decision phase), and the winner
of a SAT race is reported by cube index, so verdicts and bounds are
identical at any ``jobs`` value.  Which satisfying assignment backs a
FALSIFIED verdict may differ between runs (any cube's model is a valid
witness; each is certified by replay).

Error precedence at the join (the rule the first satellite pins): a
*verdict* always beats a loser's bookkeeping — a cube cancelled by the
first-win event or resourced-out after another cube went SAT never
masks the SAT verdict, and a :class:`CertificationFailure` always
surfaces (``prove()`` degrades it to the structural bound).

Everything is opt-in behind ``REPRO_CUBE`` / :func:`use_cubes` and
engages only when a query proves *hard*: the caller first runs the
plain incremental solve under a conflict threshold
(``REPRO_CUBE_CONFLICTS``), and only a query that exhausts the
threshold is split — easy queries never pay the fan-out tax.
"""

from __future__ import annotations

import multiprocessing
import os
from contextlib import contextmanager
from contextlib import nullcontext as _nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from .. import obs
from ..obs import metrics as _metrics
from ..resilience import Budget, Cancelled, CertificationFailure, \
    EngineFailure, ResourceExhausted
from ..resilience.errors import EXHAUSTED_CONFLICTS
from .solver import SAT, UNKNOWN, UNSAT, Solver, use_proofs

__all__ = [
    "CubeAttempt",
    "CubeConfig",
    "CubeJoin",
    "cube_config",
    "cube_solve",
    "cubes_enabled",
    "generate_cubes",
    "join_cubes",
    "run_cube_task",
    "score_variables",
    "set_cube_config",
    "set_cubes_enabled",
    "solve_cubes",
    "use_cube_config",
    "use_cubes",
]

# ----------------------------------------------------------------------
# Toggles (same idiom as use_proofs / use_simplify).
# ----------------------------------------------------------------------
_CUBE_ENV = "REPRO_CUBE"
_cubes_enabled = os.environ.get(_CUBE_ENV, "").strip().lower() \
    in ("1", "true", "yes", "on")


def cubes_enabled() -> bool:
    """True when hard queries are split into cube sets by default."""
    return _cubes_enabled


def set_cubes_enabled(enabled: bool) -> bool:
    """Set the global cube toggle; returns the previous value."""
    global _cubes_enabled
    previous = _cubes_enabled
    _cubes_enabled = bool(enabled)
    return previous


@contextmanager
def use_cubes(enabled: bool = True) -> Iterator[None]:
    """Scoped override of the cube toggle."""
    previous = set_cubes_enabled(enabled)
    try:
        yield
    finally:
        set_cubes_enabled(previous)


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "").strip()
    try:
        return int(raw) if raw else default
    except ValueError:
        return default


@dataclass(frozen=True)
class CubeConfig:
    """Tuning knobs of the cube path (all env-overridable).

    ``cube_vars`` — split on the top ``k`` variables (``2^k`` cubes);
    ``conflict_threshold`` — a query is *hard* (and split) only after
    the plain solve burns this many conflicts inconclusively;
    ``jobs`` — worker processes for the cube race (1 = in-process,
    still deterministic; nested pools are always clamped to 1);
    ``share_learned`` — feed short learnt clauses from an all-UNSAT
    cube join back into the parent solver (sound: assumption-based
    CDCL only learns consequences of the clause database; disabled
    automatically while certifying, because injected lemmas are not
    axioms of the DRAT log);
    ``share_max_len`` / ``share_max_clauses`` — what "short" means.
    """

    cube_vars: int = _env_int("REPRO_CUBE_VARS", 3)
    conflict_threshold: int = _env_int("REPRO_CUBE_CONFLICTS", 1500)
    jobs: int = _env_int("REPRO_CUBE_JOBS", 1)
    share_learned: bool = os.environ.get(
        "REPRO_CUBE_SHARE", "").strip().lower() in ("1", "true", "yes",
                                                    "on")
    share_max_len: int = 4
    share_max_clauses: int = 64


_config = CubeConfig()


def cube_config() -> CubeConfig:
    """The active cube configuration."""
    return _config


def set_cube_config(**overrides: Any) -> CubeConfig:
    """Replace fields of the active config; returns the previous one."""
    global _config
    previous = _config
    _config = replace(_config, **overrides)
    return previous


@contextmanager
def use_cube_config(**overrides: Any) -> Iterator[None]:
    """Scoped override of cube configuration fields."""
    global _config
    previous = set_cube_config(**overrides)
    try:
        yield
    finally:
        _config = previous


# ----------------------------------------------------------------------
# Lookahead: variable scoring and cube generation
# ----------------------------------------------------------------------
def score_variables(solver: Solver,
                    exclude: Sequence[int] = ()) -> List[int]:
    """Variables of ``solver``'s formula, best split candidate first.

    Primary key is the solver's VSIDS activity — on an incremental
    solver (a BMC unrolling whose earlier frames already ran) this is
    a genuine lookahead signal pointing at the variables driving
    recent conflicts.  Occurrence count over the problem clauses
    breaks cold-start ties (a fresh solver has all-zero activity), and
    the variable index breaks exact ties, so the ranking is fully
    deterministic.  ``exclude`` removes variables already fixed by the
    caller's assumptions; variables with no clause occurrence
    (eliminated, pure bookkeeping) never qualify.
    """
    occs = [0] * solver.num_vars
    for clause in solver.clause_lits():
        for lit in clause:
            occs[lit >> 1] += 1
    activity = solver._activity  # core-independent VSIDS table
    banned = set(exclude)
    candidates = [v for v in range(solver.num_vars)
                  if occs[v] > 0 and v not in banned]
    candidates.sort(key=lambda v: (-activity[v], -occs[v], v))
    return candidates


def generate_cubes(solver: Solver,
                   count_vars: Optional[int] = None,
                   exclude: Sequence[int] = ()
                   ) -> List[Tuple[int, ...]]:
    """A balanced cube set over the top split variables.

    Emits all ``2^k`` sign combinations of the ``k`` best-scored
    variables as assumption tuples — a partition of the search space,
    so the union of the cubes is equivalent to the original query.
    Cube 0 takes every variable on its *negative* phase (the default
    decision phase, i.e. the subspace the plain sequential search
    enters first), and enumeration counts up in binary with variable
    rank as bit position — a fixed, jobs-independent order.
    """
    k = cube_config().cube_vars if count_vars is None else count_vars
    top = score_variables(solver, exclude=exclude)[:max(0, k)]
    if not top:
        return []
    cubes = []
    for mask in range(1 << len(top)):
        cube = tuple(
            (v << 1) | (0 if (mask >> i) & 1 else 1)
            for i, v in enumerate(top))
        cubes.append(cube)
    return cubes


# ----------------------------------------------------------------------
# The worker-side task body (shipped by repro.parallel.workers.run_cube)
# ----------------------------------------------------------------------
def _rebuild_and_solve(payload: Dict[str, Any],
                       budget: Optional[Budget]) -> tuple:
    """Reconstruct the query of ``payload`` and solve one cube.

    Returns ``(solver, result, cex, unroll)`` where ``cex`` is a
    decoded :class:`~repro.unroll.bmc.Counterexample` for a SAT
    ``bmc`` cube (other modes return None).  Variable numbering is
    deterministic, so the worker's formula matches the parent's
    stamped formula literal-for-literal — the property both cube
    assumptions and learnt-clause sharing rely on.
    """
    mode = payload["mode"]
    cube = [int(lit) for lit in payload["cube"]]
    conflict_budget = payload.get("conflict_budget")
    do_cert = bool(payload.get("certify"))
    with use_proofs(True) if do_cert else _nullcontext():
        if mode == "cnf":
            solver = Solver()
            for clause in payload["clauses"]:
                solver.add_clause(list(clause))
            assumptions = list(payload.get("assumptions", ())) + cube
            result = solver.solve(assumptions,
                                  conflict_budget=conflict_budget,
                                  budget=budget)
            return solver, result, None, None
        if mode == "bmc":
            from ..unroll.bmc import Counterexample
            from ..unroll.unroller import Unrolling
            net, t = payload["net"], payload["frame"]
            unroll = Unrolling(net, constrain_init=True,
                               use_template=payload.get("use_template"))
            lit = unroll.literal(payload["target"], t)
            result = unroll.solver.solve(
                [lit] + cube, conflict_budget=conflict_budget,
                budget=budget)
            cex = None
            if result == SAT:
                model = unroll.solver.model
                cex = Counterexample(
                    depth=t,
                    inputs=[unroll.input_values(model, i)
                            for i in range(t + 1)],
                    initial_state=unroll.state_values(model, 0),
                )
            return unroll.solver, result, cex, unroll
        if mode == "induction":
            from ..sat import lit_not
            from ..unroll.induction import add_state_difference
            from ..unroll.unroller import Unrolling
            net, k = payload["net"], payload["k"]
            step = Unrolling(net, constrain_init=False,
                             use_template=payload.get("use_template"))
            for j in range(1, k + 1):
                step.frame(j)
                for i in range(j):
                    add_state_difference(step.sink, step.state_lits[i],
                                         step.state_lits[j])
            target = payload["target"]
            assumptions = [lit_not(step.literal(target, i))
                           for i in range(k)]
            assumptions.append(step.literal(target, k))
            result = step.solver.solve(
                assumptions + cube, conflict_budget=conflict_budget,
                budget=budget)
            return step.solver, result, None, None
    raise ValueError(f"unknown cube payload mode {mode!r}")


def run_cube_task(payload: Dict[str, Any],
                  budget: Optional[Budget]) -> Dict[str, Any]:
    """Solve one cube of a split query (worker entry body).

    Certification happens *inside* the worker, where the live solver
    and unrolling are: an UNSAT cube DRAT-checks its own proof, a SAT
    ``bmc`` cube replays its counterexample against the netlist
    semantics.  A failed check raises
    :class:`~repro.resilience.CertificationFailure`, which the pool
    returns as a typed outcome and the join re-raises.
    """
    reg = obs.get_registry()
    index = payload.get("cube_index", 0)
    total = payload.get("cube_of", 1)
    do_cert = bool(payload.get("certify"))
    with reg.span("cube.task"):
        solver, result, cex, unroll = _rebuild_and_solve(payload,
                                                         budget)
        if do_cert:
            from ..cert import certify_unsat, certify_witness
            if result == UNSAT:
                certify_unsat(solver, f"cube[{index}]")
            elif result == SAT and payload["mode"] == "bmc":
                certify_witness(payload["net"], payload["target"], cex,
                                model=solver.model, unroll=unroll,
                                engine=f"cube[{index}]")
        learned: List[Tuple[int, ...]] = []
        share_max_len = payload.get("share_max_len")
        if share_max_len and result == UNSAT:
            limit = payload.get("share_max_clauses", 64)
            for clause in solver.learnt_lits():
                if 0 < len(clause) <= share_max_len:
                    learned.append(tuple(clause))
                    if len(learned) >= limit:
                        break
    reg.event("cube.done", index=index, of=total, result=result)
    obs.progress("cube", index=index, of=total, result=result)
    return {
        "result": result,
        "exhaustion": solver.last_exhaustion,
        "cex": cex,
        "learned": learned,
        "num_vars": solver.num_vars,
    }


# ----------------------------------------------------------------------
# The join: typed-error precedence over a cube outcome list
# ----------------------------------------------------------------------
@dataclass
class CubeJoin:
    """The verdict of a cube set, joined in submission order."""

    result: str  # SAT / UNSAT / UNKNOWN (solver result strings)
    winner: Optional[int] = None  # index of the winning SAT cube
    cex: Any = None
    exhaustion: Optional[str] = None
    learned: List[Tuple[int, ...]] = field(default_factory=list)
    num_vars: Optional[int] = None
    cancel_latency: Optional[float] = None
    cubes: int = 0


def join_cubes(outcomes: Sequence[Any],
               budget: Optional[Budget] = None) -> CubeJoin:
    """Join per-cube outcomes into one verdict.

    Precedence (most definitive first — the regression-pinned rule):

    1. any SAT cube ⇒ SAT, winner = the lowest-index SAT cube;
       losers' ``Cancelled`` / ``ResourceExhausted`` are bookkeeping
       of the first-win cancellation and never mask the verdict;
    2. a :class:`CertificationFailure` (no SAT winner) re-raises —
       certified verdicts must stay arbitrable;
    3. every cube UNSAT ⇒ UNSAT (learnt clauses collected in cube
       order, de-duplicated);
    4. a cancelled parent budget re-raises :class:`Cancelled`;
    5. a worker crash (:class:`EngineFailure`) re-raises — a missing
       cube is a hole in an UNSAT argument, not a weaker answer;
    6. otherwise UNKNOWN, with the first cube's structured
       exhaustion reason.
    """
    sat_indices = [o.index for o in outcomes
                   if o.ok and o.value["result"] == SAT]
    if sat_indices:
        winner = min(sat_indices)
        value = next(o.value for o in outcomes if o.index == winner)
        return CubeJoin(SAT, winner=winner, cex=value["cex"],
                        num_vars=value["num_vars"],
                        cubes=len(outcomes))
    for outcome in outcomes:
        if isinstance(outcome.error, CertificationFailure):
            raise outcome.error
    if all(o.ok and o.value["result"] == UNSAT for o in outcomes):
        learned: List[Tuple[int, ...]] = []
        seen = set()
        num_vars = 0
        for outcome in outcomes:
            num_vars = max(num_vars, outcome.value["num_vars"])
            for clause in outcome.value["learned"]:
                if clause not in seen:
                    seen.add(clause)
                    learned.append(clause)
        return CubeJoin(UNSAT, learned=learned, num_vars=num_vars,
                        cubes=len(outcomes))
    if budget is not None and budget.cancelled:
        raise Cancelled(budget_name=budget.name)
    for outcome in outcomes:
        if isinstance(outcome.error, EngineFailure):
            raise outcome.error
    reason: Optional[str] = None
    for outcome in outcomes:
        if outcome.ok and outcome.value["result"] == UNKNOWN:
            reason = outcome.value["exhaustion"]
            break
        if isinstance(outcome.error, ResourceExhausted):
            reason = outcome.error.reason
            break
    return CubeJoin(UNKNOWN, exhaustion=reason, cubes=len(outcomes))


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------
def _is_sat_result(value: Any) -> bool:
    """First-win predicate: a cube result value that ends the race."""
    return isinstance(value, dict) and value.get("result") == SAT


def solve_cubes(payload: Dict[str, Any],
                cubes: Sequence[Tuple[int, ...]],
                jobs: Optional[int] = None,
                budget: Optional[Budget] = None,
                name: str = "cube") -> CubeJoin:
    """Fan ``cubes`` of the query described by ``payload`` across the
    work-stealing pool and join the verdicts.

    ``payload`` is the cube-independent rebuild recipe (see
    :func:`run_cube_task`); each cube gets a copy extended with its
    assumption tuple and index.  Workers run under a *shared* budget
    view — one wall deadline, one cross-process conflict/query pool —
    and the first SAT cube cancels the rest through the pool-wide
    cancel event.  Inside an existing pool worker the fan-out degrades
    to ``jobs=1`` (no nested process pools), which changes wall clock
    only, never the verdict.
    """
    from ..parallel import ParallelExecutor, workers

    cfg = cube_config()
    if jobs is None:
        jobs = cfg.jobs
    if multiprocessing.parent_process() is not None:
        jobs = 1  # never nest process pools inside a pool worker
    payloads = [dict(payload, cube=list(cube), cube_index=i,
                     cube_of=len(cubes))
                for i, cube in enumerate(cubes)]
    labels = [f"c{i}" for i in range(len(cubes))]
    reg = obs.get_registry()
    reg.counter("cube.splits")
    reg.counter("cube.cubes", len(cubes))
    executor = ParallelExecutor(jobs=max(1, min(jobs, len(cubes))),
                                name=name, stealing=True)
    with reg.span("cube.race"):
        outcomes = executor.map(workers.run_cube, payloads,
                                budget=budget, labels=labels,
                                first_win=_is_sat_result)
    join = join_cubes(outcomes, budget=budget)
    join.cancel_latency = executor.last_race.get("cancel_latency")
    if join.result == SAT:
        reg.counter("cube.sat_wins")
        if join.cancel_latency is not None:
            reg.event("cube.first_win", winner=join.winner,
                      latency_s=round(join.cancel_latency, 6))
    elif join.result == UNSAT:
        reg.counter("cube.unsat_joins")
    obs.progress("cube.join", result=join.result, cubes=len(cubes),
                 winner=join.winner)
    return join


@dataclass
class CubeAttempt:
    """What a threshold-gated solve actually did.

    ``used_cubes`` False means the plain incremental solve concluded
    (or resourced out on the caller's own limits) and the solver's
    model / ``last_exhaustion`` are authoritative, exactly as if the
    cube path did not exist.  True means the verdict came from a cube
    join: ``cex`` carries a worker-built counterexample for SAT ``bmc``
    queries, ``exhaustion`` the structured reason for UNKNOWN.
    """

    used_cubes: bool
    result: str
    cex: Any = None
    exhaustion: Optional[str] = None
    join: Optional[CubeJoin] = None


def cube_solve(solver: Solver,
               assumptions: Sequence[int],
               payload: Dict[str, Any],
               conflict_budget: Optional[int] = None,
               budget: Optional[Budget] = None,
               name: str = "cube") -> CubeAttempt:
    """Threshold-gated cube solve of one query.

    Runs the plain incremental solve first, capped at the configured
    conflict threshold.  Conclusive (or resourced-out on the caller's
    *own* limits — a tighter ``conflict_budget`` or an exhausted
    ``budget``) means no split: behaviour is byte-identical to the
    sequential path.  Only a query that burns the whole threshold
    inconclusively is scored, split and raced.
    """
    cfg = cube_config()
    threshold = cfg.conflict_threshold
    trial_cap = threshold if conflict_budget is None \
        else min(threshold, conflict_budget)
    result = solver.solve(assumptions, conflict_budget=trial_cap,
                          budget=budget)
    if result != UNKNOWN:
        return CubeAttempt(False, result)
    if solver.last_exhaustion != EXHAUSTED_CONFLICTS:
        return CubeAttempt(False, result,
                           exhaustion=solver.last_exhaustion)
    if conflict_budget is not None and trial_cap >= conflict_budget:
        # The caller's own cap was the binding limit, not our
        # threshold: report exactly what the plain path would have.
        return CubeAttempt(False, result,
                           exhaustion=solver.last_exhaustion)
    if budget is not None and budget.exhausted() is not None:
        return CubeAttempt(False, result,
                           exhaustion=solver.last_exhaustion)
    reg = obs.get_registry()
    reg.counter("cube.engaged")
    cubes = generate_cubes(solver,
                           exclude=[lit >> 1 for lit in assumptions])
    if len(cubes) <= 1:
        # Nothing worth splitting on: finish the solve in place.
        result = solver.solve(assumptions,
                              conflict_budget=conflict_budget,
                              budget=budget)
        return CubeAttempt(False, result,
                           exhaustion=solver.last_exhaustion)
    share = cfg.share_learned and not payload.get("certify")
    work = dict(payload, conflict_budget=conflict_budget)
    if share:
        work["share_max_len"] = cfg.share_max_len
        work["share_max_clauses"] = cfg.share_max_clauses
    race = obs.stopwatch()
    join = solve_cubes(work, cubes, budget=budget, name=name)
    _metrics.record_query(
        engine=name, cube=True, verdict=join.result,
        cubes=len(cubes), winner=join.winner,
        seconds=race.elapsed, exhausted=join.exhaustion)
    if share and join.result == UNSAT and join.learned and \
            join.num_vars == solver.num_vars:
        # Assumption-based CDCL only learns consequences of the clause
        # database, and the worker's deterministic rebuild matches our
        # variable numbering (guarded above) — so feeding the short
        # lemmas back is sound and speeds the remaining frames.
        for clause in join.learned:
            solver.add_clause(list(clause))
        reg.counter("cube.shared_clauses", len(join.learned))
    return CubeAttempt(True, join.result, cex=join.cex,
                       exhaustion=join.exhaustion, join=join)
