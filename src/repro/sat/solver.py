"""The CDCL SAT solver.

Implements the standard conflict-driven clause-learning architecture —
two-watched-literal propagation with blocker literals, first-UIP
conflict analysis with recursive clause minimization, VSIDS decision
heuristics with phase saving, Luby restarts, and learnt-clause database
reduction — in pure Python.  It is the reasoning engine behind SAT
sweeping (Section 3.1), BMC, k-induction, and the recurrence-diameter
computation.

The hot state lives in contiguous flat arrays rather than per-clause
Python objects, which keeps object allocation and attribute dispatch
out of the propagation/analysis inner loops (the solver's hot path):

* **Clause arena** — one flat integer list.  A clause is a *reference*
  (``cref``), the index of its inline header: ``arena[cref]`` is the
  literal count, ``arena[cref + 1]`` the clause's index into the
  learnt-activity table (``-1`` for problem clauses), and the literals
  follow at ``arena[cref + 2:]``.  The arena starts with a two-word
  pad so that ``0`` is never a valid reference.
* **Watcher lists** — per literal, a flat interleaved integer list
  ``[cref0, blocker0, cref1, blocker1, ...]``; the blocker is a
  literal of the clause whose truth lets propagation skip the clause
  without touching the arena at all.
* **Assignment / reason / level** — plain integer tables:
  ``_assign[v]`` is ``-1`` (unassigned), ``0`` (false) or ``1``
  (true); ``_reason[v]`` is a cref or ``-1``; a literal ``p`` is true
  iff ``_assign[p >> 1] == (p & 1) ^ 1``.

Removing a learnt clause only unlinks it from the watcher lists; the
arena words become garbage and are reclaimed by :meth:`_compact` once
they outnumber the live words.  Compaction rewrites crefs in place
(watchers, reasons, clause indices) and is invisible to the search.

Answers are refereed independently of this code: UNSAT verdicts by the
DRAT checker (:mod:`repro.cert.drat`) over the proof log, SAT verdicts
by witness replay, and the search itself by the brute-force and
pinned-counter oracle suite (tests/property/test_solver_oracle.py).

Literals use the 0-based encoding of :mod:`repro.sat.cnf` (variable
``v`` gives positive literal ``2*v``, negative ``2*v + 1``).
"""

from __future__ import annotations

import heapq
import os
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, \
    Tuple

from .. import obs
from ..obs import metrics as _metrics
from ..cert.proof import ProofLog
from ..resilience import Budget, Cancelled, EngineFailure, \
    EXHAUSTED_CONFLICTS, EXHAUSTED_DEADLINE
from ..resilience import faults as _faults
from .cnf import CNF, lit_not, lit_var
from .simplify import simplify_round

#: Tri-state results of :meth:`Solver.solve`.
SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"

#: Words of header before a clause's literals in the arena.
_HDR = 2


def flat_enabled() -> bool:
    """Always True: the flat-array layout is the solver's only core.

    A constant reader with no setter, kept so that tools recording the
    effective toggle set keep their field.
    """
    return True


# ----------------------------------------------------------------------
# Debug-checks toggle: watcher-integrity violations become loud
# ----------------------------------------------------------------------
_DEBUG_ENV = "REPRO_SAT_DEBUG"
_debug_checks = os.environ.get(_DEBUG_ENV, "0").strip().lower() \
    not in ("0", "false", "off", "no", "")


def debug_checks_enabled() -> bool:
    """Whether internal-consistency violations raise instead of pass."""
    return _debug_checks


def set_debug_checks(enabled: bool) -> bool:
    """Set the debug-checks toggle; returns the previous value."""
    global _debug_checks
    previous = _debug_checks
    _debug_checks = bool(enabled)
    return previous


# ----------------------------------------------------------------------
# Search-time profiling toggle (the bench tool's time_split breakdown)
# ----------------------------------------------------------------------
_PROFILE_ENV = "REPRO_SAT_PROFILE"
_profile_enabled = os.environ.get(_PROFILE_ENV, "0").strip().lower() \
    not in ("0", "false", "off", "no", "")


def profile_enabled() -> bool:
    """Whether new solvers time propagation/analysis/decisions."""
    return _profile_enabled


def set_profile_enabled(enabled: bool) -> bool:
    """Set the profiling toggle; returns the previous value.

    Only affects solvers constructed afterwards.
    """
    global _profile_enabled
    previous = _profile_enabled
    _profile_enabled = bool(enabled)
    return previous


@contextmanager
def use_sat_profile(enabled: bool) -> Iterator[None]:
    """Scoped override of the profiling toggle (the bench tool)."""
    previous = set_profile_enabled(enabled)
    try:
        yield
    finally:
        set_profile_enabled(previous)


# ----------------------------------------------------------------------
# Proof-logging toggle (the certification layer, repro.cert)
# ----------------------------------------------------------------------
_PROOF_ENV = "REPRO_SAT_PROOF"


def _parse_proof_env(value: str) -> Tuple[bool, Optional[str]]:
    """``REPRO_SAT_PROOF``: off / in-memory ("1") / also stream to a
    path (any other value is taken as a file name)."""
    text = value.strip()
    lowered = text.lower()
    if lowered in ("", "0", "false", "off", "no"):
        return False, None
    if lowered in ("1", "true", "on", "yes"):
        return True, None
    return True, text


_proof_enabled, _proof_stream_path = \
    _parse_proof_env(os.environ.get(_PROOF_ENV, ""))


def proofs_enabled() -> bool:
    """Whether new solvers log DRAT-style proof events.

    Like profiling, the toggle is read at construction time only:
    a solver either carries a :class:`~repro.cert.proof.ProofLog`
    for its whole life or never pays a single hot-path branch.
    """
    return _proof_enabled


def set_proofs_enabled(enabled: bool) -> bool:
    """Set the proof-logging toggle; returns the previous value.

    Only affects solvers constructed afterwards.
    """
    global _proof_enabled
    previous = _proof_enabled
    _proof_enabled = bool(enabled)
    return previous


@contextmanager
def use_proofs(enabled: bool) -> Iterator[None]:
    """Scoped override of the proof-logging toggle (certified runs)."""
    previous = set_proofs_enabled(enabled)
    try:
        yield
    finally:
        set_proofs_enabled(previous)


# ----------------------------------------------------------------------
# Inprocessing toggle (repro.sat.simplify: subsumption / SSR / BVE)
# ----------------------------------------------------------------------
_SIMPLIFY_ENV = "REPRO_SAT_SIMPLIFY"
_simplify_enabled = os.environ.get(_SIMPLIFY_ENV, "1").strip().lower() \
    not in ("0", "false", "off", "no")


def simplify_enabled() -> bool:
    """Whether new solvers run inprocessing between restarts.

    Read at construction time only, like the profiling and proof
    toggles: a solver either schedules simplification rounds for its
    whole life or never checks the schedule at all.
    """
    return _simplify_enabled


def set_simplify_enabled(enabled: bool) -> bool:
    """Set the inprocessing toggle; returns the previous value.

    Only affects solvers constructed afterwards.
    """
    global _simplify_enabled
    previous = _simplify_enabled
    _simplify_enabled = bool(enabled)
    return previous


@contextmanager
def use_simplify(enabled: bool) -> Iterator[None]:
    """Scoped override of the inprocessing toggle (A/B testing)."""
    previous = set_simplify_enabled(enabled)
    try:
        yield
    finally:
        set_simplify_enabled(previous)


#: Profiled search phases, in ``time_breakdown()`` key order.
PROFILE_PHASES = ("propagate", "analyze", "decide")


def _timed(fn, acc: Dict[str, float], key: str):
    """Wrap ``fn`` to accumulate its wall time into ``acc[key]``."""
    def wrapper(*args):
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            acc[key] += perf_counter() - t0
    return wrapper


class Solver:
    """An incremental CDCL SAT solver with assumption support (see the
    module docstring for the data layout)."""

    def __init__(self) -> None:
        self.num_vars = 0
        #: Clause arena; pad so cref 0 is never valid (reason table
        #: uses -1 as "no reason", watcher code may treat 0 as falsy).
        self._arena: List[int] = [0, 0]
        #: Activities of learnt clauses, indexed by the header's
        #: activity slot (problem clauses carry -1 there).
        self._cla_act: List[float] = []
        #: Problem / learnt clause references, insertion-ordered.
        self._clauses: List[int] = []
        self._learnts: List[int] = []
        #: Per-literal interleaved [cref, blocker, ...] watcher lists.
        self._watches: List[List[int]] = []
        self._assign: List[int] = []
        self._level: List[int] = []
        self._reason: List[int] = []
        self._polarity: List[int] = []
        #: Dead arena words left behind by removed learnt clauses.
        self._garbage = 0
        #: VSIDS activity table, lazy-deletion binary heap of
        #: ``(-activity, var)`` entries, trail of literals,
        #: decision-level marks.
        self._activity: List[float] = []
        self._heap: List[tuple] = []
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._cla_inc = 1.0
        self._ok = True
        #: The satisfying assignment of the last ``solve()`` call,
        #: indexed by variable — valid ONLY when that call returned
        #: :data:`SAT`.  Cleared at the start of every ``solve()``, so
        #: after an UNSAT/UNKNOWN call it is empty rather than the
        #: previous call's stale assignment; :meth:`value` then raises
        #: ``IndexError``.
        self.model: List[bool] = []
        # Statistics.  Semantics: *lifetime totals*, monotonically
        # non-decreasing across incremental solve() calls (MiniSat
        # convention).  Never read these expecting per-call values;
        # use stats() for a snapshot or last_call_stats for the deltas
        # of the most recent solve().
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        #: Per-call deltas of the last :meth:`solve` invocation.
        self.last_call_stats: Dict[str, int] = {}
        #: Why the last :meth:`solve` returned ``unknown``: one of the
        #: :data:`repro.resilience.EXHAUSTION_REASONS`, or None when
        #: the call was conclusive (or inconclusive for a non-resource
        #: reason, e.g. an injected spurious unknown).
        self.last_exhaustion: Optional[str] = None
        #: Lifetime seconds spent in each search phase, or None when
        #: profiling was off at construction (the default — the hot
        #: path then carries no timing overhead at all).
        self._profile: Optional[Dict[str, float]] = \
            {phase: 0.0 for phase in PROFILE_PHASES} \
            if _profile_enabled else None
        #: DRAT-style proof event log (repro.cert), or None when proof
        #: logging was off at construction — the hot paths then guard
        #: on a single ``is not None`` per batch/conflict/solve, the
        #: same zero-cost-when-off contract as the profile wrappers.
        self._proof: Optional[ProofLog] = \
            ProofLog(stream_path=_proof_stream_path) \
            if _proof_enabled else None
        #: Inprocessing (repro.sat.simplify).  The schedule is
        #: conflict-driven: a round runs at the first restart whose
        #: lifetime conflict count reaches ``_simp_next``, then the
        #: gap doubles.
        self._use_simplify = _simplify_enabled
        self._simp_next = 0
        self._simp_interval = 2000
        #: Variables that must never be eliminated: assumption
        #: variables (frozen automatically at every solve) and any the
        #: caller froze explicitly via :meth:`freeze`.
        self._frozen: set = set()
        #: Eliminated-variable flags (lazily padded to num_vars by the
        #: simplifier; always index-guard before reading).
        self._elim: List[int] = []
        self._elim_count = 0
        #: Model-reconstruction stack of ``(var, lits)`` records, the
        #: designated literal first; walked backward by _extend_model.
        self._elim_stack: List[Tuple[int, Tuple[int, ...]]] = []
        #: Removed problem clauses per eliminated variable, kept for
        #: restoration when the variable is re-introduced.
        self._elim_clauses: Dict[int, List[List[int]]] = {}
        #: Lifetime simplify counters; keys appear lazily on first
        #: use, so stats() stays four-key until a round actually runs.
        self._simp_counters: Dict[str, int] = {}

    def stats(self) -> Dict[str, int]:
        """A snapshot of the lifetime statistic totals.

        Always carries the four core counters; the ``simplify_*``
        counters join lazily once inprocessing has done any work, so
        consumers must treat absent keys as zero (solve()'s delta
        computation does exactly that).
        """
        out = {
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "restarts": self.restarts,
        }
        if self._simp_counters:
            out.update(self._simp_counters)
        return out

    def time_breakdown(self) -> Optional[Dict[str, float]]:
        """Lifetime seconds per search phase (propagate / analyze /
        decide), or None when profiling was off at construction."""
        return dict(self._profile) if self._profile is not None \
            else None

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        """Allocate and return a fresh variable."""
        var = self.num_vars
        self.num_vars += 1
        self._watches.append([])
        self._watches.append([])
        self._assign.append(-1)
        self._level.append(0)
        self._reason.append(-1)
        self._polarity.append(0)
        self._activity.append(0.0)
        heapq.heappush(self._heap, (0.0, var))
        return var

    def new_vars(self, n: int) -> int:
        """Allocate ``n`` fresh variables at once; returns the first.

        State-identical to ``n`` :meth:`new_var` calls — the template
        stamping fast path uses it to skip per-variable call overhead.
        """
        base = self.num_vars
        if n <= 0:
            return base
        self.num_vars = base + n
        self._watches.extend([] for _ in range(2 * n))
        self._assign.extend([-1] * n)
        self._level.extend([0] * n)
        self._reason.extend([-1] * n)
        self._polarity.extend([0] * n)
        self._activity.extend([0.0] * n)
        heap = self._heap
        for var in range(base, base + n):
            heapq.heappush(heap, (0.0, var))
        return base

    def _ensure_var(self, var: int) -> None:
        while self.num_vars <= var:
            self.new_var()

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a clause; returns False if the formula became trivially UNSAT.

        May be called between :meth:`solve` calls (the solver first
        backtracks to decision level 0).
        """
        if not self._ok:
            return False
        if self._elim_count:
            # Re-introducing an eliminated variable invalidates its
            # elimination: restore its removed clauses (and, by
            # cascade, those of any eliminated variable they mention)
            # before this clause joins the database.
            lits = list(lits)
            self._restore_eliminated(lits)
            if not self._ok:
                return False
        if self._proof is not None:
            # Log the *original* clause — the checker's trust base is
            # exactly what the caller asserted, not the level-0
            # normalised residue (dropped literals are re-derived by
            # unit propagation from the logged unit clauses).
            lits = list(lits)
            self._proof.input(lits)
        return self._add_clause_raw(lits)

    def _add_clause_raw(self, lits: Iterable[int]) -> bool:
        """The normalising clause loader, *without* proof logging —
        internal callers (bulk-load delegation) log the original
        clause themselves and must not log its normalised residue as
        a second input."""
        if not self._ok:
            return False
        self._cancel_until(0)
        seen: Dict[int, int] = {}
        clause: List[int] = []
        dropped = False
        for lit in lits:
            self._ensure_var(lit_var(lit))
            if self._value(lit) is True:
                return True  # satisfied at level 0
            if self._value(lit) is False:
                dropped = True
                continue  # falsified at level 0: drop literal
            if lit in seen:
                continue
            if lit_not(lit) in seen:
                return True  # tautology
            seen[lit] = 1
            clause.append(lit)
        if not clause:
            self._ok = False
            return False
        if len(clause) == 1:
            if not self._enqueue(clause[0]):
                self._ok = False
                return False
            self._ok = self._propagate() is None
            return self._ok
        if dropped and self._proof is not None:
            # The stored residue differs from the logged input by the
            # stripped level-0-false literals.  Log it as a lemma (it
            # is RUP: the dropped literals' negations are derivable
            # units) so later deletions of the *stored* form — the
            # inprocessing pass emits those — match a live instance in
            # the checker's bookkeeping.
            self._proof.learnt(clause)
        self._store_problem_clause(clause)
        return True

    def _alloc_clause(self, lits: List[int], learnt: bool) -> int:
        arena = self._arena
        cref = len(arena)
        if learnt:
            act_idx = len(self._cla_act)
            self._cla_act.append(0.0)
        else:
            act_idx = -1
        arena.append(len(lits))
        arena.append(act_idx)
        arena.extend(lits)
        return cref

    def _store_problem_clause(self, clause: List[int]) -> None:
        cref = self._alloc_clause(clause, learnt=False)
        self._clauses.append(cref)
        self._attach(cref)

    def add_clauses_bulk(self, clauses: Iterable[List[int]]) -> bool:
        """Bulk-load pre-validated clauses, skipping normalisation.

        The fast path behind template stamping
        (:mod:`repro.sat.template`).  Caller contract, per clause:

        * at least two literals, over already-allocated variables;
        * pairwise-distinct variables (no duplicate literals, no
          tautologies);
        * the solver takes ownership of each literal list (never
          reuse one).

        A clause whose variables are all unassigned at decision level
        0 is written to the arena and watch-attached directly; a
        clause touching a level-0-assigned variable gets the
        satisfied-clause/falsified-literal normalisation of
        :meth:`add_clause` applied inline (the distinct-variables
        contract rules out the duplicate/tautology cases, and the rare
        empty/unit outcomes are delegated back to :meth:`add_clause`)
        — this keeps the resulting clause database identical to adding
        every clause individually.  Returns False if the formula
        became trivially UNSAT.
        """
        if not self._ok:
            return False
        if self._elim_count:
            clauses = self._restore_for_bulk(clauses)
            if not self._ok:
                return False
        self._cancel_until(0)
        assign = self._assign
        arena = self._arena
        watches = self._watches
        out = self._clauses
        append = out.append
        slow = self._add_clause_raw
        proof = self._proof
        for lits in clauses:
            if proof is not None:
                # Original literals, before any normalisation or
                # watched-literal reordering mutates the list.
                proof.input(lits)
            for lit in lits:
                if assign[lit >> 1] >= 0:
                    break
            else:
                cref = len(arena)
                arena.append(len(lits))
                arena.append(-1)
                arena.extend(lits)
                append(cref)
                ws = watches[lits[0] ^ 1]
                ws.append(cref)
                ws.append(lits[1])
                ws = watches[lits[1] ^ 1]
                ws.append(cref)
                ws.append(lits[0])
                continue
            # Level-0 normalisation, inline.  ``v != (lit & 1)`` is
            # "literal true": keep unassigned literals, drop falsified
            # ones, skip the clause on a satisfied one — exactly
            # add_clause's rules minus the duplicate/tautology checks
            # the caller contract makes unreachable.
            keep = []
            kappend = keep.append
            sat = False
            for lit in lits:
                v = assign[lit >> 1]
                if v < 0:
                    kappend(lit)
                elif v != (lit & 1):
                    sat = True
                    break
            if sat:
                continue
            if len(keep) >= 2:
                if proof is not None and len(keep) < len(lits):
                    # Stored residue differs from the logged input
                    # (level-0-false literals stripped): log it as a
                    # RUP lemma so a later deletion of the stored
                    # form matches a live instance in the checker.
                    proof.learnt(keep)
                cref = len(arena)
                arena.append(len(keep))
                arena.append(-1)
                arena.extend(keep)
                append(cref)
                ws = watches[keep[0] ^ 1]
                ws.append(cref)
                ws.append(keep[1])
                ws = watches[keep[1] ^ 1]
                ws.append(cref)
                ws.append(keep[0])
            elif not slow(keep):  # empty or unit: rare, delegate
                return False
        return True

    def add_cnf(self, cnf: CNF) -> bool:
        """Load all clauses of a :class:`~repro.sat.cnf.CNF`.

        Pre-validated clauses — at least two literals over pairwise
        distinct variables (no duplicate literals, no tautologies) —
        are routed through the :meth:`add_clauses_bulk` fast path in
        maximal runs; anything else (units, empties, duplicates,
        tautologies) takes the normalising :meth:`add_clause` slow
        path at its original stream position, so the resulting solver
        state is element-wise identical to loading every clause
        individually.
        """
        if cnf.num_vars:
            self._ensure_var(cnf.num_vars - 1)
        batch: List[List[int]] = []
        for clause in cnf.clauses:
            if len(clause) >= 2 and \
                    len({lit >> 1 for lit in clause}) == len(clause):
                # Bulk-eligible; the bulk loader re-checks level-0
                # assignments per clause, so interleaved units are
                # still normalised correctly.
                batch.append(list(clause))
                continue
            if batch:
                if not self.add_clauses_bulk(batch):
                    return False
                batch = []
            if not self.add_clause(clause):
                return False
        if batch:
            return self.add_clauses_bulk(batch)
        return True

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_budget: Optional[int] = None,
        budget: Optional[Budget] = None,
    ) -> str:
        """Solve under ``assumptions``; returns ``sat``/``unsat``/``unknown``.

        ``conflict_budget`` contract (shared verbatim by every caller
        that forwards the knob — BMC, k-induction, the recurrence and
        QBF engines, and ``SweepConfig.conflict_budget``):

        * ``None`` — unlimited: search until conclusive;
        * ``n >= 0`` — explore at most ``n`` conflicts, then give up
          with ``unknown`` (``0`` therefore aborts at the *first*
          conflict; conflict-free instances still conclude);
        * negative — a :class:`ValueError` (it used to silently mean
          "unlimited", which callers confused with ``0``).

        ``budget`` is a cooperative :class:`repro.resilience.Budget`
        checked at call entry and then once per conflict (and
        periodically per decision, for conflict-free instances): on a
        wall-clock deadline or pool exhaustion the call returns
        ``unknown`` with the structured reason in
        :attr:`last_exhaustion`; a cancelled budget raises
        :class:`~repro.resilience.Cancelled`.  On ``sat``,
        :attr:`model` holds a satisfying assignment indexed by
        variable; on any other result it is cleared to the empty list
        (it previously retained the prior SAT call's assignment, so an
        incremental SAT-then-UNSAT sequence silently exposed a stale
        model), and :meth:`value` raises ``IndexError``.

        Statistic counters accumulate across calls (lifetime totals);
        the per-call deltas land in :attr:`last_call_stats` and are
        published to the active :mod:`repro.obs` registry under the
        ``sat.*`` counters and the ``sat.solve`` span.
        """
        if conflict_budget is not None and conflict_budget < 0:
            raise ValueError("conflict_budget must be None or >= 0, "
                             f"got {conflict_budget}")
        self.model = []  # never expose a stale assignment (see above)
        before = self.stats()
        profile_before = dict(self._profile) \
            if self._profile is not None else None
        reg = obs.get_registry()
        with reg.span("sat.solve") as solve_span:
            result = self._solve_governed(assumptions, conflict_budget,
                                          budget)
        # Delta over whatever keys exist *now*: a counter that first
        # appeared mid-call (the lazily-created simplify_* family) has
        # no "before" entry — its baseline is zero, not a KeyError.
        delta = {key: total - before.get(key, 0)
                 for key, total in self.stats().items()}
        self.last_call_stats = delta
        reg.counter("sat.solve_calls")
        reg.counter(f"sat.result.{result}")
        for key, value in delta.items():
            if value and not key.startswith("simplify_"):
                # simplify_* deltas are published by the simplifier
                # itself under the simplify.* counter namespace.
                reg.counter(f"sat.{key}", value)
        if profile_before is not None:
            for phase in PROFILE_PHASES:
                ns = int((self._profile[phase]
                          - profile_before[phase]) * 1e9)
                if ns:
                    reg.counter(f"sat.{phase}_ns", ns)
        if _metrics._enabled:
            # One module-attribute load when disabled (the line
            # above); everything below runs only under REPRO_METRICS.
            _metrics.observe("sat.solve_seconds", solve_span.seconds)
            _metrics.gauge_set("sat.vars", self.num_vars)
            _metrics.mark("sat.solves")
            conflicts = delta.get("conflicts", 0)
            if conflicts:
                _metrics.mark("sat.conflicts", conflicts)
            _metrics.record_query(
                engine=_metrics.current_context().get("engine", "sat"),
                verdict=result,
                conflicts=conflicts,
                propagations=delta.get("propagations", 0),
                decisions=delta.get("decisions", 0),
                seconds=solve_span.seconds,
                budget_charged=conflicts if budget is not None else 0,
                exhausted=self.last_exhaustion,
            )
        return result

    def _solve_governed(
        self,
        assumptions: Sequence[int],
        conflict_budget: Optional[int],
        budget: Optional[Budget],
    ) -> str:
        """Fault-injection and budget gatekeeping around the search."""
        self.last_exhaustion = None
        try:
            fault = _faults.on_solve()
        except EngineFailure:
            obs.counter("faults.crash")
            raise
        if fault is not None:
            obs.counter(f"faults.{fault}")
            if fault == _faults.FAULT_TIMEOUT:
                # Behave exactly like a blown wall-clock deadline.
                self.last_exhaustion = EXHAUSTED_DEADLINE
            if fault != _faults.FAULT_CORRUPT_MODEL:
                return UNKNOWN
            # corrupt_model runs the search normally and falsifies
            # the *answer* afterwards (see below).
        if budget is not None:
            if budget.cancelled:
                raise Cancelled(budget_name=budget.name)
            reason = budget.exhausted()
            if reason is not None:
                self.last_exhaustion = reason
                return UNKNOWN
            budget.charge_query()
        result = self._search(assumptions, conflict_budget, budget)
        if fault == _faults.FAULT_CORRUPT_MODEL and result == SAT \
                and self.model:
            # The scripted decode/transport fault: the search was
            # sound, but the reported model carries one flipped bit.
            # Only witness replay (repro.cert) can notice.
            self.model[0] = not self.model[0]
        return result

    def _budget_stop(self, budget: Budget) -> Optional[str]:
        """Cooperative in-search budget check; raises on cancellation,
        returns the exhaustion reason (None to keep searching)."""
        if budget.cancelled:
            self._cancel_until(0)
            raise Cancelled(budget_name=budget.name)
        reason = budget.exhausted()
        if reason is not None:
            self._cancel_until(0)
            self.last_exhaustion = reason
        return reason

    def _search(
        self,
        assumptions: Sequence[int],
        conflict_budget: Optional[int],
        budget: Optional[Budget] = None,
    ) -> str:
        """The CDCL control loop.

        Calls the data-layout primitives (``_propagate``,
        ``_analyze``, ``_pick_branch``) through locals, so profiling
        can swap in timed wrappers without touching the loop.
        """
        if self._use_simplify and assumptions:
            # Assumption variables are part of the caller's interface:
            # freeze them against elimination, and un-eliminate any
            # that a previous call's inprocessing already removed
            # (an assumption over a clause-free variable would pin it
            # unsoundly).
            assumptions = list(assumptions)
            frozen = self._frozen
            for lit in assumptions:
                frozen.add(lit >> 1)
            if self._elim_count:
                self._restore_eliminated(assumptions)
        if not self._ok:
            self._conclude_unsat(())
            return UNSAT
        self._cancel_until(0)
        propagate = self._propagate
        analyze = self._analyze
        pick_branch = self._pick_branch
        if self._profile is not None:
            acc = self._profile
            propagate = _timed(propagate, acc, "propagate")
            analyze = _timed(analyze, acc, "analyze")
            pick_branch = _timed(pick_branch, acc, "decide")
        fault_plan = _faults.active_plan()
        if propagate() is not None:
            self._ok = False
            self._conclude_unsat(())
            return UNSAT
        if self._use_simplify and conflict_budget is None \
                and budget is None \
                and self.conflicts >= self._simp_next:
            # Solve-entry round: SatELite-style preprocessing on a
            # solver's first call (Tseitin gate variables resolve
            # away), periodic pickup for long-lived incremental
            # callers.  Same preconditions as the restart-boundary
            # round — level 0, propagation at fixpoint — and
            # assumption variables were frozen above.  Budgeted calls
            # skip it: a round can refute outright, and the governance
            # contract (budget 0 + a conflicted instance = UNKNOWN,
            # exhaustion accounted to search effort) must not change
            # with the simplifier on.
            if not self._run_simplify():
                self._ok = False
                self._conclude_unsat(())
                return UNSAT
        assumptions = list(assumptions)
        budget_start = self.conflicts
        restart_idx = 1
        limit = 128 * self._luby(restart_idx)
        conflicts_here = 0
        max_learnts = max(1000, 2 * len(self._clauses))
        while True:
            conflict = propagate()
            if conflict is not None:
                self.conflicts += 1
                conflicts_here += 1
                if self._decision_level() == 0:
                    self._ok = False
                    # A level-0 conflict refutes the formula outright
                    # (no assumption decision is involved).
                    self._conclude_unsat(())
                    return UNSAT
                learnt, back_level = analyze(conflict)
                if fault_plan is not None \
                        and fault_plan.next_learnt(learnt):
                    # Scripted soundness fault: the corrupted clause
                    # is recorded, proof-logged and *used* exactly as
                    # if conflict analysis had miscompiled it.
                    obs.counter("faults.corrupt_learnt")
                # Backtracking may unwind assumption levels; the decision
                # loop below re-applies them (and reports UNSAT if one
                # has become falsified by learned clauses).
                self._cancel_until(back_level)
                self._record_learnt(learnt)
                self._decay_activities()
                if (self.conflicts & 2047) == 0:
                    # Heartbeat every 2048 conflicts: one mask test on
                    # the hot path, a progress record only when due.
                    obs.progress("sat", conflicts=self.conflicts,
                                 decisions=self.decisions,
                                 learnts=len(self._learnts))
                if budget is not None:
                    budget.charge_conflicts()
                    if self._budget_stop(budget) is not None:
                        return UNKNOWN
                if conflict_budget is not None and \
                        self.conflicts - budget_start >= conflict_budget:
                    self._cancel_until(0)
                    self.last_exhaustion = EXHAUSTED_CONFLICTS
                    return UNKNOWN
                if conflicts_here >= limit:
                    self.restarts += 1
                    restart_idx += 1
                    limit = 128 * self._luby(restart_idx)
                    conflicts_here = 0
                    self._cancel_until(0)
                    if self._use_simplify \
                            and self.conflicts >= self._simp_next:
                        # Inprocessing at the restart boundary (level
                        # 0, propagation at fixpoint).
                        if not self._run_simplify():
                            self._ok = False
                            self._conclude_unsat(())
                            return UNSAT
                        max_learnts = max(1000, 2 * len(self._clauses))
                if len(self._learnts) >= max_learnts:
                    self._reduce_db()
                    max_learnts = int(max_learnts * 1.3)
                continue
            # No conflict: extend with assumption or decision.
            if self._decision_level() < len(assumptions):
                lit = assumptions[self._decision_level()]
                self._ensure_var(lit_var(lit))
                val = self._value(lit)
                if val is True:
                    # Already implied: open an empty decision level so
                    # level bookkeeping still tracks assumption count.
                    self._trail_lim.append(len(self._trail))
                    continue
                if val is False:
                    # Refuted *under these assumptions*: everything on
                    # the trail is unit-propagation-derivable from the
                    # clause DB plus the assumption literals, so the
                    # checker re-derives this conflict from the logged
                    # clauses and the recorded assumptions alone.
                    self._conclude_unsat(tuple(assumptions))
                    return UNSAT
                self._trail_lim.append(len(self._trail))
                self._enqueue(lit)
                continue
            lit = pick_branch()
            if lit is None:
                self.model = [bool(v) for v in self._assign]
                if self._elim_stack:
                    # Eliminated variables carry arbitrary search
                    # values (they occur in no clause); overwrite them
                    # with reconstructed ones so callers — and witness
                    # replay — see a model of the *original* formula.
                    self._extend_model()
                self._cancel_until(0)
                return SAT
            self.decisions += 1
            # Deadline/cancellation probe for conflict-free instances
            # (pure propagation never reaches the conflict-side check).
            if budget is not None and (self.decisions & 255) == 0 \
                    and self._budget_stop(budget) is not None:
                return UNKNOWN
            self._trail_lim.append(len(self._trail))
            self._enqueue(lit)

    def value(self, var: int) -> bool:
        """Value of ``var`` in the last model.

        Only meaningful after a :data:`SAT` result; any other result
        clears the model, so this raises ``IndexError``.
        """
        return self.model[var]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _conclude_unsat(self, assumptions: Tuple[int, ...]) -> None:
        """Close the proof on an UNSAT return (no-op when logging is
        off).  Every UNSAT exit of ``_search`` calls this with the
        assumption literals the refutation is conditional on (the
        empty tuple for an unconditional one)."""
        if self._proof is not None:
            self._proof.conclude_unsat(assumptions)

    def _value(self, lit: int) -> Optional[bool]:
        v = self._assign[lit >> 1]
        if v < 0:
            return None
        return v == (lit & 1) ^ 1

    def _attach(self, cref: int) -> None:
        arena = self._arena
        l0 = arena[cref + 2]
        l1 = arena[cref + 3]
        ws = self._watches[l0 ^ 1]
        ws.append(cref)
        ws.append(l1)
        ws = self._watches[l1 ^ 1]
        ws.append(cref)
        ws.append(l0)

    def _enqueue(self, lit: int, reason: int = -1) -> bool:
        var = lit >> 1
        v = self._assign[var]
        sign_flip = (lit & 1) ^ 1
        if v >= 0:
            return v == sign_flip
        self._assign[var] = sign_flip
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._polarity[var] = sign_flip
        self._trail.append(lit)
        return True

    def _propagate(self) -> Optional[int]:
        trail = self._trail
        arena = self._arena
        assign = self._assign
        level = self._level
        reason = self._reason
        polarity = self._polarity
        trail_append = trail.append
        watches = self._watches
        qhead = self._qhead
        propagations = 0
        conflict = -1
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            propagations += 1
            ws = watches[lit]
            false_lit = lit ^ 1
            cur_level = len(self._trail_lim)
            i = 0
            j = 0
            n = len(ws)
            while i < n:
                cref = ws[i]
                blocker = ws[i + 1]
                i += 2
                # Blocker fast path: clause already satisfied.
                if assign[blocker >> 1] == (blocker & 1) ^ 1:
                    ws[j] = cref
                    ws[j + 1] = blocker
                    j += 2
                    continue
                base = cref + 2
                # Ensure the falsified literal is in slot 1.
                l0 = arena[base]
                if l0 == false_lit:
                    l0 = arena[base + 1]
                    arena[base] = l0
                    arena[base + 1] = false_lit
                v0 = assign[l0 >> 1]
                if v0 == (l0 & 1) ^ 1:
                    ws[j] = cref
                    ws[j + 1] = l0
                    j += 2
                    continue
                # Search for a new watch.
                end = base + arena[cref]
                found = False
                for k in range(base + 2, end):
                    lk = arena[k]
                    if assign[lk >> 1] != lk & 1:  # not false
                        arena[base + 1] = lk
                        arena[k] = false_lit
                        nws = watches[lk ^ 1]
                        nws.append(cref)
                        nws.append(l0)
                        found = True
                        break
                if found:
                    continue
                # Unit or conflicting.
                ws[j] = cref
                ws[j + 1] = l0
                j += 2
                if v0 >= 0:  # l0 false (not-true and assigned): conflict
                    while i < n:
                        ws[j] = ws[i]
                        ws[j + 1] = ws[i + 1]
                        i += 2
                        j += 2
                    del ws[j:]
                    qhead = len(trail)
                    conflict = cref
                    break
                var = l0 >> 1
                assign[var] = (l0 & 1) ^ 1
                level[var] = cur_level
                reason[var] = cref
                polarity[var] = assign[var]
                trail_append(l0)
            else:
                del ws[j:]
                continue
            break
        self._qhead = qhead
        self.propagations += propagations
        return conflict if conflict >= 0 else None

    def _analyze(self, conflict: int) -> tuple:
        arena = self._arena
        trail = self._trail
        level = self._level
        reasons = self._reason
        learnt: List[int] = [0]  # slot 0 for the asserting literal
        seen = [False] * self.num_vars
        counter = 0
        lit = None
        reason = conflict
        idx = len(trail) - 1
        cur_level = len(self._trail_lim)
        cla_act = self._cla_act
        cla_inc = self._cla_inc
        while True:
            act_idx = arena[reason + 1]
            if act_idx >= 0:
                cla_act[act_idx] += cla_inc
            size = arena[reason]
            lits = arena[reason + 2: reason + 2 + size]
            start = 0 if lit is None else 1
            if lit is not None and lits[0] != lit:
                # Reason clause stores the implied literal first; if
                # not, locate it and skip it.
                lits = [lit] + [x for x in lits if x != lit]
            for q in lits[start:]:
                var = q >> 1
                if not seen[var] and level[var] > 0:
                    seen[var] = True
                    self._bump_var(var)
                    if level[var] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[trail[idx] >> 1]:
                idx -= 1
            lit = trail[idx]
            idx -= 1
            var = lit >> 1
            seen[var] = False
            counter -= 1
            if counter == 0:
                break
            reason = reasons[var]
        learnt[0] = lit ^ 1
        learnt = self._minimize(learnt, seen)
        if len(learnt) == 1:
            back_level = 0
        else:
            max_i = 1
            for i in range(2, len(learnt)):
                if level[learnt[i] >> 1] > level[learnt[max_i] >> 1]:
                    max_i = i
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            back_level = level[learnt[1] >> 1]
        return learnt, back_level

    def _minimize(self, learnt: List[int], seen: List[bool]) -> List[int]:
        arena = self._arena
        level = self._level
        reasons = self._reason
        for lit in learnt[1:]:
            seen[lit >> 1] = True
        out = [learnt[0]]
        for lit in learnt[1:]:
            reason = reasons[lit >> 1]
            if reason < 0:
                out.append(lit)
                continue
            var = lit >> 1
            redundant = True
            for k in range(reason + 2, reason + 2 + arena[reason]):
                q = arena[k]
                if (q >> 1) != var and not seen[q >> 1] \
                        and level[q >> 1] != 0:
                    redundant = False
                    break
            if not redundant:
                out.append(lit)
        for lit in learnt[1:]:
            seen[lit >> 1] = False
        return out

    def _record_learnt(self, learnt: List[int]) -> None:
        if self._proof is not None:
            # Post-minimization literals (minimization preserves RUP);
            # unit learnts are logged too — they never enter _learnts,
            # only the level-0 trail.
            self._proof.learnt(learnt)
        if len(learnt) == 1:
            self._enqueue(learnt[0])
            return
        cref = self._alloc_clause(learnt, learnt=True)
        self._cla_act[self._arena[cref + 1]] = self._cla_inc
        self._learnts.append(cref)
        self._attach(cref)
        self._enqueue(learnt[0], cref)

    def _cancel_until(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        bound = self._trail_lim[level]
        trail = self._trail
        assign = self._assign
        reason = self._reason
        act = self._activity
        heap = self._heap
        push = heapq.heappush
        for i in range(len(trail) - 1, bound - 1, -1):
            var = trail[i] >> 1
            assign[var] = -1
            reason[var] = -1
            push(heap, (-act[var], var))
        del trail[bound:]
        del self._trail_lim[level:]
        self._qhead = bound

    def _pick_branch(self) -> Optional[int]:
        heap = self._heap
        assign = self._assign
        polarity = self._polarity
        while heap:
            _, var = heapq.heappop(heap)
            if assign[var] < 0:
                return (var << 1) | (polarity[var] ^ 1)
        for var in range(self.num_vars):
            if assign[var] < 0:
                return (var << 1) | (polarity[var] ^ 1)
        return None

    def _reduce_db(self) -> None:
        # A learnt clause is *locked* (must be kept) while it is the
        # reason of its asserting literal's variable; reasons always
        # store that literal in slot 0, so lock detection is one table
        # probe per clause — no scan over all variables.
        arena = self._arena
        cla_act = self._cla_act
        reason = self._reason
        learnts = self._learnts
        learnts.sort(key=lambda c: cla_act[arena[c + 1]])
        keep_from = len(learnts) // 2
        kept = []
        garbage = self._garbage
        proof = self._proof
        for i, cref in enumerate(learnts):
            size = arena[cref]
            if i < keep_from and size > 2 \
                    and reason[arena[cref + 2] >> 1] != cref:
                if proof is not None:
                    # Snapshot the (watch-permuted) literals before
                    # the arena words become garbage.
                    proof.delete(arena[cref + 2: cref + 2 + size])
                self._detach(cref)
                garbage += size + _HDR
            else:
                kept.append(cref)
        self._learnts = kept
        self._garbage = garbage
        if garbage * 2 > len(arena):
            self._compact()
        if _debug_checks:
            self._debug_check_watches()

    def _detach(self, cref: int) -> None:
        arena = self._arena
        for lit in (arena[cref + 2], arena[cref + 3]):
            ws = self._watches[lit ^ 1]
            for i in range(0, len(ws), 2):
                if ws[i] == cref:
                    del ws[i:i + 2]
                    break
            else:
                # A detach miss means the watcher lists no longer
                # agree with the clause's watched literals — real
                # corruption that a silent pass would mask.
                raise RuntimeError(
                    f"watcher corruption: clause ref {cref} missing "
                    f"from the watch list of literal {lit ^ 1}")

    def _compact(self) -> None:
        """Reclaim garbage arena words left by removed learnt clauses.

        Copies live clauses (problem first, then learnts, preserving
        order) into a fresh arena, rewrites every stored cref
        (clause indices, watcher lists, reason table) and rebuilds the
        learnt-activity table densely.  Watcher order is preserved, so
        the search is completely unaffected.
        """
        old = self._arena
        old_act = self._cla_act
        new: List[int] = [0, 0]
        new_act: List[float] = []
        remap: Dict[int, int] = {}
        for group in (self._clauses, self._learnts):
            for idx, cref in enumerate(group):
                size = old[cref]
                act_idx = old[cref + 1]
                ncref = len(new)
                remap[cref] = ncref
                new.append(size)
                if act_idx >= 0:
                    new.append(len(new_act))
                    new_act.append(old_act[act_idx])
                else:
                    new.append(-1)
                new.extend(old[cref + 2: cref + 2 + size])
                group[idx] = ncref
        for ws in self._watches:
            for i in range(0, len(ws), 2):
                ws[i] = remap[ws[i]]
        reason = self._reason
        for var in range(self.num_vars):
            r = reason[var]
            if r >= 0:
                # Reasons are always live: problem clauses are never
                # removed and locked learnts are kept by _reduce_db.
                reason[var] = remap[r]
        self._arena = new
        self._cla_act = new_act
        self._garbage = 0

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _bump_var(self, var: int) -> None:
        act = self._activity
        act[var] += self._var_inc
        if act[var] > 1e100:
            for v in range(self.num_vars):
                act[v] *= 1e-100
            self._var_inc *= 1e-100
            # Rescaling invalidates every key already sitting in the
            # lazy-deletion heap (they carry the un-rescaled
            # magnitudes, so _pick_branch would pop in stale priority
            # order for the rest of the run).  Rebuild the heap from
            # the *current* activities of its member variables.
            heap = [(-act[v], v)
                    for v in sorted({v for _, v in self._heap})]
            heapq.heapify(heap)
            self._heap = heap
        heapq.heappush(self._heap, (-act[var], var))

    def _decay_activities(self) -> None:
        self._var_inc /= self._var_decay
        self._cla_inc /= 0.999

    @staticmethod
    def _luby(i: int) -> int:
        """The Luby restart sequence 1,1,2,1,1,2,4,... (1-based index).

        MiniSat's formulation: find the finite subsequence containing
        index ``i`` and its position within it.
        """
        if i < 1:
            raise ValueError("the Luby sequence is 1-based")
        x = i - 1
        size, seq = 1, 0
        while size < x + 1:
            seq += 1
            size = 2 * size + 1
        while size - 1 != x:
            size = (size - 1) >> 1
            seq -= 1
            x %= size
        return 1 << seq

    # ------------------------------------------------------------------
    # Inprocessing (repro.sat.simplify drives the _simp_* primitives)
    # ------------------------------------------------------------------
    def freeze(self, var: int) -> None:
        """Protect ``var`` from variable elimination.

        Assumption variables are frozen automatically at every
        :meth:`solve`; call this for interface variables that must
        stay addressable (e.g. literals a later call will assume or
        add clauses over) without paying the restore path.
        """
        self._frozen.add(var)

    def _simp_count(self, key: str, n: int = 1) -> None:
        counters = self._simp_counters
        counters[key] = counters.get(key, 0) + n

    def _run_simplify(self) -> bool:
        """One scheduled inprocessing round; False means the round
        refuted the formula.  Doubles the conflict gap to the next
        round (cheap instances simplify once, hard ones keep going)."""
        ok = simplify_round(self)
        self._simp_next = self.conflicts + self._simp_interval
        self._simp_interval = min(self._simp_interval * 2, 1 << 20)
        if _debug_checks:
            self._debug_check_watches()
        return ok

    def _restore_eliminated(self, lits: Iterable[int]) -> None:
        """Un-eliminate every eliminated variable in ``lits`` and
        re-add its removed clauses (cascading: restored clauses may
        mention further eliminated variables, so the whole closure is
        un-marked *before* any clause is re-added).

        The restored variables' model-reconstruction records are
        dropped — the live search values must stand for them now.
        Re-added clauses re-enter through :meth:`add_clause`, which
        re-logs them as inputs (sound: they were original axioms).
        """
        elim = self._elim
        batch: List[int] = []
        seen = set()
        work = [lit >> 1 for lit in lits]
        while work:
            var = work.pop()
            if var in seen or var >= len(elim) or not elim[var]:
                continue
            seen.add(var)
            batch.append(var)
            for clause in self._elim_clauses[var]:
                for lit in clause:
                    work.append(lit >> 1)
        if not batch:
            return
        for var in batch:
            elim[var] = 0
        self._elim_count -= len(batch)
        self._elim_stack = [record for record in self._elim_stack
                            if record[0] not in seen]
        restored: List[List[int]] = []
        for var in batch:
            restored.extend(self._elim_clauses.pop(var))
        self._simp_count("simplify_restored_vars", len(batch))
        obs.counter("simplify.restored_vars", len(batch))
        for clause in restored:
            if not self.add_clause(clause):
                return

    def _restore_for_bulk(self, clauses: Iterable[List[int]]) \
            -> List[List[int]]:
        """Bulk-path guard: materialize the clause stream and restore
        any eliminated variable it re-introduces (template stamping
        hits this when a new frame references eliminated state
        literals).  Only runs when eliminations exist, so the common
        bulk path stays zero-overhead."""
        materialized = [list(lits) for lits in clauses]
        elim = self._elim
        for lits in materialized:
            for lit in lits:
                var = lit >> 1
                if var < len(elim) and elim[var]:
                    self._restore_eliminated(lits)
                    break
            if not self._ok:
                break
        return materialized

    def _extend_model(self) -> None:
        """Reconstruct model values for eliminated variables by
        walking the elimination stack backward (MiniSat extendModel):
        the unit marker fires first and pre-satisfies the un-stored
        polarity side; each stored clause then sets its designated
        literal true iff its remaining literals are all false in the
        model.  Records of restored (no-longer-eliminated) variables
        are skipped — their live search values stand."""
        model = self.model
        elim = self._elim
        for var, lits in reversed(self._elim_stack):
            if not elim[var]:
                continue
            for lit in lits[1:]:
                if model[lit >> 1] != (lit & 1):  # literal is true
                    break
            else:
                designated = lits[0]
                model[designated >> 1] = (designated & 1) == 0

    def _simp_lits(self, cref: int) -> List[int]:
        arena = self._arena
        return arena[cref + 2: cref + 2 + arena[cref]]

    def _simp_shrink(self, cref: int, new_lits: List[int]) -> None:
        # Detach on the OLD watched literals before rewriting the
        # arena words, then re-attach on the new first two — a
        # strengthened clause's watchers are rebuilt, never inherited.
        # The tail words between the new and old size become arena
        # garbage (reclaimed by _compact).
        self._detach(cref)
        arena = self._arena
        old_size = arena[cref]
        size = len(new_lits)
        arena[cref] = size
        arena[cref + 2: cref + 2 + size] = new_lits
        self._garbage += old_size - size
        self._attach(cref)

    def _simp_remove(self, cref: int) -> None:
        self._detach(cref)
        self._garbage += self._arena[cref] + _HDR

    def _simp_gc(self) -> None:
        if self._garbage * 2 > len(self._arena):
            self._compact()

    def _simp_clear_reasons(self) -> List[int]:
        """Clear the reasons of the (level-0) trail; returns the
        literals that had one — the implied level-0 facts."""
        reason = self._reason
        implied = []
        for lit in self._trail:
            var = lit >> 1
            if reason[var] >= 0:
                implied.append(lit)
                reason[var] = -1
        return implied

    def _debug_check_watches(self) -> None:
        """Assert every watcher entry is consistent: the watched
        literal sits in its clause's first two arena slots and the
        blocker occurs in the clause.  Debug-only (full sweep)."""
        arena = self._arena
        for idx, ws in enumerate(self._watches):
            lit = idx ^ 1
            for i in range(0, len(ws), 2):
                cref = ws[i]
                lits = arena[cref + 2: cref + 2 + arena[cref]]
                if lit not in lits[:2] or ws[i + 1] not in lits:
                    raise RuntimeError(
                        "watcher corruption: literal "
                        f"{lit} watches clause ref {cref} "
                        f"{tuple(lits)} (blocker {ws[i + 1]})")

    # ------------------------------------------------------------------
    # Introspection (tests and the oracle use these instead of poking
    # the arena directly)
    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        """False once the formula is known trivially UNSAT."""
        return self._ok

    @property
    def proof(self) -> Optional[ProofLog]:
        """The DRAT-style proof event log, or None when proof logging
        was off at construction (see :func:`use_proofs`)."""
        return self._proof

    def trail_lits(self) -> List[int]:
        """The current assignment trail, as literals in enqueue order."""
        return list(self._trail)

    def _lits_of(self, cref: int) -> Tuple[int, ...]:
        arena = self._arena
        return tuple(arena[cref + 2: cref + 2 + arena[cref]])

    def clause_lits(self) -> List[Tuple[int, ...]]:
        return [self._lits_of(c) for c in self._clauses]

    def learnt_lits(self) -> List[Tuple[int, ...]]:
        return [self._lits_of(c) for c in self._learnts]

    def assignment(self) -> List[Optional[bool]]:
        return [None if v < 0 else bool(v) for v in self._assign]
