"""Inprocessing between restarts: subsumption, self-subsuming
resolution, and bounded variable elimination — every step certified.

The driver operates on :class:`~repro.sat.solver.Solver` only
through its small ``_simp_*`` primitive layer (:meth:`_simp_lits`,
:meth:`_simp_shrink`, :meth:`_simp_remove`, :meth:`_simp_gc`,
:meth:`_simp_clear_reasons`) plus the ``_value`` / ``_enqueue`` /
``_propagate`` / ``_store_problem_clause`` slow paths, so it never
touches the clause arena's layout directly.

A round runs at a restart boundary (decision level 0, propagation at
fixpoint) and performs, in order:

1. **Level-0 cleanup** — clauses satisfied at level 0 are deleted;
   level-0-false literals are stripped (the stripped clause is a
   one-step RUP lemma: the dropped literals' negations are derivable
   units).
2. **Backward subsumption / self-subsuming resolution** — via
   variable-indexed occurrence lists and 64-bit clause signatures.
   For each clause ``C`` the occurrence list of its rarest variable is
   scanned once; a candidate ``D`` with ``C ⊆ D`` is deleted, and a
   candidate where exactly one literal of ``C`` appears negated in
   ``D`` is *strengthened* (``D`` loses that negation — the resolvent
   of ``C`` and ``D``, which subsumes ``D``).  The strengthened clause
   is emitted as an ``a`` lemma before the ``d`` of its parent, so it
   is RUP at its emission point.
3. **Bounded variable elimination** (SatELite-style) — an unfrozen,
   unassigned variable whose resolvent set does not grow the formula
   is eliminated: all resolvents are emitted as ``a`` lemmas (each is
   one-step RUP while its parents are live), then every clause
   mentioning the variable is deleted (``d``), with learnt clauses
   over the variable dropped too.  The smaller polarity side's clauses
   plus a unit marker of the opposite literal are pushed onto the
   solver's *elimination stack*; ``Solver._extend_model`` walks it
   backward after a SAT answer to reconstruct values for eliminated
   variables (MiniSat ``extendModel`` semantics), so ``Solver.model``
   and witness replay always see full assignments.  The removed
   problem clauses are kept in ``_elim_clauses`` for restoration when
   ``add_clause``/``add_clauses_bulk`` re-introduce the variable.

Every mutation is proof-logged through the existing
:class:`~repro.cert.proof.ProofLog`, keeping ``repro-check --certify``
and the backward RUP checker sound with inprocessing on.  This module
deliberately imports nothing from :mod:`repro.sat.solver` (the solver
imports *it*); the only dependency is :mod:`repro.obs` for counters.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Tuple

from .. import obs

__all__ = ["simplify_round", "BVE_MAX_OCC", "BVE_GROW",
           "BVE_MAX_RESOLVENT"]

#: Variables occurring in more problem clauses than this are never
#: eliminated (their resolvent sets are quadratic and rarely shrink).
BVE_MAX_OCC = 14

#: A variable is eliminated only if its non-tautological resolvent
#: count does not exceed the clause count it removes, plus this slack.
BVE_GROW = 0

#: Abort eliminating a variable if any resolvent would be longer than
#: this (long resolvents propagate poorly and bloat the proof).
BVE_MAX_RESOLVENT = 12

_SATISFIED = "sat"
_KEPT = "ok"


def _signature(lits) -> int:
    """A 64-bit Bloom signature over the clause's variables; a
    necessary condition for ``C ⊆ D`` is ``sig(C) & ~sig(D) == 0``."""
    sig = 0
    for lit in lits:
        sig |= 1 << ((lit >> 1) & 63)
    return sig


def _match(lits, other_set) -> int:
    """Subsumption test of ``lits`` against a clause's literal set,
    allowing one flipped literal.  Returns ``-1`` (strict subsumption),
    a literal ``p`` (self-subsuming resolution: ``p`` appears negated
    in the other clause, the rest is a subset), or ``-2`` (neither)."""
    flip = -1
    for lit in lits:
        if lit in other_set:
            continue
        if flip < 0 and (lit ^ 1) in other_set:
            flip = lit
            continue
        return -2
    return flip


def _resolve(pos_lits, neg_lits, var) -> Optional[List[int]]:
    """The resolvent of two clauses on ``var`` (``pos_lits`` contains
    the positive literal, ``neg_lits`` the negative); None when it is
    a tautology.  Deduplicates literals, preserving first-seen order."""
    plit = var << 1
    nlit = plit | 1
    out: List[int] = []
    seen = set()
    for lit in pos_lits:
        if lit != plit and lit not in seen:
            seen.add(lit)
            out.append(lit)
    for lit in neg_lits:
        if lit == nlit or lit in seen:
            continue
        if lit ^ 1 in seen:
            return None  # tautological resolvent
        seen.add(lit)
        out.append(lit)
    return out


def _normalize(value, lits) -> Tuple[str, Optional[List[int]]]:
    """Strip level-0-false literals; detect satisfied-at-level-0."""
    kept: List[int] = []
    for lit in lits:
        v = value(lit)
        if v is True:
            return _SATISFIED, None
        if v is None:
            kept.append(lit)
    return _KEPT, kept


def simplify_round(solver) -> bool:
    """Run one inprocessing round; returns False when the round
    refuted the formula (the caller concludes UNSAT).

    Preconditions (the restart boundary guarantees both): decision
    level 0, unit propagation at fixpoint.
    """
    reg = obs.get_registry()
    with reg.span("sat.simplify"):
        ok, subsumed, strengthened, eliminated = _run(solver)
    solver._simp_count("simplify_rounds")
    reg.counter("simplify.rounds")
    if subsumed:
        solver._simp_count("simplify_subsumed", subsumed)
        reg.counter("simplify.subsumed", subsumed)
    if strengthened:
        solver._simp_count("simplify_strengthened", strengthened)
        reg.counter("simplify.strengthened", strengthened)
    if eliminated:
        solver._simp_count("simplify_eliminated_vars", eliminated)
        reg.counter("simplify.eliminated_vars", eliminated)
    return ok


def _run(solver) -> Tuple[bool, int, int, int]:
    proof = solver._proof
    value = solver._value
    # Level-0 facts never need explaining (conflict analysis skips
    # level-0 variables), but a stale reason pointing at a clause this
    # round deletes would dangle — and arena compaction remaps every
    # live reason reference.  Drop them all up front.  The proof must
    # not lose them with their reasons, though: this round (or a later
    # learnt-DB reduction, now that they lock nothing) may delete the
    # reason clauses, after which the checker could no longer derive
    # the facts.  Log each implied one as a unit lemma while it is
    # still RUP.
    implied = solver._simp_clear_reasons()
    if proof is not None:
        for lit in implied:
            proof.learnt((lit,))

    elim = solver._elim
    if len(elim) < solver.num_vars:
        elim.extend([0] * (solver.num_vars - len(elim)))

    # Per-clause records: ref -> [lits, literal set, signature].
    # Refs are arena indices, but the driver only ever uses them as
    # ordered handles and dict/set keys.
    recs = {}
    order: List = []
    dead = set()
    subsumed = 0
    strengthened = 0
    eliminated = 0

    def remove(ref) -> None:
        dead.add(ref)
        if proof is not None:
            proof.delete(recs[ref][0])
        solver._simp_remove(ref)

    def assert_unit(lit) -> bool:
        # The literal is unassigned at level 0 (normalization strips
        # assigned ones), so the enqueue cannot fail — only the
        # follow-up propagation can, by refuting the formula.  The
        # facts it implies are logged as unit lemmas (see above): the
        # rest of the round may delete their reason clauses.
        trail = solver._trail
        start = len(trail) + 1
        solver._enqueue(lit)
        if solver._propagate() is not None:
            return False
        if proof is not None:
            for implied_lit in trail[start:]:
                proof.learnt((implied_lit,))
        return True

    for ref in solver._clauses:
        lits = solver._simp_lits(ref)
        recs[ref] = [lits, set(lits), _signature(lits)]
        order.append(ref)

    # ---- phase 1: level-0 cleanup ------------------------------------
    for ref in order:
        lits = recs[ref][0]
        status, kept = _normalize(value, lits)
        if status is _SATISFIED:
            remove(ref)
            subsumed += 1
            continue
        if len(kept) == len(lits):
            continue
        # The stripped residue is RUP: the dropped literals' negations
        # are level-0 units, themselves derivable by propagation over
        # the active clauses.  Emit it before deleting the parent.
        if not kept:
            # Every literal false at level 0 — unreachable while the
            # solver's own propagation is sound (it would have
            # conflicted before restarting), kept as a safety net.
            if proof is not None:
                proof.learnt(())
            return False, subsumed, strengthened, eliminated
        if proof is not None:
            proof.learnt(kept)
        strengthened += 1
        if len(kept) == 1:
            remove(ref)
            if not assert_unit(kept[0]):
                return False, subsumed, strengthened, eliminated
        else:
            solver._simp_shrink(ref, kept)
            recs[ref] = [kept, set(kept), _signature(kept)]

    # ---- phase 2: backward subsumption / self-subsuming resolution ---
    occ = {}
    queue = deque()
    in_queue = set()
    for ref in order:
        if ref in dead:
            continue
        for lit in recs[ref][0]:
            occ.setdefault(lit >> 1, []).append(ref)
        queue.append(ref)
        in_queue.add(ref)
    while queue:
        ref = queue.popleft()
        in_queue.discard(ref)
        if ref in dead:
            continue
        lits, _, sig = recs[ref]
        # Scan the occurrence list of the clause's rarest variable:
        # any D with C ⊆ D (or C resolving into a subset of D) must
        # mention every variable of C, this one included.
        pivot = min(lits, key=lambda l: len(occ.get(l >> 1, ())))
        for other in occ.get(pivot >> 1, ()):
            if other == ref or other in dead or ref in dead:
                continue
            olits, oset, osig = recs[other]
            if len(olits) < len(lits) or sig & ~osig:
                continue
            hit = _match(lits, oset)
            if hit == -2:
                continue
            if hit == -1:
                remove(other)
                subsumed += 1
                continue
            # Self-subsuming resolution: D loses ¬hit.  The result is
            # the resolvent of C and D, RUP while both are live; it is
            # additionally re-normalized against any units derived
            # earlier in this round.
            status, kept = _normalize(
                value, [l for l in olits if l != hit ^ 1])
            if status is _SATISFIED:
                remove(other)
                subsumed += 1
                continue
            if not kept:
                if proof is not None:
                    proof.learnt(())
                return False, subsumed, strengthened, eliminated
            if proof is not None:
                proof.learnt(kept)
            strengthened += 1
            if len(kept) == 1:
                remove(other)
                if not assert_unit(kept[0]):
                    return False, subsumed, strengthened, eliminated
            else:
                solver._simp_shrink(other, kept)
                recs[other] = [kept, set(kept), _signature(kept)]
                if other not in in_queue:
                    queue.append(other)
                    in_queue.add(other)

    # ---- phase 3: bounded variable elimination -----------------------
    pos_occ, neg_occ = {}, {}
    for ref in order:
        if ref in dead:
            continue
        for lit in recs[ref][0]:
            side = neg_occ if lit & 1 else pos_occ
            side.setdefault(lit >> 1, []).append(ref)
    learnt_occ = {}
    learnt_dead = set()
    for lref in solver._learnts:
        for lit in solver._simp_lits(lref):
            learnt_occ.setdefault(lit >> 1, []).append(lref)
    frozen = solver._frozen
    candidates = sorted(
        set(pos_occ) | set(neg_occ),
        key=lambda v: (len(pos_occ.get(v, ()))
                       + len(neg_occ.get(v, ())), v))
    for var in candidates:
        if var in frozen or elim[var] or value(var << 1) is not None:
            continue
        plit = var << 1
        nlit = plit | 1
        # Occurrence lists go stale as strengthening/elimination
        # rewrites clauses; filter on liveness and actual membership.
        pos = [r for r in pos_occ.get(var, ())
               if r not in dead and plit in recs[r][1]]
        neg = [r for r in neg_occ.get(var, ())
               if r not in dead and nlit in recs[r][1]]
        if not pos and not neg:
            continue
        if len(pos) + len(neg) > BVE_MAX_OCC:
            continue
        resolvents: List[List[int]] = []
        aborted = False
        for pref in pos:
            for nref in neg:
                res = _resolve(recs[pref][0], recs[nref][0], var)
                if res is None:
                    continue
                if len(res) > BVE_MAX_RESOLVENT:
                    aborted = True
                    break
                resolvents.append(res)
            if aborted:
                break
        if aborted:
            continue
        uniq = {}
        for res in resolvents:
            uniq.setdefault(tuple(sorted(res)), res)
        resolvents = list(uniq.values())
        if len(resolvents) > len(pos) + len(neg) + BVE_GROW:
            continue
        # Commit.  Proof order matters: every resolvent is a one-step
        # RUP lemma only while both of its parents are still active,
        # so all `a` lines precede the parents' `d` lines.
        if proof is not None:
            for res in resolvents:
                proof.learnt(res)
        # Elimination stack (MiniSat extendModel convention): store
        # the smaller side's clauses with the variable's own literal
        # first, then a unit marker of the *other* polarity.  Model
        # reconstruction walks backward: the marker pre-satisfies the
        # larger (un-stored) side, each stored clause flips the
        # variable only if its remaining literals are all false.
        if len(pos) <= len(neg):
            side, designated, marker = pos, plit, nlit
        else:
            side, designated, marker = neg, nlit, plit
        stack = solver._elim_stack
        for ref in side:
            rest = [l for l in recs[ref][0] if l != designated]
            stack.append((var, (designated, *rest)))
        stack.append((var, (marker,)))
        solver._elim_clauses[var] = \
            [list(recs[r][0]) for r in pos + neg]
        for ref in pos + neg:
            remove(ref)
        for lref in learnt_occ.get(var, ()):
            if lref in learnt_dead:
                continue
            learnt_dead.add(lref)
            if proof is not None:
                proof.delete(solver._simp_lits(lref))
            solver._simp_remove(lref)
        elim[var] = 1
        solver._elim_count += 1
        eliminated += 1
        for res in resolvents:
            status, kept = _normalize(value, res)
            if status is _SATISFIED:
                continue
            if not kept:
                return False, subsumed, strengthened, eliminated
            if proof is not None and len(kept) < len(res):
                proof.learnt(kept)
            if len(kept) == 1:
                if not assert_unit(kept[0]):
                    return False, subsumed, strengthened, eliminated
                continue
            solver._store_problem_clause(list(kept))
            ref = solver._clauses[-1]
            recs[ref] = [kept, set(kept), _signature(kept)]
            order.append(ref)
            for lit in kept:
                side_occ = neg_occ if lit & 1 else pos_occ
                side_occ.setdefault(lit >> 1, []).append(ref)

    # ---- commit: rebuild clause lists, reclaim arena garbage ---------
    if dead:
        solver._clauses = [r for r in solver._clauses if r not in dead]
    if learnt_dead:
        solver._learnts = [r for r in solver._learnts
                           if r not in learnt_dead]
    # Propagation during the round assigned fresh level-0 reasons that
    # may reference deleted clauses; clear them again before GC.
    solver._simp_clear_reasons()
    solver._simp_gc()
    return True, subsumed, strengthened, eliminated
