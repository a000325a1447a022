"""Randomized oracle suite for the CDCL solver, refereed independently.

Every answer is checked by a referee that shares no code with the
search:

* a brute-force enumerator decides every small instance (under its
  assumption literals) and must agree with the verdict;
* every SAT model must satisfy every clause and every assumption;
* every UNSAT verdict is logged under ``use_proofs(True)`` and its
  proof must pass :func:`repro.cert.drat.check_proof`.

Instance shapes mirror real callers: one-shot random 3-CNF, the
incremental clause-add/solve interleave of SAT sweeping, the
assumption-sequence shape of BMC/k-induction, conflict budgets, and
pigeonhole formulas hard enough to restart and simplify.

Referees catch wrong answers but not a silent change in *how* the
search reaches them, so :data:`PINNED` fixes the ``last_call_stats``
trajectory and final ``stats()`` of a few fixed-seed scripts.  A
change to decisions, propagation order, restarts or inprocessing shows
up there first; re-pin only for an intended change to the search.
Slow, larger cases are marked ``bench``.
"""

import itertools
import random
from collections import Counter

import pytest

from repro.cert.drat import check_proof
from repro.cert.proof import clause_key
from repro.resilience import EXHAUSTED_CONFLICTS
from repro.sat import (
    SAT,
    UNKNOWN,
    UNSAT,
    Solver,
    use_proofs,
    use_sat_profile,
    use_simplify,
)
from repro.sat.simplify import simplify_round


def random_clauses(rng, num_vars, num_clauses, width=3):
    clauses = []
    for _ in range(num_clauses):
        w = rng.randint(1, width)
        vs = rng.sample(range(num_vars), min(w, num_vars))
        clauses.append([2 * v + (rng.random() < 0.5) for v in vs])
    return clauses


def random_3cnf(rng, num_vars, num_clauses):
    return [[2 * v + (rng.random() < 0.5)
             for v in rng.sample(range(num_vars), 3)]
            for _ in range(num_clauses)]


def php_clauses(pigeons, holes):
    """PHP(pigeons, holes): UNSAT whenever pigeons > holes."""
    def var(p, h):
        return p * holes + h

    out = [[2 * var(p, h) for h in range(holes)]
           for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                out.append([2 * var(p1, h) + 1, 2 * var(p2, h) + 1])
    return out


def brute_force_sat(num_vars, clauses, assumptions=()):
    """Brute force with assumption literals forced true."""
    for bits in itertools.product([False, True], repeat=num_vars):
        if any(bits[l >> 1] == (l & 1 == 1) for l in assumptions):
            continue
        if all(any(bits[l >> 1] != (l & 1 == 1) for l in c)
               for c in clauses):
            return True
    return False


def check_model(model, clauses):
    for clause in clauses:
        assert any(model[l >> 1] != (l & 1 == 1) for l in clause)


def certified_solver(num_vars):
    with use_proofs(True):
        solver = Solver()
    solver.new_vars(num_vars)
    return solver


def referee(solver, result, clauses, assumptions=(), brute=True):
    """Check one ``solve()`` answer against the independent referees;
    ``clauses`` is everything added so far."""
    if brute:
        expected = brute_force_sat(solver.num_vars, clauses, assumptions)
        assert result == (SAT if expected else UNSAT)
    if result == SAT:
        check_model(solver.model, clauses)
        check_model(solver.model, [[lit] for lit in assumptions])
    elif result == UNSAT:
        check = check_proof(solver.proof)
        assert check.ok, check.errors[:3]


def run_refereed(num_vars, script, brute=True):
    """Run an ``("add", clause)`` / ``("solve", assumptions)`` script
    through a fresh certified solver, refereeing every answer;
    returns the results."""
    solver = certified_solver(num_vars)
    clauses = []
    results = []
    for op, payload in script:
        if op == "add":
            clauses.append(list(payload))
            solver.add_clause(list(payload))
        else:
            result = solver.solve(list(payload))
            referee(solver, result, clauses, payload, brute=brute)
            results.append(result)
    return results


class TestOneShotEquivalence:
    def test_random_3sat_agrees_with_referees(self):
        rng = random.Random(0xC0FFEE)
        results = []
        for trial in range(60):
            nv = rng.randint(3, 10)
            clauses = random_clauses(rng, nv, rng.randint(2, 4 * nv))
            script = [("add", c) for c in clauses] + [("solve", ())]
            results += run_refereed(nv, script)
        assert {SAT, UNSAT} <= set(results)

    def test_clause_database_evolution_matches(self):
        # The learnt-clause database must be exactly the proof log's
        # live lemmas (logged additions minus logged deletions): a
        # learnt clause the log does not know about would be an
        # uncertified inference.  Inprocessing is off so that every
        # ``a``/``d`` event belongs to a learnt clause.
        with use_simplify(False):
            solver = certified_solver(30)
        clauses = php_clauses(6, 5)
        for clause in clauses:
            solver.add_clause(clause)
        assert solver.solve() == UNSAT
        referee(solver, UNSAT, clauses, brute=False)
        live = Counter()
        for kind, lits in solver.proof.events:
            if kind == "a" and len(lits) > 1:
                live[clause_key(lits)] += 1
            elif kind == "d":
                live[clause_key(lits)] -= 1
        assert +live == Counter(clause_key(c)
                                for c in solver.learnt_lits())
        assert Counter(map(clause_key, solver.clause_lits())) == \
            Counter(map(clause_key, clauses))


class TestIncrementalEquivalence:
    def test_interleaved_adds_and_solves(self):
        # The SAT-sweeping shape: grow the formula between calls.
        rng = random.Random(17)
        for trial in range(25):
            nv = rng.randint(4, 9)
            script = []
            for _ in range(rng.randint(2, 4)):
                for c in random_clauses(rng, nv, rng.randint(1, nv)):
                    script.append(("add", c))
                script.append(("solve", ()))
            run_refereed(nv, script)

    def test_assumption_sequences(self):
        # The BMC/k-induction shape: fixed formula, per-call
        # assumption literals.
        rng = random.Random(23)
        for trial in range(25):
            nv = rng.randint(4, 9)
            script = [("add", c) for c in
                      random_clauses(rng, nv, rng.randint(3, 3 * nv))]
            for _ in range(rng.randint(2, 5)):
                vs = rng.sample(range(nv), rng.randint(0, 3))
                script.append(
                    ("solve",
                     [2 * v + (rng.random() < 0.5) for v in vs]))
            run_refereed(nv, script)

    def test_conflict_budget_exhaustion_matches_budget(self):
        # A starved call stops after exactly its budget of conflicts,
        # exposes no model, and leaves a solver that still finishes
        # the refutation soundly afterwards.
        clauses = php_clauses(6, 5)
        solver = certified_solver(30)
        for clause in clauses:
            solver.add_clause(clause)
        assert solver.solve(conflict_budget=20) == UNKNOWN
        assert solver.last_call_stats["conflicts"] == 20
        assert solver.last_exhaustion == EXHAUSTED_CONFLICTS
        assert solver.model == []
        assert solver.solve() == UNSAT
        referee(solver, UNSAT, clauses, brute=False)


class TestStatsInvariants:
    def test_lifetime_counters_are_monotone_and_sum_deltas(self):
        rng = random.Random(5)
        s = Solver()
        s.new_vars(8)
        for c in random_clauses(rng, 8, 20):
            s.add_clause(c)
        initial = s.stats()  # loading units already propagates
        previous = dict(initial)
        totals = dict.fromkeys(previous, 0)
        for _ in range(6):
            vs = rng.sample(range(8), 2)
            s.solve([2 * v + (rng.random() < 0.5) for v in vs])
            now = s.stats()
            for key in now:
                assert now[key] >= previous[key]
                assert s.last_call_stats[key] \
                    == now[key] - previous[key]
                totals[key] += s.last_call_stats[key]
            previous = now
        assert all(totals[k] == previous[k] - initial[k]
                   for k in totals)


def run_simplify_script(num_vars, script):
    """Like :func:`run_refereed` but with a ``("simp", ())`` op that
    fires an explicit inprocessing round.  A round can refute the
    formula outright; from then on the runner records the refutation
    instead of calling solve() on the dismantled state (exactly what
    ``_search`` does when a mid-search round returns False).  Returns
    the per-solve results (``"refuted"`` after a refutation) and
    whether a round refuted."""
    solver = certified_solver(num_vars)
    clauses = []
    results = []
    refuted = False
    for op, payload in script:
        if op == "add":
            clauses.append(list(payload))
            solver.add_clause(list(payload))
            refuted = refuted or not solver.ok
        elif op == "simp":
            if not refuted:
                refuted = not simplify_round(solver)
        elif refuted:
            results.append("refuted")
        else:
            result = solver.solve(list(payload))
            # Reconstructed models must satisfy the ORIGINAL clauses,
            # not just the simplified database.
            referee(solver, result, clauses, payload)
            results.append(result)
    if refuted:
        assert not brute_force_sat(num_vars, clauses)
    return results, refuted


class TestSimplifyEquivalence:
    """Inprocessing (subsumption, self-subsuming resolution, variable
    elimination) must never change a verdict, and models must still
    satisfy the original clauses after elimination."""

    def test_one_shot_with_round_matches_brute_force(self):
        rng = random.Random(0x51A1)
        for trial in range(40):
            nv = rng.randint(3, 9)
            clauses = random_clauses(rng, nv, rng.randint(2, 4 * nv))
            script = [("add", c) for c in clauses]
            script += [("simp", ()), ("solve", ())]
            run_simplify_script(nv, script)

    def test_incremental_reintroduction_of_eliminated_vars(self):
        # Clauses added after a round may mention eliminated
        # variables; restoration must keep the combined formula's
        # verdict intact.
        rng = random.Random(0x51A2)
        for trial in range(30):
            nv = rng.randint(4, 8)
            first = random_clauses(rng, nv, rng.randint(2, 2 * nv))
            second = random_clauses(rng, nv, rng.randint(1, nv))
            script = [("add", c) for c in first]
            script += [("simp", ()), ("solve", ())]
            script += [("add", c) for c in second]
            script += [("solve", ())]
            run_simplify_script(nv, script)

    def test_assumptions_over_potentially_eliminated_vars(self):
        # solve(assumptions) must freeze-and-restore: an assumption
        # over an eliminated variable is answered against the full
        # original formula.
        rng = random.Random(0x51A3)
        for trial in range(30):
            nv = rng.randint(4, 8)
            clauses = random_clauses(rng, nv, rng.randint(2, 3 * nv))
            script = [("add", c) for c in clauses] + [("simp", ())]
            for _ in range(3):
                vs = rng.sample(range(nv), rng.randint(1, 2))
                script.append(
                    ("solve",
                     [2 * v + (rng.random() < 0.5) for v in vs]))
            run_simplify_script(nv, script)

    def test_certified_php_with_inprocessing(self):
        solver = certified_solver(20)
        solver._use_simplify = True
        clauses = php_clauses(5, 4)
        for clause in clauses:
            solver.add_clause(clause)
        assert solver.solve() == UNSAT
        referee(solver, UNSAT, clauses, brute=False)
        assert solver.stats()["simplify_rounds"] >= 1


# ----------------------------------------------------------------------
# Pinned counter trajectories
# ----------------------------------------------------------------------
def script_3cnf():
    # Hard enough to restart and reduce the learnt database.
    rng = random.Random(3)
    return 140, [("add", random_3cnf(rng, 140, 600)), ("solve", ())]


def script_incremental():
    rng = random.Random(0x1AC)
    script = []
    for _ in range(5):
        script.append(("add", random_3cnf(rng, 50, 45)))
        script.append(("solve", ()))
    return 50, script


def script_assumptions():
    rng = random.Random(0xA55)
    script = [("add", random_3cnf(rng, 60, 220))]
    for _ in range(8):
        vs = rng.sample(range(60), rng.randint(2, 6))
        script.append(
            ("solve", [2 * v + (rng.random() < 0.5) for v in vs]))
    return 60, script


def script_php():
    return 20, [("add", php_clauses(5, 4)), ("solve", ())]


SCRIPTS = {"3cnf": script_3cnf, "incremental": script_incremental,
           "assumptions": script_assumptions, "php_5_4": script_php}


def trajectory(num_vars, script):
    """``(result, last_call_stats)`` per solve, then the final
    ``stats()``; inprocessing on, proofs and profiling off."""
    with use_simplify(True), use_proofs(False), use_sat_profile(False):
        solver = Solver()
    solver.new_vars(num_vars)
    steps = []
    for op, payload in script:
        if op == "add":
            for clause in payload:
                solver.add_clause(list(clause))
        else:
            result = solver.solve(list(payload))
            steps.append((result, dict(solver.last_call_stats)))
    return steps, solver.stats()


#: ``(steps, final stats())`` per script; the module docstring says
#: when to re-pin.
PINNED = {
    "3cnf": (
        [
            ("unsat",
             {"conflicts": 1932, "decisions": 2319, "propagations": 56903,
              "restarts": 9, "simplify_eliminated_vars": 4,
              "simplify_rounds": 1}),
        ],
        {"conflicts": 1932, "decisions": 2319, "propagations": 56903,
         "restarts": 9, "simplify_eliminated_vars": 4, "simplify_rounds": 1},
    ),
    "incremental": (
        [
            ("sat",
             {"conflicts": 0, "decisions": 50, "propagations": 50,
              "restarts": 0, "simplify_eliminated_vars": 36,
              "simplify_rounds": 1}),
            ("sat",
             {"conflicts": 0, "decisions": 24, "propagations": 50,
              "restarts": 0, "simplify_eliminated_vars": 0,
              "simplify_restored_vars": 0, "simplify_rounds": 0}),
            ("sat",
             {"conflicts": 2, "decisions": 19, "propagations": 67,
              "restarts": 0, "simplify_eliminated_vars": 0,
              "simplify_restored_vars": 0, "simplify_rounds": 0}),
            ("sat",
             {"conflicts": 47, "decisions": 57, "propagations": 690,
              "restarts": 0, "simplify_eliminated_vars": 0,
              "simplify_restored_vars": 0, "simplify_rounds": 0}),
            ("unsat",
             {"conflicts": 37, "decisions": 40, "propagations": 557,
              "restarts": 0, "simplify_eliminated_vars": 0,
              "simplify_restored_vars": 0, "simplify_rounds": 0}),
        ],
        {"conflicts": 86, "decisions": 190, "propagations": 1414,
         "restarts": 0, "simplify_eliminated_vars": 36,
         "simplify_restored_vars": 36, "simplify_rounds": 1},
    ),
    "assumptions": (
        [
            ("sat",
             {"conflicts": 1, "decisions": 15, "propagations": 68,
              "restarts": 0, "simplify_eliminated_vars": 3,
              "simplify_rounds": 1}),
            ("sat",
             {"conflicts": 2, "decisions": 15, "propagations": 83,
              "restarts": 0, "simplify_eliminated_vars": 0,
              "simplify_rounds": 0}),
            ("sat",
             {"conflicts": 2, "decisions": 13, "propagations": 88,
              "restarts": 0, "simplify_eliminated_vars": 0,
              "simplify_rounds": 0}),
            ("sat",
             {"conflicts": 0, "decisions": 17, "propagations": 60,
              "restarts": 0, "simplify_eliminated_vars": 0,
              "simplify_rounds": 0}),
            ("sat",
             {"conflicts": 10, "decisions": 34, "propagations": 234,
              "restarts": 0, "simplify_eliminated_vars": 0,
              "simplify_rounds": 0}),
            ("unsat",
             {"conflicts": 11, "decisions": 13, "propagations": 168,
              "restarts": 0, "simplify_eliminated_vars": 0,
              "simplify_rounds": 0}),
            ("unsat",
             {"conflicts": 5, "decisions": 6, "propagations": 80,
              "restarts": 0, "simplify_eliminated_vars": 0,
              "simplify_rounds": 0}),
            ("unsat",
             {"conflicts": 4, "decisions": 3, "propagations": 77,
              "restarts": 0, "simplify_eliminated_vars": 0,
              "simplify_restored_vars": 1, "simplify_rounds": 0}),
        ],
        {"conflicts": 35, "decisions": 116, "propagations": 858, "restarts": 0,
         "simplify_eliminated_vars": 3, "simplify_restored_vars": 1,
         "simplify_rounds": 1},
    ),
    "php_5_4": (
        [
            ("unsat",
             {"conflicts": 26, "decisions": 32, "propagations": 189,
              "restarts": 0, "simplify_eliminated_vars": 5,
              "simplify_rounds": 1}),
        ],
        {"conflicts": 26, "decisions": 32, "propagations": 189, "restarts": 0,
         "simplify_eliminated_vars": 5, "simplify_rounds": 1},
    ),
}


class TestPinnedTrajectories:
    @pytest.mark.parametrize("name", sorted(SCRIPTS))
    def test_counter_trajectory_is_pinned(self, name):
        steps, final = trajectory(*SCRIPTS[name]())
        pinned_steps, pinned_final = PINNED[name]
        assert steps == pinned_steps
        assert final == pinned_final


@pytest.mark.bench
class TestOracleStress:
    """Larger randomized sweeps; excluded from tier-1 (-m 'not bench').
    Too large for brute force: models are clause-checked and UNSAT
    proofs DRAT-checked."""

    def test_large_random_sweep(self):
        rng = random.Random(0xBEEF)
        for trial in range(150):
            nv = rng.randint(8, 20)
            clauses = random_clauses(rng, nv, rng.randint(nv, 6 * nv))
            script = [("add", c) for c in clauses]
            for _ in range(rng.randint(1, 4)):
                vs = rng.sample(range(nv), rng.randint(0, 4))
                script.append(
                    ("solve",
                     [2 * v + (rng.random() < 0.5) for v in vs]))
            run_refereed(nv, script, brute=False)

    def test_php_reduce_db_and_restarts_certify(self):
        # Big enough to trigger learnt-DB reduction and restarts.
        clauses = php_clauses(7, 6)
        solver = certified_solver(42)
        for clause in clauses:
            solver.add_clause(clause)
        assert solver.solve() == UNSAT
        assert solver.restarts > 0
        referee(solver, UNSAT, clauses, brute=False)
