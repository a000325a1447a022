"""Unit tests for the inprocessing pass (:mod:`repro.sat.simplify`)."""

import pytest

from repro.cert.drat import check_proof
from repro.sat import (
    SAT,
    UNSAT,
    Solver,
    set_debug_checks,
    set_simplify_enabled,
    simplify_enabled,
    use_proofs,
    use_simplify,
)
from repro.sat.simplify import (
    BVE_MAX_OCC,
    _match,
    _normalize,
    _resolve,
    _signature,
    simplify_round,
)


def P(var):
    return var << 1


def N(var):
    return (var << 1) | 1


def check_model(model, clauses):
    for clause in clauses:
        assert any(model[l >> 1] != (l & 1 == 1) for l in clause), \
            (clause, model)


def php_clauses(solver, pigeons, holes):
    """Load an UNSAT pigeonhole instance; returns its clauses."""
    var = {(p, h): solver.new_var() for p in range(pigeons)
           for h in range(holes)}
    clauses = []
    for p in range(pigeons):
        clauses.append([P(var[p, h]) for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([N(var[p1, h]), N(var[p2, h])])
    for clause in clauses:
        solver.add_clause(list(clause))
    return clauses


class TestHelpers:
    def test_signature_is_subset_necessary_condition(self):
        small = [P(0), N(3)]
        big = [P(0), N(3), P(7)]
        assert _signature(small) & ~_signature(big) == 0
        other = [P(1), P(2)]
        assert _signature(small) & ~_signature(other) != 0

    def test_match_subsumption_and_ssr(self):
        assert _match([P(0), P(1)], {P(0), P(1), P(2)}) == -1
        # P(1) appears flipped: self-subsuming resolution on var 1.
        assert _match([P(0), P(1)], {P(0), N(1), P(2)}) == P(1)
        # Two flips is not SSR.
        assert _match([P(0), P(1)], {N(0), N(1)}) == -2
        assert _match([P(0), P(3)], {P(0), P(1)}) == -2

    def test_resolve_dedupes_and_detects_tautology(self):
        res = _resolve([P(0), P(1)], [N(0), P(1), P(2)], 0)
        assert res == [P(1), P(2)]
        assert _resolve([P(0), P(1)], [N(0), N(1)], 0) is None

    def test_normalize_strips_false_and_detects_satisfied(self):
        values = {P(0): False, N(0): True, P(1): None, N(1): None,
                  P(2): True, N(2): False}
        status, kept = _normalize(values.get, [P(0), P(1)])
        assert (status, kept) == ("ok", [P(1)])
        status, kept = _normalize(values.get, [P(0), P(2), P(1)])
        assert status == "sat" and kept is None


class TestSubsumptionAndStrengthening:
    def test_subsumed_clause_is_deleted(self):
        s = Solver()
        s.new_vars(3)
        for v in range(3):  # isolate subsumption from elimination
            s.freeze(v)
        s.add_clause([P(0), P(1)])
        s.add_clause([P(0), P(1), P(2)])
        assert simplify_round(s)
        assert (P(0), P(1)) in s.clause_lits()
        assert all(set(c) != {P(0), P(1), P(2)}
                   for c in s.clause_lits())
        assert s.stats()["simplify_subsumed"] == 1

    def test_self_subsuming_resolution_strengthens(self):
        s = Solver()
        s.new_vars(3)
        for v in range(3):
            s.freeze(v)
        s.add_clause([P(0), P(1)])
        s.add_clause([N(0), P(1), P(2)])
        assert simplify_round(s)
        # {~a, b, c} resolves with {a, b} into {b, c}, which subsumes
        # it; the stored clause lost ~a.
        assert any(set(c) == {P(1), P(2)} for c in s.clause_lits())
        assert all(N(0) not in c for c in s.clause_lits())
        assert s.stats()["simplify_strengthened"] >= 1

    def test_level0_satisfied_clause_removed(self):
        s = Solver()
        s.new_vars(3)
        s.add_clause([P(0)])
        s.add_clause([P(0), P(1), P(2)])
        s.add_clause([N(1), P(2)])
        assert simplify_round(s)
        assert all(P(0) not in c for c in s.clause_lits())

    def test_strengthening_to_unit_propagates(self):
        # {a} + {~a, b} strengthens the binary to the unit {b}, which
        # must be asserted, not stored.
        s = Solver()
        s.new_vars(2)
        s.add_clause([P(0)])
        s.add_clause([N(0), P(1)])
        assert simplify_round(s)
        assert s.clause_lits() == []
        assert s.solve() == SAT
        assert s.model == [True, True]


class TestVariableElimination:
    def test_eliminated_variable_reconstructed_in_model(self):
        s = Solver()
        s.new_vars(3)
        clauses = [[P(0), P(1)], [N(0), P(2)]]
        for c in clauses:
            s.add_clause(list(c))
        assert simplify_round(s)
        assert s.stats()["simplify_eliminated_vars"] >= 1
        assert s.solve() == SAT
        # The model covers eliminated variables and satisfies the
        # *original* clauses, not just the resolvents.
        assert len(s.model) == 3
        check_model(s.model, clauses)

    def test_frozen_variable_is_never_eliminated(self):
        s = Solver()
        s.new_vars(3)
        for v in range(3):
            s.freeze(v)
        s.add_clause([P(0), P(1)])
        s.add_clause([N(0), P(2)])
        assert simplify_round(s)
        assert s.stats().get("simplify_eliminated_vars", 0) == 0
        assert sorted(s.clause_lits()) == [(P(0), P(1)), (N(0), P(2))]

    def test_assumptions_freeze_their_variables(self):
        # Variable 0 would be eliminated by a round fired inside
        # solve(); assuming ~a must still work on later calls because
        # _search freezes (and restores) assumption variables.
        s = Solver()
        s.new_vars(3)
        clauses = [[P(0), P(1)], [N(0), P(2)], [P(1), P(2)]]
        for c in clauses:
            s.add_clause(list(c))
        assert simplify_round(s)
        assert s.solve([N(0), N(2)]) == SAT
        model = list(s.model)
        assert model[0] is False and model[2] is False
        check_model(model, clauses)

    def test_reintroducing_eliminated_variable_restores(self):
        s = Solver()
        s.new_vars(3)
        clauses = [[P(0), P(1)], [N(0), P(2)]]
        for c in clauses:
            s.add_clause(list(c))
        assert simplify_round(s)
        assert s.stats()["simplify_eliminated_vars"] >= 1
        # A new clause over the eliminated variable forces restoration
        # of its original clauses (and drops its reconstruction
        # records).
        s.add_clause([N(1)])
        s.add_clause([N(2)])
        assert s.solve() == UNSAT or s.solve() == SAT
        result = s.solve()
        # {a|b, ~a|c, ~b, ~c}: b false forces a, a forces c, c false.
        assert result == UNSAT
        assert s.stats()["simplify_restored_vars"] >= 1

    def test_high_occurrence_variable_skipped(self):
        s = Solver()
        n = BVE_MAX_OCC + 2
        s.new_vars(n + 1)
        for v in range(1, n + 1):  # only variable 0 is a candidate
            s.freeze(v)
        # Variable 0 occurs in BVE_MAX_OCC + 2 clauses: never
        # eliminated.
        for i in range(1, n + 1):
            s.add_clause([P(0), P(i)] if i % 2 else [N(0), P(i)])
        assert simplify_round(s)
        assert s.stats().get("simplify_eliminated_vars", 0) == 0
        assert any(l >> 1 == 0 for c in s.clause_lits() for l in c)


class TestCertifiedSimplification:
    def test_unsat_after_explicit_round_proof_checks(self):
        with use_proofs(True):
            s = Solver()
        php_clauses(s, 3, 2)
        # Fodder over fresh variables so the round exercises
        # subsumption, strengthening, and elimination before search.
        a, b, c = s.new_var(), s.new_var(), s.new_var()
        s.add_clause([P(a), P(b)])
        s.add_clause([P(a), P(b), P(c)])   # subsumed
        s.add_clause([N(a), P(b), P(c)])   # strengthened to {b, c}
        if simplify_round(s):
            assert s.solve() == UNSAT
        else:  # the round itself refuted the formula
            s._ok = False
            s._conclude_unsat(())
        result = check_proof(s.proof)
        assert result.ok, result.errors[:3]

    def test_php_with_inprocessing_restarts_proof_checks(self):
        # Large enough to restart and fire rounds naturally inside
        # solve(); the checker must accept the interleaved
        # subsumption/strengthening/elimination proof lines.
        with use_proofs(True):
            s = Solver()
        s._use_simplify = True
        php_clauses(s, 6, 5)
        assert s.solve() == UNSAT
        assert s.stats().get("simplify_rounds", 0) >= 1
        result = check_proof(s.proof)
        assert result.ok, result.errors[:3]
        assert result.deletions > 0


class TestStatsMidLifetime:
    def test_counters_appearing_mid_lifetime_delta_correctly(self):
        # Regression: simplify_* keys first appear in stats() when a
        # round fires *inside* a solve() call; the per-call delta must
        # treat the missing before-value as zero instead of raising or
        # reporting garbage.  The first call runs with the simplifier
        # off so the keys genuinely do not exist yet.
        s = Solver()
        s._use_simplify = False
        s.new_vars(2)
        s.add_clause([P(0), P(1)])
        assert s.solve() == SAT
        s._use_simplify = True
        before = s.stats()
        assert "simplify_rounds" not in before
        assert "simplify_rounds" not in s.last_call_stats
        php_clauses(s, 6, 5)
        assert s.solve() == UNSAT
        now = s.stats()
        assert now["simplify_rounds"] >= 1
        for key, total in now.items():
            assert s.last_call_stats[key] == total - before.get(key, 0)

    def test_direct_round_counters_survive_a_noop_solve(self):
        s = Solver()
        s.new_vars(3)
        s.add_clause([P(0), P(1)])
        s.add_clause([P(0), P(1), P(2)])
        assert simplify_round(s)
        lifetime = s.stats()["simplify_subsumed"]
        assert s.solve() == SAT
        assert s.stats()["simplify_subsumed"] == lifetime
        assert s.last_call_stats.get("simplify_subsumed", 0) == 0


class TestDebugWatchInvariant:
    def test_watches_hold_after_strengthening_rounds(self):
        previous = set_debug_checks(True)
        try:
            s = Solver()
            s._use_simplify = True
            s.new_vars(4)
            s.add_clause([P(0), P(1), P(2)])
            s.add_clause([N(0), P(1), P(3)])
            s.add_clause([P(0), P(1)])
            assert simplify_round(s)
            s._debug_check_watches()
            php_clauses(s, 6, 5)
            assert s.solve() == UNSAT  # rounds + reduce_db sweeps run
            s._debug_check_watches()
        finally:
            set_debug_checks(previous)

    def test_corrupted_watcher_is_detected(self):
        s = Solver()
        s.new_vars(3)
        s.add_clause([P(0), P(1), P(2)])
        s._debug_check_watches()
        cref = s._clauses[0]
        arena = s._arena
        base = cref + 2
        arena[base], arena[base + 2] = arena[base + 2], arena[base]
        with pytest.raises(RuntimeError):
            s._debug_check_watches()


class TestToggleAndFacade:
    def test_toggle_roundtrip(self):
        original = simplify_enabled()
        try:
            set_simplify_enabled(False)
            assert not simplify_enabled()
            with use_simplify(True):
                assert simplify_enabled()
                s = Solver()
                assert s._use_simplify
            assert not simplify_enabled()
            s = Solver()
            assert not s._use_simplify
        finally:
            set_simplify_enabled(original)

    def test_verdicts_identical_with_and_without_simplify(self):
        def run(simp):
            with use_simplify(simp):
                s = Solver()
            php_clauses(s, 6, 5)
            return s.solve()

        results = {run(simp) for simp in (False, True)}
        assert results == {UNSAT}
