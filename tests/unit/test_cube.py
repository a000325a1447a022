"""Unit tests for the cube-and-conquer layer (repro.sat.cube).

The join-precedence class pins the rule the first PR 9 satellite
demands: a losing cube's ``Cancelled`` / ``ResourceExhausted`` —
bookkeeping of the first-win cancellation — must never mask the
winning verdict.  The gating class pins the opt-in contract: easy
queries (and queries bounded by the *caller's* own limits) never pay
the fan-out tax and behave byte-identically to the sequential path.
"""

import random

import pytest

from repro import obs
from repro.options import Options, current, use_options
from repro.parallel import WorkerOutcome
from repro.resilience import (
    Budget,
    Cancelled,
    CertificationFailure,
    EngineFailure,
    ResourceExhausted,
)
from repro.resilience.errors import EXHAUSTED_CONFLICTS
from repro.sat import SAT, UNKNOWN, UNSAT, Solver
from repro.sat.cnf import neg, pos
from repro.sat import cube as cube_mod
from repro.sat.cube import (
    cube_solve,
    cubes_enabled,
    generate_cubes,
    join_cubes,
    score_variables,
    solve_cubes,
)


def php_clauses(holes):
    """Pigeonhole PHP(holes+1, holes): small, UNSAT, and — unlike most
    tiny formulas — guaranteed to burn conflicts (resolution-hard), so
    a 1-conflict threshold reliably classifies it as *hard*."""
    pigeons = holes + 1

    def var(i, j):
        return i * holes + j

    clauses = [[pos(var(i, j)) for j in range(holes)]
               for i in range(pigeons)]
    for j in range(holes):
        for i1 in range(pigeons):
            for i2 in range(i1 + 1, pigeons):
                clauses.append([neg(var(i1, j)), neg(var(i2, j))])
    return clauses


def hard_sat_clauses(seed=2, num_vars=25, num_clauses=105):
    """A random 3-SAT instance pinned to a seed chosen so the formula
    is SAT but exhausts a 1-conflict cap (propagation alone does not
    reach the model)."""
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        vs = rng.sample(range(num_vars), 3)
        clauses.append([pos(v) if rng.random() < 0.5 else neg(v)
                        for v in vs])
    return clauses


def _solver_for(clauses):
    solver = Solver()
    for clause in clauses:
        solver.add_clause(list(clause))
    return solver


def _value(result, cex=None, learned=(), num_vars=4, exhaustion=None):
    """A worker result dict shaped like run_cube_task's return."""
    return {"result": result, "cex": cex, "learned": list(learned),
            "num_vars": num_vars, "exhaustion": exhaustion}


def _ok(index, value):
    return WorkerOutcome(index=index, label=f"c{index}", value=value)


def _err(index, error):
    return WorkerOutcome(index=index, label=f"c{index}", error=error)


class TestToggles:
    def test_disabled_by_default(self):
        assert not cubes_enabled()

    def test_set_returns_previous(self):
        # The scope yields the options it installed; leaving it
        # restores the previous ones.
        previous = current()
        with use_options(cubes=True) as options:
            assert options.cubes and cubes_enabled()
        assert current() is previous

    def test_use_cubes_scoped(self):
        with use_options(cubes=True):
            assert cubes_enabled()
        assert not cubes_enabled()

    def test_use_cube_config_scoped(self):
        baseline = current()
        with use_options(cube_vars=7, cube_jobs=3):
            assert current().cube_vars == 7
            assert current().cube_jobs == 3
        assert current() == baseline

    def test_config_is_frozen(self):
        with pytest.raises(Exception):
            current().cube_vars = 9

    def test_defaults(self):
        cfg = Options()
        assert cfg.cube_vars == 3
        assert cfg.cube_conflicts == 1500
        assert cfg.cube_jobs == 1


class TestScoring:
    def _solver(self):
        return _solver_for([[pos(0), pos(1)],
                            [neg(0), pos(2)],
                            [pos(0), neg(2)]])

    def test_cold_start_ranks_by_occurrence_then_index(self):
        # occs: v0=3, v1=1, v2=2; all-zero activity on a fresh solver.
        assert score_variables(self._solver()) == [0, 2, 1]

    def test_exclude_removes_assumed_variables(self):
        assert score_variables(self._solver(), exclude=[0]) == [2, 1]

    def test_deterministic_across_rebuilds(self):
        a = score_variables(self._solver())
        b = score_variables(self._solver())
        assert a == b


class TestGenerateCubes:
    def test_two_vars_give_four_distinct_cubes(self):
        cubes = generate_cubes(_solver_for([[pos(0), pos(1)],
                                            [neg(0), pos(2)],
                                            [pos(0), neg(2)]]),
                               count_vars=2)
        assert len(cubes) == 4
        assert len(set(cubes)) == 4
        # Every cube assumes the same variables, rank order.
        for cube in cubes:
            assert [lit >> 1 for lit in cube] == [0, 2]

    def test_cube_zero_is_all_negative(self):
        # The default decision phase is negative: cube 0 is the
        # subspace the plain sequential search enters first.
        cubes = generate_cubes(_solver_for([[pos(0), pos(1)]]),
                               count_vars=2)
        assert cubes[0] == (neg(0), neg(1))

    def test_union_covers_all_sign_combinations(self):
        cubes = generate_cubes(_solver_for([[pos(0), pos(1)]]),
                               count_vars=2)
        signs = {tuple(lit & 1 for lit in cube) for cube in cubes}
        assert signs == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_no_candidates_means_no_cubes(self):
        assert generate_cubes(Solver(), count_vars=3) == []

    def test_exclude_shrinks_the_split(self):
        solver = _solver_for([[pos(0), pos(1)]])
        cubes = generate_cubes(solver, count_vars=2, exclude=[0, 1])
        assert cubes == []


class TestJoinPrecedence:
    """The satellite-pinned rule: a verdict beats bookkeeping."""

    def test_sat_beats_losers_cancelled_and_exhausted(self):
        outcomes = [
            _err(0, Cancelled(budget_name="cube[c0]")),
            _ok(1, _value(SAT, cex="witness")),
            _err(2, ResourceExhausted("conflicts",
                                      budget_name="cube[c2]")),
        ]
        join = join_cubes(outcomes)
        assert join.result == SAT
        assert join.winner == 1
        assert join.cex == "witness"
        assert join.cubes == 3

    def test_lowest_index_sat_cube_wins(self):
        outcomes = [_ok(0, _value(UNSAT)),
                    _ok(1, _value(SAT, cex="first")),
                    _ok(2, _value(SAT, cex="second"))]
        join = join_cubes(outcomes)
        assert join.winner == 1
        assert join.cex == "first"

    def test_sat_winner_beats_unrelated_certification_failure(self):
        # The winner certified its own witness in-worker; a failed
        # check on a cube the verdict does not depend on is moot.
        outcomes = [_err(0, CertificationFailure("cube[0]", "proof")),
                    _ok(1, _value(SAT))]
        assert join_cubes(outcomes).result == SAT

    def test_certification_failure_reraises_over_unsat(self):
        outcomes = [_ok(0, _value(UNSAT)),
                    _err(1, CertificationFailure("cube[1]", "proof"))]
        with pytest.raises(CertificationFailure):
            join_cubes(outcomes)

    def test_all_unsat_joins_to_unsat(self):
        outcomes = [_ok(0, _value(UNSAT)), _ok(1, _value(UNSAT))]
        join = join_cubes(outcomes)
        assert join.result == UNSAT
        assert join.winner is None

    def test_unsat_join_dedups_learned_in_cube_order(self):
        outcomes = [
            _ok(0, _value(UNSAT, learned=[(2, 5), (7,)], num_vars=6)),
            _ok(1, _value(UNSAT, learned=[(7,), (9, 4)], num_vars=6)),
        ]
        join = join_cubes(outcomes)
        assert join.learned == [(2, 5), (7,), (9, 4)]
        assert join.num_vars == 6

    def test_cancelled_parent_budget_reraises(self):
        budget = Budget(name="parent")
        budget.cancel()
        outcomes = [_ok(0, _value(UNSAT)),
                    _err(1, Cancelled(budget_name="cube[c1]"))]
        with pytest.raises(Cancelled):
            join_cubes(outcomes, budget=budget)

    def test_worker_crash_reraises_engine_failure(self):
        # A missing cube is a hole in an UNSAT argument, not a
        # weaker answer.
        outcomes = [_ok(0, _value(UNSAT)),
                    _err(1, EngineFailure("parallel.worker",
                                          "worker crashed"))]
        with pytest.raises(EngineFailure):
            join_cubes(outcomes)

    def test_unknown_carries_first_structured_reason(self):
        outcomes = [_ok(0, _value(UNKNOWN, exhaustion="conflicts")),
                    _ok(1, _value(UNSAT))]
        join = join_cubes(outcomes)
        assert join.result == UNKNOWN
        assert join.exhaustion == "conflicts"

    def test_unknown_reason_from_typed_error(self):
        outcomes = [_err(0, ResourceExhausted("deadline")),
                    _ok(1, _value(UNSAT))]
        join = join_cubes(outcomes)
        assert join.result == UNKNOWN
        assert join.exhaustion == "deadline"


class TestCubeSolveGating:
    def test_easy_query_never_splits(self):
        clauses = [[pos(0)], [pos(0), pos(1)]]
        with use_options(cube_conflicts=1000, cube_jobs=1):
            attempt = cube_solve(_solver_for(clauses), [],
                                 {"mode": "cnf", "clauses": clauses})
        assert not attempt.used_cubes
        assert attempt.result == SAT

    def test_hard_unsat_query_engages_and_matches_plain(self):
        clauses = php_clauses(3)
        assert _solver_for(clauses).solve([]) == UNSAT
        with use_options(cube_conflicts=1, cube_vars=2,
                         cube_jobs=1):
            with obs.scoped(obs.Registry("t")) as reg:
                attempt = cube_solve(_solver_for(clauses), [],
                                     {"mode": "cnf",
                                      "clauses": clauses})
                snap = reg.snapshot()
        assert attempt.used_cubes
        assert attempt.result == UNSAT
        assert snap["counters"]["cube.engaged"] == 1
        assert snap["counters"]["cube.splits"] == 1
        assert snap["counters"]["cube.cubes"] == 4

    def test_hard_sat_query_engages_and_matches_plain(self):
        clauses = hard_sat_clauses()
        assert _solver_for(clauses).solve([]) == SAT
        with use_options(cube_conflicts=1, cube_vars=2,
                         cube_jobs=1):
            attempt = cube_solve(_solver_for(clauses), [],
                                 {"mode": "cnf", "clauses": clauses})
        assert attempt.used_cubes
        assert attempt.result == SAT
        assert attempt.join.winner is not None

    def test_callers_tighter_conflict_cap_suppresses_the_split(self):
        # The caller's own cap was the binding limit: report exactly
        # what the plain path would have, no fan-out.
        clauses = php_clauses(3)
        with use_options(cube_conflicts=1000, cube_jobs=1):
            attempt = cube_solve(_solver_for(clauses), [],
                                 {"mode": "cnf", "clauses": clauses},
                                 conflict_budget=1)
        assert not attempt.used_cubes
        assert attempt.result == UNKNOWN
        assert attempt.exhaustion == EXHAUSTED_CONFLICTS

    def test_exhausted_parent_budget_suppresses_the_split(self):
        clauses = php_clauses(3)
        budget = Budget(wall_seconds=0.0, name="spent")
        with use_options(cube_conflicts=1, cube_jobs=1):
            attempt = cube_solve(_solver_for(clauses), [],
                                 {"mode": "cnf", "clauses": clauses},
                                 budget=budget)
        assert not attempt.used_cubes

    def test_assumed_query_still_matches_plain(self):
        # Assumed variables are excluded from the split (see the
        # generate_cubes exclusion test); end to end, the verdict
        # under an assumption must match the plain assumed solve.
        clauses = php_clauses(3)
        with use_options(cube_conflicts=1, cube_vars=2,
                         cube_jobs=1):
            attempt = cube_solve(_solver_for(clauses), [neg(0)],
                                 {"mode": "cnf", "clauses": clauses,
                                  "assumptions": [neg(0)]})
        assert attempt.result == _solver_for(clauses).solve([neg(0)])


class TestLearnedSharing:
    def test_unsat_join_feeds_lemmas_back_when_enabled(self,
                                                        monkeypatch):
        clauses = php_clauses(3)
        monkeypatch.setattr(cube_mod, "SHARE_MAX_LEN", 12)
        with use_options(cube_conflicts=1, cube_vars=2, cube_jobs=1,
                         cube_share=True):
            with obs.scoped(obs.Registry("t")) as reg:
                solver = _solver_for(clauses)
                attempt = cube_solve(solver, [],
                                     {"mode": "cnf",
                                      "clauses": clauses})
                snap = reg.snapshot()
        assert attempt.result == UNSAT
        shared = snap["counters"].get("cube.shared_clauses", 0)
        assert shared == len(attempt.join.learned)
        # Soundness: the parent solver still refutes the query after
        # the feedback (shared lemmas are consequences, not axioms).
        assert solver.solve([]) == UNSAT

    def test_sharing_disabled_while_certifying(self, monkeypatch):
        # Injected lemmas are not axioms of the DRAT log, so the
        # certified path must never request clause collection.
        clauses = php_clauses(3)
        monkeypatch.setattr(cube_mod, "SHARE_MAX_LEN", 12)
        with use_options(cube_conflicts=1, cube_vars=2, cube_jobs=1,
                         cube_share=True, certification=True):
            solver = _solver_for(clauses)
            attempt = cube_solve(solver, [],
                                 {"mode": "cnf", "clauses": clauses})
        assert attempt.used_cubes
        assert attempt.result == UNSAT
        assert attempt.join.learned == []


class TestSolveCubesDriver:
    def test_cnf_race_matches_plain_solve(self):
        clauses = php_clauses(3)
        cubes = [(neg(0),), (pos(0),)]
        join = solve_cubes({"mode": "cnf", "clauses": clauses}, cubes,
                           jobs=1)
        assert join.result == UNSAT
        assert join.cubes == 2

    def test_sat_winner_is_reported_by_cube_index(self):
        # Cube 0 forces the backdoor off (an UNSAT pigeonhole grind);
        # cube 1 switches it on and is trivially SAT — the winner index
        # is deterministic even though the race is not.
        clauses = php_clauses(3)
        backdoor = 4 * 3
        sat_clauses = [clause + [pos(backdoor)] for clause in clauses]
        sat_clauses.append([neg(backdoor), pos(backdoor + 1)])
        join = solve_cubes({"mode": "cnf", "clauses": sat_clauses},
                           [(neg(backdoor),), (pos(backdoor),)],
                           jobs=1)
        assert join.result == SAT
        assert join.winner == 1
