"""Integration: cube-and-conquer determinism and the jobs=2 race.

The third PR 9 satellite: experiment tables must be byte-identical and
``prove`` verdicts/bounds identical at jobs ∈ {1, 2, 4} with cubes on
or off — the cube race changes wall clock, never answers.  The pooled
class is the tier-1 jobs=2 cube smoke (fifth satellite): a genuinely
multi-process cube race over a pigeonhole instance, both polarities.
"""

import pytest

from repro import obs
from repro.core.prove import prove
from repro.experiments.runner import format_table
from repro.experiments.table1 import run as run_table1
from repro.gen import iscas89
from repro.netlist import s27
from repro.options import use_options
from repro.sat import SAT, UNSAT
from repro.sat.cnf import neg, pos
from repro.sat.cube import solve_cubes
from repro.unroll import bmc

TITLE = "Table 1: ISCAS89 (profile-synthesized)"


def _php_clauses(holes):
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


@pytest.mark.parallel
class TestCubeDeterminism:
    def test_table1_byte_identical_across_jobs_and_cubes(self):
        baseline = format_table(
            run_table1(scale=0.1, designs=["S27"], jobs=1), TITLE)
        for jobs in (1, 2, 4):
            with use_options(cubes=True, cube_conflicts=8, cube_vars=2,
                             cube_jobs=jobs):
                rows = run_table1(scale=0.1, designs=["S27"],
                                  jobs=jobs)
            assert format_table(rows, TITLE) == baseline, \
                f"table diverged at jobs={jobs} with cubes on"

    def test_prove_verdict_and_bound_identical(self):
        net = s27()
        baseline = prove(net, jobs=1)
        for jobs in (1, 2):
            with use_options(cubes=True):
                raced = prove(net, jobs=jobs)
            assert raced.status == baseline.status
            assert raced.method == baseline.method
            assert raced.bound == baseline.bound

    def test_bmc_with_cubes_matches_plain(self):
        # S298 at this scale is falsifiable and its frame queries are
        # hard enough that a 1-conflict threshold reliably splits.
        net = iscas89.generate("S298", scale=0.15)
        plain = bmc(net, max_depth=5)
        with use_options(cubes=True, cube_conflicts=1, cube_vars=2,
                         cube_jobs=2):
            with obs.scoped(obs.Registry("t")) as reg:
                raced = bmc(net, max_depth=5)
                snap = reg.snapshot()
        assert raced.status == plain.status
        assert raced.depth_checked == plain.depth_checked
        if plain.counterexample is not None:
            assert raced.counterexample.depth == \
                plain.counterexample.depth
        assert snap["counters"].get("cube.engaged", 0) > 0, \
            "the cube path never engaged — the smoke is vacuous"


@pytest.mark.parallel
class TestPooledCubeRace:
    """Tier-1 jobs=2 smoke: real worker processes, both verdicts."""

    def test_unsat_requires_every_cube(self):
        clauses = _php_clauses(3)
        with obs.scoped(obs.Registry("t")) as reg:
            join = solve_cubes({"mode": "cnf", "clauses": clauses},
                               [(neg(0),), (pos(0),)], jobs=2)
            snap = reg.snapshot()
        assert join.result == UNSAT
        assert join.cubes == 2
        assert snap["counters"]["cube.unsat_joins"] == 1

    def test_sat_cube_wins_the_race(self):
        # Cube 0 is an UNSAT pigeonhole grind, cube 1 flips the
        # backdoor on and is trivially SAT: whichever worker finishes
        # first, the reported winner is the SAT cube's index.
        clauses = _php_clauses(3)
        backdoor = 4 * 3
        sat_clauses = [clause + [pos(backdoor)] for clause in clauses]
        sat_clauses.append([neg(backdoor), pos(backdoor + 1)])
        with obs.scoped(obs.Registry("t")) as reg:
            join = solve_cubes({"mode": "cnf", "clauses": sat_clauses},
                               [(neg(backdoor),), (pos(backdoor),)],
                               jobs=2)
            snap = reg.snapshot()
        assert join.result == SAT
        assert join.winner == 1
        assert snap["counters"]["cube.sat_wins"] == 1

    def test_certified_unsat_race_checks_every_proof(self):
        # Per-cube DRAT proofs are checked inside the workers; the
        # cert counters fold back un-prefixed, so a certified join
        # shows one check per cube.
        clauses = _php_clauses(3)
        with use_options(certification=True), \
                obs.scoped(obs.Registry("t")) as reg:
            join = solve_cubes({"mode": "cnf", "clauses": clauses},
                               [(neg(0),), (pos(0),)], jobs=2)
            snap = reg.snapshot()
        assert join.result == UNSAT
        assert snap["counters"]["cert.checked"] >= 2
