"""Unit tests for the process-pool fan-out layer (repro.parallel)."""

import pickle
import time

import pytest

from repro import obs
from repro.core import TBVEngine
from repro.core.portfolio import StrategyOutcome
from repro.netlist import NetlistError, s27
from repro.parallel import BudgetSpec, ParallelExecutor, WorkerOutcome
from repro.resilience import (
    FAULT_CRASH,
    Budget,
    Cancelled,
    EngineFailure,
    FaultPlan,
    ResourceExhausted,
    inject,
)
from repro.unroll import bmc


# ----------------------------------------------------------------------
# Module-level worker functions (the pool pickles them by reference).
# ----------------------------------------------------------------------
def _double(payload, budget):
    return payload * 2


def _record_budget(payload, budget):
    if budget is None:
        return None
    return {
        "name": budget.name,
        "conflicts": budget.remaining_conflicts(),
        "queries": budget.remaining_queries(),
    }


def _typed_error(payload, budget):
    raise ResourceExhausted("conflicts", budget_name="inner")


def _crash(payload, budget):
    raise RuntimeError("unexpected failure in worker")


def _never_wins(value):
    return False


def _cancelled(payload, budget):
    raise Cancelled(budget_name="pool")


def _instrumented(payload, budget):
    reg = obs.get_registry()
    reg.counter("sat.conflicts", 7)
    reg.counter("sat.solve_calls", 3)
    with reg.span("work"):
        pass
    return payload


def _stall(payload, budget):
    # A worker that ignores its budget entirely: the scripted stall
    # the parent-side watchdog exists to catch.
    time.sleep(payload)
    return "done"


def _seconds_left_at_start(payload, budget):
    # Reports the wall budget a task finds when it starts, then works.
    left = budget.remaining_seconds()
    time.sleep(payload)
    return left


def _cert_instrumented(payload, budget):
    reg = obs.get_registry()
    reg.counter("cert.checked", 2)
    reg.counter("cert.lemmas_checked", 5)
    return payload


def _quick_win(payload, budget):
    return "win"


def _poll_until_cancelled(payload, budget):
    # A cooperative loser: spins until the pool-wide first-win cancel
    # event (threaded through the shared budget) tells it to stop —
    # the same per-conflict check the solver performs.
    deadline = time.monotonic() + payload
    while time.monotonic() < deadline:
        if budget is not None and budget.cancelled:
            raise Cancelled(budget_name=budget.name)
        time.sleep(0.01)
    return "survived"


def _solver_probe(payload, budget):
    from repro.sat import Solver
    from repro.sat.cnf import pos

    solver = Solver()
    solver.add_clause([pos(0)])
    return solver.solve([])


class TestBudgetSpec:
    def test_none_budget_passes_through(self):
        assert BudgetSpec.capture(None) is None

    def test_capture_and_restore_pools(self):
        spec = BudgetSpec.capture(Budget(conflicts=100, queries=10,
                                         name="b"))
        restored = spec.restore()
        assert restored.remaining_conflicts() == 100
        assert restored.remaining_queries() == 10
        assert restored.name == "b"
        assert restored.remaining_seconds() is None

    def test_deadline_travels_as_epoch(self):
        spec = BudgetSpec.capture(Budget(wall_seconds=60.0))
        assert spec.deadline_epoch == pytest.approx(time.time() + 60.0,
                                                    abs=5.0)
        restored = spec.restore()
        assert 0.0 < restored.remaining_seconds() <= 60.0

    def test_expired_deadline_restores_exhausted(self):
        spec = BudgetSpec(deadline_epoch=time.time() - 10.0)
        assert spec.restore().exhausted() == "deadline"

    def test_spec_is_picklable(self):
        spec = BudgetSpec.capture(Budget(conflicts=5, name="x"))
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec


class TestExecutorInProcess:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            ParallelExecutor(jobs=0)

    def test_empty_payloads(self):
        assert ParallelExecutor(jobs=1).map(_double, []) == []

    def test_results_in_input_order(self):
        outcomes = ParallelExecutor(jobs=1).map(_double, [1, 2, 3])
        assert [o.value for o in outcomes] == [2, 4, 6]
        assert [o.index for o in outcomes] == [0, 1, 2]
        assert all(o.ok for o in outcomes)

    def test_cancelled_budget_raises_at_submit(self):
        budget = Budget(name="parent")
        budget.cancel()
        with pytest.raises(Cancelled):
            ParallelExecutor(jobs=1).map(_double, [1], budget=budget)

    def test_typed_error_becomes_outcome(self):
        outcomes = ParallelExecutor(jobs=1).map(_typed_error, [None])
        assert not outcomes[0].ok
        assert isinstance(outcomes[0].error, ResourceExhausted)
        assert outcomes[0].error.reason == "conflicts"

    def test_worker_cancelled_reraises_at_join(self):
        with pytest.raises(Cancelled):
            ParallelExecutor(jobs=1).map(_cancelled, [None])

    def test_labels_length_mismatch(self):
        with pytest.raises(ValueError):
            ParallelExecutor(jobs=1).map(_double, [1, 2], labels=["a"])

    def test_telemetry_merged_under_prefix(self):
        with obs.scoped(obs.Registry("parent")) as reg:
            ParallelExecutor(jobs=1, name="pool").map(
                _instrumented, ["x"], labels=["t"])
            snap = reg.snapshot()
        assert snap["counters"]["parallel/pool/t/sat.conflicts"] == 7
        assert "parallel/pool/t/work" in snap["timers"]
        assert snap["counters"]["parallel.tasks"] == 1

    def test_parent_budget_charged_with_worker_effort(self):
        budget = Budget(conflicts=100, queries=10, name="parent")
        ParallelExecutor(jobs=1).map(_instrumented, ["x"],
                                     budget=budget)
        assert budget.remaining_conflicts() == 100 - 7
        assert budget.remaining_queries() == 10 - 3

    def test_map_tasks_heterogeneous(self):
        outcomes = ParallelExecutor(jobs=1).map_tasks(
            [(_double, 5), (_instrumented, "ok")])
        assert outcomes[0].value == 10
        assert outcomes[1].value == "ok"


@pytest.mark.parallel
class TestExecutorPooled:
    def test_pooled_results_in_input_order(self):
        outcomes = ParallelExecutor(jobs=2).map(_double, [1, 2, 3, 4])
        assert [o.value for o in outcomes] == [2, 4, 6, 8]
        assert [o.index for o in outcomes] == [0, 1, 2, 3]
        assert [o.label for o in outcomes] == ["0", "1", "2", "3"]

    def test_pooled_matches_in_process(self):
        seq = ParallelExecutor(jobs=1).map(_double, [3, 4])
        par = ParallelExecutor(jobs=2).map(_double, [3, 4])
        assert [o.value for o in seq] == [o.value for o in par]

    def test_pooled_typed_error_round_trips(self):
        outcomes = ParallelExecutor(jobs=2).map(_typed_error,
                                                [None, None])
        for outcome in outcomes:
            assert isinstance(outcome.error, ResourceExhausted)
            assert outcome.error.reason == "conflicts"
            assert outcome.error.budget_name == "inner"

    def test_pooled_crash_maps_to_engine_failure(self):
        with obs.scoped(obs.Registry("parent")) as reg:
            outcomes = ParallelExecutor(jobs=2).map(_crash,
                                                    [None, None])
            snap = reg.snapshot()
        for outcome in outcomes:
            assert not outcome.ok
            assert isinstance(outcome.error, EngineFailure)
            assert outcome.error.engine == "parallel.worker"
        assert snap["counters"]["parallel.worker_crashes"] == 2

    @pytest.mark.parametrize("first_win", [None, _never_wins],
                             ids=["map", "race"])
    def test_crash_is_contained_to_its_task(self, first_win):
        # An untyped exception fails its own task only: the worker
        # keeps draining, so the healthy queued tasks still run even
        # after every worker has hit a crash — in a plain fan-out and
        # in a race (a crashing cube must not doom its siblings).
        outcomes = ParallelExecutor(jobs=2).map_tasks(
            [(_crash, 0), (_crash, 0), (_double, 3), (_double, 4)],
            first_win=first_win)
        for outcome in outcomes[:2]:
            assert isinstance(outcome.error, EngineFailure)
            assert outcome.error.engine == "parallel.worker"
            assert "unexpected failure in worker" in str(outcome.error)
        assert [o.value for o in outcomes[2:]] == [6, 8]

    def test_pooled_telemetry_merged(self):
        with obs.scoped(obs.Registry("parent")) as reg:
            ParallelExecutor(jobs=2, name="pool").map(
                _instrumented, ["a", "b"], labels=["a", "b"])
            snap = reg.snapshot()
        assert snap["counters"]["parallel/pool/a/sat.conflicts"] == 7
        assert snap["counters"]["parallel/pool/b/sat.solve_calls"] == 3


class TestWatchdog:
    """The pool-wide wall-clock watchdog: once the pool overruns its
    shared deadline past the grace factor, every task still pending is
    cancelled as a typed exhaustion and the workers are terminated,
    without disturbing submission-order determinism."""

    def test_watchdog_timeout_scales_allowance(self):
        spec = BudgetSpec.capture(Budget(wall_seconds=2.0), name="x")
        timeout = spec.watchdog_timeout()
        # deadline (2.0) + grace (2.0 * (GRACE-1) = 2.0) + 0.5 floor.
        assert 2.0 < timeout <= 4.6

    def test_no_wall_deadline_means_no_watchdog(self):
        spec = BudgetSpec.capture(Budget(conflicts=100), name="x")
        assert spec.watchdog_timeout() is None

    def test_watchdog_cancels_stalled_worker(self):
        budget = Budget(wall_seconds=0.4, name="wd")
        start = time.monotonic()
        with obs.scoped(obs.Registry("parent")) as reg:
            outcomes = ParallelExecutor(jobs=2, name="wd").map_tasks(
                [(_stall, 30.0), (_double, 21)], budget=budget,
                labels=["stall", "quick"])
            snap = reg.snapshot()
        elapsed = time.monotonic() - start
        # The 30 s sleeper must not be waited out.
        assert elapsed < 15.0
        stalled, quick = outcomes
        assert stalled.index == 0 and stalled.label == "stall"
        assert isinstance(stalled.error, ResourceExhausted)
        assert stalled.error.reason == "parallel.watchdog"
        assert stalled.error.budget_name == "wd[stall]"
        # The healthy worker's slot is untouched, in input order.
        assert quick.index == 1 and quick.value == 42
        assert snap["counters"]["parallel.watchdog_kills"] == 1

    def test_prompt_workers_pass_untouched(self):
        budget = Budget(wall_seconds=10.0, name="calm")
        outcomes = ParallelExecutor(jobs=2).map(
            _stall, [0.05, 0.05], budget=budget)
        assert [o.value for o in outcomes] == ["done", "done"]


class TestSharedDeadline:
    """Queued tasks draw on the pool's one deadline: a task that waits
    behind its siblings still finds what they left, not a slice that
    started expiring at submission."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_queued_tasks_are_not_starved(self, jobs):
        budget = Budget(wall_seconds=1.0, name="starve")
        outcomes = ParallelExecutor(jobs=jobs).map(
            _seconds_left_at_start, [0.05] * 5, budget=budget)
        left = [o.value for o in outcomes]
        assert all(seconds > 0.5 for seconds in left), left


class TestCertCounterFold:
    def test_cert_counters_fold_unprefixed_too(self):
        # Certification telemetry must stay globally additive so the
        # bench certification section and the arbitration counters
        # see worker-side checks.
        with obs.scoped(obs.Registry("parent")) as reg:
            ParallelExecutor(jobs=1, name="pool").map(
                _cert_instrumented, ["a"], labels=["a"])
            snap = reg.snapshot()
        assert snap["counters"]["cert.checked"] == 2
        assert snap["counters"]["cert.lemmas_checked"] == 5
        assert snap["counters"]["parallel/pool/a/cert.checked"] == 2


class TestTypedErrorPickles:
    """The resilience taxonomy must pickle with structured fields
    intact — the default Exception reduction would re-run __init__ on
    the decorated message and corrupt them."""

    def test_resource_exhausted(self):
        err = ResourceExhausted("deadline", budget_name="outer")
        clone = pickle.loads(pickle.dumps(err))
        assert clone.reason == "deadline"
        assert clone.budget_name == "outer"
        assert str(clone) == str(err)

    def test_engine_failure(self):
        err = EngineFailure("com", "merge table overflow")
        clone = pickle.loads(pickle.dumps(err))
        assert clone.engine == "com"
        assert str(clone) == str(err)

    def test_engine_failure_drops_cause(self):
        err = EngineFailure("ret", "bad", cause=RuntimeError("x"))
        clone = pickle.loads(pickle.dumps(err))
        assert clone.cause is None
        assert clone.engine == "ret"

    def test_cancelled(self):
        err = Cancelled(budget_name="table")
        clone = pickle.loads(pickle.dumps(err))
        assert clone.budget_name == "table"
        assert str(clone) == str(err)


class TestDataPickles:
    """The payload/result dataclasses the pool ships must round-trip."""

    def test_netlist(self):
        net = s27()
        clone = pickle.loads(pickle.dumps(net))
        assert clone.stats() == net.stats()
        assert clone.targets == net.targets
        assert clone.name == net.name

    def test_engine_result(self):
        result = TBVEngine("COM").run(s27())
        clone = pickle.loads(pickle.dumps(result))
        assert [r.bound for r in clone.reports] == \
            [r.bound for r in result.reports]
        assert len(clone.chain.steps) == len(result.chain.steps)
        assert clone.netlist.stats() == result.netlist.stats()

    def test_bmc_result(self):
        check = bmc(s27(), max_depth=4)
        clone = pickle.loads(pickle.dumps(check))
        assert clone.status == check.status
        assert clone.depth_checked == check.depth_checked
        if check.counterexample is not None:
            assert clone.counterexample.inputs == \
                check.counterexample.inputs

    def test_strategy_outcome(self):
        outcome = StrategyOutcome(strategy="COM", error="boom",
                                  seconds=1.5)
        clone = pickle.loads(pickle.dumps(outcome))
        assert clone.strategy == "COM"
        assert clone.error == "boom"
        assert clone.seconds == 1.5


class TestWorkStealingInProcess:
    """The jobs=1 drain of the work-stealing engine: same queue
    semantics (shared budget pool, first-win early exit), no
    processes."""

    def test_results_in_submission_order(self):
        outcomes = ParallelExecutor(jobs=1).map(_double, [1, 2, 3])
        assert [o.value for o in outcomes] == [2, 4, 6]
        assert [o.index for o in outcomes] == [0, 1, 2]

    def test_budget_shared_not_pre_split(self):
        budget = Budget(conflicts=100, queries=10, name="parent")
        outcomes = ParallelExecutor(jobs=1, name="pool").map(
            _record_budget, ["a", "b"], budget=budget,
            labels=["a", "b"])
        # Tasks share one pool rather than equal slices of it, so
        # every task sees the full remains.
        assert outcomes[0].value["conflicts"] == 100
        assert outcomes[1].value["queries"] == 10
        assert outcomes[0].value["name"] == "pool[a]"

    def test_first_win_short_circuits_the_rest(self):
        executor = ParallelExecutor(jobs=1, name="race")
        outcomes = executor.map(_double, [1, 2, 3],
                                first_win=lambda v: v == 2)
        assert outcomes[0].value == 2
        assert isinstance(outcomes[1].error, Cancelled)
        assert isinstance(outcomes[2].error, Cancelled)
        assert executor.last_race["first_win_index"] == 0
        assert executor.last_race["cancel_latency"] >= 0.0

    def test_losers_cancellation_does_not_reraise(self):
        # Under a first_win race the join rule owns error precedence;
        # a loser's Cancelled must come back as an outcome, not
        # propagate (the regression the first PR 9 satellite pins).
        outcomes = ParallelExecutor(jobs=1).map(
            _double, [1, 2], first_win=lambda v: v == 2)
        assert not outcomes[1].ok  # and no exception reached us

    def test_cancelled_budget_still_raises_at_submit(self):
        budget = Budget(name="parent")
        budget.cancel()
        with pytest.raises(Cancelled):
            ParallelExecutor(jobs=1).map(_double, [1], budget=budget)


@pytest.mark.parallel
class TestWorkStealingPooled:
    def test_pooled_stealing_submission_order(self):
        # More tasks than workers: each worker steals several, yet the
        # outcomes come back in submission order.
        outcomes = ParallelExecutor(jobs=2).map(_double, [1, 2, 3, 4, 5, 6])
        assert [o.value for o in outcomes] == [2, 4, 6, 8, 10, 12]
        assert [o.index for o in outcomes] == [0, 1, 2, 3, 4, 5]

    def test_pooled_typed_error_round_trips(self):
        # A typed error raised by a stolen task crosses the process
        # boundary intact, however many tasks its worker ran before.
        outcomes = ParallelExecutor(jobs=2).map(_typed_error,
                                                [None, None, None])
        assert len(outcomes) == 3
        for outcome in outcomes:
            assert isinstance(outcome.error, ResourceExhausted)
            assert outcome.error.budget_name == "inner"

    def test_pooled_budget_shared_not_pre_split(self):
        budget = Budget(conflicts=100, queries=10, name="parent")
        outcomes = ParallelExecutor(jobs=2, name="pool").map(
            _record_budget, ["a", "b"], budget=budget,
            labels=["a", "b"])
        for outcome in outcomes:
            assert outcome.value["conflicts"] == 100
            assert outcome.value["queries"] == 10
        assert outcomes[1].value["name"] == "pool[b]"

    def test_pooled_first_win_cancels_cooperative_loser(self):
        executor = ParallelExecutor(jobs=2, name="race")
        start = time.monotonic()
        outcomes = executor.map_tasks(
            [(_quick_win, None), (_poll_until_cancelled, 20.0)],
            first_win=lambda v: v == "win",
            labels=["winner", "loser"])
        elapsed = time.monotonic() - start
        assert elapsed < 15.0  # the 20 s loser was not waited out
        assert outcomes[0].value == "win"
        assert isinstance(outcomes[1].error, Cancelled)
        assert executor.last_race["first_win_index"] == 0
        assert executor.last_race["cancel_latency"] < 15.0

    def test_fault_plan_rearmed_per_stolen_task(self):
        # Three tasks over two workers: one worker necessarily steals
        # two.  If the fault schedule were per *process*, the second
        # stolen task would observe call index 1 and dodge the at={0}
        # fault; re-arming per task (the second PR 9 satellite) makes
        # every task's first solver call crash, independent of which
        # worker stole it.
        with inject(FaultPlan(at={0: FAULT_CRASH})):
            outcomes = ParallelExecutor(jobs=2).map(
                _solver_probe, [None, None, None])
        assert len(outcomes) == 3
        for outcome in outcomes:
            assert isinstance(outcome.error, EngineFailure)
            assert "injected crash" in str(outcome.error)

    def test_obs_prefix_is_task_label_not_worker(self):
        # Telemetry lands under parallel/<pool>/<label> regardless of
        # which worker ran the task.
        with obs.scoped(obs.Registry("parent")) as reg:
            ParallelExecutor(jobs=2, name="pool").map(
                _instrumented, ["a", "b", "c"], labels=["a", "b", "c"])
            snap = reg.snapshot()
        for label in ("a", "b", "c"):
            assert snap["counters"][
                f"parallel/pool/{label}/sat.conflicts"] == 7


class TestMergeSnapshot:
    def test_timers_counters_events_fold_in(self):
        worker = obs.Registry("worker")
        with worker.span("engine"):
            pass
        worker.counter("sat.conflicts", 5)
        worker.event("probe", detail="x")
        parent = obs.Registry("parent")
        parent.counter("parallel/w/sat.conflicts", 2)
        parent.merge_snapshot(worker.snapshot(), prefix="parallel/w")
        snap = parent.snapshot()
        assert snap["counters"]["parallel/w/sat.conflicts"] == 7
        assert "parallel/w/engine" in snap["timers"]
        assert snap["events"][0]["source"] == "parallel/w"

    def test_merge_accumulates_timer_stats(self):
        worker = obs.Registry("worker")
        with worker.span("engine"):
            pass
        parent = obs.Registry("parent")
        parent.merge_snapshot(worker.snapshot(), prefix="p")
        parent.merge_snapshot(worker.snapshot(), prefix="p")
        assert parent.snapshot()["timers"]["p/engine"]["count"] == 2

    def test_no_prefix(self):
        worker = obs.Registry("worker")
        worker.counter("c", 3)
        parent = obs.Registry("parent")
        parent.merge_snapshot(worker.snapshot())
        assert parent.counter_value("c") == 3
