"""The fan-out front end (Layer 0.7): :class:`ParallelExecutor`.

Motivation 2 of Section 1 frames the transformation strategies as a
*portfolio* of independently-sound attempts whose minimum bound wins —
an embarrassingly parallel workload, as are the per-design rows of the
Table 1/2 sweeps, ``prove()``'s probe race and the cube races.  They
all share this one fan-out mechanism, and it has one engine: the
work-stealing queue of :mod:`repro.parallel.stealing`.  With ``jobs``
(or the task count) at 1 the executor drains the queue in-process;
otherwise ``jobs`` worker processes steal task indices from it.  Either
way outcomes come back in **submission order**, never completion
order, so tables and bench artifacts are byte-identical at any
``--jobs`` value.

Protocol invariants (see ``docs/architecture.md``, Layer 0.7):

* **One budget pool, one deadline.**  The caller's budget remains are
  captured once as a :class:`BudgetSpec` — the wall deadline as an
  absolute ``time.time()`` epoch (``time.perf_counter`` values are
  meaningless in another process), the conflict/query pools as
  integers.  Every task draws from that one pool: in-process through
  subbudget views of one detached :meth:`BudgetSpec.restore` budget,
  across processes through shared counters.  A queued task gets
  whatever is left when it starts, not a slice fixed at submission.
  After the join the parent charges itself with each task's reported
  solver effort — the single charging path, which is why in-process
  tasks never draw on the caller's budget directly (that would count
  every conflict twice).
* **Typed errors are values.**  Tasks catch the
  :mod:`repro.resilience` taxonomy (plus the engine-level
  ``NetlistError``/``ValueError``) and return the exception object —
  all of them pickle with structured fields intact — so the parent
  replays exactly the error handling the sequential code path has.  A
  worker crash (an untyped exception, the process dying, an
  unpicklable result) maps to :class:`EngineFailure`, the existing
  degradation path, so tables always complete and the structural
  fallback stays sound.  In-process, an untyped exception propagates
  as it would from the sequential loops.  :class:`Cancelled` is
  re-raised at the join, as everywhere else — except under a
  ``first_win`` race, where the first ok outcome satisfying the
  predicate cancels the rest and the caller's join rule (e.g.
  :func:`repro.sat.cube.join_cubes`) owns error precedence.
* **Observability survives.**  Each task runs under a scoped
  :class:`repro.obs.Registry`; the parent folds every snapshot into
  the active registry under ``parallel/<name>/<label>`` and counts
  ``parallel.tasks`` / ``parallel.worker_crashes``.
* **Options travel with the tasks.**  :func:`repro.options.current`
  is captured at submission, next to the budget, and installed around
  every task, in-process or in a worker process — workers never depend
  on inheriting the parent's module state, so ``fork``, ``spawn`` and
  ``forkserver`` pools run the same configuration.
* **Fault plans re-script per task.**  An active
  :class:`~repro.resilience.FaultPlan` is shipped to worker processes
  as its schedule and re-armed from call index 0 for every task — the
  only deterministic reading of call indices once work is distributed.

Most call sites keep their sequential loops at ``jobs=1``; the
in-process drain serves single-task fan-outs, cube races inside a
worker process (never nested pools) and tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from .. import obs
from ..options import current
from ..resilience import Budget, Cancelled, EngineFailure, \
    ResourceExhausted
from ..resilience import faults as _faults
from . import stealing as _stealing

__all__ = ["BudgetSpec", "ParallelExecutor", "WorkerOutcome"]

#: Watchdog tuning.  Tasks are expected to stop *themselves* at the
#: pool's wall deadline (cooperative checks inside every solve); the
#: parent only declares the pool stalled once it has overrun the
#: deadline by ``(grace - 1) x`` its original wall allowance, plus a
#: small floor absorbing process start-up jitter on tiny budgets.
#: Pools with no wall deadline are never watched — there is no bound
#: to enforce.
_WATCHDOG_GRACE = 2.0
_WATCHDOG_FLOOR = 0.5


@dataclass(frozen=True)
class BudgetSpec:
    """A :class:`~repro.resilience.Budget`'s remains, in picklable form.

    ``deadline_epoch`` is an absolute ``time.time()`` instant (None =
    unlimited): monotonic ``perf_counter`` readings cannot cross a
    process boundary, so the deadline travels as wall-clock epoch and
    is re-anchored to the worker's own monotonic clock by
    :meth:`restore`.  The conflict/query pools are the remains every
    task of one run shares: the starting values of the cross-process
    counters, or of the one in-process budget the queue drains.
    """

    deadline_epoch: Optional[float] = None
    conflicts: Optional[int] = None
    queries: Optional[int] = None
    name: str = "worker"
    #: ``time.time()`` at capture; with ``deadline_epoch`` this
    #: preserves the original wall allowance, which the parent-side
    #: watchdog scales by :data:`_WATCHDOG_GRACE` to decide when an
    #: unresponsive pool counts as stalled.
    captured_epoch: Optional[float] = None

    @classmethod
    def capture(cls, budget: Optional[Budget],
                name: Optional[str] = None) -> Optional["BudgetSpec"]:
        """Freeze ``budget``'s current remains (None passes through)."""
        if budget is None:
            return None
        now = time.time()
        seconds = budget.remaining_seconds()
        return cls(
            deadline_epoch=None if seconds is None
            else now + seconds,
            conflicts=budget.remaining_conflicts(),
            queries=budget.remaining_queries(),
            name=name or budget.name,
            captured_epoch=now,
        )

    def watchdog_timeout(self) -> Optional[float]:
        """Seconds from now until the parent should declare a pool on
        this budget stalled (None = never — no wall deadline)."""
        if self.deadline_epoch is None:
            return None
        allowance = 0.0
        if self.captured_epoch is not None:
            allowance = max(0.0,
                            self.deadline_epoch - self.captured_epoch)
        grace = allowance * (_WATCHDOG_GRACE - 1.0) + _WATCHDOG_FLOOR
        return max(0.0, self.deadline_epoch + grace - time.time())

    def restore(self) -> Budget:
        """Rebuild a live budget in the current process."""
        seconds = None
        if self.deadline_epoch is not None:
            seconds = max(0.0, self.deadline_epoch - time.time())
        return Budget(seconds, self.conflicts, self.queries,
                      name=self.name)


@dataclass
class WorkerOutcome:
    """One task's round-trip: its value or typed error, plus telemetry.

    Exactly one of ``value``/``error`` is set.  ``seconds`` is the
    worker-side wall time of the task body (monotonic, measured inside
    the worker); ``snapshot`` the worker's full obs snapshot (already
    merged into the parent registry by the time callers see it).
    """

    index: int
    label: str
    value: Any = None
    error: Optional[BaseException] = None
    seconds: float = 0.0
    snapshot: Optional[dict] = None

    @property
    def ok(self) -> bool:
        """True when the task returned a value."""
        return self.error is None


class ParallelExecutor:
    """Deterministic fan-out of independent engine calls.

    ``jobs`` caps the worker-process count; with ``jobs <= 1`` (or a
    single task) the queue drains in-process — same shim, same shared
    budget semantics, no processes, no pickling.  ``name`` prefixes
    the merged obs data: task telemetry lands under
    ``parallel/<name>/<label>``.
    """

    def __init__(self, jobs: int = 1, name: str = "pool") -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.name = name
        #: Metadata of the last run (first-win index, cancel latency,
        #: watchdog/crash slots) — read by the cube race and the
        #: bench cancellation-latency probe.
        self.last_race: dict = {}

    # ------------------------------------------------------------------
    def map(self,
            fn: Callable[[Any, Optional[Budget]], Any],
            payloads: Sequence[Any],
            budget: Optional[Budget] = None,
            labels: Optional[Sequence[str]] = None,
            first_win: Optional[Callable[[Any], bool]] = None
            ) -> List[WorkerOutcome]:
        """Run ``fn(payload, shared-budget-view)`` for every payload.

        ``fn`` must be a module-level function (worker processes
        unpickle it by reference).  All tasks share one pool of
        ``budget``'s remains under its one deadline.  The result list
        is ordered by input index regardless of completion order; a
        cancelled budget raises :class:`Cancelled` at submission, a
        task's :class:`Cancelled` at the join (unless ``first_win`` is
        racing), and every other failure is an outcome.
        """
        return self.map_tasks([(fn, payload) for payload in payloads],
                              budget=budget, labels=labels,
                              first_win=first_win)

    def map_tasks(self,
                  tasks: Sequence[tuple],
                  budget: Optional[Budget] = None,
                  labels: Optional[Sequence[str]] = None,
                  first_win: Optional[Callable[[Any], bool]] = None
                  ) -> List[WorkerOutcome]:
        """Like :meth:`map`, but each task is its own ``(fn, payload)``
        pair — used for heterogeneous races (e.g. ``prove``'s quick-BMC
        vs k-induction probes)."""
        tasks = list(tasks)
        if not tasks:
            return []
        labels = [str(label) for label in labels] if labels \
            else [str(i) for i in range(len(tasks))]
        if len(labels) != len(tasks):
            raise ValueError("labels/tasks length mismatch")
        if budget is not None and budget.cancelled:
            raise Cancelled(budget_name=budget.name)
        self.last_race = {}
        spec = BudgetSpec.capture(budget, name=self.name)
        options = current()
        if self.jobs == 1 or len(tasks) == 1:
            outcomes = self._drain_in_process(tasks, labels, spec,
                                              options, first_win)
        else:
            outcomes = self._drain_pool(tasks, labels, spec, options,
                                        first_win)
        self._merge(outcomes, budget,
                    reraise_cancelled=first_win is None)
        return outcomes

    # ------------------------------------------------------------------
    def _drain_pool(self, tasks, labels, spec, options,
                    first_win) -> List[WorkerOutcome]:
        """Run tasks over ``jobs`` worker processes (see
        :mod:`repro.parallel.stealing`) and turn the slots the watchdog
        or a dead worker resolved into typed outcomes."""
        plan = _faults.active_plan()
        raws, meta = _stealing.execute(
            tasks, labels, spec,
            plan.config() if plan is not None else None, options,
            min(self.jobs, len(tasks)), self.name, first_win)
        self.last_race = meta
        reg = obs.get_registry()
        outcomes: List[WorkerOutcome] = []
        for i, raw in enumerate(raws):
            if raw is not None:
                outcomes.append(self._decode(i, labels[i], raw))
            elif i in meta.get("watchdog", ()):
                reg.counter("parallel.watchdog_kills")
                reg.event("parallel.watchdog", label=labels[i],
                          budget=spec.name if spec else self.name)
                outcomes.append(WorkerOutcome(
                    index=i, label=labels[i],
                    error=ResourceExhausted(
                        "parallel.watchdog",
                        f"worker {labels[i]!r} overran the pool wall "
                        "deadline past the watchdog grace; task "
                        "cancelled",
                        budget_name=f"{self.name}[{labels[i]}]")))
            else:
                outcomes.append(WorkerOutcome(
                    index=i, label=labels[i],
                    error=EngineFailure(
                        "parallel.worker",
                        f"worker running {labels[i]!r} crashed")))
        return outcomes

    def _drain_in_process(self, tasks, labels, spec, options,
                          first_win) -> List[WorkerOutcome]:
        """The in-process drain: tasks run in order through subbudget
        views of one budget restored from ``spec`` (detached from the
        caller's, which :meth:`_merge` charges after the join), and a
        ``first_win`` hit short-circuits the rest to
        :class:`Cancelled`."""
        shared = spec.restore() if spec is not None else None
        outcomes: List[WorkerOutcome] = []
        won = False
        win_at = None
        for i, (fn, payload) in enumerate(tasks):
            name = f"{self.name}[{labels[i]}]"
            if won:
                outcomes.append(WorkerOutcome(
                    index=i, label=labels[i],
                    error=Cancelled(budget_name=name)))
                continue
            child = shared.subbudget(name=name) \
                if shared is not None else None
            raw = _stealing.run_task(fn, payload, child, None, options)
            outcome = self._decode(i, labels[i], raw)
            outcomes.append(outcome)
            if first_win is not None and outcome.ok and \
                    first_win(outcome.value):
                won = True
                win_at = time.monotonic()
                self.last_race = {"first_win_index": i}
        if win_at is not None:
            self.last_race["cancel_latency"] = \
                time.monotonic() - win_at
        return outcomes

    @staticmethod
    def _decode(index: int, label: str, raw: tuple) -> WorkerOutcome:
        kind, value, snapshot, seconds = raw
        if kind == "ok":
            return WorkerOutcome(index=index, label=label, value=value,
                                 seconds=seconds, snapshot=snapshot)
        return WorkerOutcome(index=index, label=label, error=value,
                             seconds=seconds, snapshot=snapshot)

    def _merge(self, outcomes: List[WorkerOutcome],
               budget: Optional[Budget],
               reraise_cancelled: bool = True) -> None:
        """Fold worker telemetry into the parent registry and charge
        the parent budget with the reported solver effort; re-raise a
        worker-side :class:`Cancelled` (cooperative cancellation always
        propagates — except under a ``first_win`` race, where a
        loser's cancellation is bookkeeping and the caller's join rule
        owns error precedence)."""
        reg = obs.get_registry()
        for outcome in outcomes:
            reg.counter("parallel.tasks")
            if outcome.snapshot is not None:
                reg.merge_snapshot(
                    outcome.snapshot,
                    prefix=f"parallel/{self.name}/{outcome.label}")
                counters = outcome.snapshot.get("counters", {})
                # Certification telemetry stays globally additive:
                # reports and the bench certification section read
                # the top-level ``cert.*`` counters, so
                # worker-side checks fold in un-prefixed too.
                for key, delta in counters.items():
                    if key.startswith("cert.") and delta:
                        reg.counter(key, delta)
                if budget is not None:
                    conflicts = counters.get("sat.conflicts", 0)
                    queries = counters.get("sat.solve_calls", 0)
                    if conflicts:
                        budget.charge_conflicts(conflicts)
                    if queries:
                        budget.charge_query(queries)
            if reraise_cancelled and isinstance(outcome.error,
                                                Cancelled):
                raise outcome.error
            if isinstance(outcome.error, EngineFailure) and \
                    outcome.error.engine == "parallel.worker":
                reg.counter("parallel.worker_crashes")
