"""The work-stealing engine behind every ``ParallelExecutor`` call.

The parent enqueues task *indices* on a shared FIFO queue (one
sentinel per worker after the real work); every worker process runs a
drain loop that steals the next index whenever it goes idle, and
results ship back tagged by index so the parent still joins them in
**submission order** — execution is dynamic, the join is not, and
tables stay byte-identical at any ``--jobs``.

Two pieces of shared state ride along (plain ``multiprocessing``
primitives, shipped at process-spawn time):

* a **cancel event** — the first-win hook: when the parent sees a
  winning result it sets the event, and every worker observes it both
  between tasks (stolen tasks short-circuit to :class:`Cancelled`)
  and *inside* a task, because the event is threaded into the worker's
  :class:`SharedBudget` and the solver checks ``budget.cancelled``
  once per conflict — first-win cancellation through the existing
  Budget cancellation path, no new mechanism;
* a **shared conflict pool** and a **shared query pool** — one
  cross-process counter each that every worker charges, so budget
  flows to whichever tasks actually need it.  The wall deadline needs
  no shared state: it is one absolute epoch for every worker.

Per-task hygiene: every *stolen task* — not every worker process —
runs under the submitter's :class:`~repro.options.Options`, re-arms
the fault schedule from call index 0 and opens a fresh scoped registry
(:func:`run_task`), so options, fault injection and the
``parallel/<pool>/<label>`` obs merge are functions of the submission
alone, independent of which worker stole the task and of the
multiprocessing start method.

Crash containment: an unexpected exception inside a task becomes that
task's :class:`EngineFailure` outcome and the worker keeps draining.
Workers also announce ``("start", index, pid)`` before running a task,
so when a worker *process* dies the parent knows exactly which index
was in flight, fills that slot with the same crash outcome, and lets
the surviving workers drain the rest.  A pool-wide wall-clock watchdog
terminates a stalled pool outright.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue as _queue
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, \
    Tuple

from .. import obs
from ..netlist import NetlistError
from ..options import Options, use_options
from ..resilience import Budget, Cancelled, EngineFailure, \
    ResourceExhausted
from ..resilience import faults as _faults

__all__ = ["SharedBudget", "execute", "run_task"]

#: Error types tasks return as values (everything else is a crash).
_TYPED_ERRORS = (ResourceExhausted, EngineFailure, Cancelled,
                 NetlistError, ValueError)

#: Parent-side poll period while waiting on the result queue: short
#: enough to notice dead workers and an expired watchdog promptly,
#: long enough to stay invisible next to any real solve.
_POLL_SECONDS = 0.1


class SharedBudget(Budget):
    """A worker-side budget view over the pool's shared state.

    Wall clock: a private re-anchored deadline (the epoch is absolute,
    so every worker's deadline is the same instant).  Conflict/query
    pools: cross-process shared counters charged under their locks —
    siblings drain one pool, exactly like sequential siblings sharing
    a parent budget in-process.  Cancellation: the pool-wide first-win
    event, OR-ed with the normal in-process flag.
    """

    __slots__ = ("_event", "_shared_conflicts", "_shared_queries")

    def __init__(self, deadline_epoch: Optional[float],
                 event: Optional[Any],
                 conflicts: Optional[Any],
                 queries: Optional[Any],
                 name: str = "worker") -> None:
        seconds = None if deadline_epoch is None \
            else max(0.0, deadline_epoch - time.time())
        super().__init__(seconds, None, None, name=name)
        self._event = event
        self._shared_conflicts = conflicts
        self._shared_queries = queries

    @property
    def cancelled(self) -> bool:
        if self._event is not None and self._event.is_set():
            return True
        return Budget.cancelled.fget(self)

    def remaining_conflicts(self) -> Optional[int]:
        if self._shared_conflicts is None:
            return None
        return max(0, self._shared_conflicts.value)

    def remaining_queries(self) -> Optional[int]:
        if self._shared_queries is None:
            return None
        return max(0, self._shared_queries.value)

    def charge_conflicts(self, n: int = 1) -> None:
        if self._shared_conflicts is not None:
            with self._shared_conflicts.get_lock():
                self._shared_conflicts.value -= n

    def charge_query(self, n: int = 1) -> None:
        if self._shared_queries is not None:
            with self._shared_queries.get_lock():
                self._shared_queries.value -= n


def run_task(fn: Callable[[Any, Optional[Budget]], Any],
             payload: Any,
             budget: Optional[Budget],
             fault_config: Optional[dict],
             options: Options) -> tuple:
    """Run one task under the submitter's ``options``, a fresh scoped
    registry and re-armed faults.

    Returns ``(kind, value, snapshot, seconds)`` where ``kind`` is
    ``"ok"`` or ``"error"`` (the typed taxonomy comes back as a value;
    anything else propagates).  ``fault_config`` re-arms the schedule
    from call index 0 *per task*, so injection points are deterministic
    under stealing; None leaves the active plan alone (the in-process
    drain, where the caller's plan is already live).

    When the ``trace`` option is set a worker process opens a
    per-process sibling sink ``<path>.<pid>`` sharing the parent's
    trace id, so the parent can stitch all worker files into one
    wall-clock-aligned timeline; the ``progress`` option likewise
    installs the stderr reporter.  Both are no-ops when the parent's
    sink/reporter are already live in this process.
    """
    watch = obs.stopwatch()
    with use_options(options), \
            obs.scoped(obs.Registry("worker")) as reg:
        obs.trace.open_worker_sink()
        obs.trace.progress_from_env()
        plan = _faults.FaultPlan(**fault_config) \
            if fault_config is not None else None
        try:
            if plan is not None:
                with _faults.inject(plan):
                    value = fn(payload, budget)
            else:
                value = fn(payload, budget)
            return ("ok", value, reg.snapshot(), watch.elapsed)
        except _TYPED_ERRORS as exc:
            return ("error", exc, reg.snapshot(), watch.elapsed)
        finally:
            # Worker processes are killed without cleanup: push
            # buffered trace records out after every task so the
            # parent can stitch complete files at any point.
            sink = obs.trace.active_sink()
            if sink is not None:
                sink.flush()


def _crashed(what: str, exc: BaseException) -> tuple:
    """The raw outcome of a task that died with an untyped error."""
    return ("error",
            EngineFailure("parallel.worker",
                          f"{what}: {str(exc) or type(exc).__name__}"),
            None, 0.0)


def _drain_worker(tasks: Sequence[tuple],
                  labels: Sequence[str],
                  pool_name: str,
                  deadline_epoch: Optional[float],
                  fault_config: Optional[dict],
                  options: Options,
                  task_q: Any,
                  result_q: Any,
                  cancel_event: Any,
                  conflicts: Optional[Any],
                  queries: Optional[Any]) -> None:
    """Worker-process drain loop: steal, run, report, repeat."""
    while True:
        index = task_q.get()
        if index is None:
            break
        name = f"{pool_name}[{labels[index]}]"
        pid = multiprocessing.current_process().pid
        result_q.put(pickle.dumps(("start", index, pid)))
        if cancel_event.is_set():
            raw = ("error", Cancelled(budget_name=name), None, 0.0)
        else:
            budget = SharedBudget(deadline_epoch, cancel_event,
                                  conflicts, queries, name=name)
            fn, payload = tasks[index]
            try:
                raw = run_task(fn, payload, budget, fault_config,
                               options)
            except Exception as exc:
                # The task crashed, not the worker: fill its slot and
                # keep draining, so healthy queued tasks still run.
                raw = _crashed("worker crashed", exc)
        try:
            blob = pickle.dumps(("done", index, raw))
        except Exception as exc:  # unpicklable result = a crash
            blob = pickle.dumps(
                ("done", index, _crashed("unpicklable worker result",
                                         exc)))
        result_q.put(blob)


def execute(tasks: Sequence[tuple],
            labels: Sequence[str],
            spec: Optional[Any],  # BudgetSpec (the shared pool)
            fault_config: Optional[dict],
            options: Options,
            jobs: int,
            pool_name: str,
            first_win: Optional[Callable[[Any], bool]]
            ) -> Tuple[List[Optional[tuple]], Dict[str, Any]]:
    """Run ``tasks`` over a work-stealing worker pool.

    Returns ``(raws, meta)``: ``raws`` is the per-index list of raw
    ``(kind, value, snapshot, seconds)`` tuples (None only for slots
    the watchdog or a crash already resolved — those land in ``meta``),
    aligned to submission order.  ``meta`` carries ``watchdog`` /
    ``crashed`` slot lists and, when ``first_win`` fired,
    ``first_win_index`` and the ``cancel_latency`` between the winning
    result and the last loser draining out.
    """
    n = len(tasks)
    ctx = multiprocessing.get_context()
    task_q: Any = ctx.Queue()
    result_q: Any = ctx.Queue()
    cancel_event = ctx.Event()
    conflicts = queries = None
    deadline_epoch = None
    if spec is not None:
        deadline_epoch = spec.deadline_epoch
        if spec.conflicts is not None:
            conflicts = ctx.Value("q", spec.conflicts)
        if spec.queries is not None:
            queries = ctx.Value("q", spec.queries)
    for index in range(n):
        task_q.put(index)
    for _ in range(jobs):
        task_q.put(None)
    procs = [
        ctx.Process(
            target=_drain_worker,
            args=(list(tasks), list(labels), pool_name, deadline_epoch,
                  fault_config, options, task_q, result_q,
                  cancel_event, conflicts, queries),
            daemon=True)
        for _ in range(jobs)
    ]
    for proc in procs:
        proc.start()

    raws: List[Optional[tuple]] = [None] * n
    meta: Dict[str, Any] = {"watchdog": [], "crashed": []}
    pending = set(range(n))
    inflight: Dict[int, int] = {}  # index -> worker pid running it
    watchdog_at = None
    if spec is not None:
        timeout = spec.watchdog_timeout()
        if timeout is not None:
            watchdog_at = time.monotonic() + timeout
    win_at: Optional[float] = None
    try:
        while pending:
            try:
                message = pickle.loads(
                    result_q.get(timeout=_POLL_SECONDS))
            except _queue.Empty:
                if watchdog_at is not None and \
                        time.monotonic() >= watchdog_at:
                    meta["watchdog"] = sorted(pending)
                    break
                # The start/done protocol maps every in-flight index
                # to the pid running it: a dead pid with a missing
                # "done" is a crashed task (fill the slot, keep the
                # survivors draining).  A fully dead pool dooms the
                # never-started remainder too.
                dead_pids = {proc.pid for proc in procs
                             if not proc.is_alive()}
                for index, pid in list(inflight.items()):
                    if pid in dead_pids and index in pending:
                        meta["crashed"].append(index)
                        pending.discard(index)
                        del inflight[index]
                if not any(proc.is_alive() for proc in procs):
                    meta["crashed"].extend(sorted(pending))
                    break
                continue
            kind, index, extra = message
            if kind == "start":
                inflight[index] = extra
                continue
            inflight.pop(index, None)
            raws[index] = extra
            pending.discard(index)
            if first_win is not None and win_at is None and \
                    extra[0] == "ok" and first_win(extra[1]):
                cancel_event.set()
                win_at = time.monotonic()
                meta["first_win_index"] = index
    finally:
        if pending:
            # Watchdog or pool death: nothing left to wait for.
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
        for proc in procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for q in (task_q, result_q):
            q.close()
            q.cancel_join_thread()
    if win_at is not None:
        meta["cancel_latency"] = time.monotonic() - win_at
    return raws, meta
