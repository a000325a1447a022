"""Module-level worker entry points for the process-pool fan-out.

Every function here has the shape ``fn(payload, budget) -> result``
demanded by :meth:`repro.parallel.ParallelExecutor.map`: module-level
(so the pool pickles it by reference), payload a plain picklable dict,
result one of the library's existing dataclasses (all audited to
pickle cleanly — they carry netlists, bounds and traces, never live
solvers or registries).

Each mirrors one sequential loop body exactly — same engine
construction, same error-to-outcome mapping — so a fan-out at any
``jobs`` value reproduces the sequential results value-for-value:

* :func:`run_strategy` — one portfolio strategy
  (:func:`repro.core.portfolio.compare_strategies`);
* :func:`run_design` — one experiment table row
  (:func:`repro.experiments.runner.run_table`);
* :func:`run_bmc_probe` / :func:`run_induction_probe` — the
  independent engine probes ``prove()`` races after the portfolio;
* :func:`run_cube` — one cube of a split hard query
  (:func:`repro.sat.cube.solve_cubes`).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .. import obs
from ..resilience import Budget

__all__ = ["run_bmc_probe", "run_cube", "run_design",
           "run_induction_probe", "run_strategy"]


def run_strategy(payload: Dict[str, Any],
                 budget: Optional[Budget]) -> Any:
    """One portfolio strategy over a netlist.

    Payload keys: ``net``, ``strategy``, ``sweep_config``,
    ``refine_gc_limit``.  Returns a
    :class:`~repro.core.portfolio.StrategyOutcome` — engine errors
    become the outcome's ``error`` field, and a strategy that starts
    on an exhausted budget is skipped with a
    :data:`~repro.core.portfolio.SKIPPED` error; the caller counts
    both.  :class:`Cancelled` (and anything non-engine) propagates to
    the shim.
    """
    from ..core.engine import TBVEngine
    from ..core.portfolio import SKIPPED, StrategyOutcome
    from ..netlist import NetlistError
    from ..resilience import EngineFailure, ResourceExhausted

    strategy = payload["strategy"]
    reg = obs.get_registry()
    label = strategy or "(none)"
    reason = budget.exhausted() if budget is not None else None
    if reason is not None:
        return StrategyOutcome(strategy=strategy,
                               error=f"{SKIPPED} ({reason})")
    try:
        with reg.span(label) as strategy_span:
            result = TBVEngine(
                strategy, sweep_config=payload.get("sweep_config"),
                refine_gc_limit=payload.get("refine_gc_limit", 0)).run(
                    payload["net"], budget=budget)
        return StrategyOutcome(strategy=strategy, result=result,
                               seconds=strategy_span.seconds)
    except (NetlistError, ValueError, EngineFailure,
            ResourceExhausted) as exc:
        return StrategyOutcome(strategy=strategy, error=str(exc),
                               seconds=strategy_span.seconds)


def run_design(payload: Dict[str, Any],
               budget: Optional[Budget]) -> Any:
    """One experiment-table row: generate the design, run the
    pipelines.

    Payload keys: ``generate`` (a module-level generator function,
    e.g. ``repro.gen.iscas89.generate``), ``name``, ``scale``,
    ``sweep_config``, and optionally ``strategy_map``.  Returns a
    :class:`~repro.experiments.runner.RowResult`; a generation failure
    yields the same error row the sequential table loop produces.
    """
    from ..experiments.runner import RowResult, evaluate_design
    from ..resilience import Cancelled

    reg = obs.get_registry()
    try:
        net = payload["generate"](payload["name"],
                                  scale=payload["scale"])
        return evaluate_design(net,
                               sweep_config=payload.get("sweep_config"),
                               strategy_map=payload.get("strategy_map"),
                               budget=budget)
    except Cancelled:
        raise
    except Exception as exc:
        reg.counter("runner.design_errors")
        reg.event("runner.design_error", design=payload["name"],
                  error=str(exc))
        return RowResult(payload["name"],
                         error=str(exc) or type(exc).__name__)


def run_cube(payload: Dict[str, Any],
             budget: Optional[Budget]) -> Any:
    """One cube of a split query (see :mod:`repro.sat.cube`).

    Payload keys: ``mode`` (``cnf``/``bmc``/``induction``), the
    mode's rebuild recipe (clauses, or netlist + frame/k + target),
    ``cube`` (the assumption literals), ``cube_index``/``cube_of``,
    and the ``conflict_budget`` / ``share_max_len`` knobs.  Under the
    ``certification`` option certification runs *inside* the worker
    (per-cube DRAT check, witness replay); a
    :class:`CertificationFailure` propagates to the shim and
    re-raises at the join.
    """
    from ..sat.cube import run_cube_task

    return run_cube_task(payload, budget)


def run_bmc_probe(payload: Dict[str, Any],
                  budget: Optional[Budget]) -> Any:
    """The quick falsification probe of ``prove()``'s engine race.

    Certification and cube splitting follow the submitter's options,
    which travel with the task.  A
    :class:`repro.resilience.CertificationFailure` propagates to the
    shim, surfaces as the outcome's ``error``, and the parent degrades
    it to the structural bound.
    """
    from ..unroll import bmc

    reg = obs.get_registry()
    with reg.span("quick-bmc"):
        return bmc(payload["net"], payload["target"],
                   max_depth=payload["max_depth"], budget=budget)


def run_induction_probe(payload: Dict[str, Any],
                        budget: Optional[Budget]) -> Any:
    """The k-induction probe of ``prove()``'s engine race (options
    as in :func:`run_bmc_probe`)."""
    from ..unroll import k_induction

    reg = obs.get_registry()
    with reg.span("k-induction"):
        return k_induction(payload["net"], payload["target"],
                           max_k=payload["max_k"], budget=budget)
