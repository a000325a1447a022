"""A top-level verification manager: ``prove(net, target)``.

Orchestrates everything the library implements into the decision
procedure the paper motivates: try transformation-based diameter
bounds first (a small bound turns BMC into a full decision procedure);
quickly search for shallow counterexamples; fall back to k-induction
and localization refinement when bounds stay impractical.

Resource governance (Layer 0.6): ``prove`` accepts a
:class:`repro.resilience.Budget` and slices it across its phases.  On
exhaustion or an engine failure it *degrades, never lies*: the result
falls back to the always-terminating structural bounder on the
original netlist — the only fallback that is sound for diameter
(approximation-derived bounds do not back-translate, Sections
3.5/3.6) — with ``degraded=True`` and a structured
``exhaustion_reason``.  Cooperative cancellation
(:class:`repro.resilience.Cancelled`) always propagates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from .. import obs
from ..cert import certification_enabled
from ..netlist import Netlist
from ..resilience import Budget, Cancelled, CertificationFailure, \
    EngineFailure
from ..transform.localize_cegar import localization_refinement
from ..unroll import Counterexample, FALSIFIED as BMCFALSIFIED, \
    PROVEN as BMC_PROVEN, bmc, k_induction
from .portfolio import DEFAULT_STRATEGIES, compare_strategies

#: Final verdicts.
PROVEN = "proven"
FALSIFIED = "falsified"
UNKNOWN = "unknown"


@dataclass
class ProofResult:
    """Outcome of :func:`prove` for a single target.

    ``degraded`` marks a run that hit its resource budget or an engine
    failure and fell back to the structural bounder; the reported
    ``bound`` is still sound.  ``exhaustion_reason`` carries the
    structured cause (one of
    :data:`repro.resilience.EXHAUSTION_REASONS`, ``"failure"`` for an
    engine crash, or ``"certification"`` when a verdict failed its
    proof/witness check).
    """

    status: str
    method: str
    target: int
    bound: Optional[int] = None
    strategy: Optional[str] = None
    counterexample: Optional[Counterexample] = None
    seconds: float = 0.0
    log: List[str] = field(default_factory=list)
    degraded: bool = False
    exhaustion_reason: Optional[str] = None


def _structural_fallback(net: Netlist, target: int,
                         best: Optional[int]) -> Optional[int]:
    """The sound degradation bound: the structural analysis of the
    *original* netlist, combined with any bound already in hand.

    Never budgeted — it must terminate for degradation to be graceful
    — and never replaced by an approximation engine: localization /
    c-slow bounds do not back-translate (Sections 3.5/3.6), so using
    them here would be unsound.
    """
    try:
        from ..diameter.structural import StructuralAnalysis

        fallback = StructuralAnalysis(net).bound(target)
    except Cancelled:
        raise
    except Exception:  # pragma: no cover - structural never raises
        return best
    if best is None:
        return fallback
    return min(best, fallback)


def _race_probes(net: Netlist, target: int, quick_bmc_depth: int,
                 induction_k: int, budget: Optional[Budget],
                 jobs: int, cubes: bool):
    """Run the quick-BMC and k-induction probes as concurrent workers.

    Returns their :class:`repro.parallel.WorkerOutcome` pair in fixed
    ``(quick, induction)`` order regardless of completion order; the
    caller merges them with the sequential priority (falsification
    beats induction).  A crashed worker surfaces as an outcome whose
    ``error`` is an :class:`EngineFailure`, which the caller maps to
    the same degradation path as an in-process engine crash.
    """
    from ..parallel import ParallelExecutor
    from ..parallel.workers import run_bmc_probe, run_induction_probe

    # The certification and cube toggles are captured in the parent
    # and shipped in the payload: workers must not depend on
    # inheriting process globals across the spawn/fork boundary.
    certify = certification_enabled()
    executor = ParallelExecutor(jobs=min(jobs, 2), name="prove")
    tasks = [
        (run_bmc_probe,
         {"net": net, "target": target, "max_depth": quick_bmc_depth,
          "certify": certify, "use_cubes": cubes}),
        (run_induction_probe,
         {"net": net, "target": target, "max_k": induction_k,
          "certify": certify, "use_cubes": cubes}),
    ]
    outcomes = executor.map_tasks(tasks, budget=budget,
                                  labels=["quick-bmc", "k-induction"])
    return outcomes[0], outcomes[1]


def prove(
    net: Netlist,
    target: Optional[int] = None,
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    max_complete_depth: int = 64,
    quick_bmc_depth: int = 10,
    induction_k: int = 8,
    sweep_config=None,
    refine_gc_limit: int = 6,
    budget: Optional[Budget] = None,
    jobs: int = 1,
    use_cubes: Optional[bool] = None,
) -> ProofResult:
    """Decide ``AG(!target)`` with the full engine stack.

    1. run the strategy portfolio; keep the best back-translated bound;
    2. if the bound fits ``max_complete_depth``, discharge completely
       with BMC (Theorem 1-4 soundness makes this a decision);
    3. otherwise search for shallow counterexamples, then attempt
       k-induction, then localization refinement;
    4. report ``unknown`` with the best bound when everything passes.

    ``budget`` governs the whole call: the portfolio runs on a 40%
    slice (so the fallback phases always have resources left), every
    later phase checks the remaining pool before starting, and any
    exhaustion or :class:`EngineFailure` degrades to the structural
    bound (see the module docstring) instead of raising.  Only
    :class:`Cancelled` propagates.

    Certification: when verdict certification is armed
    (:func:`repro.cert.use_certification` or ``REPRO_CERT``), a
    :class:`repro.resilience.CertificationFailure` from any engine
    call degrades to the structural bound with
    ``exhaustion_reason="certification"`` — the same never-lie posture
    as an engine crash.  There is no retry: the solver is
    deterministic, so a re-run would only repeat a real bug.

    ``jobs > 1`` parallelizes the independent engine calls
    (:mod:`repro.parallel`): the portfolio strategies fan out across
    the pool, and the quick-BMC / k-induction probes race as two
    concurrent workers whose results merge in the sequential priority
    order (falsification first, then induction), so the verdict —
    though not the wall-clock — is the sequential one.

    ``use_cubes`` (None = the global :func:`repro.sat.use_cubes`
    toggle) arms cube-and-conquer inside every BMC / k-induction call
    this manager issues, including the racing probes — hard frame
    queries split into cube sets raced with first-win cancellation
    (:mod:`repro.sat.cube`).  Verdicts and bounds are unchanged.
    """
    from ..sat import cube as _cube

    if target is None:
        if not net.targets:
            raise ValueError("netlist has no targets")
        target = net.targets[0]
    cubes = _cube.cubes_enabled() if use_cubes is None else use_cubes
    watch = obs.stopwatch()
    reg = obs.get_registry()
    log: List[str] = []

    def degraded(best: Optional[int], strategy: Optional[str],
                 reason: str, detail: str) -> ProofResult:
        reg.counter("resilience.downgrades")
        reg.event("resilience.downgrade", target=target,
                  reason=reason, detail=detail)
        log.append(f"degraded ({reason}): {detail}; "
                   "falling back to structural bound")
        bound = _structural_fallback(net, target, best)
        return ProofResult(UNKNOWN, "structural-fallback", target,
                           bound=bound, strategy=strategy, log=log,
                           seconds=watch.elapsed, degraded=True,
                           exhaustion_reason=reason)

    def failed(best: Optional[int], strategy: Optional[str],
               error: BaseException) -> ProofResult:
        """Degrade on an engine error (in-process or from a racing
        worker), keeping a certification failure distinct from a
        crash."""
        reason = "certification" \
            if isinstance(error, CertificationFailure) else "failure"
        return degraded(best, strategy, reason, str(error))

    def gate(best: Optional[int], strategy: Optional[str],
             phase: str) -> Optional[ProofResult]:
        """Pre-phase budget check; a result means stop degraded."""
        if budget is None:
            return None
        if budget.cancelled:
            raise Cancelled(budget_name=budget.name)
        reason = budget.exhausted()
        if reason is None:
            return None
        return degraded(best, strategy, reason,
                        f"budget exhausted before {phase}")

    with reg.span("prove"):
        scoped = net.copy()
        scoped.targets = [target]
        # The portfolio gets a capped share so the completion phases
        # are never starved by a pathological transformation pipeline.
        portfolio_budget = None if budget is None else \
            budget.slice(0.4, name="prove/portfolio")
        portfolio = compare_strategies(scoped, strategies=strategies,
                                       sweep_config=sweep_config,
                                       refine_gc_limit=refine_gc_limit,
                                       budget=portfolio_budget,
                                       jobs=jobs)
        bound, strategy = portfolio.best(target)
        log.append(f"portfolio best bound: {bound} via "
                   f"{strategy or '(none)'}")
        if bound == 0:
            reg.counter("prove.proven.transformation")
            return ProofResult(PROVEN, "transformation", target, bound=0,
                               strategy=strategy, log=log,
                               seconds=watch.elapsed)
        if bound is not None and bound <= max_complete_depth:
            stop = gate(bound, strategy, "complete BMC")
            if stop is not None:
                return stop
            try:
                with reg.span("complete-bmc"):
                    check = bmc(net, target, max_depth=bound,
                                complete_bound=bound, budget=budget,
                                use_cubes=cubes)
            except EngineFailure as exc:
                return failed(bound, strategy, exc)
            log.append(f"complete BMC to {bound}: {check.status}")
            if check.status == BMC_PROVEN:
                reg.counter("prove.proven.complete-bmc")
                return ProofResult(PROVEN, "complete-bmc", target,
                                   bound=bound, strategy=strategy,
                                   log=log, seconds=watch.elapsed)
            if check.status == BMCFALSIFIED:
                reg.counter("prove.falsified.complete-bmc")
                return ProofResult(FALSIFIED, "complete-bmc", target,
                                   bound=bound, strategy=strategy,
                                   counterexample=check.counterexample,
                                   log=log, seconds=watch.elapsed)

        stop = gate(bound, strategy, "quick BMC")
        if stop is not None:
            return stop
        if jobs > 1:
            # Engine race: the probes are independent, so they run as
            # concurrent workers; the merge below inspects them in the
            # sequential priority order (falsification, induction), so
            # the verdict is deterministic at any jobs value.
            quick_out, induct_out = _race_probes(
                net, target, quick_bmc_depth, induction_k, budget,
                jobs, cubes)
            if quick_out.error is not None:
                return failed(bound, strategy, quick_out.error)
            quick = quick_out.value
        else:
            try:
                with reg.span("quick-bmc"):
                    quick = bmc(net, target, max_depth=quick_bmc_depth,
                                budget=budget, use_cubes=cubes)
            except EngineFailure as exc:
                return failed(bound, strategy, exc)
        log.append(f"quick BMC to {quick_bmc_depth}: {quick.status}")
        if quick.status == BMCFALSIFIED:
            reg.counter("prove.falsified.bmc")
            return ProofResult(FALSIFIED, "bmc", target, bound=bound,
                               counterexample=quick.counterexample,
                               log=log, seconds=watch.elapsed)

        if jobs > 1:
            if induct_out.error is not None:
                return failed(bound, strategy, induct_out.error)
            induct = induct_out.value
        else:
            stop = gate(bound, strategy, "k-induction")
            if stop is not None:
                return stop
            try:
                with reg.span("k-induction"):
                    induct = k_induction(net, target, max_k=induction_k,
                                         budget=budget, use_cubes=cubes)
            except EngineFailure as exc:
                return failed(bound, strategy, exc)
        log.append(f"k-induction to k={induction_k}: {induct.status}")
        if induct.status == BMC_PROVEN:
            reg.counter("prove.proven.k-induction")
            return ProofResult(PROVEN, "k-induction", target,
                               bound=bound, log=log,
                               seconds=watch.elapsed)
        if induct.status == BMCFALSIFIED:
            reg.counter("prove.falsified.k-induction")
            return ProofResult(FALSIFIED, "k-induction", target,
                               bound=bound,
                               counterexample=induct.counterexample,
                               log=log, seconds=watch.elapsed)

        stop = gate(bound, strategy, "localization")
        if stop is not None:
            return stop
        try:
            with reg.span("localization"):
                cegar = localization_refinement(
                    net, target, max_depth=max_complete_depth,
                    budget=budget)
            log.append(f"localization refinement: {cegar.status} "
                       f"({cegar.iterations} iteration(s))")
            if cegar.status == "proven":
                reg.counter("prove.proven.localization")
                return ProofResult(PROVEN, "localization", target,
                                   bound=bound, log=log,
                                   seconds=watch.elapsed)
            if cegar.status == "falsified":
                with reg.span("localization"):
                    concrete = bmc(
                        net, target,
                        max_depth=(cegar.counterexample_depth or 0) + 1,
                        budget=budget)
                if concrete.status == BMCFALSIFIED:
                    reg.counter("prove.falsified.localization")
                    return ProofResult(
                        FALSIFIED, "localization", target, bound=bound,
                        counterexample=concrete.counterexample,
                        log=log, seconds=watch.elapsed)
        except EngineFailure as exc:
            return failed(bound, strategy, exc)

    reg.counter("prove.unknown")
    return ProofResult(UNKNOWN, "exhausted", target, bound=bound,
                       strategy=strategy, log=log,
                       seconds=watch.elapsed)
