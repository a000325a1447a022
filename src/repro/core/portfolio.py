"""Strategy portfolios: attempt several transformation pipelines.

Motivation 2 of Section 1: transformations "may vary both resource
requirements and tightness of the obtained approximation ... this
research constitutes yet another practical mechanism which may be
attempted to discharge difficult verification problems."  In practice
one therefore runs a *portfolio* of strategies and keeps, per target,
the best back-translated bound any of them produced — each is sound,
so their minimum is sound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..netlist import Netlist
from ..resilience import Budget
from .engine import EngineResult, PROVEN

#: A sensible default portfolio (cheap to expensive).
DEFAULT_STRATEGIES = ("", "STRASH", "COM", "RET", "COM,RET,COM")

#: Error prefix of a strategy that started on an exhausted budget.
SKIPPED = "skipped: budget exhausted"


@dataclass
class StrategyOutcome:
    """One strategy's run: its result or the error that stopped it."""

    strategy: str
    result: Optional[EngineResult] = None
    error: Optional[str] = None
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """True when the strategy completed without error."""
        return self.result is not None


@dataclass
class PortfolioResult:
    """All strategy outcomes plus per-target winners."""

    net: Netlist
    outcomes: List[StrategyOutcome] = field(default_factory=list)

    def best(self, target: int) -> Tuple[Optional[int], Optional[str]]:
        """The tightest sound bound for ``target`` and its strategy.

        Returns ``(0, strategy)`` for proven targets and
        ``(None, None)`` when no strategy produced a bound.
        """
        best_bound: Optional[int] = None
        best_strategy: Optional[str] = None
        for outcome in self.outcomes:
            if not outcome.ok:
                continue
            for report in outcome.result.reports:
                if report.target != target:
                    continue
                bound = 0 if report.status == PROVEN else report.bound
                if bound is None:
                    continue
                if best_bound is None or bound < best_bound:
                    best_bound = bound
                    best_strategy = outcome.strategy
        return best_bound, best_strategy

    def best_per_target(self) -> Dict[int, Tuple[Optional[int],
                                                 Optional[str]]]:
        """Best ``(bound, strategy)`` for every target."""
        return {t: self.best(t) for t in self.net.targets}

    def useful(self, threshold: int = 50) -> int:
        """Targets whose *best* bound beats ``threshold`` — the
        portfolio's |T'| (>= any single strategy's)."""
        count = 0
        for t in self.net.targets:
            bound, _ = self.best(t)
            if bound is not None and bound < threshold:
                count += 1
        return count

    def summary(self) -> str:
        """A human-readable multi-line summary."""
        lines = [f"portfolio over {self.net.name}: "
                 f"{len(self.net.targets)} target(s)"]
        for outcome in self.outcomes:
            label = outcome.strategy or "(none)"
            if not outcome.ok:
                lines.append(f"  {label:<14} failed: {outcome.error}")
                continue
            useful = len(outcome.result.useful())
            lines.append(
                f"  {label:<14} |T'| = {useful:<4} "
                f"({outcome.seconds * 1e3:7.1f} ms)")
        lines.append(f"  {'portfolio':<14} |T'| = {self.useful()}")
        return "\n".join(lines)


def compare_strategies(
    net: Netlist,
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    sweep_config=None,
    refine_gc_limit: int = 0,
    budget: Optional[Budget] = None,
    jobs: int = 1,
) -> PortfolioResult:
    """Run every strategy; failures (e.g. CSLOW on a non-c-slow
    netlist, an engine crash, an exhausted budget) are recorded, not
    raised — each strategy's bound is independently sound, so the
    portfolio survives any subset of them.

    The strategies fan out through :class:`repro.parallel.ParallelExecutor`
    at every ``jobs`` value (``jobs=1`` drains its queue in-process):
    outcomes come back in strategy order, so the per-target minima,
    and therefore every table derived from them, are identical at any
    ``jobs``.  ``budget`` governs the whole portfolio as one shared
    pool under one deadline — each strategy draws on whatever is left
    when it starts; a strategy that starts on a dry pool is skipped
    (a recorded outcome and a ``portfolio.budget_skips`` count), and
    cancellation raises :class:`~repro.resilience.Cancelled`.  A
    crashed worker becomes a failed outcome (never an aborted
    portfolio), counted in ``portfolio.failures``.  Each strategy's
    telemetry, including its ``<strategy>`` span, lands under
    ``parallel/portfolio/<strategy>``; ``StrategyOutcome.seconds`` is
    that span's duration.
    """
    from ..parallel import ParallelExecutor
    from ..parallel.workers import run_strategy

    portfolio = PortfolioResult(net=net)
    reg = obs.get_registry()
    payloads = [{"net": net, "strategy": strategy,
                 "sweep_config": sweep_config,
                 "refine_gc_limit": refine_gc_limit}
                for strategy in strategies]
    labels = [strategy or "(none)" for strategy in strategies]
    with reg.span("portfolio"):
        executor = ParallelExecutor(jobs=jobs, name="portfolio")
        outcomes = executor.map(run_strategy, payloads, budget=budget,
                                labels=labels)
        for strategy, outcome in zip(strategies, outcomes):
            # Worker crash or typed error: a failed outcome.
            result = outcome.value if outcome.ok else StrategyOutcome(
                strategy=strategy, error=str(outcome.error),
                seconds=outcome.seconds)
            if result.error is not None:
                reg.counter("portfolio.budget_skips"
                            if result.error.startswith(SKIPPED)
                            else "portfolio.failures")
            portfolio.outcomes.append(result)
    return portfolio
