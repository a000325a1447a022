"""Parallel strategy/experiment execution (Layer 0.7).

Fans the library's embarrassingly-parallel workloads — portfolio
strategies, per-design experiment rows, ``prove()``'s independent
engine probes and :mod:`repro.sat.cube`'s cube races — across worker
processes while keeping every output **byte-identical** to the
sequential run.  There is one engine: :class:`ParallelExecutor`
enqueues the tasks on the work-stealing queue of
:mod:`repro.parallel.stealing`, which it drains in-process at
``jobs=1`` and across ``jobs`` processes otherwise.  Outcomes merge
in input order; every task draws on one shared pool of the caller's
budget under one absolute deadline (shipped as a picklable
:class:`BudgetSpec`); typed errors return as values; worker crashes
degrade through the existing :class:`~repro.resilience.EngineFailure`
path; a ``first_win`` predicate turns a fan-out into a race whose
winner cancels the rest; and each task's obs snapshot folds into the
parent registry under a ``parallel/`` prefix.

Entry points: ``--jobs N`` on the ``table1`` / ``table2`` / ``report``
/ ``bound`` / ``bench`` CLIs, or the ``jobs=`` keyword on
:func:`repro.core.portfolio.compare_strategies`,
:func:`repro.experiments.runner.run_table` and
:func:`repro.core.prove.prove`.  ``jobs=1`` (the default) is exactly
the pre-existing sequential code path.

Stdlib-only, like every substrate layer below it.
"""

from .executor import BudgetSpec, ParallelExecutor, WorkerOutcome
from .stealing import SharedBudget
from . import workers

__all__ = [
    "BudgetSpec",
    "ParallelExecutor",
    "SharedBudget",
    "WorkerOutcome",
    "workers",
]
