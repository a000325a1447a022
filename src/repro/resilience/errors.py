"""The typed failure taxonomy of the resource-governance layer.

Three failure modes cover everything the engines can do wrong at a
layer boundary, replacing ad-hoc ``ABORTED``/``unknown`` strings when
a call must *signal* (rather than merely report) that it could not
finish:

* :class:`ResourceExhausted` — a budget ran dry.  Carries a
  structured ``reason`` (one of the ``EXHAUSTED_*`` constants below)
  so callers can distinguish a wall-clock deadline from a conflict or
  query cap without string matching.
* :class:`EngineFailure` — an engine crashed or produced an answer it
  cannot stand behind.  Carries the engine name and the original
  cause; the cure is falling back to a *sound* weaker engine (the
  structural bounder is the designated always-terminating fallback —
  per Sections 3.5/3.6 approximation-derived diameter bounds are
  unsound and must never substitute).
* :class:`Cancelled` — cooperative cancellation was requested via
  :meth:`repro.resilience.Budget.cancel`.  Unlike exhaustion this is
  *not* degraded around: it propagates so the whole stack unwinds.

Everything here is stdlib-only and import-cycle-free (nothing imports
the rest of ``repro``), so even ``repro.sat`` can raise these.

All three errors define ``__reduce__`` so they survive a ``pickle``
round-trip with their structured fields intact — process-pool workers
(:mod:`repro.parallel`) return them as *values*, and the default
``Exception`` reduction would have re-invoked ``__init__`` with the
decorated message string, silently corrupting ``reason`` /
``engine`` / ``budget_name``.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "Cancelled",
    "CertificationFailure",
    "EngineFailure",
    "EXHAUSTED_CONFLICTS",
    "EXHAUSTED_DEADLINE",
    "EXHAUSTED_QUERIES",
    "EXHAUSTION_REASONS",
    "ResilienceError",
    "ResourceExhausted",
]

#: Structured exhaustion reasons (``ResourceExhausted.reason`` and the
#: ``exhaustion_reason`` fields on engine results).
EXHAUSTED_DEADLINE = "deadline"
EXHAUSTED_CONFLICTS = "conflicts"
EXHAUSTED_QUERIES = "queries"
EXHAUSTION_REASONS = (EXHAUSTED_DEADLINE, EXHAUSTED_CONFLICTS,
                      EXHAUSTED_QUERIES)


class ResilienceError(Exception):
    """Base class of the resource-governance failure taxonomy."""


class ResourceExhausted(ResilienceError):
    """A resource budget ran out.

    ``reason`` is one of :data:`EXHAUSTION_REASONS`; ``budget_name``
    names the :class:`~repro.resilience.Budget` that tripped (for
    log/telemetry attribution in hierarchical splits).
    """

    def __init__(self, reason: str, message: str = "",
                 budget_name: Optional[str] = None) -> None:
        self.reason = reason
        self.budget_name = budget_name
        self._message = message
        detail = message or f"resource budget exhausted ({reason})"
        if budget_name:
            detail = f"{detail} [budget {budget_name!r}]"
        super().__init__(detail)

    def __reduce__(self):
        return (type(self), (self.reason, self._message,
                             self.budget_name))


class EngineFailure(ResilienceError):
    """An engine failed outright (crash, injected fault, bad state).

    ``engine`` names the failing component (``"sat.solver"``,
    ``"transform.com"``, ...); ``cause`` optionally carries the
    original exception for post-mortems.
    """

    def __init__(self, engine: str, message: str = "",
                 cause: Optional[BaseException] = None) -> None:
        self.engine = engine
        self.cause = cause
        self._message = message
        detail = message or "engine failure"
        super().__init__(f"{engine}: {detail}")

    def __reduce__(self):
        # ``cause`` is dropped: it may reference live solver state the
        # other side of a process boundary cannot (and must not) hold.
        return (type(self), (self.engine, self._message, None))


class CertificationFailure(EngineFailure):
    """A verdict failed independent certification (:mod:`repro.cert`).

    Distinct from a plain :class:`EngineFailure`: the engine *did*
    produce an answer, but the proof check or witness replay refused
    to stand behind it — the answer may be unsound and must never be
    reported.  Subclassing :class:`EngineFailure` means every existing
    degradation path already treats it as "this engine's answer is
    unusable"; callers that report it distinctly (``prove()``'s
    ``"certification"`` degradation reason) catch it *before* the
    generic ``except EngineFailure``.

    ``stage`` names the failing artifact check: ``"proof"`` (the DRAT
    checker) or ``"witness"`` (counterexample replay).
    """

    def __init__(self, engine: str, stage: str = "",
                 message: str = "",
                 cause: Optional[BaseException] = None) -> None:
        detail = message or "verdict failed certification"
        prefix = f"certification[{stage}]" if stage else "certification"
        super().__init__(engine, f"{prefix}: {detail}", cause)
        self.stage = stage
        # EngineFailure stored the decorated string; keep the raw one
        # so the pickle round-trip does not re-prefix it.
        self._raw_message = message

    def __reduce__(self):
        return (type(self), (self.engine, self.stage,
                             self._raw_message, None))


class Cancelled(ResilienceError):
    """Cooperative cancellation was requested on a governing budget."""

    def __init__(self, message: str = "cancelled",
                 budget_name: Optional[str] = None) -> None:
        self.budget_name = budget_name
        self._message = message
        if budget_name:
            message = f"{message} [budget {budget_name!r}]"
        super().__init__(message)

    def __reduce__(self):
        return (type(self), (self._message, self.budget_name))
