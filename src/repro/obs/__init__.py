"""Observability: hierarchical timers, counters, and event traces.

The measurement substrate for every engine in the library.  Zero
dependencies (stdlib only) and import-cycle-free: nothing in
``repro.obs`` imports from the rest of ``repro``, so the SAT solver
and every transformation can publish telemetry without layering
concerns.

Typical use::

    from repro import obs

    with obs.span("diameter/structural"):
        ...
        obs.counter("structural.components", len(components))

    obs.get_registry().snapshot()   # plain-JSON timers/counters/events

Tests and benchmarks isolate their measurements with ``obs.scoped()``::

    with obs.scoped() as reg:
        run_workload()
        assert reg.counter_value("sat.conflicts") > 0

Live visibility while a run executes comes from :mod:`repro.obs.trace`
(streaming JSONL sinks via the ``trace`` option, cross-process timeline
stitching, progress heartbeats)::

    obs.progress("bmc", frame=t, of=depth)   # no-op unless enabled

Distribution metrics and per-query attribution come from
:mod:`repro.obs.metrics` (the ``metrics`` option): log-bucket histograms
with p50/p90/p99, gauges, rate meters and a bounded per-query ledger,
all riding ``snapshot()``/``merge_snapshot()`` so worker shards fold
in losslessly::

    from repro.obs import metrics
    with metrics.use_metrics(True):
        run_workload()
        hist = metrics.metrics_store().histogram("sat.solve_seconds")
        hist.quantile(0.99)
"""

from . import metrics, trace
from .registry import (
    Registry,
    SpanHandle,
    Stopwatch,
    counter,
    event,
    get_registry,
    scoped,
    span,
    stopwatch,
)
from .trace import progress

__all__ = [
    "Registry",
    "SpanHandle",
    "Stopwatch",
    "counter",
    "event",
    "get_registry",
    "metrics",
    "progress",
    "scoped",
    "span",
    "stopwatch",
    "trace",
]
