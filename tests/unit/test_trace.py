"""Unit tests for the streaming trace layer (repro.obs.trace)."""

import json
import os
import threading
import time

import pytest

from repro import obs
from repro.obs import trace
from repro.obs import registry as obs_registry
from repro.options import current, use_options


@pytest.fixture(autouse=True)
def _no_leaked_sink():
    """Every test starts and ends with tracing off and no hooks."""
    trace.stop_trace()
    hooks = list(trace._progress_hooks)
    for hook in hooks:
        trace.remove_progress_hook(hook)
    yield
    trace.stop_trace()
    for hook in list(trace._progress_hooks):
        trace.remove_progress_hook(hook)


class TestTraceSink:
    def test_meta_record_carries_schema_and_identity(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        sink = trace.start_trace(path, role="main")
        trace.stop_trace()
        records = trace.read_trace(path)
        meta = records[0]
        assert meta["ty"] == "M"
        assert meta["schema"] == trace.TRACE_SCHEMA
        assert meta["role"] == "main"
        assert meta["pid"] == os.getpid()
        assert meta["trace"] == sink.trace_id

    def test_every_record_type_round_trips(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        trace.start_trace(path)
        with obs.scoped() as reg:
            with reg.span("outer"):
                with reg.span("inner"):
                    reg.counter("hits", 3)
                reg.event("tick", k=7)
            obs.progress("engine", frame=2, of=9)
        trace.stop_trace()
        records = trace.read_trace(path)
        by_type = {}
        for record in records:
            by_type.setdefault(record["ty"], []).append(record)
        # Spans: begin/end pairs with hierarchical paths.
        assert [r["path"] for r in by_type["B"]] == \
            ["outer", "outer/inner"]
        ends = {r["path"]: r for r in by_type["E"]}
        assert set(ends) == {"outer", "outer/inner"}
        assert all(r["dur"] >= 0.0 for r in by_type["E"])
        # Counter: delta plus sink-side running total.
        (counter,) = by_type["C"]
        assert counter["name"] == "hits"
        assert counter["delta"] == 3 and counter["value"] == 3
        # Event: fields and enclosing span.
        (event,) = by_type["I"]
        assert event["name"] == "tick"
        assert event["fields"] == {"k": 7}
        assert event["span"] == "outer"
        # Progress heartbeat.
        (beat,) = by_type["P"]
        assert beat["source"] == "engine"
        assert beat["fields"] == {"frame": 2, "of": 9}
        # Common keys on every record.
        for record in records:
            assert {"ty", "t", "pid", "tid", "trace"} <= set(record)

    def test_timestamps_are_wall_aligned_and_monotone(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        before = time.time()
        trace.start_trace(path)
        with obs.scoped():
            obs.counter("a")
            obs.counter("b")
        trace.stop_trace()
        after = time.time()
        stamps = [r["t"] for r in trace.read_trace(path)]
        assert stamps == sorted(stamps)
        assert all(before - 1.0 <= t <= after + 1.0 for t in stamps)

    def test_buffering_flushes_on_close_and_threshold(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        sink = trace.TraceSink(path, flush_every=10)
        for i in range(5):
            sink.event("e", {"i": i})
        # Below threshold: only previously-flushed content on disk.
        assert len(trace.read_trace(path)) < 6
        for i in range(10):
            sink.event("e", {"i": i})
        assert len(trace.read_trace(path)) >= 10
        sink.close()
        assert len(trace.read_trace(path)) == 16  # meta + 15 events
        assert sink.closed
        sink.close()  # idempotent

    def test_truncated_final_line_is_skipped(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        sink = trace.TraceSink(path, flush_every=1)
        sink.event("good", {})
        sink.close()
        with open(path, "a") as handle:
            handle.write('{"ty": "I", "name": "torn')
        records = trace.read_trace(path)
        assert [r["ty"] for r in records] == ["M", "I"]

    def test_counter_totals_are_thread_safe(self, tmp_path):
        # Concurrent deltas must neither lose updates nor stream a
        # running "value" below the true total (review regression:
        # the read-modify-write used to happen outside the lock).
        path = str(tmp_path / "t.jsonl")
        sink = trace.TraceSink(path)

        def bump():
            for _ in range(500):
                sink.counter("hits", 1, 0)

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        sink.close()
        assert sink._counter_totals["hits"] == 2000
        values = [r["value"] for r in trace.read_trace(path)
                  if r["ty"] == "C"]
        assert len(values) == 2000
        assert max(values) == 2000

    def test_tids_distinguish_concurrent_threads(self, tmp_path):
        # Small sequential per-thread ids, not a truncated ident that
        # can collide two live threads onto one Chrome timeline row.
        path = str(tmp_path / "t.jsonl")
        sink = trace.TraceSink(path)
        worker = threading.Thread(target=lambda: sink.event("tick", {}))
        worker.start()
        worker.join()
        sink.event("tick", {})
        sink.close()
        tids = [r["tid"] for r in trace.read_trace(path)
                if r["ty"] == "I"]
        assert len(tids) == 2
        assert tids[0] != tids[1]
        assert all(isinstance(t, int) and t >= 1 for t in tids)

    def test_stop_trace_returns_path_and_uninstalls(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        trace.start_trace(path)
        assert trace.active_sink() is not None
        assert trace.stop_trace() == path
        assert trace.active_sink() is None
        assert trace.stop_trace() is None

    def test_disabled_fast_path_overhead(self):
        """With no sink, instrumentation must stay within a small
        factor of its PR-1 cost (one global load + None test)."""
        assert trace.active_sink() is None
        reg = obs.Registry("bench")
        n = 2000

        def run_once():
            start = time.perf_counter()
            for _ in range(n):
                with reg.span("s"):
                    pass
                reg.counter("c")
            return time.perf_counter() - start

        baseline = min(run_once() for _ in range(5))
        # Sanity ceiling, generous for CI noise: 2000 span+counter
        # pairs must complete in well under 100 ms when disabled
        # (~50x headroom over the observed cost).
        assert baseline < 0.1

    def test_progress_is_noop_without_sink_or_hooks(self):
        # Must not raise and must not create any state.
        obs.progress("idle", frame=1)
        assert trace.active_sink() is None


class TestProgress:
    def test_hooks_fire_with_source_and_fields(self):
        seen = []
        hook = lambda source, fields: seen.append((source, fields))
        trace.add_progress_hook(hook)
        obs.progress("bmc", frame=3, of=10)
        trace.remove_progress_hook(hook)
        obs.progress("bmc", frame=4, of=10)
        assert seen == [("bmc", {"frame": 3, "of": 10})]

    def test_add_hook_is_idempotent(self):
        seen = []
        hook = lambda source, fields: seen.append(source)
        trace.add_progress_hook(hook)
        trace.add_progress_hook(hook)
        obs.progress("x")
        trace.remove_progress_hook(hook)
        assert seen == ["x"]

    def test_reporter_throttles_per_source(self, capsys):
        import io
        stream = io.StringIO()
        reporter = trace.ProgressReporter(stream=stream, interval=60)
        reporter("bmc", {"frame": 1})
        reporter("bmc", {"frame": 2})   # throttled
        reporter("sweep", {"round": 0})  # different source: printed
        lines = stream.getvalue().splitlines()
        assert lines == ["[bmc] frame=1", "[sweep] round=0"]

    def test_reporter_zero_interval_prints_everything(self):
        import io
        stream = io.StringIO()
        reporter = trace.ProgressReporter(stream=stream, interval=0)
        reporter("bmc", {"frame": 1})
        reporter("bmc", {"frame": 2})
        assert len(stream.getvalue().splitlines()) == 2

    def test_reporter_emits_each_line_in_one_write(self):
        # The jobs>1 interleaving fix: a progress line must reach the
        # stream as a single atomic write() (prefix, fields and the
        # newline together), never as print()'s text+terminator pair
        # that can shear mid-line across concurrent writers.
        writes = []

        class Spy:
            def write(self, text):
                writes.append(text)

            def flush(self):
                pass

        reporter = trace.ProgressReporter(stream=Spy(), interval=0)
        reporter("bmc", {"frame": 1, "of": 10})
        reporter("sweep", {"round": 2})
        assert writes == ["[bmc] frame=1 of=10\n", "[sweep] round=2\n"]

    def test_reporter_threads_never_interleave(self):
        import threading

        writes = []

        class Spy:
            def write(self, text):
                writes.append(text)

            def flush(self):
                pass

        reporter = trace.ProgressReporter(stream=Spy(), interval=0)

        def hammer(source):
            for i in range(50):
                reporter(source, {"i": i})

        threads = [threading.Thread(target=hammer, args=(f"s{n}",))
                   for n in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(writes) == 200
        # Every write is one complete, well-formed line.
        for text in writes:
            assert text.endswith("\n")
            assert text.count("\n") == 1
            assert text.startswith("[s")

    def test_reporter_throttle_check_is_atomic(self):
        # Concurrent first reports from one source under a long
        # interval: the lock makes check-and-update atomic, so
        # exactly one line wins.
        import threading

        writes = []

        class Spy:
            def write(self, text):
                writes.append(text)

            def flush(self):
                pass

        reporter = trace.ProgressReporter(stream=Spy(), interval=60)
        barrier = threading.Barrier(4)

        def race():
            barrier.wait()
            reporter("bmc", {"frame": 0})

        threads = [threading.Thread(target=race) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(writes) == 1

    def test_reporter_tolerates_closed_stream(self):
        class Closed:
            def write(self, text):
                raise ValueError("I/O operation on closed file")

            def flush(self):  # pragma: no cover - never reached
                pass

        reporter = trace.ProgressReporter(stream=Closed(), interval=0)
        reporter("bmc", {"frame": 1})  # must not raise


class TestEnvActivation:
    def test_trace_from_env_installs_and_publishes_id(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with use_options(trace=path, trace_id=None):
            sink = trace.trace_from_env()
            assert sink is not None
            assert current().trace_id == sink.trace_id
            assert trace.trace_from_env() is None  # already active

    def test_trace_from_env_noop_when_unset(self):
        with use_options(trace=None):
            assert trace.trace_from_env() is None
        assert trace.active_sink() is None

    def test_worker_sink_joins_parent_trace(self, tmp_path):
        base = str(tmp_path / "t.jsonl")
        with use_options(trace=base, trace_id="abc123"):
            # Simulate a forked child that inherited the parent's sink
            # object: same-pid sinks are left alone ...
            parent = trace.start_trace(base, trace_id="abc123")
            assert trace.open_worker_sink() is None
            # ... but a sink whose recorded pid differs must be
            # replaced by a fresh per-process file.
            parent.pid = os.getpid() + 1  # fake "inherited from parent"
            worker = trace.open_worker_sink()
        assert worker is not None
        assert worker.path == f"{base}.{os.getpid()}"
        assert worker.trace_id == "abc123"
        assert worker.role == "worker"
        # The inherited sink was NOT closed/flushed by the child.
        assert not parent.closed
        worker.close()

    def test_worker_sink_noop_without_env(self):
        with use_options(trace=None):
            assert trace.open_worker_sink() is None

    def test_programmatic_start_ships_trace_to_workers(self, tmp_path):
        # Review regression: a programmatic start_trace() must publish
        # the base path and trace id in the options that travel with
        # pool tasks, so later-submitted workers join the trace.
        path = str(tmp_path / "t.jsonl")
        sink = trace.start_trace(path)
        assert current().trace == path
        assert current().trace_id == sink.trace_id
        # stop_trace() clears them, so a later run in this process
        # cannot silently resume the finished trace ...
        assert trace.stop_trace() == path
        assert current().trace is None
        assert current().trace_id is None

    def test_stop_trace_leaves_foreign_trace_option_alone(self,
                                                          tmp_path):
        # ... but only when the options still point at *this* sink (a
        # worker stopping its per-pid sink must not strip the
        # parent's base path from the options it runs under).
        base = str(tmp_path / "parent.jsonl")
        with use_options(trace=base):
            sink = trace.TraceSink(str(tmp_path / "other.jsonl"))
            obs_registry._set_trace_sink(sink)
            trace.stop_trace()
            assert current().trace == base


class TestStitchAndExport:
    def _two_process_files(self, tmp_path):
        base = str(tmp_path / "t.jsonl")
        main = trace.TraceSink(base, trace_id="tid", role="main")
        main.span_begin("bmc", "bmc")
        main.span_end("bmc", "bmc", 0.5)
        main.close()
        from unittest import mock
        with mock.patch("repro.obs.trace.os.getpid",
                        return_value=12345):
            worker = trace.TraceSink(f"{base}.12345", trace_id="tid",
                                     role="worker")
        worker.counter("sat.conflicts", 4, 4)
        worker.progress("com.sweep", {"round": 1})
        worker.close()
        return base

    def test_discover_finds_worker_siblings(self, tmp_path):
        base = self._two_process_files(tmp_path)
        paths = trace.discover_trace_files(base)
        assert paths == [base, f"{base}.12345"]

    def test_discover_ignores_non_pid_suffixes(self, tmp_path):
        base = self._two_process_files(tmp_path)
        (tmp_path / "t.jsonl.chrome.json").write_text("{}")
        paths = trace.discover_trace_files(base)
        assert f"{base}.chrome.json" not in paths

    def test_stitch_sorts_by_wall_clock(self, tmp_path):
        base = self._two_process_files(tmp_path)
        records = trace.stitch_files(trace.discover_trace_files(base))
        stamps = [r["t"] for r in records]
        assert stamps == sorted(stamps)
        assert {r["pid"] for r in records} == {os.getpid(), 12345}
        assert {r["trace"] for r in records} == {"tid"}

    def test_chrome_export_shape(self, tmp_path):
        base = self._two_process_files(tmp_path)
        records = trace.stitch_files(trace.discover_trace_files(base))
        document = trace.to_chrome(records)
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        phases = [e["ph"] for e in events]
        assert "B" in phases and "E" in phases
        assert "C" in phases and "i" in phases
        assert phases.count("M") == 2  # one process_name per pid
        # All timestamps relative (>= 0) and JSON-serializable.
        assert all(e.get("ts", 0) >= 0 for e in events)
        json.dumps(document)

    def test_chrome_counter_tracks_accumulate(self):
        records = [
            {"ty": "C", "t": 1.0, "pid": 1, "tid": 0,
             "name": "conflicts", "delta": 5, "value": 5},
            {"ty": "C", "t": 2.0, "pid": 1, "tid": 0,
             "name": "conflicts", "delta": 3, "value": 8},
        ]
        events = trace.to_chrome(records)["traceEvents"]
        assert [e["args"]["conflicts"] for e in events] == [5, 8]


class TestRegistryForwarding:
    def test_counter_totals_survive_scoped_swaps(self, tmp_path):
        """Sink-side counter totals are monotone even when scoped
        registries reset the registry-side value."""
        path = str(tmp_path / "t.jsonl")
        trace.start_trace(path)
        with obs.scoped():
            obs.counter("c", 2)
        with obs.scoped():
            obs.counter("c", 3)
        trace.stop_trace()
        values = [r["value"] for r in trace.read_trace(path)
                  if r.get("ty") == "C" and r.get("name") == "c"]
        assert values == [2, 5]

    def test_merge_snapshot_does_not_reemit_worker_counters(
            self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        worker = obs.Registry("worker")
        worker.counter("sat.conflicts", 10)
        snapshot = worker.snapshot()
        trace.start_trace(path)
        with obs.scoped() as reg:
            reg.merge_snapshot(snapshot, prefix="pool/0")
        trace.stop_trace()
        counters = [r for r in trace.read_trace(path)
                    if r.get("ty") == "C"]
        assert counters == []
        assert reg.counter_value("pool/0/sat.conflicts") == 10
