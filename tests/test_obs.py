"""Tests for the observability subsystem (logs, metrics, trace, progress)."""

import io
import json
import math
import os

import pytest

from repro.core.separation_chain import SeparationChain
from repro.experiments.parallel import CellTask, execute_cells
from repro.experiments.recorder import RunRecorder
from repro.obs import (
    ChainDiagnostics,
    DiagnosticsConfig,
    Instrumentation,
    JsonLogger,
    MetricsRegistry,
    ProgressReporter,
    StopCondition,
    TraceRecorder,
    merge_records,
    read_jsonl,
    run_profiled,
    validate_trace,
)
from repro.obs.metrics import Histogram
from repro.system.initializers import random_blob_system
from repro.util.serialization import configuration_to_json


# ---------------------------------------------------------------------------
# JSON-lines logging


class TestJsonLogger:
    def test_stream_sink_writes_json_lines(self):
        stream = io.StringIO()
        logger = JsonLogger(stream, context={"run": "t"}, clock=lambda: 1.5)
        logger.info("hello", value=3)
        record = json.loads(stream.getvalue())
        assert record["event"] == "hello"
        assert record["run"] == "t"
        assert record["value"] == 3
        assert record["ts"] == 1.5
        assert record["pid"] == os.getpid()

    def test_bind_layers_context(self):
        logger = JsonLogger.collecting(context={"run": "sweep"})
        child = logger.bind(cell="c1", replica=2)
        child.info("cell.done")
        (record,) = logger.records
        assert record["run"] == "sweep"
        assert record["cell"] == "c1"
        assert record["replica"] == 2

    def test_level_filtering(self):
        logger = JsonLogger.collecting(level="warning")
        logger.debug("quiet")
        logger.info("quiet")
        logger.warning("loud")
        assert [r["event"] for r in logger.records] == ["loud"]

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            JsonLogger.collecting(level="chatty")
        with pytest.raises(ValueError):
            JsonLogger.collecting().log("x", level="loudest")

    def test_open_appends_and_read_jsonl_round_trips(self, tmp_path):
        path = tmp_path / "sub" / "events.jsonl"
        logger = JsonLogger.open(path, clock=lambda: 2.0)
        logger.info("first")
        logger.close()
        logger = JsonLogger.open(path, clock=lambda: 3.0)
        logger.info("second")
        logger.close()
        events = [r["event"] for r in read_jsonl(path)]
        assert events == ["first", "second"]

    def test_records_requires_list_sink(self):
        with pytest.raises(TypeError):
            JsonLogger(io.StringIO()).records


class TestMergeRecords:
    def test_orders_by_timestamp(self):
        parent = [{"ts": 1.0, "event": "a"}, {"ts": 5.0, "event": "d"}]
        worker = [{"ts": 2.0, "event": "b"}, {"ts": 3.0, "event": "c"}]
        merged = merge_records(parent, worker)
        assert [r["event"] for r in merged] == ["a", "b", "c", "d"]

    def test_stable_within_stream_on_ties(self):
        # Equal timestamps must keep within-stream order, and the
        # earlier stream must win the tie — causal order inside one
        # process is never flipped by the merge.
        first = [{"ts": 1.0, "event": "a1"}, {"ts": 1.0, "event": "a2"}]
        second = [{"ts": 1.0, "event": "b1"}]
        merged = merge_records(first, second)
        assert [r["event"] for r in merged] == ["a1", "a2", "b1"]


# ---------------------------------------------------------------------------
# Metrics registry


class TestHistogram:
    def test_boundary_lands_in_lower_bucket(self):
        histogram = Histogram("h", [1.0, 2.0, 4.0])
        histogram.observe(1.0)  # boundary -> first bucket (le semantics)
        histogram.observe(1.5)
        histogram.observe(2.0)  # boundary -> second bucket
        assert histogram.counts == [1, 2, 0, 0]

    def test_overflow_bucket(self):
        histogram = Histogram("h", [1.0, 2.0])
        histogram.observe(100.0)
        assert histogram.counts == [0, 0, 1]
        assert histogram.count == 1
        assert histogram.sum == 100.0

    def test_mean(self):
        histogram = Histogram("h", [10.0])
        assert math.isnan(histogram.mean())
        histogram.observe(2.0)
        histogram.observe(4.0)
        assert histogram.mean() == 3.0

    def test_invalid_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", [])
        with pytest.raises(ValueError):
            Histogram("h", [1.0, 1.0])
        with pytest.raises(ValueError):
            Histogram("h", [2.0, 1.0])
        with pytest.raises(ValueError):
            Histogram("h", [1.0, float("inf")])


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")
        assert registry.series("s") is registry.series("s")

    def test_cross_kind_name_conflict(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_snapshot_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("steps").inc(42)
        registry.gauge("perimeter").set(17.5)
        registry.histogram("t", [0.1, 1.0]).observe(0.5)
        registry.series("cells").append({"cell": "a", "wall": 0.5})
        snapshot = registry.snapshot()
        # Snapshot must be strict JSON (no NaN/inf leaks).
        restored = MetricsRegistry.from_snapshot(
            json.loads(json.dumps(snapshot, allow_nan=False))
        )
        assert restored.snapshot() == snapshot

    def test_from_snapshot_rejects_unknown_version(self):
        with pytest.raises(ValueError):
            MetricsRegistry.from_snapshot({"version": 99})

    def test_merge_semantics(self):
        parent = MetricsRegistry()
        parent.counter("steps").inc(10)
        parent.gauge("rate").set(1.0)
        parent.histogram("t", [1.0]).observe(0.5)
        parent.series("cells").append("a")

        worker = MetricsRegistry()
        worker.counter("steps").inc(5)
        worker.gauge("rate").set(2.0)
        worker.histogram("t", [1.0]).observe(3.0)
        worker.series("cells").append("b")

        parent.merge(worker.snapshot())
        snapshot = parent.snapshot()
        assert snapshot["counters"]["steps"] == 15.0  # counters add
        assert snapshot["gauges"]["rate"] == 2.0  # last write wins
        assert snapshot["histograms"]["t"]["counts"] == [1, 1]
        assert snapshot["histograms"]["t"]["count"] == 2
        assert snapshot["series"]["cells"] == ["a", "b"]  # concat

    def test_series_extend_is_ordered_concat(self):
        series = MetricsRegistry().series("s")
        series.append({"i": 0})
        series.extend([{"i": 1}, {"i": 2}])
        assert [e["i"] for e in series.entries] == [0, 1, 2]

    def test_merge_series_of_differing_lengths(self):
        """Series collisions: ordered concat, no alignment or truncation.

        The combined order is determined purely by the sequence of
        merge calls — existing entries keep their positions, each
        snapshot's entries follow in their recorded order.
        """
        parent = MetricsRegistry()
        parent.series("diag.samples").append("p0")

        short = MetricsRegistry()
        short.series("diag.samples").append("s0")
        long = MetricsRegistry()
        for i in range(3):
            long.series("diag.samples").append(f"l{i}")

        parent.merge(long.snapshot())
        parent.merge(short.snapshot())
        assert parent.snapshot()["series"]["diag.samples"] == [
            "p0", "l0", "l1", "l2", "s0",
        ]
        # Deterministic: replaying the same merge order reproduces it.
        replay = MetricsRegistry()
        replay.series("diag.samples").append("p0")
        replay.merge(long.snapshot())
        replay.merge(short.snapshot())
        assert replay.snapshot() == parent.snapshot()

    def test_merge_series_new_name_created(self):
        parent = MetricsRegistry()
        worker = MetricsRegistry()
        worker.series("only.worker").append(1)
        parent.merge(worker.snapshot())
        assert parent.snapshot()["series"]["only.worker"] == [1]

    def test_merge_rejects_mismatched_buckets(self):
        parent = MetricsRegistry()
        parent.histogram("t", [1.0, 2.0])
        worker = MetricsRegistry()
        worker.histogram("t", [1.0, 5.0])
        with pytest.raises(ValueError):
            parent.merge(worker.snapshot())

    def test_save_load(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        path = tmp_path / "out" / "metrics.json"
        registry.save(path)
        assert MetricsRegistry.load(path).snapshot() == registry.snapshot()


# ---------------------------------------------------------------------------
# Trace spans


class TestTraceRecorder:
    def test_span_nesting_and_schema(self):
        ticks = iter(range(100))
        recorder = TraceRecorder(
            process_name="repro-test", clock=lambda: next(ticks)
        )
        with recorder.span("outer", phase="sweep"):
            with recorder.span("inner"):
                pass
        document = recorder.to_json()
        validate_trace(document)
        complete = [e for e in document["traceEvents"] if e["ph"] == "X"]
        # Spans close inner-first; the outer span must time-contain the
        # inner one (that is how the viewer stacks them).
        inner, outer = complete
        assert inner["name"] == "inner"
        assert outer["name"] == "outer"
        assert outer["ts"] <= inner["ts"]
        assert outer["ts"] + outer["dur"] >= inner["ts"] + inner["dur"]
        assert outer["args"] == {"phase": "sweep"}

    def test_span_records_on_exception(self):
        recorder = TraceRecorder()
        with pytest.raises(RuntimeError):
            with recorder.span("doomed"):
                raise RuntimeError("boom")
        assert [e["name"] for e in recorder.events] == ["doomed"]

    def test_metadata_event_names_process(self):
        recorder = TraceRecorder(process_name="repro-worker")
        meta = recorder.events[0]
        assert meta["ph"] == "M"
        assert meta["args"] == {"name": "repro-worker"}

    def test_extend_keeps_foreign_pids(self):
        parent = TraceRecorder()
        parent.extend(
            [{"name": "cell", "cat": "x", "ph": "X", "ts": 0.0, "dur": 1.0,
              "pid": 99999, "tid": 1}]
        )
        assert parent.events[-1]["pid"] == 99999
        validate_trace(parent.to_json())

    def test_save_is_viewer_loadable_json(self, tmp_path):
        recorder = TraceRecorder(process_name="repro")
        with recorder.span("work"):
            pass
        path = tmp_path / "trace.json"
        recorder.save(path)
        document = json.loads(path.read_text())
        validate_trace(document)
        assert document["displayTimeUnit"] == "ms"

    def test_validate_trace_rejects_bad_documents(self):
        with pytest.raises(ValueError):
            validate_trace({})
        with pytest.raises(ValueError):
            validate_trace({"traceEvents": [{"ph": "X", "name": "partial"}]})
        with pytest.raises(ValueError):
            validate_trace({"traceEvents": [{"ph": "Z"}]})
        with pytest.raises(ValueError):
            validate_trace(
                {"traceEvents": [
                    {"name": "n", "ph": "X", "ts": 0, "dur": -1,
                     "pid": 1, "tid": 1}
                ]}
            )


# ---------------------------------------------------------------------------
# Progress / heartbeat / profiling


class TestProgressReporter:
    def test_progress_line_contents(self):
        stream = io.StringIO()
        clock = iter([0.0, 2.0, 4.0]).__next__
        reporter = ProgressReporter(stream=stream, clock=clock)
        reporter(1, 4)
        reporter(2, 4)
        lines = stream.getvalue().splitlines()
        assert "cells 1/4 (25%)" in lines[0]
        assert "cells 2/4 (50%)" in lines[1]
        assert "ewma 2.00s" in lines[1]
        assert "eta 4.0s" in lines[1]

    def test_result_detail_and_checkpoint_tag(self):
        class Result:
            wall_time = 2.0
            iterations = 10_000
            from_checkpoint = True
            task = None

        stream = io.StringIO()
        clock = iter([0.0, 1.0]).__next__
        reporter = ProgressReporter(stream=stream, clock=clock)
        reporter(1, 1, Result())
        line = stream.getvalue()
        assert "cell 2.00s" in line
        assert "5,000 steps/s" in line
        assert "[checkpoint]" in line

    def test_invalid_smoothing(self):
        with pytest.raises(ValueError):
            ProgressReporter(smoothing=0.0)
        with pytest.raises(ValueError):
            ProgressReporter(smoothing=1.5)

    def test_heartbeat_emits_and_stops(self):
        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream)
        with reporter:
            reporter.start_heartbeat(0.02)
            reporter._stop.wait(0.2)  # give the thread time to beat
        assert "heartbeat" in stream.getvalue()
        assert reporter._heartbeat_thread is None
        reporter.stop()  # idempotent

    def test_heartbeat_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            ProgressReporter().start_heartbeat(0)


class TestRunProfiled:
    def test_returns_result_and_report(self):
        def work(x):
            return sum(range(x))

        result, report = run_profiled(work, 100)
        assert result == sum(range(100))
        assert "cumulative" in report


# ---------------------------------------------------------------------------
# Instrumentation bundle


class TestInstrumentation:
    def test_disabled_by_default(self):
        obs = Instrumentation()
        assert not obs.enabled()
        obs.log("ignored")  # no-op, no error
        with obs.span("ignored"):
            pass

    def test_bind_rebinds_logger_only(self):
        logger = JsonLogger.collecting()
        metrics = MetricsRegistry()
        obs = Instrumentation(logger=logger, metrics=metrics)
        bound = obs.bind(run="sweep")
        assert bound.metrics is metrics
        bound.log("event")
        assert logger.records[0]["run"] == "sweep"

    def test_worker_flags(self):
        obs = Instrumentation(metrics=MetricsRegistry(), profile=True)
        assert obs.worker_flags() == {
            "events": False, "metrics": True, "trace": False,
            "profile": True, "diag_every": 0,
        }

    def test_diag_every_alone_enables_and_rides_worker_flags(self):
        obs = Instrumentation(diag_every=500)
        assert obs.enabled()
        assert obs.worker_flags()["diag_every"] == 500


# ---------------------------------------------------------------------------
# Chain instrumentation: bit-identity and recorded metrics


class TestChainInstrumentation:
    def _make_chain(self, seed=11, instrumented=False, obs=None,
                    backend="auto"):
        system = random_blob_system(24, seed=7)
        chain = SeparationChain(
            system, lam=4.0, gamma=4.0, seed=seed, backend=backend
        )
        if instrumented:
            chain.instrument(obs)
        return chain

    def test_instrumented_run_is_bit_identical(self):
        plain = self._make_chain()
        obs = Instrumentation(
            logger=JsonLogger.collecting(),
            metrics=MetricsRegistry(),
            trace=TraceRecorder(),
        )
        wired = self._make_chain(instrumented=True, obs=obs)
        plain.run(1500).run(500)
        wired.run(1500).run(500)
        assert dict(plain.system.colors) == dict(wired.system.colors)
        assert plain.accepted_moves == wired.accepted_moves
        assert plain.accepted_swaps == wired.accepted_swaps
        assert plain.iterations == wired.iterations
        # And the RNG streams remain in lockstep afterwards.
        assert plain.rng.random() == wired.rng.random()

    @pytest.mark.parametrize("backend", ["dict", "grid", "batch"])
    def test_metrics_recorded_per_run(self, backend):
        metrics = MetricsRegistry()
        chain = self._make_chain(instrumented=True,
                                 obs=Instrumentation(metrics=metrics),
                                 backend=backend)
        chain.run(800)
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["chain.steps"] == 800.0
        assert snapshot["counters"]["chain.moves_accepted"] == float(
            chain.accepted_moves
        )
        assert snapshot["counters"]["chain.swaps_accepted"] == float(
            chain.accepted_swaps
        )
        assert snapshot["histograms"]["chain.run_seconds"]["count"] == 1
        assert snapshot["gauges"]["chain.perimeter"] == float(
            chain.system.perimeter()
        )
        rate = snapshot["gauges"]["chain.acceptance_rate"]
        assert rate == pytest.approx(chain.acceptance_rate())

        # run_until records exactly one chain.run as well (not one per
        # stop check), carrying the steps it actually executed.
        obs = Instrumentation(
            metrics=MetricsRegistry(),
            logger=JsonLogger.collecting(),
            trace=TraceRecorder(),
        )
        chain.instrument(
            obs, diagnostics=ChainDiagnostics(DiagnosticsConfig(stride=100))
        )
        start = chain.iterations
        chain.run_until(
            20_000,
            StopCondition(ess_target=5.0, geweke_max=50.0,
                          min_iterations=2000),
        )
        executed = chain.iterations - start
        assert 0 < executed < 20_000
        snapshot = obs.metrics.snapshot()
        assert snapshot["counters"]["chain.steps"] == float(executed)
        assert snapshot["histograms"]["chain.run_seconds"]["count"] == 1
        spans = [e for e in obs.trace.events if e["name"] == "chain.run"]
        assert [span["args"]["steps"] for span in spans] == [executed]
        events = [r for r in obs.logger.records if r["event"] == "chain.run"]
        assert [event["steps"] for event in events] == [executed]

    def test_trace_and_log_events(self):
        logger = JsonLogger.collecting()
        trace = TraceRecorder()
        chain = self._make_chain(
            instrumented=True,
            obs=Instrumentation(logger=logger, trace=trace),
        )
        chain.run(300)
        assert [e["name"] for e in trace.events] == ["chain.run"]
        assert logger.records[0]["event"] == "chain.run"
        assert logger.records[0]["steps"] == 300

    def test_instrument_detaches_with_no_arguments(self):
        chain = self._make_chain(
            instrumented=True, obs=Instrumentation(metrics=MetricsRegistry())
        )
        assert chain._obs_active
        chain.instrument()
        assert not chain._obs_active

    def test_acceptance_rate_nan_before_any_step(self):
        chain = self._make_chain()
        assert math.isnan(chain.acceptance_rate())
        chain.run(100)
        assert 0.0 <= chain.acceptance_rate() <= 1.0


# ---------------------------------------------------------------------------
# Engine integration: worker streams merged into the parent


class TestEngineInstrumentation:
    def _tasks(self, count=2, steps=300):
        tasks = []
        for index in range(count):
            system = random_blob_system(16, seed=20 + index)
            tasks.append(
                CellTask(
                    lam=4.0,
                    gamma=4.0,
                    replica=index,
                    seed=5 + index,
                    steps=steps,
                    system_json=configuration_to_json(
                        system, sort_nodes=False
                    ),
                    label=f"cell-{index}",
                )
            )
        return tasks

    def _obs(self):
        return Instrumentation(
            logger=JsonLogger.collecting(),
            metrics=MetricsRegistry(),
            trace=TraceRecorder(process_name="repro"),
        )

    def test_serial_backend_merges_worker_streams(self):
        obs = self._obs()
        results = execute_cells(self._tasks(), backend="serial", obs=obs)
        assert all(result.wall_time > 0.0 for result in results)

        snapshot = obs.metrics.snapshot()
        assert snapshot["counters"]["engine.cells_completed"] == 2.0
        assert snapshot["counters"]["engine.steps"] == 600.0
        assert snapshot["counters"]["chain.steps"] == 600.0
        assert snapshot["histograms"]["engine.cell_seconds"]["count"] == 2
        cells = snapshot["series"]["engine.cells"]
        assert len(cells) == 2
        for entry in cells:
            assert entry["wall_time"] > 0.0
            assert entry["steps_per_sec"] > 0.0
            assert not entry["from_checkpoint"]

        events = obs.logger.records
        names = [record["event"] for record in events]
        assert "engine.start" in names and "engine.done" in names
        cell_scoped = [r for r in events if "cell" in r and "lam" in r]
        assert cell_scoped, "worker events must carry cell context"
        validate_trace(obs.trace.to_json())
        assert any(
            event.get("name") == "cell" for event in obs.trace.events
        )

    def test_process_backend_stitches_worker_pids(self):
        obs = self._obs()
        execute_cells(
            self._tasks(), backend="process", workers=2, obs=obs
        )
        validate_trace(obs.trace.to_json())
        cell_events = [
            event for event in obs.trace.events if event.get("name") == "cell"
        ]
        assert len(cell_events) == 2
        # Worker events keep their own pid (distinct from the parent's
        # lane) so perfetto renders one lane per pool process.
        assert all(event["pid"] != 0 for event in cell_events)
        snapshot = obs.metrics.snapshot()
        assert snapshot["counters"]["engine.cells_completed"] == 2.0
        assert snapshot["counters"]["chain.steps"] == 600.0

    def test_instrumented_results_match_uninstrumented(self):
        plain = execute_cells(self._tasks(), backend="serial")
        wired = execute_cells(
            self._tasks(), backend="serial", obs=self._obs()
        )
        for p, w in zip(plain, wired):
            assert dict(p.system.colors) == dict(w.system.colors)
            assert p.iterations == w.iterations
            assert p.accepted_moves == w.accepted_moves

    def test_checkpoint_hits_and_misses_counted(self, tmp_path):
        tasks = self._tasks()
        first = self._obs()
        # resume=True with an empty directory: every lookup is a miss.
        execute_cells(tasks, checkpoint_dir=tmp_path, resume=True, obs=first)
        snapshot = first.metrics.snapshot()
        assert snapshot["counters"]["engine.checkpoint_misses"] == 2.0

        second = self._obs()
        execute_cells(
            tasks, checkpoint_dir=tmp_path, resume=True, obs=second
        )
        snapshot = second.metrics.snapshot()
        assert snapshot["counters"]["engine.checkpoint_hits"] == 2.0
        assert "engine.checkpoint_misses" not in snapshot["counters"] or (
            snapshot["counters"]["engine.checkpoint_misses"] == 0.0
        )
        cells = snapshot["series"]["engine.cells"]
        assert all(entry["from_checkpoint"] for entry in cells)

    def test_profile_returns_report(self):
        obs = Instrumentation(
            logger=JsonLogger.collecting(), profile=True
        )
        results = execute_cells(self._tasks(count=1), obs=obs)
        assert results[0].profile is not None
        assert "cumulative" in results[0].profile

    def test_checkpoint_files_stay_free_of_obs_payload(self, tmp_path):
        from repro.experiments.parallel import read_checkpoint_payload

        tasks = self._tasks(count=1)
        execute_cells(tasks, checkpoint_dir=tmp_path, obs=self._obs())
        (payload_file,) = tmp_path.glob("cell-*.bin")
        payload = read_checkpoint_payload(payload_file)
        for key in ("events", "trace_events", "metrics", "profile"):
            assert key not in payload


# ---------------------------------------------------------------------------
# Satellite: RunRecorder.series validates names even when empty


class TestRunRecorderSeries:
    def test_unknown_name_raises_even_with_no_rows(self):
        recorder = RunRecorder(observables={"alpha": lambda s: 1.0})
        with pytest.raises(KeyError):
            recorder.series("alhpa")  # typo must not return []

    def test_known_names_allowed_when_empty(self):
        recorder = RunRecorder(observables={"alpha": lambda s: 1.0})
        assert recorder.series("alpha") == []
        assert recorder.series("iteration") == []
