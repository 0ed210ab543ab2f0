"""Layer spans for the traced benchmark run, recorded from outside ``src/``.

:func:`install` wraps the public functions of each layer of the
``repro`` package at every name a caller looks them up by (a function
imported with ``from x import f`` is reached through a second module
attribute), so nothing inside ``src/`` changes.  Spans go into one
:class:`repro.obs.TraceRecorder` per process, timed with
``time.perf_counter`` (``CLOCK_MONOTONIC`` on Linux, so worker and
parent timestamps share one axis).  The wrappers are installed before
the process pool forks, so pool workers inherit them; a worker appends
its spans to ``spans-<pid>.jsonl`` each time a cell returns, and the
parent writes its own when the command ends (:meth:`Tracer.flush`).

:func:`analyze` turns the span files of one command into the per-layer
metrics listed in ``perfbench/README.md``.  A layer's self time is its
spans' duration minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Metric prefixes measured inside pool workers on the process backend.
WORKER_METRICS = (
    "chain.", "diag.", "codec.", "io.", "engine.worker", "engine.cell",
    "engine.tail", "engine.return_wait", "engine.reconcile", "engine.retries",
)


def clock_digits(payload: Any) -> int:
    """Characters of the ``wall_time`` clock reading a checkpoint header holds.

    Its decimal form changes length from run to run, so exact byte
    counts leave it out.
    """
    if isinstance(payload, dict) and "wall_time" in payload:
        return len(json.dumps(payload["wall_time"]))
    return 0


class Tracer:
    """In-memory span recorder shared by every installed wrapper."""

    def __init__(self, out_dir: Path):
        from repro.obs import TraceRecorder

        self.out_dir = Path(out_dir)
        self.parent_pid = os.getpid()
        self._factory = TraceRecorder
        self._pid: Optional[int] = None
        self._recorder = None
        self._depth: Dict[Tuple[int, str], int] = {}

    def recorder(self):
        """This process's recorder; a forked worker starts an empty one."""
        pid = os.getpid()
        if pid != self._pid:
            role = "parent" if pid == self.parent_pid else "worker"
            self._pid = pid
            self._recorder = self._factory(
                process_name=f"perfbench-{role}", clock=time.perf_counter
            )
            self._depth = {}
        return self._recorder

    def flush(self) -> None:
        """Append this process's spans to its span file and drop them."""
        recorder = self.recorder()
        events, recorder.events = recorder.events, []
        if not events:
            return
        path = self.out_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for event in events:
                handle.write(json.dumps(event) + "\n")

    def wrap(
        self,
        layer: str,
        fn: Callable,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
        flush: bool = False,
    ) -> Callable:
        """``fn`` wrapped in a ``layer`` span.

        ``before(*args)`` runs before the call and ``after(state,
        result, *args)`` returns span arguments (counts).  ``top=0``
        marks a span nested in another span of the same layer on its
        thread, so a layer function that calls another one can be
        counted once.  With ``flush`` a worker writes its spans to disk
        when the call returns.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            recorder = self.recorder()
            key = (threading.get_ident(), layer)
            depth = self._depth.get(key, 0)
            self._depth[key] = depth + 1
            state = before(*args, **kwargs) if before is not None else None
            extra: Dict[str, Any] = {}
            start = recorder.now()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    extra = after(state, result, *args, **kwargs)
                return result
            finally:
                end = recorder.now()
                self._depth[key] = depth
                recorder.complete(
                    fn.__name__, start, end, category=layer,
                    top=int(not depth), **extra,
                )
                if flush and os.getpid() != self.parent_pid:
                    self.flush()

        return wrapper


def replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement``: the names callers look the function up by."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _public_functions(module, prefixes: Iterable[str] = ("",)) -> List[str]:
    return sorted(
        name
        for name, value in vars(module).items()
        if callable(value)
        and not isinstance(value, type)
        and getattr(value, "__module__", None) == module.__name__
        and not name.startswith("_")
        and any(name.startswith(prefix) for prefix in prefixes)
    )


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions with ``tracer`` spans."""
    import repro.analysis.separation_metric as certificate
    import repro.cli as cli
    import repro.core.batch_kernel as batch_kernel
    import repro.core.separation_chain as separation_chain
    import repro.experiments.figure2 as figure2
    import repro.experiments.figure3 as figure3
    import repro.experiments.parallel as parallel
    import repro.experiments.phases as phases
    import repro.experiments.sweep as sweep
    import repro.obs.convergence as convergence
    import repro.system.observables as observables
    import repro.util.codec as codec
    import repro.util.serialization as serialization

    def function(layer, module, name, **hooks):
        original = getattr(module, name)
        replace_everywhere(original, tracer.wrap(layer, original, **hooks))

    def method(layer, cls, name, **hooks):
        setattr(cls, name, tracer.wrap(layer, getattr(cls, name), **hooks))

    # core.separation_chain: the scalar step loop.
    def chain_counts(chain, *args, **kwargs):
        return chain.iterations, chain.accepted_moves + chain.accepted_swaps

    def chain_delta(state, result, chain, *args, **kwargs):
        steps, accepted = chain_counts(chain)
        return {"steps": steps - state[0], "accepted": accepted - state[1]}

    for name in ("run", "run_until"):
        method("chain", separation_chain.SeparationChain, name,
               before=chain_counts, after=chain_delta)

    # core.batch_kernel: the replica-batched step loop.
    def batch_counts(kernel, *args, **kwargs):
        accepted = kernel.acc_moves.sum() + kernel.acc_swaps.sum()
        return int(kernel.iters.sum()), int(accepted)

    def batch_delta(state, result, kernel, *args, **kwargs):
        steps, accepted = batch_counts(kernel)
        return {"steps": steps - state[0], "accepted": accepted - state[1]}

    method("batch", batch_kernel.BatchKernel, "run",
           before=batch_counts, after=batch_delta)

    # system.observables and the batch kernel's O(1) counter reads.
    for name in ("perimeters", "het_edges", "edge_totals"):
        method("observables", batch_kernel.BatchKernel, name)
    for name in _public_functions(observables):
        function("observables", observables, name)

    # obs.convergence: streaming diagnostics samples.
    for name in ("observe_chain", "maybe_record"):
        method("diag", convergence.ChainDiagnostics, name)

    # util.codec: every encode_*/decode_* entry point.
    def encoded_bytes(state, result, payload=None, *args, **kwargs):
        return {"bytes": len(result) - clock_digits(payload)}

    def decoded_bytes(state, result, blob, *args, **kwargs):
        return {"bytes": len(blob) - clock_digits(result)}

    for name in _public_functions(codec, ("encode_",)):
        function("codec", codec, name, after=encoded_bytes)
    for name in _public_functions(codec, ("decode_",)):
        function("codec", codec, name, after=decoded_bytes)

    # util.serialization writes (fsync included) and checkpoint reads.
    def written_bytes(state, result, data, *args, **kwargs):
        return {"bytes": len(data)}

    function("io", serialization, "save_bytes", after=written_bytes)
    function("io", serialization, "save_payload")
    function("io", serialization, "load_payload")
    function("io", parallel, "read_checkpoint_payload")

    # experiments.parallel engine, parent side.
    def unit_count(state, result, *args, **kwargs):
        return {"units": len(result)}

    def payload_key(state, result, payload, *args, **kwargs):
        return {"key": payload.get("key")}

    function("engine", parallel, "dispatch_cells")
    function("engine", parallel, "execute_cells")
    function("engine", parallel, "_plan_chunks", after=unit_count)
    function("engine", parallel, "write_checkpoint_payload",
             after=payload_key)

    # experiments.parallel worker entry points; spans flushed per cell.
    function("worker", parallel, "run_cell", after=payload_key, flush=True)
    function("worker", parallel, "run_cell_chunk", flush=True)
    function("worker", parallel, "run_batch_group", flush=True)
    function("worker", parallel, "warm_worker")

    # experiments.phases + analysis.separation_metric: parent-side
    # classification after the engine returns.
    function("phases", phases, "classify_phase")
    function("phases", phases, "phase_metrics")
    function("certificate", certificate, "best_certificate")

    # Harness entry points and the CLI command handlers.
    function("harness", figure3, "run_figure3")
    function("harness", sweep, "run_sweep")
    function("harness", figure2, "measure_figure2")
    function("harness", figure2, "run_figure2")
    for command, handler in list(cli._HANDLERS.items()):
        cli._HANDLERS[command] = tracer.wrap("harness", handler)


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------


def load_spans(out_dir: Path) -> List[Dict[str, Any]]:
    """Every complete span one traced command recorded."""
    spans = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                event = json.loads(line)
                if event.get("ph") == "X":
                    event["start"] = event["ts"] / 1e6
                    event["end"] = (event["ts"] + event["dur"]) / 1e6
                    event.setdefault("args", {})
                    spans.append(event)
    return spans


def save_trace(spans: List[Dict[str, Any]], path: Path) -> None:
    """Write spans as one Perfetto-loadable trace file."""
    from repro.obs import TraceRecorder

    recorder = TraceRecorder()
    recorder.extend(
        {k: v for k, v in span.items() if k not in ("start", "end")}
        for span in spans
    )
    recorder.save(path)


def _exclusive(
    spans: List[Dict[str, Any]], lo: float, hi: float
) -> Tuple[Dict[int, float], float]:
    """Self time of each span of one thread, clipped to ``[lo, hi]``.

    Returns ``({id(span): self_seconds}, uncovered_seconds)``.  Spans of
    one thread nest, so a stack sweep hands every instant to the
    innermost span covering it.
    """
    own: Dict[int, float] = defaultdict(float)
    uncovered = 0.0
    stack: List[Dict[str, Any]] = []
    cursor = lo

    def give(until: float) -> None:
        nonlocal cursor, uncovered
        until = min(until, hi)
        if until > cursor:
            if stack:
                own[id(stack[-1])] += until - cursor
            else:
                uncovered += until - cursor
            cursor = until

    for span in sorted(spans, key=lambda s: (s["start"], -s["end"])):
        while stack and stack[-1]["end"] <= span["start"]:
            give(stack[-1]["end"])
            stack.pop()
        give(span["start"])
        stack.append(span)
    while stack:
        give(stack[-1]["end"])
        stack.pop()
    give(hi)
    return own, uncovered


def _percentile(values: List[float], share: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def analyze(
    spans: List[Dict[str, Any]],
    parent_pid: int,
    window: Tuple[float, float],
    workers: int,
) -> Dict[str, float]:
    """Per-layer metrics of one traced command.

    ``window`` is the end-to-end ``wall_s`` interval (harness call to
    CLI return) on the ``perf_counter`` axis; parent self times are
    clipped to it, worker spans count whole.
    """
    lo, hi = window
    threads: Dict[Tuple[int, int], List[Dict[str, Any]]] = defaultdict(list)
    for span in spans:
        threads[(span["pid"], span["tid"])].append(span)
    self_time: Dict[int, float] = {}
    parent_uncovered = 0.0
    for (pid, _), group in threads.items():
        if pid == parent_pid:
            own, uncovered = _exclusive(group, lo, hi)
            parent_uncovered += uncovered
        else:
            own, _ = _exclusive(
                group,
                min(s["start"] for s in group),
                max(s["end"] for s in group),
            )
        self_time.update(own)

    def of(layer: str, prefix: str = "", outermost: bool = False,
           parent: Optional[bool] = None) -> List[Dict[str, Any]]:
        return [
            s for s in spans
            if s.get("cat") == layer
            and s["name"].startswith(prefix)
            and (not outermost or s["args"].get("top"))
            and (parent is None or (s["pid"] == parent_pid) == parent)
        ]

    def busy(items: List[Dict[str, Any]]) -> float:
        return sum(self_time.get(id(s), 0.0) for s in items)

    def total(items: List[Dict[str, Any]], field: str) -> int:
        return int(sum(s["args"].get(field, 0) for s in items))

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator > 0 else 0.0

    metrics: Dict[str, float] = {}
    chain = of("chain", outermost=True)
    metrics["chain.busy_s"] = busy(of("chain"))
    metrics["chain.steps"] = total(chain, "steps")
    metrics["chain.steps_per_busy_s"] = ratio(
        metrics["chain.steps"], metrics["chain.busy_s"])
    metrics["chain.accept_frac"] = ratio(
        total(chain, "accepted"), metrics["chain.steps"])

    batch = of("batch", outermost=True)
    metrics["batch.busy_s"] = busy(of("batch"))
    metrics["batch.calls"] = len(batch)
    metrics["batch.replica_steps"] = total(batch, "steps")
    metrics["batch.replica_steps_per_busy_s"] = ratio(
        metrics["batch.replica_steps"], metrics["batch.busy_s"])
    metrics["batch.accept_frac"] = ratio(
        total(batch, "accepted"), metrics["batch.replica_steps"])

    metrics["observables.busy_s"] = busy(of("observables"))
    metrics["observables.reads"] = len(of("observables", outermost=True))
    metrics["diag.busy_s"] = busy(of("diag"))
    metrics["diag.observations"] = len(of("diag", outermost=True))

    for kind in ("encode", "decode"):
        calls = of("codec", kind + "_", outermost=True)
        metrics[f"codec.{kind}_s"] = busy(of("codec", kind + "_"))
        metrics[f"codec.{kind}_calls"] = len(calls)
        metrics[f"codec.{kind}_bytes"] = total(calls, "bytes")

    writes = of("io", "save_", outermost=True)
    reads = [s for s in of("io", outermost=True) if s not in writes]
    metrics["io.write_s"] = busy(writes)
    metrics["io.writes"] = len(writes)
    metrics["io.write_bytes"] = total(writes, "bytes")
    metrics["io.read_s"] = busy(reads)
    metrics["io.reads"] = len(reads)

    metrics.update(_engine_metrics(spans, parent_pid, workers))
    metrics["engine.parent_self_s"] = busy(of("engine", parent=True))
    metrics["engine.worker_self_s"] = busy(of("worker", parent=False))
    units = total(of("engine", "_plan_chunks"), "units")
    attempts = sum(
        1 for s in of("worker", outermost=True, parent=False)
        if s["name"] != "warm_worker"
    )
    metrics["engine.units"] = units
    metrics["engine.retries"] = max(0, attempts - units)

    metrics["phases.busy_s"] = busy(of("phases"))
    metrics["phases.calls"] = len(of("phases", outermost=True))
    metrics["certificate.busy_s"] = busy(of("certificate"))
    metrics["certificate.calls"] = len(of("certificate", outermost=True))
    metrics["harness.self_s"] = busy(of("harness", parent=True))
    metrics["trace.parent_coverage"] = ratio(
        (hi - lo) - parent_uncovered, hi - lo)
    return metrics


def _engine_metrics(
    spans: List[Dict[str, Any]], parent_pid: int, workers: int
) -> Dict[str, float]:
    """``engine.*`` timings: wall, worker busy/idle, tail, return wait."""
    windows = [
        (s["start"], s["end"]) for s in spans
        if s.get("cat") == "engine" and s["name"] == "execute_cells"
        and s["pid"] == parent_pid
    ]
    wall = sum(end - start for start, end in windows)
    outer = [
        s for s in spans
        if s.get("cat") == "worker" and s["pid"] != parent_pid
        and s["args"].get("top")
    ]
    pids = sorted({s["pid"] for s in outer})
    busy = idle = 0.0
    last_ends = []
    for pid in pids:
        mine = sorted(
            (s for s in outer if s["pid"] == pid), key=lambda s: s["start"]
        )
        last_ends.append(mine[-1]["end"])
        for start, end in windows:
            cursor = start
            for span in mine:
                if span["end"] <= start or span["start"] >= end:
                    continue
                span_start = max(span["start"], start)
                span_end = min(span["end"], end)
                idle += span_start - cursor
                busy += span_end - span_start
                cursor = span_end
            idle += end - cursor
    capacity = workers * wall
    engine_end = max((end for _, end in windows), default=0.0)

    cells = [
        s for s in spans
        if s.get("cat") == "worker" and s["name"] == "run_cell"
        and s["pid"] != parent_pid
    ]
    cell_end: Dict[Any, float] = {}
    for span in sorted(cells, key=lambda s: s["end"]):
        cell_end[span["args"].get("key")] = span["end"]
    wait = 0.0
    for span in spans:
        if span.get("cat") == "engine" and (
            span["name"] == "write_checkpoint_payload"
        ):
            done = cell_end.get(span["args"].get("key"))
            if done is not None:
                wait += max(0.0, span["start"] - done)
    durations = [s["end"] - s["start"] for s in cells]
    return {
        "engine.wall_s": wall,
        "engine.workers_seen": len(pids),
        "engine.worker_busy_s": busy,
        "engine.worker_idle_frac": idle / capacity if capacity > 0 else 0.0,
        "engine.reconcile_err": (
            abs(busy + idle - capacity) / capacity
            if capacity > 0 and pids else 0.0
        ),
        "engine.tail_s": (
            max(0.0, engine_end - min(last_ends)) if last_ends else 0.0
        ),
        "engine.return_wait_s": wait,
        "engine.cell_p50_s": _percentile(durations, 0.50),
        "engine.cell_p95_s": _percentile(durations, 0.95),
    }
