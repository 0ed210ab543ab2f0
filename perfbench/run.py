#!/usr/bin/env python3
"""End-to-end benchmark of the ``repro`` CLI on four paper workloads.

    python3 perfbench/run.py --workload fig3-grid --seed 7 --seconds 20 --trace 0

One run repeats a workload's CLI command, each time in a fresh child
process (``shim.py``), until ``--seconds`` have passed (at least
:data:`MIN_COMMANDS` times), checks every command's output, and prints
two JSON lines on stdout: a report (provenance, inputs, every
command's values, the checks), then the result line:
``correct``, ``attempted`` and ``failed`` cells, and every metric as
the mean over the run's seeds (:func:`sub_seeds`) of each seed's
median over its commands.

``--trace 0`` reports the end-to-end metrics of untraced commands.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones (``layers.py``); the difference
of the traced and untraced ``wall_s`` medians is the tracing overhead.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
#: Checkpoint directories stay here after their run: on an ext4 disk
#: mounted with ``discard``, unlinking a file that was fsynced takes
#: ~50 ms, so deleting a 256-file store would outlast the run itself.
KEPT = WORK / "checkpoints"
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402

#: Seed whose stdout digests and exact counts are pinned in pinned.json.
DEFAULT_SEED = 2018
#: Pool size of the process workloads: never more than the cores.
WORKERS = min(2, len(os.sched_getaffinity(0)))
#: Fewest untraced (and, with --trace 1, traced) commands in a run.
MIN_COMMANDS = 3
MIN_TRACED = 2
#: Set-up probes per run: commands stopped at the harness call, so
#: setup_s is a median over many samples at little cost.
SETUP_PROBES = 8
#: Every run ends well inside 180 s, however long its commands take.
RUN_BUDGET_S = 170.0

FIG3_ITERATIONS = 400_000
SWEEP_LAMBDAS = ("0.5", "1", "1.5", "2", "3", "4", "5", "6")
SWEEP_GAMMAS = ("0.8", "1", "1.5", "2", "3", "4", "5", "6")
SWEEP_REPLICAS = 4
SWEEP_ITERATIONS = 20_000
FIG2_REPLICAS = 32
FIG2_STEPS = 500_000

#: Counts that must repeat exactly at a fixed seed.
EXACT_COUNTS = (
    "chain.steps", "batch.replica_steps", "codec.encode_bytes",
    "codec.decode_bytes", "io.writes", "certificate.calls", "engine.units",
)

#: Corner phases of benchmarks/test_bench_figure3.py: (lam, gamma) ->
#: predicate on the printed abbreviation.
FIG3_CORNERS = {
    ("4.00", "4.00"): lambda phase: phase == "CS",
    ("6.00", "1.00"): lambda phase: phase == "CI",
    ("1.00", "1.00"): lambda phase: phase == "EI",
    ("0.50", "6.00"): lambda phase: phase in ("CS", "ES"),
}


def _fig3_argv(seed: int, checkpoint: str) -> List[str]:
    return [
        "figure3", "-n", "100", "--iterations", str(FIG3_ITERATIONS),
        "--workers", str(WORKERS), "--checkpoint", checkpoint,
        "--diag-every", "500", "--seed", str(seed), "--quiet",
    ]


def _sweep_argv(seed: int, checkpoint: str) -> List[str]:
    return [
        "sweep", "--lambdas", *SWEEP_LAMBDAS, "--gammas", *SWEEP_GAMMAS,
        "-n", "100", "--replicas", str(SWEEP_REPLICAS),
        "--iterations", str(SWEEP_ITERATIONS), "--workers", str(WORKERS),
        "--checkpoint", checkpoint, "--seed", str(seed), "--quiet",
    ]


def _resume_argv(seed: int, checkpoint: str) -> List[str]:
    return _sweep_argv(seed, checkpoint) + ["--resume"]


def _fig2_argv(seed: int, checkpoint: Optional[str]) -> List[str]:
    return [
        "figure2", "-n", "100", "--kernel", "batch",
        "--replicas", str(FIG2_REPLICAS), "--measure-every", "100",
        "--steps", str(FIG2_STEPS), "--seed", str(seed), "--quiet",
    ]


@dataclass(frozen=True)
class Workload:
    """One CLI command shape and the bases its rates are stated on."""

    name: str
    argv: Callable[[int, Optional[str]], List[str]]
    #: Replica cells one command completes (the ``attempted`` unit).
    cells: int
    #: Chain steps (replica-steps for the batch kernel) the printed
    #: result reflects; ``sweep-resume`` restores them from its store.
    steps: int
    inputs: Dict[str, Any]
    checkpoint: bool = True
    #: Reads a checkpoint store built once per run and seed instead of
    #: a fresh directory per command.
    store: bool = False
    #: Seeds per run (see :func:`sub_seeds`).  Each seed's work differs,
    #: so a run averages its seeds' medians; more seeds where the work
    #: varies most between seeds.
    seeds: int = 1


_SWEEP_INPUTS = {
    "n": 100, "cells": len(SWEEP_LAMBDAS) * len(SWEEP_GAMMAS),
    "replicas": SWEEP_REPLICAS, "steps_per_cell": SWEEP_ITERATIONS,
    "workers": WORKERS,
}
_SWEEP_TASKS = len(SWEEP_LAMBDAS) * len(SWEEP_GAMMAS) * SWEEP_REPLICAS

WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "fig3-grid", _fig3_argv, cells=25, steps=25 * FIG3_ITERATIONS,
            inputs={"n": 100, "cells": 25, "replicas": 1,
                    "steps_per_cell": FIG3_ITERATIONS, "workers": WORKERS,
                    "diag_every": 500},
            seeds=2,
        ),
        Workload(
            "sweep-short", _sweep_argv, cells=_SWEEP_TASKS,
            steps=_SWEEP_TASKS * SWEEP_ITERATIONS, inputs=_SWEEP_INPUTS,
            seeds=2,
        ),
        Workload(
            "sweep-resume", _resume_argv, cells=_SWEEP_TASKS,
            steps=_SWEEP_TASKS * SWEEP_ITERATIONS, inputs=_SWEEP_INPUTS,
            store=True, seeds=6,
        ),
        Workload(
            "fig2-batch-trace", _fig2_argv, cells=FIG2_REPLICAS,
            steps=FIG2_REPLICAS * FIG2_STEPS,
            inputs={"n": 100, "cells": 1, "replicas": FIG2_REPLICAS,
                    "steps_per_cell": FIG2_STEPS, "measure_every": 100,
                    "workers": 0},
            checkpoint=False,
        ),
    )
}


@dataclass
class Command:
    """One child-process CLI command and what it measured."""

    seed: int
    traced: bool
    errors: List[str] = field(default_factory=list)
    stdout: bytes = b""
    values: Dict[str, float] = field(default_factory=dict)
    layer_metrics: Dict[str, float] = field(default_factory=dict)
    start_method: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.errors


class Run:
    """State of one benchmark run: its work directory and deadline."""

    def __init__(self, workload: Workload, work: Path):
        self.workload = workload
        self.work = work
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.count = 0

    def spawn(self, argv: List[str], trace_dir: Optional[Path] = None,
              setup_only: bool = False):
        """Run one CLI command; returns (status, stdout, timing, usage)."""
        self.count += 1
        tag = f"{self.count:03d}"
        timing_path = self.work / f"timing-{tag}.json"
        stdout_path = self.work / f"stdout-{tag}.txt"
        stderr_path = self.work / f"stderr-{tag}.txt"
        cmd = [sys.executable, str(BENCH / "shim.py"),
               "--timing", str(timing_path)]
        if trace_dir is not None:
            cmd += ["--trace-dir", str(trace_dir)]
        if setup_only:
            cmd.append("--setup-only")
        cmd += ["--", *argv]
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            spawned = time.perf_counter()
            child = subprocess.Popen(
                cmd, cwd=ROOT, stdout=out, stderr=err,
                start_new_session=True,
            )
            status, usage = self._wait(child)
        timing = (
            json.loads(timing_path.read_text(encoding="utf-8"))
            if timing_path.exists() else {}
        )
        timing["spawned"] = spawned
        timing["stderr_tail"] = stderr_path.read_text(
            encoding="utf-8", errors="replace")[-2000:]
        return status, stdout_path.read_bytes(), timing, usage

    def _wait(self, child: subprocess.Popen):
        """Reap ``child`` with its resource usage, killing it at the
        deadline; its process group (the pool workers) goes with it."""
        while True:
            pid, status, usage = os.wait4(child.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > self.deadline:
                os.killpg(child.pid, signal.SIGKILL)
                _, status, usage = os.wait4(child.pid, 0)
                break
            time.sleep(0.005)
        child.returncode = os.waitstatus_to_exitcode(status)
        _await_group(child.pid)
        return child.returncode, usage


def _await_group(pgid: int, timeout: float = 10.0) -> None:
    """Wait until no process of group ``pgid`` is left."""
    stop = time.monotonic() + timeout
    while time.monotonic() < stop:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def tree_digest(directory: Path) -> str:
    """sha256 over the names and bytes of every file in ``directory``."""
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(directory)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def checkpoint_bytes(directory: Path) -> int:
    """Bytes in a checkpoint directory, less the ``wall_time`` digits.

    Each checkpoint header records its cell's wall time as a decimal
    float whose length varies between runs; leaving those characters
    out makes the count exact at a fixed seed.
    """
    from repro.util.codec import peek_checkpoint_meta

    total = 0
    for path in directory.rglob("*"):
        if not path.is_file():
            continue
        blob = path.read_bytes()
        total += len(blob)
        if path.suffix == ".bin":
            total -= layers.clock_digits(peek_checkpoint_meta(blob))
    return total


def fig3_corner_errors(stdout: bytes) -> List[str]:
    """Corner phases of the printed Figure 3 grid that are wrong."""
    lines = stdout.decode().splitlines()
    gammas = lines[0].split()[1:]
    grid = {}
    for line in lines[2:]:
        fields = line.split()
        if len(fields) == len(gammas) + 1 and fields[0][0].isdigit():
            for gamma, phase in zip(gammas, fields[1:]):
                grid[(fields[0], gamma)] = phase
    return [
        f"fig3 corner lam={lam} gamma={gamma} is {grid.get((lam, gamma))}"
        for (lam, gamma), ok in FIG3_CORNERS.items()
        if not ok(grid.get((lam, gamma), ""))
    ]


def run_command(run: Run, seed: int, traced: bool,
                store: Optional[Path]) -> Command:
    """Spawn one command of ``run``'s workload at ``seed`` and measure it."""
    workload = run.workload
    command = Command(seed=seed, traced=traced)
    checkpoint = store
    if workload.checkpoint and not workload.store:
        checkpoint = KEPT / f"{run.work.name}-{run.count + 1:03d}"
    trace_dir = None
    if traced:
        trace_dir = run.work / f"trace-{run.count + 1:03d}"
        trace_dir.mkdir()
    status, stdout, timing, usage = run.spawn(
        workload.argv(seed, str(checkpoint) if checkpoint else None),
        trace_dir,
    )
    command.stdout = stdout
    command.start_method = timing.get("start_method")
    if status != 0 or "harness_start" not in timing:
        command.errors.append(
            f"exit status {status}: {timing['stderr_tail'].strip()}"
        )
        return command
    start, end = timing["harness_start"], timing["cli_end"]
    wall = end - start
    out_bytes = len(stdout)
    if checkpoint is not None:
        out_bytes += checkpoint_bytes(checkpoint)
    command.values = {
        "setup_s": start - timing["spawned"],
        "wall_s": wall,
        "steps_per_s": workload.steps / wall,
        "cells_per_s": workload.cells / wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "out_bytes": out_bytes,
    }
    if trace_dir is not None:
        spans = layers.load_spans(trace_dir)
        # Kept after the run (the work directory is not) for Perfetto.
        layers.save_trace(spans, WORK / f"trace-{workload.name}.json")
        command.layer_metrics = layers.analyze(
            spans, timing["pid"], (start, end),
            WORKERS if workload.inputs["workers"] else 0,
        )
        command.layer_metrics["trace.wall_s"] = wall
        _check_accounting(command)
    return command


def _check_accounting(command: Command) -> None:
    """Traced-run accounting: parent coverage and worker reconciliation."""
    metrics = command.layer_metrics
    if metrics["trace.parent_coverage"] < 0.95:
        command.errors.append(
            f"layer self times cover only "
            f"{metrics['trace.parent_coverage']:.3f} of wall_s"
        )
    if metrics["engine.workers_seen"] and metrics["engine.reconcile_err"] > 0.05:
        command.errors.append(
            f"worker busy + idle misses workers x engine.wall_s by "
            f"{metrics['engine.reconcile_err']:.3f}"
        )


def provenance() -> Dict[str, Any]:
    """What ran: code, interpreter, libraries, cores."""
    import numpy

    commit = None
    try:
        found = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        if found.returncode == 0:
            commit = found.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        source.update(path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def sub_seeds(seed: int, count: int) -> List[int]:
    """A run's workload seeds: ``seed`` itself, then ones derived from it."""
    return [seed + 7919 * k for k in range(count)]


def _seed_mean(commands: List[Command], value: Callable[[Command], float],
               seeds: List[int]) -> Dict[str, Any]:
    """Each seed's median of ``value`` over its commands, and their mean."""
    medians = [
        statistics.median(value(c) for c in commands if c.seed == seed)
        for seed in seeds
        if any(c.seed == seed for c in commands)
    ]
    return {"value": statistics.fmean(medians), "seed_medians": medians,
            "n": len(commands)}


def measure(workload: Workload, seed: int, seconds: int, trace: bool,
            work: Path) -> Dict[str, Any]:
    run = Run(workload, work)
    seeds = sub_seeds(seed, workload.seeds)
    report: Dict[str, Any] = {
        "workload": workload.name, "seed": seed, "workload_seeds": seeds,
        "seconds": seconds, "trace": int(trace), "inputs": workload.inputs,
        "argv": workload.argv(seed, "<checkpoint-dir>"),
        "provenance": provenance(),
    }
    errors: List[str] = []
    pinned = json.loads((BENCH / "pinned.json").read_text(encoding="utf-8"))
    expected = pinned["workloads"].get(workload.name, {})

    references: Dict[int, bytes] = {}
    stores: Dict[int, Path] = {}
    store_digests: Dict[int, str] = {}
    if workload.store:
        # Set-up work, outside setup_s: the stores the resume reads, built
        # by the sweep-short command at each seed.  Their stdout is what
        # every resume must print.
        built = time.perf_counter()
        for sub in seeds:
            store = KEPT / f"{work.name}-store-{sub}"
            status, stdout, timing, _ = run.spawn(_sweep_argv(sub, str(store)))
            if status != 0:
                errors.append(f"store build failed: {timing['stderr_tail']}")
                continue
            stores[sub], references[sub] = store, stdout
            store_digests[sub] = tree_digest(store)
        report["store"] = {
            "build_s": time.perf_counter() - built,
            "stores": len(stores),
            "bytes": [checkpoint_bytes(store) for store in stores.values()],
            "note": "resume reads come from the page cache: each store is "
                    "written by this run seconds before it is read",
        }

    setups: List[float] = []
    for _ in range(SETUP_PROBES):
        status, _, timing, _ = run.spawn(
            workload.argv(seed, str(work / "probe")), setup_only=True)
        if status != 0 or "harness_start" not in timing:
            errors.append(f"set-up probe failed: {timing['stderr_tail']}")
            break
        setups.append(timing["harness_start"] - timing["spawned"])

    # Rounds of one command per seed; with --trace 1 untraced and traced
    # rounds alternate.
    min_rounds = (
        2 * math.ceil(MIN_TRACED / len(seeds)) if trace
        else math.ceil(MIN_COMMANDS / len(seeds))
    )
    commands: List[Command] = []
    started = time.perf_counter()
    rounds = 0
    while not errors and not (
        rounds >= min_rounds and time.perf_counter() - started >= seconds
    ):
        if time.monotonic() > run.deadline - 30:
            errors.append("run budget exhausted before enough commands")
            break
        for sub in seeds:
            command = run_command(
                run, sub, trace and rounds % 2 == 1, stores.get(sub))
            _check_output(command, workload, references, expected)
            if sub in stores and tree_digest(stores[sub]) != store_digests[sub]:
                command.errors.append("resume changed its checkpoint store")
            commands.append(command)
        rounds += 1

    # Exact counts repeat across the commands of one seed and match the
    # pinned values at the default seed.
    ok = [c for c in commands if c.ok]
    counts: Dict[str, Dict[str, Any]] = {}
    for sub in seeds:
        mine = [c for c in ok if c.seed == sub]
        found: Dict[str, Any] = {}
        for name in ("out_bytes",) + EXACT_COUNTS:
            seen = sorted({
                c.values[name] if name in c.values else c.layer_metrics[name]
                for c in mine if name in c.values or name in c.layer_metrics
            })
            if seen:
                found[name] = seen[0] if len(seen) == 1 else seen
        for name, value in found.items():
            if isinstance(value, list):
                errors.append(f"seed {sub}: {name} differs between "
                              f"commands: {value}")
            elif sub == DEFAULT_SEED and name in expected.get("counts", {}):
                if expected["counts"][name] != value:
                    errors.append(f"{name} = {value}, pinned "
                                  f"{expected['counts'][name]}")
        counts[str(sub)] = found
    report["counts"] = counts
    report["stdout_sha256"] = {
        str(sub): hashlib.sha256(stdout).hexdigest()
        for sub, stdout in references.items()
    }
    report["commands"] = [
        {"seed": c.seed, "traced": c.traced, "ok": c.ok, "errors": c.errors,
         "start_method": c.start_method, **c.values}
        for c in commands
    ]
    report["errors"] = errors

    attempted = workload.cells * len(commands)
    failed = workload.cells * sum(1 for c in commands if not c.ok)
    if errors:
        failed = attempted
    untraced = [c for c in ok if not c.traced]
    traced = [c for c in ok if c.traced]
    if not untraced or (trace and not traced):
        return {"report": report, "result": None}
    summary: Dict[str, Dict[str, Any]] = {}
    if trace:
        unseen: List[str] = []
        if workload.inputs["workers"] and any(
            c.start_method != "fork" for c in traced
        ):
            # Spawned or forkserver workers start without the wrappers.
            unseen = [n for n in traced[0].layer_metrics
                      if n.startswith(layers.WORKER_METRICS)]
        report["unseen_worker_metrics"] = unseen
        for name in traced[0].layer_metrics:
            if name not in unseen:
                summary[name] = _seed_mean(
                    traced, lambda c: c.layer_metrics[name], seeds)
        overhead = summary["trace.wall_s"]["value"] - _seed_mean(
            untraced, lambda c: c.values["wall_s"], seeds)["value"]
        summary["trace.overhead_s"] = {"value": overhead}
    else:
        for name in untraced[0].values:
            summary[name] = _seed_mean(
                untraced, lambda c: c.values[name], seeds)
        pooled = setups + [c.values["setup_s"] for c in untraced]
        summary["setup_s"] = {"value": statistics.median(pooled),
                              "n": len(pooled)}
    units = _units()
    report["summary"] = summary
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": stats["value"], "unit": units[name]}
            for name, stats in summary.items()
        },
    }
    return {"report": report, "result": result}


def _check_output(command: Command, workload: Workload,
                  references: Dict[int, bytes],
                  expected: Dict[str, Any]) -> None:
    """Output checks: same stdout for a seed (resume: the store build's),
    fig3 corner phases, and the pinned digest at the default seed."""
    if not command.ok:
        return
    reference = references.setdefault(command.seed, command.stdout)
    if command.stdout != reference:
        command.errors.append("stdout differs from the first command at "
                              "this seed (for resume, the store build's)")
    if workload.name == "fig3-grid":
        command.errors.extend(fig3_corner_errors(command.stdout))
    if command.seed == DEFAULT_SEED and expected:
        digest = hashlib.sha256(command.stdout).hexdigest()
        if digest != expected["stdout_sha256"]:
            command.errors.append(f"stdout sha256 {digest} != pinned")


def _units() -> Dict[str, str]:
    """Every metric's unit, as ``BENCHMARK.json`` declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        metric["name"]: metric["unit"]
        for metric in spec["end_to_end"] + spec["per_layer"]
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no repro source tree under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    KEPT.mkdir(exist_ok=True)
    try:
        outcome = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(outcome["report"]))
    if outcome["result"] is None:
        print("perfbench: no command completed; see the report line",
              file=sys.stderr)
        return 1
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
