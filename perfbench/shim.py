"""Child-process entry of the benchmark: one ``repro`` CLI command.

    python3 perfbench/shim.py --timing FILE [--trace-dir DIR | --setup-only] -- <repro arguments>

Runs ``repro.cli.main`` on the given arguments in this process and
writes FILE as JSON: ``time.perf_counter`` marks at the first harness
call (``run_figure3`` / ``run_sweep`` / ``measure_figure2``) and at the
CLI's return, this process's pid, the multiprocessing start method,
and the exit status.  With ``--trace-dir`` the layer spans of
``layers.py`` are installed first and written to DIR.  With
``--setup-only`` the command stops at the harness call: a set-up probe.
"""

from __future__ import annotations

import argparse
import functools
import json
import multiprocessing
import os
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent


class SetupDone(Exception):
    """Raised at the harness call of a ``--setup-only`` probe."""


def main(argv) -> int:
    split = argv.index("--")
    parser = argparse.ArgumentParser(prog="perfbench/shim.py")
    parser.add_argument("--timing", required=True)
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("--setup-only", action="store_true")
    options = parser.parse_args(argv[:split])
    command = argv[split + 1:]

    sys.path.insert(0, str(BENCH.parent / "src"))
    sys.path.insert(0, str(BENCH))
    import layers
    import repro.cli as cli
    from repro.experiments import figure2, figure3, sweep

    tracer = None
    if options.trace_dir is not None:
        tracer = layers.Tracer(Path(options.trace_dir))
        layers.install(tracer)

    marks = {}

    def marked(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            marks.setdefault("harness_start", time.perf_counter())
            if options.setup_only:
                raise SetupDone
            return fn(*args, **kwargs)

        return wrapper

    for module, name in (
        (figure3, "run_figure3"),
        (sweep, "run_sweep"),
        (figure2, "measure_figure2"),
    ):
        original = getattr(module, name)
        layers.replace_everywhere(original, marked(original))

    try:
        status = cli.main(command)
    except SetupDone:
        status = 0
    marks["cli_end"] = time.perf_counter()
    if tracer is not None:
        tracer.flush()
    marks.update(
        pid=os.getpid(),
        start_method=multiprocessing.get_start_method(),
        status=status,
    )
    Path(options.timing).write_text(json.dumps(marks), encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
