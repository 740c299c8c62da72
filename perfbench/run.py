"""Benchmark entry point.

    python3 perfbench/run.py --workload {mine,serve,warehouse} --seed N \\
        --seconds S --trace {0,1}

Runs one workload in this process against the program under ``src/`` of the
checkout it sits in.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  The metric names and
units are read from ``BENCHMARK.json``: with ``--trace 0`` every end-to-end
metric, each measured by every workload; with ``--trace 1`` every per-layer
metric, where a layer the workload does not call reads 0.  A traced run also
prints its end-to-end metrics on the line before, prefixed ``end_to_end``, so
``traced.py`` can report the tracing overhead.  Phase accounting and
diagnostics go to standard error.

The run fails (exit 1, ``correct: false``) if any operation failed, any
output check failed, or it leaves a child process, a thread, a scratch file
or a shared-memory segment behind.  A workload whose metrics do not match
the manifest fails without a result line.  Without the program's source
next to it the runner exits 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import traceback
from dataclasses import dataclass
from typing import Dict, Tuple

from common import ROOT, Report, Scratch, Setup, audit_leftovers, log, now, shm_segments
from spans import Spans

WORKLOADS = ("mine", "serve", "warehouse")
MANIFEST = ROOT / "BENCHMARK.json"
#: BLAS threads, pinned: the pruning path (and so the mined rules) depends
#: on the summation order, which changes with the thread count.
BLAS_THREADS = "2"


@dataclass
class Context:
    seed: int
    seconds: float
    spans: Spans
    setup: Setup
    report: Report
    scratch: Scratch


def prepare_environment() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``; pin BLAS threads."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file() or not MANIFEST.is_file():
        log(f"error: no program source at {src} or no {MANIFEST.name}; run from a checkout")
        sys.exit(2)
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = BLAS_THREADS
    sys.path.insert(0, str(src))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def manifest_units(key: str) -> Dict[str, str]:
    """Metric name -> unit for one metric list of ``BENCHMARK.json``."""
    return {m["name"]: m["unit"] for m in json.loads(MANIFEST.read_text())[key]}


def checked_metrics(measured: Dict[str, Tuple[float, str]], key: str, fill: bool) -> dict:
    """``measured`` as the result line's ``metrics``, in manifest order.

    Raises if a name or unit is not the manifest's, or (unless ``fill``
    gives 0 to the layers the workload does not call) a name is missing.
    """
    units = manifest_units(key)
    wrong = [f"{n} [{u}]" for n, (_, u) in measured.items() if units.get(n) != u]
    missing = [] if fill else [n for n in units if n not in measured]
    if wrong or missing:
        raise ValueError(f"{key}: not in the manifest: {wrong}; not measured: {missing}")
    return {n: {"value": measured.get(n, (0.0, u))[0], "unit": u} for n, u in units.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare_environment()
    shm_before = shm_segments()
    scratch = Scratch()
    spans = Spans(enabled=args.trace == 1)
    report = Report()
    setup = Setup()
    error = None
    try:
        start = now()
        workload = importlib.import_module(args.workload)
        setup.import_s = now() - start
        workload.run(Context(args.seed, args.seconds, spans, setup, report, scratch))
        report.metric("setup_s", setup.seconds, "s")
    except Exception:  # reported below; the run then fails without a result
        error = traceback.format_exc()
    finally:
        spans.uninstall()
    problems = audit_leftovers(scratch, shm_before)
    scratch.close()
    if setup.samples:
        repeats = " ".join(f"{x:.3f}" for x in setup.samples)
        log(f"setup: import {setup.import_s:.3f} s, repeats {repeats}")
    for line in spans.summary():
        log(line)
    for line in report.describe_phases():
        log(line)
    for problem in problems:
        log(f"leftover: {problem}")
    if error is None:
        try:
            end_to_end = checked_metrics(report.metrics, "end_to_end", fill=False)
            layers = checked_metrics(report.layers, "per_layer", fill=True)
        except ValueError as exc:
            error = str(exc)
    if error is not None:
        log(error)
        return 1
    correct = report.failed == 0 and not problems
    if args.trace:
        print("end_to_end " + json.dumps(end_to_end))
    result = {
        "correct": correct,
        "attempted": report.attempted,
        "failed": report.failed + len(problems),
        "metrics": layers if args.trace else end_to_end,
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
