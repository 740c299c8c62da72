"""Shared pieces of the benchmark: statistics, the run report, the scratch
directory and the exit-time resource audit.

Nothing here imports the program; ``run.py`` puts the checkout's ``src/`` on
``sys.path`` before any workload module is loaded.
"""

from __future__ import annotations

import math
import os
import resource
import shutil
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

#: Root of the checkout the benchmark runs from (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
#: Where every file a run writes lives; listed in the root ``.gitignore``.
SCRATCH_ROOT = ROOT / ".bench_tmp"

now = time.perf_counter


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Phase:
    """Operation accounting of one phase of a workload."""

    name: str
    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def fail(self, note: str, count: int = 1) -> None:
        self.failed += count
        self.notes.append(note)


@dataclass
class Report:
    """Everything one run measured: metrics, per-layer metrics and phases."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    layers: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    phases: List[Phase] = field(default_factory=list)

    def phase(self, name: str) -> Phase:
        phase = Phase(name)
        self.phases.append(phase)
        return phase

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def layer(self, name: str, value: float, unit: str) -> None:
        self.layers[name] = (float(value), unit)

    @property
    def attempted(self) -> int:
        return sum(p.attempted for p in self.phases)

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.phases)

    def describe_phases(self) -> List[str]:
        lines = []
        for p in self.phases:
            line = f"phase {p.name}: attempted={p.attempted} failed={p.failed}"
            if p.notes:
                line += " (" + "; ".join(p.notes[:5]) + ")"
            lines.append(line)
        return lines


class Setup:
    """The workload's set-up time: the program's imports, timed once by
    ``run.py``, plus the median of the workload's repeated set-ups."""

    def __init__(self) -> None:
        self.import_s = 0.0
        self.samples: List[float] = []

    def record(self, seconds: float) -> None:
        self.samples.append(seconds)

    @property
    def seconds(self) -> float:
        return self.import_s + median(self.samples)


class Scratch:
    """A private directory under ``.bench_tmp/`` for every file a run writes.

    ``TMPDIR`` and ``SQLITE_TMPDIR`` point into it, so SQLite's own sort and
    temp files stay inside the checkout too.  ``close`` removes it.
    """

    def __init__(self) -> None:
        self.path = SCRATCH_ROOT / f"run-{os.getpid()}"
        shutil.rmtree(self.path, ignore_errors=True)
        (self.path / "tmp").mkdir(parents=True)
        os.environ["TMPDIR"] = str(self.path / "tmp")
        os.environ["SQLITE_TMPDIR"] = str(self.path / "tmp")

    def file(self, name: str) -> Path:
        return self.path / name

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            SCRATCH_ROOT.rmdir()  # only succeeds when no other run uses it
        except OSError:
            pass


def shm_segments() -> set:
    """Names in ``/dev/shm`` (empty where the platform has none)."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def child_pids() -> List[int]:
    """Live child processes of this process (Linux ``/proc``)."""
    me = str(os.getpid())
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        # The command name (field 2) may hold spaces; fields after it are fixed.
        fields = stat[stat.rfind(")") + 2 :].split()
        if fields[1] == me and fields[0] != "Z":
            children.append(int(entry))
    return children


def open_files_under(directory: Path) -> List[str]:
    """Paths under ``directory`` this process still holds open."""
    found = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if target.startswith(str(directory)):
            found.append(target)
    return found


def audit_leftovers(scratch: Scratch, shm_before: set) -> List[str]:
    """What the run left behind: processes, threads, open or leftover
    files in its scratch directory, and shared-memory segments."""
    deadline = now() + 5.0
    while now() < deadline and (child_pids() or threading.active_count() > 1):
        time.sleep(0.05)
    problems = [f"child process {pid} still running" for pid in child_pids()]
    problems += [
        f"thread {t.name!r} still running"
        for t in threading.enumerate()
        if t is not threading.main_thread()
    ]
    problems += [f"file still open: {path}" for path in open_files_under(scratch.path)]
    problems += [
        f"file left behind: {path}" for path in scratch.path.rglob("*") if path.is_file()
    ]
    leaked = shm_segments() - shm_before
    if leaked:
        problems.append(f"shared-memory segments left: {sorted(leaked)}")
    return problems


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
