"""Dynamic race detection: trace lock-guarded state under real thread traffic.

The static ``lock-discipline`` rule (:mod:`repro.analysis.checkers.locks`)
reasons lexically, so it cannot see cross-object guarding — ``ModelStats``
instances are mutated *by* :class:`~repro.serving.service.PredictionService`
under the **service's** lock, and the shared SQLite connection is used by
both :class:`~repro.db.store.TupleStore` and its bound predictor under the
**store's** lock.  This harness closes that gap at runtime:

* :func:`trace_attributes` swaps an object's class for an instrumented
  subclass whose ``__setattr__`` checks, on every write to a guarded
  attribute, that the guarding lock is held by the writing thread;
* :class:`TracedConnection` wraps a ``sqlite3`` connection and performs the
  same check on every ``execute``/``executemany``/``commit``;
* :func:`stress_service` and :func:`stress_store` hammer the real serving
  and db objects from many threads with tracing installed and return a
  :class:`RaceReport` — empty on a disciplined tree, and reliably non-empty
  when a mutation bypasses the lock (the regression test injects one).

Ownership checks: an :class:`~threading.RLock` reports its owner exactly
(``_is_owned``); for a plain :class:`~threading.Lock` the check is the
try-acquire heuristic — if the tracer can acquire the lock at mutation time,
the mutating thread certainly did not hold it.  The heuristic can miss a
race that overlaps another thread's critical section, never the quiescent
case, which is why the injection test mutates an idle service.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import List, Optional, Sequence, Set

from repro.exceptions import AnalysisError


@dataclass(frozen=True)
class RaceViolation:
    """One observed mutation of guarded state without its lock held."""

    target: str  # "ClassName.attribute" or "connection.execute"
    thread: str
    detail: str

    def render(self) -> str:
        return f"{self.target} mutated by thread {self.thread!r} {self.detail}"


@dataclass
class RaceReport:
    """Thread-safe tally of traced mutations and detected violations."""

    violations: List[RaceViolation] = field(default_factory=list)
    guarded_mutations: int = 0
    guarded_calls: int = 0
    _report_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    @property
    def ok(self) -> bool:
        return not self.violations

    def record_mutation(self, violation: Optional[RaceViolation]) -> None:
        with self._report_lock:
            self.guarded_mutations += 1
            if violation is not None:
                self.violations.append(violation)

    def record_call(self, violation: Optional[RaceViolation]) -> None:
        with self._report_lock:
            self.guarded_calls += 1
            if violation is not None:
                self.violations.append(violation)

    def merge(self, other: "RaceReport") -> "RaceReport":
        with self._report_lock:
            self.violations.extend(other.violations)
            self.guarded_mutations += other.guarded_mutations
            self.guarded_calls += other.guarded_calls
        return self

    def render(self) -> str:
        lines = [violation.render() for violation in self.violations]
        lines.append(
            f"racecheck: {self.guarded_mutations} traced attribute write(s), "
            f"{self.guarded_calls} traced connection call(s), "
            f"{len(self.violations)} violation(s)"
        )
        return "\n".join(lines)


def lock_held_by_current_thread(lock) -> bool:
    """Whether ``lock`` is held by the calling thread (see module docstring)."""
    is_owned = getattr(lock, "_is_owned", None)
    if callable(is_owned):
        return bool(is_owned())
    acquired = lock.acquire(blocking=False)
    if acquired:
        lock.release()
        return False
    return True


# ---------------------------------------------------------------------------
# Attribute tracing
# ---------------------------------------------------------------------------

_TRACED_BASE_ATTR = "_repro_racecheck_base"


def trace_attributes(
    obj: object,
    lock,
    report: RaceReport,
    attrs: Optional[Sequence[str]] = None,
) -> object:
    """Instrument ``obj`` so every guarded attribute write checks ``lock``.

    The object's class is swapped for a one-off subclass whose
    ``__setattr__`` records a :class:`RaceViolation` when the write happens
    without the lock held; writes themselves proceed unchanged, so traced
    objects behave identically (the harness observes, it does not alter
    outcomes).  ``attrs=None`` traces every attribute.
    """
    base = type(obj)
    if getattr(base, _TRACED_BASE_ATTR, None) is not None:
        raise AnalysisError(f"object of type {base.__name__} is already traced")
    monitored: Optional[Set[str]] = set(attrs) if attrs is not None else None

    def __setattr__(self, name, value):  # noqa: N807 - instrumented dunder
        if monitored is None or name in monitored:
            violation = None
            if not lock_held_by_current_thread(lock):
                violation = RaceViolation(
                    target=f"{base.__name__}.{name}",
                    thread=threading.current_thread().name,
                    detail="without the guarding lock held",
                )
            report.record_mutation(violation)
        super(traced, self).__setattr__(name, value)

    traced = type(
        f"Traced{base.__name__}",
        (base,),
        {"__setattr__": __setattr__, _TRACED_BASE_ATTR: base},
    )
    object.__setattr__(obj, "__class__", traced)
    return obj


def untrace(obj: object) -> object:
    """Restore a traced object's original class."""
    base = getattr(type(obj), _TRACED_BASE_ATTR, None)
    if base is None:
        return obj
    object.__setattr__(obj, "__class__", base)
    return obj


class TracedConnection:
    """A sqlite3 connection proxy asserting the store lock on every use.

    Wraps the store's real connection; ``execute``/``executemany``/
    ``commit``/``rollback`` record a violation when called without the
    guarding :class:`~threading.RLock` held, then delegate.  Everything else
    (``in_transaction``, ``close``, context-manager commits) passes through.
    """

    def __init__(self, inner, lock, report: RaceReport) -> None:
        self._inner = inner
        self._racecheck_lock = lock
        self._racecheck_report = report

    def _check(self, operation: str) -> None:
        violation = None
        if not lock_held_by_current_thread(self._racecheck_lock):
            violation = RaceViolation(
                target=f"connection.{operation}",
                thread=threading.current_thread().name,
                detail="without the store lock held",
            )
        self._racecheck_report.record_call(violation)

    def execute(self, *args, **kwargs):
        self._check("execute")
        return self._inner.execute(*args, **kwargs)

    def executemany(self, *args, **kwargs):
        self._check("executemany")
        return self._inner.executemany(*args, **kwargs)

    def commit(self):
        self._check("commit")
        return self._inner.commit()

    def rollback(self):
        self._check("rollback")
        return self._inner.rollback()

    def __enter__(self):
        self._check("transaction")
        return self._inner.__enter__()

    def __exit__(self, *exc_info):
        return self._inner.__exit__(*exc_info)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def trace_store(store, report: RaceReport):
    """Install a :class:`TracedConnection` on a live ``TupleStore``."""
    inner = store.connection
    if isinstance(inner, TracedConnection):
        raise AnalysisError("store connection is already traced")
    store._connection = TracedConnection(inner, store.lock, report)
    return store


# ---------------------------------------------------------------------------
# Stress harnesses
# ---------------------------------------------------------------------------

def _run_threads(workers: Sequence[threading.Thread], timeout: float = 60.0) -> None:
    for worker in workers:
        worker.start()
    deadline = perf_counter() + timeout
    for worker in workers:
        remaining = max(deadline - perf_counter(), 0.1)
        worker.join(timeout=remaining)
        if worker.is_alive():
            raise AnalysisError(
                f"racecheck stress thread {worker.name!r} did not finish "
                f"within {timeout:.0f}s"
            )


def stress_service(
    threads: int = 4,
    records_per_thread: int = 400,
    seed: int = 1,
    report: Optional[RaceReport] = None,
) -> RaceReport:
    """Hammer a real :class:`PredictionService` with tracing installed.

    Each thread submits its records one at a time and also streams them
    through :meth:`~PredictionService.predict_stream_batches`, so the run
    mixes idle dispatches, batches coalesced while the workers are busy and
    drained by finishing jobs, and full stream batches.  Every ``ModelStats``
    mutation and every write of the service's in-flight job counter is
    checked against the service lock; the labels of both paths are also
    verified against the single-threaded reference, so the stress run
    doubles as a correctness check.
    """
    from repro.data.agrawal import AgrawalGenerator
    from repro.serving import ModelRegistry, reference_ruleset
    from repro.serving.service import ModelStats, PredictionService, ServiceConfig

    report = report if report is not None else RaceReport()
    registry = ModelRegistry()
    registry.register_ruleset("traced", reference_ruleset(1))
    dataset = AgrawalGenerator(function=1, perturbation=0.0, seed=seed).generate(
        records_per_thread
    )
    records = dataset.records
    expected = list(dataset.labels)

    config = ServiceConfig(max_batch_size=64, workers=2)
    with PredictionService(registry, config) as service:
        stats = ModelStats(model="traced")
        trace_attributes(stats, service._lock, report)
        trace_attributes(service, service._lock, report, attrs=("_in_flight",))
        with service._lock:
            service._stats["traced"] = stats

        failures: List[str] = []

        def worker(index: int) -> None:
            try:
                handles = [service.submit("traced", record) for record in records]
                labels = [
                    label
                    for labels in service.predict_stream_batches(
                        "traced", iter(records)
                    )
                    for label in labels
                ]
                if labels != expected:
                    failures.append(f"thread {index}: stream labels diverged")
                if [handle.result(timeout=60.0) for handle in handles] != expected:
                    failures.append(f"thread {index}: single-record labels diverged")
            except Exception as exc:  # repro: ignore[broad-except] surfaced via `failures` and re-raised as AnalysisError below
                failures.append(f"thread {index}: {type(exc).__name__}: {exc}")

        _run_threads(
            [
                threading.Thread(
                    target=worker, args=(i,), name=f"racecheck-serve-{i}"
                )
                for i in range(threads)
            ]
        )
        if failures:
            raise AnalysisError(
                "service stress failed: " + "; ".join(failures[:3])
            )
    return report


def stress_store(
    threads: int = 4,
    rows: int = 400,
    seed: int = 3,
    report: Optional[RaceReport] = None,
) -> RaceReport:
    """Concurrent pushdown batches + store reads over one traced connection."""
    from repro.data.agrawal import AgrawalGenerator, agrawal_schema
    from repro.db.predictor import SqlRulePredictor
    from repro.db.store import TupleStore
    from repro.serving import reference_ruleset

    report = report if report is not None else RaceReport()
    generator = AgrawalGenerator(function=1, perturbation=0.0, seed=seed)
    dataset = generator.generate(rows)
    records = dataset.records

    with TupleStore(agrawal_schema()) as store:
        store.create()
        store.load(dataset)
        trace_store(store, report)
        predictor = SqlRulePredictor(reference_ruleset(1), store=store)

        failures: List[str] = []

        def batch_worker(index: int) -> None:
            try:
                chunk = records[index::threads]
                labels = predictor.predict_batch(chunk)
                if len(labels) != len(chunk):
                    failures.append(f"thread {index}: short label array")
            except Exception as exc:  # repro: ignore[broad-except] surfaced via `failures` and re-raised as AnalysisError below
                failures.append(f"thread {index}: {type(exc).__name__}: {exc}")

        def read_worker(index: int) -> None:
            try:
                total = store.count()
                consumed = sum(1 for _ in store.iter_rows(fetch_size=64))
                if consumed != total:
                    failures.append(f"reader {index}: {consumed} != {total}")
                predictor.classify_stored()
            except Exception as exc:  # repro: ignore[broad-except] surfaced via `failures` and re-raised as AnalysisError below
                failures.append(f"reader {index}: {type(exc).__name__}: {exc}")

        workers = [
            threading.Thread(
                target=batch_worker, args=(i,), name=f"racecheck-db-batch-{i}"
            )
            for i in range(threads)
        ] + [
            threading.Thread(
                target=read_worker, args=(i,), name=f"racecheck-db-read-{i}"
            )
            for i in range(max(threads // 2, 1))
        ]
        _run_threads(workers)
        if failures:
            raise AnalysisError("store stress failed: " + "; ".join(failures[:3]))
    return report


def run_racecheck(threads: int = 4) -> RaceReport:
    """The full dynamic harness: serving stress + store stress, one report."""
    report = RaceReport()
    stress_service(threads=threads, report=report)
    stress_store(threads=threads, report=report)
    return report
