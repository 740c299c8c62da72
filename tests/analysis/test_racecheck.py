"""The dynamic race harness: clean under discipline, loud under injection."""

from __future__ import annotations

import threading

import pytest

from repro.analysis.racecheck import (
    RaceReport,
    stress_service,
    stress_store,
    trace_attributes,
    trace_store,
    untrace,
)
from repro.data.agrawal import agrawal_schema
from repro.db.store import TupleStore
from repro.exceptions import AnalysisError
from repro.serving import ModelRegistry, reference_ruleset
from repro.serving.service import ModelStats, PredictionService, ServiceConfig


def test_locked_mutations_are_clean_and_counted():
    report = RaceReport()
    lock = threading.Lock()
    stats = trace_attributes(ModelStats(model="m"), lock, report)
    with lock:
        stats.records += 3
        stats.batches += 1
    assert report.ok
    assert report.guarded_mutations == 2
    assert stats.records == 3 and stats.batches == 1


def test_injected_unlocked_mutation_is_detected():
    report = RaceReport()
    lock = threading.Lock()
    stats = trace_attributes(ModelStats(model="m"), lock, report)
    stats.records += 5  # deliberate: no lock held
    assert not report.ok
    (violation,) = report.violations
    assert violation.target == "ModelStats.records"
    # Tracing observes; it must not alter the write itself.
    assert stats.records == 5


def test_untrace_restores_the_original_class():
    report = RaceReport()
    stats = trace_attributes(ModelStats(model="m"), threading.Lock(), report)
    assert type(stats) is not ModelStats
    untrace(stats)
    assert type(stats) is ModelStats


def test_double_tracing_is_rejected():
    report = RaceReport()
    stats = trace_attributes(ModelStats(model="m"), threading.Lock(), report)
    with pytest.raises(AnalysisError, match="already traced"):
        trace_attributes(stats, threading.Lock(), report)


def test_rogue_thread_mutation_on_idle_service_is_detected():
    """The regression the harness exists for: a thread that skips the lock."""
    registry = ModelRegistry()
    registry.register_ruleset("m", reference_ruleset(1))
    config = ServiceConfig(max_batch_size=8, workers=1)
    report = RaceReport()
    with PredictionService(registry, config) as service:
        stats = trace_attributes(ModelStats(model="m"), service._lock, report)
        with service._lock:
            service._stats["m"] = stats

        def rogue():
            stats.records += 1  # bypasses service._lock

        thread = threading.Thread(target=rogue, name="rogue")
        thread.start()
        thread.join()
    assert not report.ok
    assert report.violations[0].target == "ModelStats.records"
    assert report.violations[0].thread == "rogue"


def test_traced_connection_flags_unlocked_execute():
    report = RaceReport()
    with TupleStore(agrawal_schema()) as store:
        store.create()
        trace_store(store, report)
        with store.lock:
            store.connection.execute("SELECT 1").fetchone()
        assert report.ok
        store.connection.execute("SELECT 1").fetchone()  # deliberate: no lock
    assert not report.ok
    assert report.violations[0].target == "connection.execute"


def test_service_stress_is_clean_and_exercises_the_tracer():
    report = stress_service(threads=2, records_per_thread=64)
    assert report.ok
    assert report.guarded_mutations > 0


def test_store_stress_is_clean_and_exercises_the_tracer():
    report = stress_store(threads=2, rows=80)
    assert report.ok
    assert report.guarded_calls > 0
