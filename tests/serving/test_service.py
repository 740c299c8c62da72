"""Tests of the micro-batching prediction service."""

import sys
import threading

import numpy as np
import pytest

from repro import obs
from repro.data.agrawal import AgrawalGenerator
from repro.exceptions import ServingError
from repro.serving import (
    ModelRegistry,
    PredictionService,
    ServableModel,
    ServiceConfig,
    reference_ruleset,
)


@pytest.fixture(scope="module")
def records():
    """2 000 clean function-1 tuples plus their true labels."""
    data = AgrawalGenerator(function=1, perturbation=0.0, seed=31).generate(2000)
    return data.records, data.labels


@pytest.fixture()
def registry():
    reg = ModelRegistry()
    reg.register_predictor("f1", reference_ruleset(1), kind="rules")
    return reg


class Gated:
    """Function-1 reference rules whose batches block until ``gate`` opens.

    A batch of this model holds its pool worker for as long as the test
    wants, which makes "every worker is busy" a state the test sets up
    instead of a timing it hopes for.
    """

    def __init__(self) -> None:
        self.rules = reference_ruleset(1)
        self.classes = self.rules.classes
        self.gate = threading.Event()

    def predict_batch(self, records):
        if not self.gate.wait(timeout=10.0):
            raise RuntimeError("the test never opened the gate")
        return self.rules.predict_batch(records)


@pytest.fixture()
def gated(registry):
    """A :class:`Gated` model registered as ``"gated"`` beside ``"f1"``."""
    model = Gated()
    registry.register_predictor("gated", model, kind="rules")
    yield model
    model.gate.set()  # never leave a worker blocked behind a failed test


def flushes(model: str, reason: str) -> float:
    """Process-wide ``repro_serve_flush_total`` for one model and trigger."""
    return obs.counter("repro_serve_flush_total", model=model, reason=reason).value


def pause_pool_submit(service, call: int):
    """Make the ``call``-th ``pool.submit`` of ``service`` wait for a signal.

    Returns ``(paused, resume)`` events: ``paused`` is set once that call
    is waiting, and it proceeds to the real pool when ``resume`` is set.
    """
    pool = service._pool
    real_submit = pool.submit
    paused, resume = threading.Event(), threading.Event()
    calls = []

    def submit(*args, **kwargs):
        calls.append(None)
        if len(calls) == call:
            paused.set()
            resume.wait(timeout=10.0)
        return real_submit(*args, **kwargs)

    pool.submit = submit
    return paused, resume


class TestConfigValidation:
    def test_bad_batch_size(self):
        with pytest.raises(ServingError):
            ServiceConfig(max_batch_size=0)

    def test_bad_workers(self):
        with pytest.raises(ServingError):
            ServiceConfig(workers=0)

    def test_default_stream_window(self):
        assert ServiceConfig(max_batch_size=100).effective_stream_window == 400
        assert ServiceConfig(stream_window=7).effective_stream_window == 7


class TestMicroBatching:
    def test_flush_on_size(self, registry, gated, records):
        batch_size = 128
        full_before = flushes("f1", "full")
        with PredictionService(
            registry, ServiceConfig(max_batch_size=batch_size, workers=1)
        ) as service:
            service.submit("gated", records[0][0])  # holds the only worker
            handles = [
                service.submit("f1", record) for record in records[0][:batch_size]
            ]
            # Every worker is busy, so only the size trigger can have
            # dispatched the batch, and it did so on the last submit.
            assert flushes("f1", "full") - full_before == 1
            gated.gate.set()
            labels = [h.result(timeout=5.0) for h in handles]
            stats = service.stats("f1")
        assert labels == records[1][:batch_size]
        assert stats.batches == 1
        assert stats.max_batch_records == batch_size

    def test_flush_on_idle(self, registry, records):
        """A lone record on an idle service is dispatched by submit itself."""
        idle_before = flushes("f1", "idle")
        with PredictionService(
            registry, ServiceConfig(max_batch_size=10_000)
        ) as service:
            handle = service.submit("f1", records[0][0])
            assert flushes("f1", "idle") - idle_before == 1
            label = handle.result(timeout=5.0)
            stats = service.stats("f1")
        assert label == records[1][0]
        assert stats.batches == 1
        assert stats.max_batch_records == 1

    def test_busy_workers_coalesce_into_one_batch(self, registry, gated, records):
        """Submits queued behind a running batch leave as one batch, and only
        when that batch finishes."""
        n = 25
        idle_before = flushes("gated", "idle")
        with PredictionService(
            registry, ServiceConfig(max_batch_size=10_000, workers=1)
        ) as service:
            first = service.submit("gated", records[0][0])
            handles = [service.submit("gated", r) for r in records[0][1 : n + 1]]
            assert flushes("gated", "idle") - idle_before == 1
            assert not any(h.done() for h in handles)
            gated.gate.set()
            labels = [h.result(timeout=5.0) for h in [first] + handles]
            stats = service.stats("gated")
        assert labels == records[1][: n + 1]
        assert flushes("gated", "idle") - idle_before == 2
        assert stats.batches == 2
        assert stats.max_batch_records == n

    def test_close_flushes_pending(self, registry, gated, records):
        service = PredictionService(registry, ServiceConfig(workers=1))
        real_shutdown = service._pool.shutdown

        def shutdown(wait=True):
            # close() reaches the pool shutdown only after its own flush.
            gated.gate.set()
            real_shutdown(wait=wait)

        service._pool.shutdown = shutdown
        service.submit("gated", records[0][0])  # holds the only worker
        handle = service.submit("f1", records[0][1])
        close_before = flushes("f1", "close")
        service.close()
        assert flushes("f1", "close") - close_before == 1
        assert handle.result(timeout=5.0) == records[1][1]

    def test_submit_after_close_rejected(self, registry, records):
        service = PredictionService(registry)
        service.close()
        with pytest.raises(ServingError, match="closed"):
            service.submit("f1", records[0][0])

    def test_unknown_model_fails_fast(self, registry, records):
        with PredictionService(registry) as service:
            with pytest.raises(ServingError, match="no model registered"):
                service.submit("nope", records[0][0])

    def test_submit_many_spans_batches(self, registry, records):
        with PredictionService(
            registry, ServiceConfig(max_batch_size=64)
        ) as service:
            groups = service.submit_many("f1", records[0][:200])
            total = sum(count for _, _, count in groups)
            service.flush("f1")  # release the 8-record tail batch if it waits
            labels = []
            for future, offset, count in groups:
                labels.extend(future.result(timeout=5.0)[offset : offset + count])
            stats = service.stats("f1")
        assert total == 200
        assert labels == records[1][:200]
        # 200 records over 64-record batches: three full flushes plus the
        # tail, which leaves on its own.
        assert stats.batches == 4


class TestCloseRace:
    """close() racing a dispatch must never strand a batch's handles."""

    def test_close_during_a_submit_dispatch(self, registry, records):
        service = PredictionService(
            registry, ServiceConfig(max_batch_size=8, workers=1)
        )
        paused, resume = pause_pool_submit(service, call=1)
        groups = []
        submitter = threading.Thread(
            target=lambda: groups.extend(service.submit_many("f1", records[0][:8]))
        )
        submitter.start()
        assert paused.wait(timeout=10.0)
        closer = threading.Thread(target=service.close)
        closer.start()
        # Give close() the chance to finish its whole shutdown inside the
        # dispatch's gap; a correct service makes it wait for the dispatch.
        closer.join(timeout=0.5)
        resume.set()
        submitter.join(timeout=10.0)
        closer.join(timeout=10.0)
        assert not submitter.is_alive() and not closer.is_alive()
        labels = []
        for future, offset, count in groups:
            labels.extend(future.result(timeout=5.0)[offset : offset + count])
        assert labels == records[1][:8]

    def test_close_during_a_completion_drain(self, registry, gated, records):
        service = PredictionService(registry, ServiceConfig(workers=1))
        # Call 1 dispatches the first record; call 2 is the drain that the
        # first batch's completion makes for the records queued behind it.
        paused, resume = pause_pool_submit(service, call=2)
        handles = [service.submit("gated", r) for r in records[0][:4]]
        gated.gate.set()
        assert paused.wait(timeout=10.0)
        closer = threading.Thread(target=service.close)
        closer.start()
        closer.join(timeout=0.5)
        resume.set()
        closer.join(timeout=10.0)
        assert not closer.is_alive()
        assert [h.result(timeout=5.0) for h in handles] == records[1][:4]


class TestStreaming:
    def test_stream_labels_in_order(self, registry, records):
        with PredictionService(
            registry, ServiceConfig(max_batch_size=128, workers=3)
        ) as service:
            out = list(service.predict_stream("f1", iter(records[0])))
        assert out == records[1]

    def test_stream_batches_concatenate_in_order(self, registry, records):
        with PredictionService(
            registry, ServiceConfig(max_batch_size=256, workers=2)
        ) as service:
            arrays = list(service.predict_stream_batches("f1", iter(records[0])))
        assert all(isinstance(a, np.ndarray) for a in arrays)
        assert np.concatenate(arrays).tolist() == records[1]

    def test_stream_with_tiny_window(self, registry, records):
        """A window smaller than the batch size still terminates correctly:
        the head batch the window waits on is always dispatched."""
        with PredictionService(
            registry, ServiceConfig(max_batch_size=64)
        ) as service:
            out = list(
                service.predict_stream("f1", iter(records[0][:150]), window=16)
            )
        assert out == records[1][:150]

    def test_stream_pulls_input_lazily(self, registry, records):
        """The input iterator is only advanced as the window drains."""
        pulled = []

        def tracking_iterator():
            for record in records[0][:500]:
                pulled.append(None)
                yield record

        with PredictionService(
            registry, ServiceConfig(max_batch_size=32)
        ) as service:
            stream = service.predict_stream(
                "f1", tracking_iterator(), window=64, chunk_size=32
            )
            next(stream)
            # One result consumed: the stream must not have drained the input.
            assert len(pulled) < 500
            out = [records[1][0]] + list(stream)
        assert out == records[1][:500]
        assert len(pulled) == 500

    def test_empty_stream(self, registry):
        with PredictionService(registry) as service:
            assert list(service.predict_stream("f1", iter([]))) == []


class TestErrorsAndStats:
    class _Exploding:
        classes = ("A", "B")

        def predict_batch(self, records):
            raise RuntimeError("boom")

        def predict(self, records):  # pragma: no cover - protocol filler
            raise RuntimeError("boom")

    def test_batch_error_propagates_to_handles(self, registry, gated, records):
        registry.register_predictor("bad", self._Exploding(), kind="baseline")
        with PredictionService(
            registry, ServiceConfig(max_batch_size=4, workers=1)
        ) as service:
            service.submit("gated", records[0][0])  # holds the only worker
            # ... so the four records fill one batch, which fails as a whole.
            handles = [service.submit("bad", r) for r in records[0][:4]]
            gated.gate.set()
            for handle in handles:
                with pytest.raises(RuntimeError, match="boom"):
                    handle.result(timeout=5.0)
            stats = service.stats("bad")
        assert stats.errors == 1
        assert stats.batches == 1

    def test_length_mismatch_detected(self, records):
        class Short:
            classes = ("A", "B")

            def predict_batch(self, batch):
                return np.asarray(["A"], dtype=object)

            def predict(self, batch):  # pragma: no cover - protocol filler
                return ["A"]

        registry = ModelRegistry()
        registry.register_predictor("short", Short(), kind="baseline")
        with PredictionService(
            registry, ServiceConfig(max_batch_size=2)
        ) as service:
            ((future, _offset, _count),) = service.submit_many("short", records[0][:2])
            with pytest.raises(ServingError, match="returned 1 labels"):
                future.result(timeout=5.0)

    def test_failed_batch_still_drains_the_pending_one(self, registry, records):
        """A job that raises hands its worker on like one that succeeds."""

        class Failing(Gated):
            def predict_batch(self, records):
                super().predict_batch(records)
                raise RuntimeError("boom")

        failing = Failing()
        registry.register_predictor("failing", failing, kind="baseline")
        with PredictionService(registry, ServiceConfig(workers=1)) as service:
            doomed = service.submit("failing", records[0][0])
            handles = [service.submit("f1", r) for r in records[0][:10]]
            failing.gate.set()
            with pytest.raises(RuntimeError, match="boom"):
                doomed.result(timeout=5.0)
            labels = [h.result(timeout=5.0) for h in handles]
            stats = service.stats("f1")
        assert labels == records[1][:10]
        assert stats.batches == 1

    def test_stats_throughput(self, registry, records):
        with PredictionService(
            registry, ServiceConfig(max_batch_size=512)
        ) as service:
            list(service.predict_stream("f1", iter(records[0])))
            stats = service.stats("f1")
        assert stats.records == 2000
        assert stats.batches >= 4
        assert stats.records_per_second > 0
        payload = stats.to_dict()
        assert payload["records"] == 2000
        assert payload["mean_batch_size"] == pytest.approx(2000 / stats.batches, rel=0.01)

    def test_predict_batch_direct_records_stats(self, registry, records):
        with PredictionService(registry) as service:
            labels = service.predict_batch("f1", records[0][:100])
            stats = service.stats("f1")
        assert labels.tolist() == records[1][:100]
        assert stats.records == 100
        assert stats.batches == 1

    def test_stats_snapshot_keys(self, registry, records):
        with PredictionService(registry) as service:
            service.predict_batch("f1", records[0][:10])
            snapshot = service.stats_snapshot()
        assert set(snapshot) == {"f1"}
        assert snapshot["f1"]["records"] == 10

    def test_concurrent_submitters_preserve_per_thread_order(self, registry, records):
        """Several threads hammering submit() each see their own labels."""
        errors = []

        def worker(offset):
            try:
                with_labels = records[0][offset : offset + 200]
                expected = records[1][offset : offset + 200]
                handles = [service.submit("f1", r) for r in with_labels]
                got = [h.result(timeout=10.0) for h in handles]
                assert got == expected
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        with PredictionService(
            registry, ServiceConfig(max_batch_size=64, workers=4)
        ) as service:
            threads = [
                threading.Thread(target=worker, args=(i * 200,)) for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not errors

    def test_in_flight_count_settles_under_contention(self, registry, records):
        """More submitting threads than cores, with the interpreter switching
        threads as often as it can: every handle resolves, and once the
        traffic stops no job is counted in flight and nothing is pending.
        A lost update of the in-flight counter breaks the final equation or
        strands a batch (its handles time out)."""
        errors = []

        def worker(offset):
            try:
                chunk = records[0][offset : offset + 250]
                handles = [service.submit("f1", r) for r in chunk[:150]]
                groups = service.submit_many("f1", chunk[150:])
                got = [h.result(timeout=20.0) for h in handles]
                for future, start, count in groups:
                    got.extend(future.result(timeout=20.0)[start : start + count])
                assert got == records[1][offset : offset + 250]
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with PredictionService(
                registry, ServiceConfig(max_batch_size=16, workers=3)
            ) as service:
                threads = [
                    threading.Thread(target=worker, args=(i * 250,)) for i in range(6)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60.0)
                assert not any(t.is_alive() for t in threads)
                service.flush()
                # Every handle resolved, but a job resolves its batch before it
                # retires, so wait for the pool to go quiet through a barrier
                # job on each worker.
                barrier = threading.Barrier(3)
                quiet = [service._pool.submit(barrier.wait, 10.0) for _ in range(3)]
                for future in quiet:
                    future.result(timeout=10.0)
                with service._lock:
                    in_flight, pending = service._in_flight, dict(service._pending)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert in_flight == 0
        assert pending == {}

    def test_stats_snapshot_is_atomic_under_traffic(self, registry, records):
        """stats() must never expose a half-updated ModelStats.

        Every batch the service dispatches has exactly ``batch_size``
        records (each submission is one multiple of it, waited for before
        the next, so no partial batch is ever left), and ``_observe``
        updates ``records`` and ``batches`` under one lock — so any *consistent* snapshot satisfies
        ``records == batches * batch_size`` exactly.  A stats() that read
        the live object, or copied it field by field outside the lock,
        intermittently breaks the equation.
        """
        batch_size = 50
        torn = []
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                stats = service.stats("f1")
                if stats.records != stats.batches * batch_size:
                    torn.append((stats.records, stats.batches))

        with PredictionService(
            registry,
            ServiceConfig(max_batch_size=batch_size, workers=2),
        ) as service:
            reader = threading.Thread(target=hammer)
            reader.start()
            try:
                for _ in range(5):
                    groups = service.submit_many("f1", records[0][:2000])
                    for future, _offset, _count in groups:
                        future.result(timeout=10.0)
            finally:
                stop.set()
                reader.join()
            final = service.stats("f1")
        assert torn == []
        assert final.records == 5 * 2000
        assert final.batches == 5 * 2000 // batch_size
