"""Micro-batched prediction serving over the vectorised inference pipeline.

A single record is far too small a unit of work for the compiled rule
evaluators and the chunked network predictor: the vectorised paths amortise
their setup (column materialisation, matrix products) over whole batches.
:class:`PredictionService` bridges the two worlds the way production model
servers do, with *work-conserving micro-batching*:

* callers submit single records (:meth:`PredictionService.submit`,
  :meth:`predict_record`), runs of them (:meth:`submit_many`) or whole
  record streams (:meth:`predict_stream`); every one of them appends to the
  model's pending micro-batch through the same path;
* while a pool worker is free, a submission is dispatched at once as its own
  micro-batch, so a lightly loaded service answers in the time the model
  takes, not the time a timer takes;
* while every worker is busy, submissions coalesce per model, and each pool
  job that finishes dispatches the oldest waiting batch — batches grow with
  the load instead of with a deadline;
* a batch that reaches ``max_batch_size`` is dispatched at once whatever
  the load.

Every job runs through one body: a micro-batch, a dataset chunk
(:meth:`PredictionService.submit_chunk`) and the synchronous
:meth:`PredictionService.predict_batch`, which runs the body inline on the
calling thread.  The body classifies the rows through the model object —
``ServableModel.predict_batch`` under a ``serve.batch`` span, or
``ServableModel.predict_codes`` under a ``serve.chunk`` span for a chunk —
checks that the result covers every row, records the model's
:class:`ModelStats` and the ``repro_serve_*`` series, and resolves or fails
the job's future.

Submission order is prediction order: results are keyed by ``(batch,
offset)`` handles, so streams come back in exactly the order they went in no
matter how the pool interleaves batch completions.  One future is created
per *batch*, not per record, which keeps the bookkeeping overhead far below
the per-record Python loop the benchmark compares against.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain, islice
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.data.dataset import Dataset, Record
from repro.exceptions import ServingError
from repro.obs.clock import monotonic
from repro.serving.models import ServableModel
from repro.serving.registry import ModelRegistry


@dataclass
class ServiceConfig:
    """Tunables of the micro-batching service.

    ``max_batch_size`` caps how many records one dispatched micro-batch may
    hold; ``workers`` sizes the dispatch thread pool, and so how many jobs —
    micro-batches and chunks, all run by the same job body — may run before
    new records start to coalesce.  The stream windows derive from the two:
    a record stream keeps at most ``4 * max_batch_size`` records in flight,
    pulled from its input ``min(1024, max_batch_size)`` at a time, and a
    chunk stream at most ``workers + 2`` chunks.
    """

    max_batch_size: int = 1024
    workers: int = 2

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ServingError(f"max_batch_size must be >= 1, got {self.max_batch_size}")
        if self.workers < 1:
            raise ServingError(f"workers must be >= 1, got {self.workers}")


@dataclass
class ModelStats:
    """Throughput/latency counters for one served model.

    These are the service's *per-instance*, lock-guarded counters (every
    mutation happens under the service lock, which is what the race harness
    verifies); the service also publishes the same observations as
    process-wide :mod:`repro.obs` series (``repro_serve_*``) for export.
    """

    model: str
    records: int = 0
    batches: int = 0
    errors: int = 0
    batch_seconds: float = 0.0
    max_batch_seconds: float = 0.0
    max_batch_records: int = 0

    def observe(self, n_records: int, seconds: float, error: bool = False) -> None:
        self.records += n_records
        self.batches += 1
        self.errors += int(error)
        self.batch_seconds += seconds
        self.max_batch_seconds = max(self.max_batch_seconds, seconds)
        self.max_batch_records = max(self.max_batch_records, n_records)

    def copy(self) -> "ModelStats":
        """A field-complete snapshot; call while holding the owning lock."""
        return ModelStats(
            model=self.model,
            records=self.records,
            batches=self.batches,
            errors=self.errors,
            batch_seconds=self.batch_seconds,
            max_batch_seconds=self.max_batch_seconds,
            max_batch_records=self.max_batch_records,
        )

    @property
    def mean_batch_size(self) -> float:
        return self.records / self.batches if self.batches else 0.0

    @property
    def records_per_second(self) -> float:
        """Throughput over time actually spent predicting (not wall clock)."""
        return self.records / self.batch_seconds if self.batch_seconds > 0 else 0.0

    def to_dict(self) -> Dict[str, float]:
        return {
            "model": self.model,
            "records": self.records,
            "batches": self.batches,
            "errors": self.errors,
            "batch_seconds": round(self.batch_seconds, 6),
            "max_batch_seconds": round(self.max_batch_seconds, 6),
            "max_batch_records": self.max_batch_records,
            "mean_batch_size": round(self.mean_batch_size, 2),
            "records_per_second": round(self.records_per_second, 1),
        }


class PendingPrediction:
    """Handle for one submitted record: resolves to its class label."""

    __slots__ = ("_future", "_offset")

    def __init__(self, future: "Future[np.ndarray]", offset: int) -> None:
        self._future = future
        self._offset = offset

    def done(self) -> bool:
        return self._future.done()

    def result(self, timeout: Optional[float] = None) -> str:
        """The predicted label; blocks until the micro-batch is evaluated.

        Re-raises whatever the model's ``predict_batch`` raised for the batch
        this record rode in.
        """
        return self._future.result(timeout)[self._offset]


class _PendingBatch:
    """Records accumulated for one model since its last flush."""

    __slots__ = ("model", "records", "future", "first_at")

    def __init__(self, model: ServableModel) -> None:
        self.model = model
        self.records: List[Record] = []
        self.future: "Future[np.ndarray]" = Future()
        self.first_at: float = monotonic()


class PredictionService:
    """Serve prediction traffic for registered models with micro-batching.

    Use as a context manager (or call :meth:`close`): the thread pool that
    evaluates the batches must be shut down deterministically.
    """

    def __init__(
        self,
        models: Union[ModelRegistry, ServableModel],
        config: Optional[ServiceConfig] = None,
    ) -> None:
        if isinstance(models, ServableModel):
            registry = ModelRegistry()
            registry.register(models)
            models = registry
        self.registry = models
        self.config = config or ServiceConfig()
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="repro-serve"
        )
        self._lock = threading.Lock()
        self._pending: Dict[str, _PendingBatch] = {}
        self._stats: Dict[str, ModelStats] = {}
        # Pool jobs (micro-batches and chunks) submitted and not yet finished.
        # Invariant, under self._lock: a pending batch exists only while
        # _in_flight >= config.workers.  That is what dispatches every record
        # without a timer: a submission either finds a free worker and goes
        # to the pool at once, or waits for a running job, whose completion
        # (_job) hands the oldest pending batch to the pool.
        self._in_flight = 0
        self._closed = False

    # -- lifecycle ------------------------------------------------------------

    def __enter__(self) -> "PredictionService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Dispatch everything pending, then wait for the pool to finish."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for name, batch in self._pending.items():
                self._dispatch(name, batch, "close")
            self._pending.clear()
        # Not under the lock: every finishing job takes it in _job.  No
        # dispatch can follow: dispatches happen under the lock, and either
        # check _closed (submits) or take from the now empty _pending.
        self._pool.shutdown(wait=True)

    # -- submission -----------------------------------------------------------

    def submit(self, model_name: str, record: Record) -> PendingPrediction:
        """Queue one record for ``model_name``; returns a result handle.

        The record joins the model's current micro-batch, which is
        dispatched at once if it is full or a pool worker is free; otherwise
        it keeps coalescing until a running job finishes.
        """
        model = self.registry.get(model_name)  # fail fast on unknown names
        with self._lock:
            future, offset = self._append(model_name, model, (record,))
        return PendingPrediction(future, offset)

    def submit_many(
        self, model_name: str, records: Sequence[Record]
    ) -> List[Tuple["Future[np.ndarray]", int, int]]:
        """Queue a chunk of records with one lock acquisition.

        The chunk joins the model's current micro-batch, spilling into fresh
        batches at ``max_batch_size`` boundaries; every batch filled on the
        way is dispatched, and the partial tail too if a worker is free.
        Returns ``(batch_future, offset, count)`` handle groups covering the
        chunk in order — consecutive records share their batch's future,
        which is what lets :meth:`predict_stream` resolve a whole micro-batch
        with a single ``Future.result`` call instead of one per record.
        """
        model = self.registry.get(model_name)
        records = list(records)
        groups: List[Tuple["Future[np.ndarray]", int, int]] = []
        with self._lock:
            position = 0
            while position < len(records):
                pending = self._pending.get(model_name)
                room = self.config.max_batch_size - (
                    len(pending.records) if pending is not None else 0
                )
                run = records[position : position + room]
                future, offset = self._append(model_name, model, run)
                groups.append((future, offset, len(run)))
                position += len(run)
        return groups

    def predict_record(
        self, model_name: str, record: Record, timeout: Optional[float] = None
    ) -> str:
        """Submit one record and block for its label (latency path)."""
        return self.submit(model_name, record).result(timeout)

    # -- chunk fabric ---------------------------------------------------------

    def submit_chunk(
        self, model_name: str, chunk: Dataset
    ) -> "Future[Tuple[np.ndarray, Tuple[str, ...]]]":
        """Queue one dataset chunk; resolves to ``(label_codes, classes)``.

        A chunk is already a batch, so it bypasses the micro-batcher
        entirely and is dispatched to the pool as one
        :meth:`ServableModel.predict_codes
        <repro.serving.models.ServableModel.predict_codes>` call — labels
        stay ``int64`` class indexes, no record dicts and no label strings
        on the way through.
        """
        model = self.registry.get(model_name)
        future: "Future[Tuple[np.ndarray, Tuple[str, ...]]]" = Future()
        with self._lock:
            if self._closed:
                raise ServingError("cannot submit to a closed PredictionService")
            self._pool.submit(self._job, model_name, model, chunk, future, True)
            self._in_flight += 1
        return future

    def predict_chunks(
        self, model_name: str, chunks: Iterable[Dataset]
    ) -> Iterator[Dataset]:
        """Classify a chunk stream, yielding re-labelled chunks in order.

        The chunk-fabric counterpart of :meth:`predict_stream_batches`: each
        input chunk comes back as the same zero-copy columns with the
        predicted label codes in place of its own (``chunk.with_label_codes``).
        At most ``workers + 2`` chunks are in flight at once — enough to
        keep every worker busy while the consumer takes the head — so a
        generation stream pipelines through the dispatch pool in bounded
        memory with labels kept as index arrays end-to-end.
        """
        window = self.config.workers + 2
        in_flight: Deque[
            Tuple[Dataset, "Future[Tuple[np.ndarray, Tuple[str, ...]]]"]
        ] = deque()
        for chunk in chunks:
            in_flight.append((chunk, self.submit_chunk(model_name, chunk)))
            while len(in_flight) >= window:
                done_chunk, future = in_flight.popleft()
                codes, classes = future.result()
                yield done_chunk.with_label_codes(codes, classes)
                # Its columns live on in the consumer's chunk only.
                del done_chunk, codes
        while in_flight:
            done_chunk, future = in_flight.popleft()
            codes, classes = future.result()
            yield done_chunk.with_label_codes(codes, classes)

    def predict_stream_batches(
        self,
        model_name: str,
        records: Union[Iterable[Record], Iterable[Dataset], Dataset],
    ) -> Iterator[np.ndarray]:
        """Classify a record stream, yielding label arrays in submission order.

        Datasets — a :class:`~repro.data.dataset.Dataset` or an iterable of
        them — are routed through the chunk fabric (:meth:`predict_chunks`):
        no per-record dicts are built, labels travel as index arrays, and
        each yielded array covers one chunk.

        Record streams take the micro-batching path: the input iterator is
        pulled ``min(1024, max_batch_size)`` records at a time into
        :meth:`submit_many`, and at most ``4 * max_batch_size`` records are
        in flight at once — so a multi-million-tuple file streams through in
        bounded memory, with new input admitted only as results are consumed
        from the head of the window.  Each yielded array covers one
        contiguous run of input records; concatenated, the arrays reproduce
        the input order exactly, regardless of how the thread pool
        interleaves batch completions.
        """
        if isinstance(records, Dataset):
            chunks: Iterable[Dataset] = (records,)
        else:
            iterator = iter(records)
            head = next(iterator, None)
            if head is None:
                return iter(())
            records = chain((head,), iterator)
            if not isinstance(head, Dataset):
                return self._predict_stream_records(model_name, records)
            chunks = records
        return (
            labelled.label_array()
            for labelled in self.predict_chunks(model_name, chunks)
        )

    def _predict_stream_records(
        self, model_name: str, records: Iterator[Record]
    ) -> Iterator[np.ndarray]:
        """The micro-batching dict-record path of :meth:`predict_stream_batches`."""
        # The window is four full batches, so the head group a full window
        # waits on never sits in the one batch that may still be pending.
        window = 4 * self.config.max_batch_size
        pull = min(1024, self.config.max_batch_size)
        in_flight: Deque[Tuple["Future[np.ndarray]", int, int]] = deque()
        pending_results = 0
        while True:
            chunk = list(islice(records, pull))
            if not chunk:
                break
            for group in self.submit_many(model_name, chunk):
                in_flight.append(group)
                pending_results += group[2]
            while pending_results >= window:
                future, offset, count = in_flight.popleft()
                pending_results -= count
                yield future.result()[offset : offset + count]
        self.flush(model_name)
        while in_flight:
            future, offset, count = in_flight.popleft()
            yield future.result()[offset : offset + count]

    def predict_stream(
        self, model_name: str, records: Iterable[Record]
    ) -> Iterator[str]:
        """Label-at-a-time wrapper around :meth:`predict_stream_batches`."""
        for labels in self.predict_stream_batches(model_name, records):
            yield from labels

    def predict_batch(
        self, model_name: str, records: Union[Dataset, List[Record]]
    ) -> np.ndarray:
        """Classify an already-assembled batch — records or a dataset —
        synchronously.

        The batch bypasses the micro-batcher, but not the job body: it runs
        inline on the calling thread, with the same ``serve.batch`` span,
        row-count check and statistics as a pool job, and re-raises what
        the model raised.
        """
        model = self.registry.get(model_name)
        future: "Future[np.ndarray]" = Future()
        self._run(model_name, model, records, future)
        return future.result()

    def flush(self, model_name: Optional[str] = None) -> None:
        """Dispatch pending partial batches now (all models when unnamed)."""
        with self._lock:
            if model_name is None:
                due = list(self._pending.items())
                self._pending.clear()
            else:
                batch = self._pending.pop(model_name, None)
                due = [(model_name, batch)] if batch is not None else []
            for name, batch in due:
                self._dispatch(name, batch, "explicit")

    # -- statistics -----------------------------------------------------------

    def stats(self, model_name: str) -> ModelStats:
        """Statistics recorded so far for ``model_name`` (zeroes if unserved).

        The snapshot is taken in one critical section on the service lock —
        the same lock every ``observe`` runs under — so the returned copy is
        a consistent point-in-time view: a concurrent batch is counted
        entirely or not at all, never with its records visible but its batch
        or seconds missing.
        """
        with self._lock:
            stats = self._stats.get(model_name)
            if stats is None:
                return ModelStats(model=model_name)
            return stats.copy()

    def stats_snapshot(self) -> Dict[str, Dict[str, float]]:
        """``to_dict`` of every served model's statistics, keyed by name."""
        with self._lock:
            return {name: stats.to_dict() for name, stats in self._stats.items()}

    # -- internals ------------------------------------------------------------

    def _observe(
        self, model_name: str, n_records: int, seconds: float, error: bool = False
    ) -> None:
        with self._lock:
            stats = self._stats.get(model_name)
            if stats is None:
                stats = self._stats[model_name] = ModelStats(model=model_name)
            stats.observe(n_records, seconds, error=error)
        # Registry series mirror the lock-guarded counters; updates are
        # lock-free per-thread shards, so this adds no contention per batch.
        obs.counter(
            "repro_serve_records_total", "Records classified", model=model_name
        ).inc(n_records)
        obs.counter(
            "repro_serve_batches_total", "Micro-batches executed", model=model_name
        ).inc()
        if error:
            obs.counter(
                "repro_serve_errors_total", "Failed micro-batches", model=model_name
            ).inc()
        obs.histogram(
            "repro_serve_batch_seconds", "Batch execute latency", model=model_name
        ).observe(seconds)

    def _append(
        self, model_name: str, model: ServableModel, records: Sequence[Record]
    ) -> Tuple["Future[np.ndarray]", int]:
        """Append ``records`` to the model's pending micro-batch and dispatch
        the batch if it is due; the caller holds ``self._lock``.

        The one append path of :meth:`submit` and :meth:`submit_many`.  The
        records must fit in the batch, which one record always does: a
        pending batch is never full.  Returns ``(batch_future, offset)``,
        the offset of the first appended record in the batch's results.
        """
        if self._closed:
            raise ServingError("cannot submit to a closed PredictionService")
        batch = self._pending.get(model_name)
        if batch is None:
            # repro: ignore[lock-discipline] every caller holds self._lock
            batch = self._pending[model_name] = _PendingBatch(model)
        offset = len(batch.records)
        batch.records += records
        if len(batch.records) >= self.config.max_batch_size:
            reason = "full"
        elif self._in_flight < self.config.workers:
            reason = "idle"
        else:
            return batch.future, offset
        # repro: ignore[lock-discipline] every caller holds self._lock
        del self._pending[model_name]
        self._dispatch(model_name, batch, reason)
        return batch.future, offset

    def _dispatch(self, model_name: str, batch: _PendingBatch, reason: str) -> None:
        """Hand ``batch`` to the pool as one job; the caller holds ``self._lock``.

        Submitting under the lock keeps every dispatch ahead of
        :meth:`close`: once ``close`` has marked the service closed, no
        thread can reach ``pool.submit`` again, so a shut-down pool can never
        reject a batch whose handles someone is waiting on.
        """
        # Queue wait: how long the batch's *oldest* record sat between
        # submission and dispatch — the latency micro-batching trades away.
        obs.histogram(
            "repro_serve_queue_wait_seconds",
            "Oldest-record wait between submit and dispatch",
            model=model_name,
        ).observe(max(monotonic() - batch.first_at, 0.0))
        obs.counter(
            "repro_serve_flush_total",
            "Micro-batch dispatches by trigger",
            model=model_name,
            reason=reason,
        ).inc()
        self._pool.submit(self._job, model_name, batch.model, batch.records, batch.future)
        self._in_flight += 1  # repro: ignore[lock-discipline] every caller holds self._lock

    def _job(self, *args) -> None:
        """One pool job: the job body (:meth:`_run`), then retire the job
        and give its worker the oldest pending batch.

        The hand-over sits in a ``finally``, so a job that raised makes it
        too; that keeps the in-flight invariant (see ``__init__``) true.
        """
        try:
            self._run(*args)
        finally:
            with self._lock:
                self._in_flight -= 1
                if self._pending and self._in_flight < self.config.workers:
                    name = next(iter(self._pending))  # insertion order: the oldest
                    self._dispatch(name, self._pending.pop(name), "idle")

    def _run(
        self,
        model_name: str,
        model: ServableModel,
        rows: Union[Dataset, Sequence[Record]],
        future: Future,
        codes: bool = False,
    ) -> None:
        """The job body: classify ``rows``, record it, resolve ``future``.

        ``model.predict_batch`` labels the rows under a ``serve.batch`` span
        and the future resolves to the label array; with ``codes`` (a chunk)
        ``model.predict_codes`` does, under a ``serve.chunk`` span, and the
        future resolves to ``(label_codes, classes)``.  The method is looked
        up on the model for every job, so a wrapper installed on
        :class:`ServableModel` sees each call.
        """
        span_name = "serve.chunk" if codes else "serve.batch"
        with obs.trace(span_name, model=model_name, rows=len(rows)) as span:
            try:
                if codes:
                    result = model.predict_codes(rows)
                    labels = result[0]
                else:
                    result = labels = model.predict_batch(rows)
                if len(labels) != len(rows):
                    raise ServingError(
                        f"model {model_name!r} returned {len(labels)} labels "
                        f"for {len(rows)} rows"
                    )
            # repro: ignore[broad-except] the exception is forwarded, not dropped:
            # set_exception re-raises it in every caller blocked on this job's
            # future, and a narrower catch would hang those callers forever.
            except BaseException as exc:
                span.set(error=True)
                self._observe(model_name, len(rows), span.seconds, error=True)
                future.set_exception(exc)
                return
            self._observe(model_name, len(rows), span.seconds)
            future.set_result(result)
