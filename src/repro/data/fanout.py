"""N-process chunk fan-out: parallel producers, shared-memory hand-off.

The generation side of the pipeline is embarrassingly parallel — each chunk
of an Agrawal workload is an independent draw from its own seed child — but a
naive process pool pays to pickle every produced row back to the parent.
:class:`ChunkFanout` keeps the pool and kills the pickling: workers build
their chunk (a :class:`~repro.data.dataset.Dataset`) locally, park
its columns in a shared-memory segment via
:func:`~repro.data.chunks.chunk_to_shared`, and
send only the tiny :class:`~repro.data.chunks.SharedChunkMeta` descriptor
back; the parent maps the segment into zero-copy arrays with
:func:`~repro.data.chunks.chunk_from_shared`.

Results are yielded **in job order** regardless of completion order, with a
bounded number of jobs in flight, so a consumer that falls behind bounds the
pool's shared-memory footprint instead of letting it grow with ``n``.

Producers must be *top-level callables* (pickled by reference under every
start method); each job is ``(args, kwargs)`` for one producer call returning
a :class:`~repro.data.dataset.Dataset` whose columns are numeric or
boolean (object columns cannot ride shared memory).

Telemetry rides the same channel as the data: when tracing is enabled, each
worker wraps its producer call in a ``fanout.produce`` span, exports its
span buffer as plain dicts, and returns them *next to* the
:class:`~repro.data.chunks.SharedChunkMeta`; the parent adopts them under
its ``fanout.imap`` span, so the trace shows per-worker chunk production —
pid, job index, rows — inside the one process-wide tree.
"""
# repro: hot-path

from __future__ import annotations

import multiprocessing
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import obs
from repro.data.chunks import (
    SharedChunkMeta,
    chunk_from_shared,
    chunk_to_shared,
    release_shared_chunk,
)
from repro.data.dataset import Dataset
from repro.data.schema import Schema
from repro.exceptions import DataGenerationError

__all__ = ["ChunkFanout"]

#: Jobs in flight beyond the worker count: enough to keep every worker busy
#: while the parent consumes, small enough to bound shared-memory usage.
_PREFETCH = 2


def _run_job(
    producer: Callable[..., Dataset],
    args: Tuple[Any, ...],
    kwargs: Dict[str, Any],
    capture: bool = False,
    job: Optional[int] = None,
) -> Tuple[SharedChunkMeta, Optional[List[Dict[str, Any]]]]:
    """Worker entry point: build the chunk, park it in shared memory.

    With ``capture`` the worker's span buffer comes back with the segment
    descriptor (``capture`` is passed explicitly rather than relying on the
    fork-inherited enabled flag, so spawn-based pools capture too).
    """
    if capture:
        obs.enable_tracing()
    with obs.trace("fanout.produce", job=job) as span:
        chunk = producer(*args, **kwargs)
        span.set(rows=len(chunk))
        meta = chunk_to_shared(chunk)
    return meta, (obs.export_spans(clear=True) if capture else None)


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer fork (cheap startup, inherited imports); fall back to default."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class ChunkFanout:
    """A process pool that maps picklable jobs to shared-memory chunks.

    Parameters
    ----------
    schema:
        Schema the produced chunks conform to (needed to map segments back
        into typed column arrays on the consumer side).
    processes:
        Worker process count (must be >= 1).
    """

    def __init__(self, schema: Schema, processes: int) -> None:
        if processes < 1:
            raise DataGenerationError(
                f"fan-out needs at least one process, got {processes}"
            )
        self.schema = schema
        self.processes = processes

    def imap(
        self,
        producer: Callable[..., Dataset],
        jobs: Sequence[Tuple[Tuple[Any, ...], Dict[str, Any]]],
    ) -> Iterator[Dataset]:
        """Yield ``producer(*args, **kwargs)`` chunks in job order.

        At most ``processes + 2`` jobs are in flight at once; the
        parent maps each finished segment lazily, right before yielding it,
        so unconsumed results stay as compact shared-memory descriptors.
        """
        if not jobs:
            return
        window = self.processes + _PREFETCH
        capture = obs.tracing_enabled()
        # Detached (non-stacked) span: it brackets generator yields, so it
        # must not become the parent of consumer-side spans pulled between
        # them.  Worker span buffers are adopted underneath it.
        fanout_span = obs.trace(
            "fanout.imap",
            stacked=False,
            jobs=len(jobs),
            processes=self.processes,
        )
        fanout_span.__enter__()
        with ProcessPoolExecutor(
            max_workers=self.processes, mp_context=_pool_context()
        ) as pool:
            futures: Dict[int, Any] = {}
            submitted = 0
            delivered = 0
            try:
                while delivered < len(jobs):
                    while submitted < len(jobs) and len(futures) < window:
                        args, kwargs = jobs[submitted]
                        futures[submitted] = pool.submit(
                            _run_job, producer, args, kwargs, capture, submitted
                        )
                        submitted += 1
                    head = futures.pop(delivered)
                    meta, spans = head.result()
                    if spans:
                        obs.adopt_spans(spans, parent_id=fanout_span.span_id)
                    delivered += 1
                    yield chunk_from_shared(self.schema, meta)
            finally:
                # A consumer that stops early (or a failed job) must not
                # leak the segments of the jobs still in flight.
                for future in futures.values():
                    future.cancel()
                pending = [f for f in futures.values() if not f.cancelled()]
                while pending:
                    done, pending_set = wait(pending, return_when=FIRST_COMPLETED)
                    pending = list(pending_set)
                    for future in done:
                        exc = future.exception()
                        if exc is None:
                            meta, spans = future.result()
                            if spans:
                                obs.adopt_spans(spans, parent_id=fanout_span.span_id)
                            release_shared_chunk(chunk_from_shared(self.schema, meta))
                fanout_span.close()
