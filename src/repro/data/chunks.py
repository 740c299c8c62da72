"""Chunk plumbing: the shared-memory transport and the n-way concat.

Every stage of the pipeline streams bounded-size batches of tuples —
generation (:meth:`AgrawalGenerator.iter_chunks
<repro.data.agrawal.AgrawalGenerator.iter_chunks>`), encoding
(:meth:`TupleEncoder.transform_matrix
<repro.preprocessing.encoder.TupleEncoder.transform_matrix>`), serving
(:meth:`PredictionService.predict_chunks
<repro.serving.service.PredictionService.predict_chunks>`) and DB load
(:meth:`TupleStore.load <repro.db.store.TupleStore.load>`).  Each batch — a
*chunk* — is a :class:`~repro.data.dataset.Dataset`, the one dataset type,
which training consumes too: read-only column arrays plus an ``int64``
label-code array, zero-copy ``subset`` views and ``with_label_codes``
re-labelling.
This module adds what a chunk stream needs beyond one dataset:

* **Shared-memory transport.**  :func:`chunk_to_shared` /
  :func:`chunk_from_shared` move a chunk across process boundaries through a
  :class:`multiprocessing.shared_memory.SharedMemory` segment: the producer
  writes raw column bytes, the consumer maps them back as arrays without
  pickling a single row (the fan-out pool of :mod:`repro.data.fanout` is the
  producer side).
* **N-way concat.**  :func:`concat_chunks` joins a stream's chunks with one
  ``np.concatenate`` per column and one for the label codes.
"""

from __future__ import annotations

import weakref
from multiprocessing import shared_memory
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro import obs
from repro.data.dataset import LABEL_CODE_DTYPE, Dataset
from repro.data.schema import Schema
from repro.exceptions import SchemaError

__all__ = [
    "SharedChunkMeta",
    "chunk_to_shared",
    "chunk_from_shared",
    "concat_chunks",
    "release_shared_chunk",
]


def concat_chunks(chunks: Sequence[Dataset]) -> Dataset:
    """One dataset holding every row of ``chunks``, in order.

    One ``np.concatenate`` per column (and one for the label codes); the
    inputs must agree on attribute names and class vocabulary.
    """
    if not chunks:
        raise SchemaError("cannot concatenate zero chunks")
    head = chunks[0]
    for other in chunks[1:]:
        if other.schema.attribute_names != head.schema.attribute_names:
            raise SchemaError("cannot concatenate chunks with different schemas")
        if other.classes != head.classes:
            raise SchemaError(
                "cannot concatenate chunks with different class vocabularies"
            )
    if len(chunks) == 1:
        return head
    columns = {
        name: np.concatenate([c.column(name) for c in chunks])
        for name in head.schema.attribute_names
    }
    codes = np.concatenate([c.label_codes for c in chunks])
    return Dataset(
        head.schema, columns, codes, validate=False, classes=head.classes
    )


# ---------------------------------------------------------------------------
# Shared-memory transport
# ---------------------------------------------------------------------------


class SharedChunkMeta(Tuple):
    """Pickle-friendly description of a chunk parked in shared memory."""

    # A plain tuple subclass keeps the transport payload tiny and versionless;
    # fields are accessed by name through properties.
    __slots__ = ()

    def __new__(
        cls,
        name: str,
        n: int,
        dtypes: Tuple[str, ...],
        classes: Tuple[str, ...],
    ) -> "SharedChunkMeta":
        return super().__new__(cls, (name, n, dtypes, classes))

    def __getnewargs__(self) -> Tuple:
        # tuple subclasses pickle through __new__; hand the fields back as
        # the positional arguments the custom signature expects.
        return tuple(self)

    @property
    def name(self) -> str:
        return self[0]

    @property
    def n(self) -> int:
        return self[1]

    @property
    def dtypes(self) -> Tuple[str, ...]:
        return self[2]

    @property
    def classes(self) -> Tuple[str, ...]:
        return self[3]


def _transport_dtype(column: np.ndarray, attribute_name: str) -> np.dtype:
    if column.dtype.kind not in "biuf":
        raise SchemaError(
            f"column {attribute_name!r} has dtype {column.dtype}; only numeric "
            "and boolean columns can ride shared memory (object columns would "
            "need pickling, which is what this transport exists to avoid)"
        )
    return column.dtype


def chunk_to_shared(chunk: Dataset) -> SharedChunkMeta:
    """Copy ``chunk`` (columns, then label codes) into a fresh shared-memory
    segment.

    Returns the :class:`SharedChunkMeta` the *consumer* process turns back
    into a dataset with :func:`chunk_from_shared`.  The producer's segment
    handle is closed immediately — ownership (including the unlink) passes
    to the consumer.
    """
    names = chunk.schema.attribute_names
    arrays: List[np.ndarray] = []
    dtypes: List[str] = []
    for name in names:
        column = np.ascontiguousarray(chunk.column(name))
        _transport_dtype(column, name)
        arrays.append(column)
        dtypes.append(column.dtype.str)
    arrays.append(np.ascontiguousarray(chunk.label_codes))
    total = sum(a.nbytes for a in arrays)
    segment = shared_memory.SharedMemory(create=True, size=max(total, 1))
    try:
        offset = 0
        for array in arrays:
            target = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf, offset=offset)
            target[:] = array
            offset += array.nbytes
        meta = SharedChunkMeta(segment.name, len(chunk), tuple(dtypes), chunk.classes)
    except BaseException:
        segment.close()
        segment.unlink()
        raise
    # Hand ownership to the consumer: this process only closes its mapping.
    # With the fork start method parent and children share one resource
    # tracker, which would otherwise try to unlink the segment again at
    # producer exit; unregister is best-effort (private API moved across
    # Python versions).
    try:  # pragma: no cover - depends on interpreter internals
        from multiprocessing import resource_tracker

        resource_tracker.unregister(segment._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:  # repro: ignore[broad-except] best-effort tracker opt-out
        pass
    segment.close()
    obs.event("shm.create", segment=meta.name, bytes=total, rows=len(chunk))
    return meta


def chunk_from_shared(schema: Schema, meta: SharedChunkMeta) -> Dataset:
    """Map a shared-memory segment back into a zero-copy
    :class:`~repro.data.dataset.Dataset`.

    The returned chunk owns the segment: when the chunk (and every subset
    taken from it) is garbage-collected, the segment is closed and unlinked.
    """
    # Attaching does not register with the resource tracker (only create
    # does), so no unregister dance is needed on the consumer side.
    segment = shared_memory.SharedMemory(name=meta.name)
    weakref.finalize(segment, _release_segment, segment.name)
    obs.event("shm.attach", segment=meta.name, rows=meta.n)
    names = schema.attribute_names
    columns: Dict[str, np.ndarray] = {}
    offset = 0
    for name, dtype_str in zip(names, meta.dtypes):
        dtype = np.dtype(dtype_str)
        columns[name] = np.ndarray(
            (meta.n,), dtype=dtype, buffer=segment.buf, offset=offset
        )
        offset += meta.n * dtype.itemsize
    codes = np.ndarray(
        (meta.n,), dtype=LABEL_CODE_DTYPE, buffer=segment.buf, offset=offset
    )
    return Dataset(
        schema, columns, codes, validate=False, classes=meta.classes, owner=segment
    )


def _release_segment(name: str) -> None:
    """Close-and-unlink helper used by the consumer-side finalizer."""
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return
    segment.close()
    try:
        segment.unlink()
    except FileNotFoundError:
        pass
    try:
        # Finalizers can fire during interpreter teardown, after the tracer
        # module has been torn down; losing the event then is fine.
        obs.event("shm.release", segment=name)
    except Exception:  # repro: ignore[broad-except] telemetry never breaks cleanup
        pass


def release_shared_chunk(chunk: Dataset) -> None:
    """Explicitly release a shared-memory-backed chunk's segment.

    Optional — the finalizer installed by :func:`chunk_from_shared` releases
    segments on garbage collection — but long-lived consumers that hold many
    chunk references can call this to bound shared-memory usage
    deterministically.  No-op for chunks not backed by shared memory.
    """
    owner = getattr(chunk, "_owner", None)
    if isinstance(owner, shared_memory.SharedMemory):
        _release_segment(owner.name)
