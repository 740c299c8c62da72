"""Tests of the chunk plumbing: generator chunks, the shared-memory transport
and n-way concat."""

import pickle

import numpy as np
import pytest

from repro.data.agrawal import AgrawalGenerator, agrawal_schema
from repro.data.chunks import (
    SharedChunkMeta,
    chunk_from_shared,
    chunk_to_shared,
    concat_chunks,
    release_shared_chunk,
)
from repro.data.dataset import Dataset
from repro.data.schema import CategoricalAttribute, ContinuousAttribute, Schema
from repro.exceptions import SchemaError


@pytest.fixture(scope="module")
def schema():
    return agrawal_schema()


@pytest.fixture(scope="module")
def chunk():
    return AgrawalGenerator(function=2, perturbation=0.05, seed=13).generate(400)


@pytest.fixture(scope="module")
def streamed():
    """The same 400 tuples as ``chunk``, streamed as generator chunks."""
    generator = AgrawalGenerator(function=2, perturbation=0.05, seed=13)
    return list(generator.iter_chunks(400, chunk_size=150))


def pieces(data, size):
    """Zero-copy consecutive subsets of at most ``size`` rows."""
    return [data.subset(slice(start, start + size)) for start in range(0, len(data), size)]


class TestConstruction:
    def test_missing_column_rejected(self, schema, chunk):
        columns = dict(chunk.columns)
        del columns["salary"]
        with pytest.raises(SchemaError, match="missing"):
            Dataset(schema, columns, chunk.label_codes)

    def test_ragged_columns_rejected(self, schema, chunk):
        columns = dict(chunk.columns)
        columns["salary"] = columns["salary"][:-1]
        with pytest.raises(SchemaError, match="length"):
            Dataset(schema, columns, chunk.label_codes)


class TestColumnarSurface:
    def test_len(self, chunk, streamed):
        assert [len(piece) for piece in streamed] == [150, 150, 100]
        assert sum(len(piece) for piece in streamed) == len(chunk)

    def test_compiled_rules_evaluate_on_chunks(self, chunk, streamed):
        from repro.serving.reference import reference_ruleset

        compiled = reference_ruleset(2).compiled()
        streamed_labels = [
            label for piece in streamed for label in compiled.predict_batch(piece).tolist()
        ]
        assert streamed_labels == compiled.predict_batch(chunk).tolist()


class TestLabels:
    def test_label_array_matches_dataset(self, chunk, streamed):
        assert [label for piece in streamed for label in piece.label_array().tolist()] == (
            chunk.label_array().tolist()
        )
        assert sum((piece.labels for piece in streamed), []) == chunk.labels


class TestSlicing:
    def test_slice_is_zero_copy(self, streamed):
        piece = streamed[0]
        window = piece.subset(slice(10, 60))
        assert len(window) == 50
        assert np.shares_memory(window.column("salary"), piece.column("salary"))
        assert window.labels == piece.labels[10:60]

    def test_iter_rows_matches_records(self, chunk, streamed):
        rows = [row for piece in streamed for row in piece.iter_rows()]
        assert [r for r, _ in rows] == chunk.records
        assert [label for _, label in rows] == chunk.labels


class TestConcat:
    def test_concat_restores_pieces(self, chunk):
        merged = concat_chunks(pieces(chunk, 64))
        assert isinstance(merged, Dataset)
        assert merged.labels == chunk.labels
        for name in chunk.schema.attribute_names:
            assert np.array_equal(merged.column(name), chunk.column(name))

    def test_instance_concat_agrees(self, chunk):
        first, second = chunk.subset(slice(0, 100)), chunk.subset(slice(100, None))
        assert first.concat(second).labels == concat_chunks([first, second]).labels

    def test_single_chunk_passes_through(self, chunk):
        assert concat_chunks([chunk]) is chunk

    def test_zero_chunks_rejected(self):
        with pytest.raises(SchemaError, match="zero chunks"):
            concat_chunks([])

    def test_class_vocabularies_must_agree(self, chunk):
        other = chunk.with_label_codes(chunk.label_codes, classes=("B", "A"))
        with pytest.raises(SchemaError, match="class vocabularies"):
            concat_chunks([chunk, other])


class TestSharedMemoryTransport:
    def test_round_trip_bit_identical(self, schema, chunk):
        meta = chunk_to_shared(chunk)
        restored = chunk_from_shared(schema, meta)
        try:
            assert isinstance(restored, Dataset)
            for name in schema.attribute_names:
                column = restored.column(name)
                assert column.dtype == chunk.column(name).dtype
                assert np.array_equal(column, chunk.column(name))
            assert restored.labels == chunk.labels
            assert restored.classes == chunk.classes
        finally:
            release_shared_chunk(restored)

    def test_subsets_keep_the_segment_alive(self, schema, chunk):
        from multiprocessing import shared_memory

        meta = chunk_to_shared(chunk)
        window = chunk_from_shared(schema, meta).subset(slice(10, 20))
        try:
            # The parent dataset is gone; its segment must outlive it.
            shared_memory.SharedMemory(name=meta.name).close()
            assert window.labels == chunk.labels[10:20]
        finally:
            release_shared_chunk(window)

    def test_release_removes_segment(self, schema, chunk):
        from multiprocessing import shared_memory

        meta = chunk_to_shared(chunk)
        restored = chunk_from_shared(schema, meta)
        release_shared_chunk(restored)
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=meta.name)

    def test_release_is_noop_for_plain_chunks(self, chunk):
        release_shared_chunk(chunk)  # must not raise

    def test_meta_survives_pickling(self):
        meta = SharedChunkMeta("seg", 10, ("<f8",), ("A", "B"))
        clone = pickle.loads(pickle.dumps(meta))
        assert clone == meta
        assert clone.name == "seg" and clone.n == 10 and clone.classes == ("A", "B")

    def test_object_columns_rejected(self):
        schema = Schema(
            attributes=[CategoricalAttribute("kind", ("x", "y"))],
            classes=("A", "B"),
        )
        column = np.empty(2, dtype=object)
        column[:] = ["x", "y"]
        chunk = Dataset(schema, {"kind": column}, ["A", "B"])
        with pytest.raises(SchemaError, match="shared memory"):
            chunk_to_shared(chunk)


class TestBooleanColumns:
    def test_boolean_columns_survive_the_fabric(self):
        schema = Schema(
            attributes=[
                ContinuousAttribute("x", 0.0, 10.0),
                CategoricalAttribute("flag", (True, False)),
            ],
            classes=("A", "B"),
        )
        chunk = Dataset(
            schema,
            {
                "x": np.array([1.0, 2.0]),
                "flag": np.array([True, False]),
            },
            np.array([0, 1], dtype=np.int64),
        )
        meta = chunk_to_shared(chunk)
        restored = chunk_from_shared(schema, meta)
        try:
            assert restored.column("flag").dtype == np.bool_
            assert restored.records == chunk.records
        finally:
            release_shared_chunk(restored)
