"""Tests of the tuple store: bulk load, aggregate reads, streaming out."""

import numpy as np
import pytest

from repro.data.agrawal import AgrawalGenerator, agrawal_schema
from repro.data.dataset import Dataset
from repro.data.schema import CategoricalAttribute, ContinuousAttribute, Schema
from repro.db.store import TupleStore
from repro.exceptions import DatabaseError, SchemaError


@pytest.fixture(scope="module")
def small_data():
    return AgrawalGenerator(function=2, perturbation=0.05, seed=11).generate(500)


@pytest.fixture()
def store():
    with TupleStore(agrawal_schema()) as s:
        s.create()
        yield s


class TestLifecycle:
    def test_create_is_idempotent(self, store):
        store.create()
        assert store.table_exists()

    def test_drop_recreates_empty(self, store, small_data):
        store.load(small_data)
        store.create(drop=True)
        assert store.count() == 0

    def test_reads_before_create_fail(self):
        with TupleStore(agrawal_schema()) as s:
            with pytest.raises(DatabaseError, match="does not exist"):
                s.count()
            with pytest.raises(DatabaseError, match="does not exist"):
                s.load(AgrawalGenerator(seed=1).generate(5))

    def test_closed_store_rejects_use(self, small_data):
        s = TupleStore(agrawal_schema())
        s.create()
        s.close()
        with pytest.raises(DatabaseError, match="closed"):
            s.count()

    def test_class_column_collision_rejected(self):
        with pytest.raises(DatabaseError, match="collides"):
            TupleStore(agrawal_schema(), class_column="salary")

    def test_repr_mentions_state(self, store):
        assert "open" in repr(store)
        store.close()
        assert "closed" in repr(store)


class TestLoad:
    def test_columnar_dataset_loads(self, store, small_data):
        assert store.load(small_data) == len(small_data)
        assert store.count() == len(small_data)
        assert len(store) == len(small_data)

    def test_chunk_stream_loads_in_bounded_batches(self, store):
        generator = AgrawalGenerator(function=2, perturbation=0.05, seed=11)
        n = store.load(generator.iter_chunks(500, chunk_size=64), batch_size=50)
        assert n == 500
        assert store.count() == 500

    def test_chunked_load_equals_one_shot_load(self, store, small_data):
        store.load(
            AgrawalGenerator(function=2, perturbation=0.05, seed=11).iter_chunks(
                500, chunk_size=64
            )
        )
        streamed = [row for row in store.iter_rows()]
        expected = list(zip(small_data.records, small_data.labels))
        assert streamed == expected

    def test_record_built_dataset_loads(self, store, small_data):
        dataset = Dataset.from_records(
            small_data.schema, small_data.records, small_data.labels
        )
        store.load(dataset)
        assert list(store.iter_rows()) == list(zip(small_data.records, small_data.labels))

    def test_append_semantics(self, store, small_data):
        store.load(small_data)
        store.load(small_data)
        assert store.count() == 2 * len(small_data)

    def test_schema_mismatch_rejected(self, store):
        other = Schema(
            attributes=[ContinuousAttribute("x", 0.0, 1.0), CategoricalAttribute("y", (0, 1))],
            classes=("A", "B"),
        )
        chunk = Dataset.from_records(
            other, [{"x": 0.5, "y": 1}], ["A"]
        )
        with pytest.raises(DatabaseError, match="does not match"):
            store.load(chunk)

    def test_non_dataset_chunk_rejected(self, store):
        with pytest.raises(DatabaseError, match="iterable of them"):
            store.load([{"salary": 1.0}])  # type: ignore[list-item]

    def test_bad_batch_size_rejected(self, store, small_data):
        with pytest.raises(DatabaseError, match="batch size"):
            store.load(small_data, batch_size=0)


class TestLoadRecords:
    def test_records_with_label_key(self, store, small_data):
        rows = (
            {**record, "class": label}
            for record, label in zip(small_data.records, small_data.labels)
        )
        assert store.load_records(rows, batch_size=64) == len(small_data)
        assert store.class_distribution() == small_data.class_distribution()

    def test_validation_rejects_out_of_domain(self, store):
        rows = [{"salary": -1.0, "class": "A"}]
        with pytest.raises(Exception):
            store.load_records(iter(rows), validate=True)

    def test_validation_rejects_unknown_label(self, store, small_data):
        rows = [
            {**record, "class": label}
            for record, label in zip(small_data.records[:3], ["A", "Z", "B"])
        ]
        with pytest.raises(SchemaError, match="unknown class label 'Z'"):
            store.load_records(iter(rows), validate=True)
        assert store.count() == 0

    def test_missing_label_rejected(self, store, small_data):
        rows = [dict(small_data.records[0])]
        with pytest.raises(DatabaseError, match="missing its label"):
            store.load_records(iter(rows))

    def test_missing_attribute_rejected(self, store):
        rows = [{"salary": 1.0, "class": "A"}]
        with pytest.raises(DatabaseError, match="missing attribute"):
            store.load_records(iter(rows))

    def test_driver_errors_wrapped(self, store, small_data):
        """Regression: a NULL value violating NOT NULL surfaced as a raw
        sqlite3.IntegrityError traceback instead of DatabaseError."""
        record = dict(small_data.records[0])
        record["salary"] = None
        record["class"] = "A"
        with pytest.raises(DatabaseError, match="cannot load records"):
            store.load_records(iter([record]))


class TestReads:
    def test_class_distribution_matches_dataset(self, store, small_data):
        store.load(small_data)
        assert store.class_distribution() == small_data.class_distribution()

    def test_iter_rows_round_trip(self, store, small_data):
        store.load(small_data)
        rows = list(store.iter_rows(fetch_size=37))
        assert [r for r, _ in rows] == small_data.records
        assert [l for _, l in rows] == small_data.labels

    def test_iter_chunks_round_trip(self, store, small_data):
        store.load(small_data)
        chunks = list(store.iter_chunks(chunk_size=128))
        assert all(len(chunk) <= 128 for chunk in chunks)
        assert sum(len(chunk) for chunk in chunks) == len(small_data)
        merged_labels = np.concatenate([c.label_array() for c in chunks])
        assert merged_labels.tolist() == small_data.labels
        # Schema-typed dtypes survive the round trip.
        first = chunks[0]
        assert first.column("age").dtype == np.int64
        assert first.column("salary").dtype == np.float64
        # And the records materialise identically to the generated ones.
        restored = [r for chunk in chunks for r in chunk.records]
        assert restored == small_data.records

    def test_iter_chunks_bad_size_rejected(self, store, small_data):
        store.load(small_data)
        with pytest.raises(DatabaseError, match="chunk size"):
            list(store.iter_chunks(chunk_size=0))

    def test_empty_store_streams_nothing(self, store):
        assert list(store.iter_rows()) == []
        assert list(store.iter_chunks()) == []
        assert store.class_distribution() == {"A": 0, "B": 0}


class TestBooleanRoundTrip:
    def test_boolean_domain_round_trips_as_booleans(self):
        """Regression: read-back typing drifted from the DDL mapping — a
        loaded True came back as the integer 1 instead of a boolean."""
        schema = Schema(
            attributes=[
                ContinuousAttribute("x", 0.0, 10.0),
                CategoricalAttribute("flag", (True, False)),
            ],
            classes=("A", "B"),
        )
        data = Dataset.from_records(
            schema,
            [{"x": 1.0, "flag": True}, {"x": 9.0, "flag": False}],
            ["A", "B"],
        )
        # Records build the same column the store reads back: one typing rule.
        assert data.column("flag").dtype == np.bool_
        assert all(type(record["flag"]) is bool for record in data.records)
        with TupleStore(schema) as store:
            store.create()
            store.load(data)
            chunks = list(store.iter_chunks())
        restored = [r for chunk in chunks for r in chunk.records]
        assert restored == [
            {"x": 1.0, "flag": True},
            {"x": 9.0, "flag": False},
        ]
        assert all(type(record["flag"]) is bool for record in restored)
        assert chunks[0].column("flag").dtype == np.bool_

    def test_records_reject_non_boolean_flags(self):
        schema = Schema(
            attributes=[CategoricalAttribute("flag", (True, False))],
            classes=("A", "B"),
        )
        with pytest.raises(SchemaError, match="not in domain"):
            Dataset.from_records(schema, [{"flag": True}, {"flag": 2}], ["A", "B"])


class TestQualifiedTable:
    def test_dot_qualified_relation_round_trips(self, small_data):
        """Regression: the index DDL and the sqlite_master existence check
        both mishandled a schema-qualified relation like ``main.tuples``."""
        with TupleStore(agrawal_schema(), table="main.tuples") as store:
            store.create()
            assert store.table_exists()
            store.load(small_data)
            assert store.count() == len(small_data)
            assert list(store.iter_rows())[0][0] == small_data.records[0]


class TestOnDisk:
    def test_file_backed_store_persists(self, tmp_path, small_data):
        path = tmp_path / "tuples.db"
        with TupleStore(agrawal_schema(), path=path) as store:
            store.create()
            store.load(small_data)
        with TupleStore(agrawal_schema(), path=path) as reopened:
            assert reopened.count() == len(small_data)
            assert reopened.class_distribution() == small_data.class_distribution()
