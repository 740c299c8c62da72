"""Tests of the raw-page SQLite bulk writer and the store's raw load path."""

import sqlite3

import numpy as np
import pytest

from repro.data.agrawal import AgrawalGenerator, agrawal_schema
from repro.data.dataset import Dataset
from repro.data.schema import CategoricalAttribute, ContinuousAttribute, Schema
from repro.db.fastload import RawLoadUnsupported, RawSqliteWriter, schema_supports_raw
from repro.db.store import TupleStore
from repro.exceptions import DatabaseError

N = 20_000
CHUNK = 4_096


def generate_chunks(function=2, n=N, seed=17):
    generator = AgrawalGenerator(function=function, perturbation=0.05, seed=seed)
    return list(generator.iter_chunks(n, chunk_size=CHUNK))


class TestEligibility:
    def test_agrawal_schema_supported(self):
        assert schema_supports_raw(agrawal_schema())

    def test_text_columns_unsupported(self):
        schema = Schema(
            attributes=[CategoricalAttribute("kind", ("x", "y"))],
            classes=("A", "B"),
        )
        assert not schema_supports_raw(schema)

    def test_long_labels_unsupported(self):
        schema = Schema(
            attributes=[ContinuousAttribute("x", 0.0, 1.0)],
            classes=("A", "B" * 80),
        )
        assert not schema_supports_raw(schema)

    def test_memory_store_falls_back(self, tmp_path):
        chunks = generate_chunks(n=500)
        with TupleStore(agrawal_schema()) as store:
            store.create()
            assert store.load(iter(chunks)) == 500
            with pytest.raises(DatabaseError, match="raw"):
                store.load(iter(chunks), method="raw")

    def test_explicit_raw_never_clobbers_loaded_rows(self, tmp_path):
        chunks = generate_chunks(n=500)
        path = tmp_path / "t.db"
        with TupleStore(agrawal_schema(), path=path) as store:
            store.create()
            store.load(iter(chunks), method="raw")
            with pytest.raises(DatabaseError, match="raw"):
                store.load(iter(chunks), method="raw")
            assert store.count() == 500

    def test_auto_appends_through_driver_on_populated_store(self, tmp_path):
        chunks = generate_chunks(n=500)
        path = tmp_path / "t.db"
        with TupleStore(agrawal_schema(), path=path) as store:
            store.create()
            store.load(iter(chunks))
            store.load(iter(chunks))  # auto: falls back to driver rows
            assert store.count() == 1000


    def test_auto_takes_the_raw_lane_for_a_columnar_dataset(self, tmp_path, monkeypatch):
        finished = []
        finish = RawSqliteWriter.finish

        def counting_finish(writer):
            finished.append(len(writer))
            return finish(writer)

        monkeypatch.setattr(RawSqliteWriter, "finish", counting_finish)
        data = AgrawalGenerator(function=2, perturbation=0.05, seed=5).generate(800)
        with TupleStore(agrawal_schema(), path=tmp_path / "t.db") as store:
            store.create()
            assert store.load(data) == 800
            assert list(store.iter_rows())[0] == (data.records[0], data.labels[0])
        assert finished == [800]

    def test_auto_takes_the_raw_lane_for_a_record_built_dataset(self, tmp_path, monkeypatch):
        finished = []
        finish = RawSqliteWriter.finish

        def counting_finish(writer):
            finished.append(len(writer))
            return finish(writer)

        monkeypatch.setattr(RawSqliteWriter, "finish", counting_finish)
        generated = AgrawalGenerator(function=2, perturbation=0.05, seed=5).generate(300)
        data = Dataset.from_records(agrawal_schema(), generated.records, generated.labels)
        with TupleStore(agrawal_schema(), path=tmp_path / "t.db") as store:
            store.create()
            assert store.load(data) == 300
            assert list(store.iter_rows()) == list(zip(generated.records, generated.labels))
        assert finished == [300]

    def test_auto_fallback_keeps_the_refused_chunk_and_the_rest(self, tmp_path):
        """Regression: when the raw writer refused a chunk part-way through a
        stream, only the chunks before it were loaded and the count said so."""
        chunks = list(
            AgrawalGenerator(function=2, seed=3).iter_chunks(300, chunk_size=100)
        )
        refused = chunks[1]
        columns = dict(refused.columns)
        columns["salary"] = np.asarray(columns["salary"], dtype=object)
        chunks[1] = Dataset(refused.schema, columns, refused.label_codes, validate=False)
        with TupleStore(agrawal_schema(), path=tmp_path / "t.db") as store:
            store.create()
            assert store.load(iter(chunks)) == 300
            stored = [label for _, label in store.iter_rows()]
        assert stored == [label for chunk in chunks for label in chunk.labels]


class TestRawEqualsRows:
    @pytest.mark.parametrize("function", range(1, 11))
    def test_stored_rows_byte_equal_across_methods(self, tmp_path, function):
        """Raw page writes and driver inserts produce identical stored rows."""
        chunks = generate_chunks(function=function, n=3_000, seed=function)
        raw_path = tmp_path / f"raw_{function}.db"
        rows_path = tmp_path / f"rows_{function}.db"
        with TupleStore(agrawal_schema(), path=raw_path) as store:
            store.create()
            assert store.load(iter(chunks), method="raw") == 3_000
            raw_rows = list(store.iter_rows())
        with TupleStore(agrawal_schema(), path=rows_path) as store:
            store.create()
            assert store.load(iter(chunks), method="rows") == 3_000
            driver_rows = list(store.iter_rows())
        assert raw_rows == driver_rows

    def test_raw_file_passes_integrity_check(self, tmp_path):
        path = tmp_path / "t.db"
        with TupleStore(agrawal_schema(), path=path) as store:
            store.create()
            store.load(iter(generate_chunks()), method="raw")
        connection = sqlite3.connect(path)
        try:
            assert (
                connection.execute("PRAGMA integrity_check").fetchone()[0] == "ok"
            )
        finally:
            connection.close()

    def test_label_index_recreated_after_raw_write(self, tmp_path):
        path = tmp_path / "t.db"
        with TupleStore(agrawal_schema(), path=path) as store:
            store.create()  # creates idx on the class column
            store.load(iter(generate_chunks(n=2_000)), method="raw")
            indexes = [
                row[0]
                for row in store.connection.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'index'"
                )
            ]
            assert any("class" in name for name in indexes)
            assert store.class_distribution()  # the index is usable

    def test_post_raw_dml_works(self, tmp_path):
        path = tmp_path / "t.db"
        chunks = generate_chunks(n=1_000)
        with TupleStore(agrawal_schema(), path=path) as store:
            store.create()
            store.load(iter(chunks), method="raw")
            # The written file is a live database: ordinary DML must work.
            store.connection.execute('DELETE FROM "tuples" WHERE rowid <= 100')
            store.connection.commit()
            assert store.count() == 900
            store.load(iter(chunks))  # driver append onto the raw file
            assert store.count() == 1_900

    def test_mixed_dataset_inputs_accepted(self, tmp_path):
        data = AgrawalGenerator(function=2, perturbation=0.05, seed=5).generate(800)
        path = tmp_path / "t.db"
        with TupleStore(agrawal_schema(), path=path) as store:
            store.create()
            assert store.load(data, method="raw") == 800
            assert list(store.iter_rows())[0][0] == data.records[0]


class TestWriterDirect:
    def test_empty_writer_rejected(self, tmp_path):
        writer = RawSqliteWriter(str(tmp_path / "t.db"), agrawal_schema())
        with pytest.raises(DatabaseError, match="no chunks"):
            writer.finish()

    def test_append_validates_schema(self, tmp_path):
        writer = RawSqliteWriter(str(tmp_path / "t.db"), agrawal_schema())
        other = Schema(
            attributes=[ContinuousAttribute("x", 0.0, 1.0)], classes=("A", "B")
        )
        chunk = Dataset(other, {"x": np.array([0.5])}, np.array([0]))
        with pytest.raises(DatabaseError):
            writer.append(chunk)

    def test_rowid_order_is_append_order(self, tmp_path):
        chunks = generate_chunks(n=CHUNK * 3)
        path = tmp_path / "t.db"
        writer = RawSqliteWriter(str(path), agrawal_schema())
        for chunk in chunks:
            writer.append(chunk)
        assert writer.finish() == CHUNK * 3
        connection = sqlite3.connect(path)
        try:
            salaries = [
                row[0]
                for row in connection.execute(
                    'SELECT "salary" FROM "tuples" ORDER BY rowid'
                )
            ]
        finally:
            connection.close()
        expected = np.concatenate([c.column("salary") for c in chunks])
        assert np.array_equal(np.asarray(salaries), expected)
