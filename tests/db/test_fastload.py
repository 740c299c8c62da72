"""Tests of the raw-page SQLite bulk writer and the store's raw load path."""

import os
import sqlite3
import stat
import subprocess
import sys

import numpy as np
import pytest

from repro.data.agrawal import AgrawalGenerator, agrawal_schema
from repro.data.dataset import Dataset
from repro.data.schema import CategoricalAttribute, ContinuousAttribute, Schema
from repro.db import fastload
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


# -- streaming writer, native label index, durability --------------------------


def btree_levels(path, root):
    """Cell counts of a b-tree's pages, level by level from ``root`` down."""
    with open(path, "rb") as handle:
        data = handle.read()
    size = int.from_bytes(data[16:18], "big")
    size = 65536 if size == 1 else size
    levels, current = [], [root]
    while current:
        counts, below = [], []
        for number in current:
            offset = (number - 1) * size
            header = offset + (100 if number == 1 else 0)
            ncell = int.from_bytes(data[header + 3 : header + 5], "big")
            counts.append(ncell)
            if data[header] in (2, 5):  # interior: children in key order
                for slot in range(ncell):
                    at = header + 12 + 2 * slot
                    pointer = offset + int.from_bytes(data[at : at + 2], "big")
                    below.append(int.from_bytes(data[pointer : pointer + 4], "big"))
                below.append(int.from_bytes(data[header + 8 : header + 12], "big"))
        levels.append(counts)
        current = below
    return levels


def index_records(path, root):
    """The records of an index b-tree in key order (dividers included)."""
    with open(path, "rb") as handle:
        data = handle.read()
    size = int.from_bytes(data[16:18], "big")
    size = 65536 if size == 1 else size
    records = []

    def walk(number):
        offset = (number - 1) * size
        interior = data[offset] == 2
        header = 12 if interior else 8
        for slot in range(int.from_bytes(data[offset + 3 : offset + 5], "big")):
            at = offset + header + 2 * slot
            cell = offset + int.from_bytes(data[at : at + 2], "big")
            if interior:
                walk(int.from_bytes(data[cell : cell + 4], "big"))
                cell += 4
            length = data[cell]  # payloads here are under 128 bytes
            records.append(data[cell + 1 : cell + 1 + length])
        if interior:
            walk(int.from_bytes(data[offset + 8 : offset + 12], "big"))

    walk(root)
    return records


def catalogue(path):
    connection = sqlite3.connect(path)
    try:
        return {
            name: (type_, root, sql)
            for type_, name, root, sql in connection.execute(
                "SELECT type, name, rootpage, sql FROM sqlite_master"
            )
        }
    finally:
        connection.close()


def check_indexed_store(path, classes, label_codes):
    """Integrity, index use, and index-served rowids per label."""
    connection = sqlite3.connect(path)
    try:
        assert connection.execute("PRAGMA integrity_check").fetchone()[0] == "ok"
        plan = connection.execute(
            'EXPLAIN QUERY PLAN SELECT COUNT(*) FROM "tuples" WHERE "class" = ?',
            (classes[0],),
        ).fetchall()
        assert "idx_tuples_class" in str(plan)
        for code, label in enumerate(classes):
            rowids = [
                row[0]
                for row in connection.execute(
                    'SELECT rowid FROM "tuples" INDEXED BY "idx_tuples_class" '
                    'WHERE "class" = ? ORDER BY "class", rowid',
                    (label,),
                )
            ]
            assert rowids == (np.flatnonzero(label_codes == code) + 1).tolist()
    finally:
        connection.close()
    for name, (_, root, _) in catalogue(path).items():
        for level in btree_levels(path, root)[:-1]:
            assert min(level) >= 1, f"{name} has an interior page without cells"


def raw_load(path, chunks, method="raw"):
    with TupleStore(agrawal_schema(), path=path) as store:
        store.create()
        return store.load(iter(chunks), method=method)


def codes_of(chunks):
    return np.concatenate([chunk.label_codes for chunk in chunks])


class TestInteriorPacker:
    @pytest.mark.parametrize("separator", [b"\x81\x00", b"\x07\x03\x11A\x01\x02\x03"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_no_page_without_cells_at_k_fanouts_plus_one(self, monkeypatch, separator, k):
        """Regression: a level whose last page got a single child was
        written with zero cells (a corrupt b-tree)."""
        monkeypatch.setattr(fastload, "PAGE", 512)
        fanout = (512 - 12) // (len(separator) + 6) + 1
        children = list(range(2, 2 + k * fanout + 1))
        separators = [separator] * (len(children) - 1)
        first = children[-1] + 1
        pages, root = fastload._interior_pages(children, separators, 5, first)
        numbered = {first + i: page for i, page in enumerate(pages)}
        for page in pages:
            assert int.from_bytes(page[3:5], "big") >= 1

        def in_order(number):
            if number not in numbered:
                return [number]
            page = numbered[number]
            out = []
            for slot in range(int.from_bytes(page[3:5], "big")):
                pointer = int.from_bytes(page[12 + 2 * slot : 14 + 2 * slot], "big")
                child = int.from_bytes(page[pointer : pointer + 4], "big")
                out += in_order(child) + [page[pointer + 4 : pointer + 4 + len(separator)]]
            return out + in_order(int.from_bytes(page[8:12], "big"))

        expected = [item for child in children for item in (child, separator)][:-1]
        assert in_order(root) == expected

    @pytest.mark.parametrize(
        "n, tree",
        [
            (22_250, "tuples"),  # table: the old packer's fan-out + 1 leaves
            (22_300, "tuples"),  # table: this packer's fan-out + 1 leaves
            (124_900, "idx_tuples_class"),  # index: fan-out + 1 leaves
        ],
    )
    def test_raw_load_at_fanout_plus_one_pages(self, tmp_path, monkeypatch, n, tree):
        monkeypatch.setattr(fastload, "PAGE", 4096)
        path = tmp_path / "t.db"
        chunks = list(AgrawalGenerator(function=2, seed=1).iter_chunks(n, chunk_size=50_000))
        assert raw_load(path, chunks) == n
        check_indexed_store(path, agrawal_schema().classes, codes_of(chunks))
        levels = btree_levels(path, catalogue(path)[tree][1])
        if n != 22_250:
            # The level above the leaves ends in a page holding one cell.
            assert levels[-2][-1] == 1


class TestNativeLabelIndex:
    @pytest.mark.parametrize("n", [1, 2, 3, 42, 43, 44, 45, 400, 401, 4_367, 8_737])
    def test_page_boundaries(self, tmp_path, monkeypatch, n):
        monkeypatch.setattr(fastload, "PAGE", 4096)
        path = tmp_path / "t.db"
        chunks = list(AgrawalGenerator(function=2, seed=n).iter_chunks(n, chunk_size=1_000))
        assert raw_load(path, chunks) == n
        check_indexed_store(path, agrawal_schema().classes, codes_of(chunks))

    def test_default_page_size(self, tmp_path):
        path = tmp_path / "t.db"
        chunks = generate_chunks(n=50_000)
        assert raw_load(path, chunks) == 50_000
        check_indexed_store(path, agrawal_schema().classes, codes_of(chunks))

    @pytest.mark.parametrize(
        "classes",
        [
            ("a", "bbbbbbbbbbbb", "cc"),  # different byte lengths
            ("b", "B", "ab", "a", "é", "Z" * 57),  # code order is not byte order
        ],
    )
    # 20,000 rows of mixed-length labels make over 4,096 runs per slice: the
    # bucketed-scatter fill.
    @pytest.mark.parametrize("n", [300, 20_000])
    def test_label_order_is_binary_collation(self, tmp_path, monkeypatch, classes, n):
        monkeypatch.setattr(fastload, "PAGE", 4096)
        schema = Schema(
            attributes=[ContinuousAttribute("x", 0.0, 1.0), CategoricalAttribute("k", (1, 2, 3))],
            classes=classes,
        )
        rng = np.random.default_rng(n)
        codes = rng.integers(0, len(classes), n)
        chunks = [
            Dataset(
                schema,
                {"x": rng.random(m), "k": rng.integers(1, 4, m)},
                codes[s : s + m],
            )
            for s, m in ((0, n // 3), (n // 3, n - n // 3))
        ]
        path = tmp_path / "t.db"
        with TupleStore(schema, path=path) as store:
            store.create()
            assert store.load(iter(chunks), method="raw") == n
            assert [label for _, label in store.iter_rows()] == [classes[c] for c in codes]
        check_indexed_store(path, classes, codes)

    def test_rows_lane_appends_maintain_the_index(self, tmp_path):
        path = tmp_path / "t.db"
        chunks = generate_chunks(n=10_000)
        extra = list(AgrawalGenerator(function=2, seed=99).iter_chunks(3_000, chunk_size=100))
        with TupleStore(agrawal_schema(), path=path) as store:
            store.create()
            store.load(iter(chunks), method="raw")
            for chunk in extra:
                store.load(chunk, method="rows")
            assert store.count() == 13_000
        check_indexed_store(path, agrawal_schema().classes, codes_of(chunks + extra))

    def test_mid_stream_refusal_finishes_then_loads_rows(self, tmp_path, monkeypatch):
        finished = []
        finish = RawSqliteWriter.finish

        def counting_finish(writer):
            finished.append(len(writer))
            return finish(writer)

        monkeypatch.setattr(RawSqliteWriter, "finish", counting_finish)
        chunks = list(AgrawalGenerator(function=2, seed=3).iter_chunks(9_000, chunk_size=1_000))
        refused = chunks[4]
        columns = dict(refused.columns)
        columns["salary"] = np.asarray(columns["salary"], dtype=object)
        chunks[4] = Dataset(refused.schema, columns, refused.label_codes, validate=False)
        path = tmp_path / "t.db"
        assert raw_load(path, chunks, method="auto") == 9_000
        assert finished == [4_000]
        check_indexed_store(path, agrawal_schema().classes, codes_of(chunks))
        assert os.listdir(tmp_path) == ["t.db"]

    def test_lock_byte_page_falls_back_to_rows(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fastload, "PAGE", 4096)
        monkeypatch.setattr(fastload, "LOCK_BYTE_OFFSET", 60 * 4096)
        finished = []
        finish = RawSqliteWriter.finish

        def measuring_finish(writer):
            rows = finish(writer)
            finished.append((rows, os.path.getsize(writer.path) // 4096))
            return rows

        monkeypatch.setattr(RawSqliteWriter, "finish", measuring_finish)
        chunks = list(AgrawalGenerator(function=2, seed=4).iter_chunks(6_000, chunk_size=250))
        path = tmp_path / "t.db"
        with pytest.raises(RawLoadUnsupported, match="lock-byte"):
            raw_load(path, chunks, method="raw")
        assert raw_load(tmp_path / "u.db", chunks, method="auto") == 6_000
        ((raw_rows, raw_pages),) = finished
        assert 0 < raw_rows < 6_000
        assert 50 < raw_pages < 60
        check_indexed_store(tmp_path / "u.db", agrawal_schema().classes, codes_of(chunks))

    def test_index_matches_create_index(self, tmp_path, monkeypatch):
        """The same records as CREATE INDEX builds (rowids in the serial
        types SQLite picks), in no more pages."""
        monkeypatch.setattr(fastload, "PAGE", 4096)
        path = tmp_path / "t.db"
        raw_load(path, generate_chunks(n=60_000))

        def index_pages():
            return sum(len(level) for level in btree_levels(path, catalogue(path)["idx_tuples_class"][1]))

        native = index_pages()
        records = index_records(path, catalogue(path)["idx_tuples_class"][1])
        connection = sqlite3.connect(path)
        try:
            ddl = connection.execute(
                "SELECT sql FROM sqlite_master WHERE name = 'idx_tuples_class'"
            ).fetchone()[0]
            connection.execute('DROP INDEX "idx_tuples_class"')
            connection.execute("VACUUM")
            connection.execute(ddl)
            connection.commit()
        finally:
            connection.close()
        assert native <= index_pages()
        assert records == index_records(path, catalogue(path)["idx_tuples_class"][1])

    def test_index_recorded_under_its_own_name_and_sql(self, tmp_path):
        path = tmp_path / "t.db"
        with TupleStore(agrawal_schema(), path=path) as store:
            store.create()
            before = catalogue(path)["idx_tuples_class"][2]
            store.load(iter(generate_chunks(n=500)))
        assert catalogue(path)["idx_tuples_class"][2] == before

    def test_table_without_index_gets_none(self, tmp_path):
        path = tmp_path / "t.db"
        with TupleStore(agrawal_schema(), path=path) as store:
            store.create(index_label=False)
            store.load(iter(generate_chunks(n=500)), method="raw")
        assert set(catalogue(path)) == {"tuples"}

    def test_other_index_takes_the_rows_lane(self, tmp_path, monkeypatch):
        def no_raw(*args, **kwargs):
            raise AssertionError("the raw writer must not run")

        path = tmp_path / "t.db"
        with TupleStore(agrawal_schema(), path=path) as store:
            store.create()
            store.connection.execute('CREATE INDEX "idx_age" ON "tuples" ("age")')
            store.connection.commit()
            with pytest.raises(RawLoadUnsupported):
                store.load(iter(generate_chunks(n=500)), method="raw")
            assert store.count() == 0
            monkeypatch.setattr(fastload.RawSqliteWriter, "__init__", no_raw)
            assert store.load(iter(generate_chunks(n=500))) == 500
            assert set(catalogue(path)) == {"tuples", "idx_tuples_class", "idx_age"}


class TestStreamingLifecycle:
    def test_fsyncs_file_and_directory_before_load_returns(self, tmp_path, monkeypatch):
        synced = []
        fsync = os.fsync

        def spy(descriptor):
            info = os.fstat(descriptor)
            synced.append((info.st_ino, stat.S_ISDIR(info.st_mode)))
            return fsync(descriptor)

        monkeypatch.setattr(os, "fsync", spy)
        path = tmp_path / "t.db"
        raw_load(path, generate_chunks(n=2_000))
        assert (os.stat(path).st_ino, False) in synced
        assert (os.stat(tmp_path).st_ino, True) in synced

    def test_failing_stream_leaves_target_intact(self, tmp_path):
        chunks = generate_chunks(n=3 * CHUNK)

        def failing():
            yield chunks[0]
            yield chunks[1]
            raise RuntimeError("upstream failed")

        path = tmp_path / "t.db"
        with TupleStore(agrawal_schema(), path=path) as store:
            store.create()
            with pytest.raises(RuntimeError, match="upstream failed"):
                store.load(failing(), method="raw")
            assert store.count() == 0
            assert store.connection.execute("PRAGMA integrity_check").fetchone()[0] == "ok"
            assert store.load(iter(chunks)) == 3 * CHUNK
        assert os.listdir(tmp_path) == ["t.db"]

    def test_explicit_raw_refusal_leaves_target_untouched(self, tmp_path):
        chunks = generate_chunks(n=3 * CHUNK)
        columns = dict(chunks[1].columns)
        columns["age"] = np.asarray(columns["age"], dtype=object)
        chunks[1] = Dataset(chunks[1].schema, columns, chunks[1].label_codes, validate=False)
        path = tmp_path / "t.db"
        with TupleStore(agrawal_schema(), path=path) as store:
            store.create()
            with pytest.raises(RawLoadUnsupported, match="non-numeric"):
                store.load(iter(chunks), method="raw")
            assert store.count() == 0
        assert os.listdir(tmp_path) == ["t.db"]

    def test_finish_error_leaves_store_open(self, tmp_path, monkeypatch):
        def broken(writer):
            raise OSError("disk full")

        monkeypatch.setattr(RawSqliteWriter, "_write_index", broken)
        path = tmp_path / "t.db"
        with TupleStore(agrawal_schema(), path=path) as store:
            store.create()
            with pytest.raises(DatabaseError, match="disk full"):
                store.load(iter(generate_chunks(n=500)))
            assert store.count() == 0
        assert os.listdir(tmp_path) == ["t.db"]

    @pytest.mark.parametrize("method", ["auto", "raw", "rows"])
    def test_empty_inputs_load_nothing_and_keep_the_store_open(self, tmp_path, method):
        """Regression: an empty dataset on the raw lane raised IndexError
        from finish() and left the store closed."""
        data = AgrawalGenerator(function=2, seed=1).generate(50)
        empty = data.subset(slice(0, 0))
        path = tmp_path / "t.db"
        with TupleStore(agrawal_schema(), path=path) as store:
            store.create()
            assert store.load(empty, method=method) == 0
            assert store.load(iter(()), method=method) == 0
            assert store.load(iter([empty, empty]), method=method) == 0
            assert store.count() == 0
            assert store.load(iter([empty, data, empty]), method=method) == 50
            assert store.count() == 50
        assert os.listdir(tmp_path) == ["t.db"]

    def test_replaced_file_keeps_the_target_mode(self, tmp_path):
        path = tmp_path / "t.db"
        with TupleStore(agrawal_schema(), path=path) as store:
            store.create()
            os.chmod(path, 0o640)
            store.load(iter(generate_chunks(n=500)), method="raw")
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o640

    def test_writer_without_finish_removes_its_temporary_file(self, tmp_path):
        path = tmp_path / "t.db"
        with RawSqliteWriter(path, agrawal_schema()) as writer:
            writer.append(generate_chunks(n=CHUNK)[0])
            assert len(os.listdir(tmp_path)) == 1
        assert os.listdir(tmp_path) == []

    def test_writer_of_only_empty_chunks_writes_an_empty_table(self, tmp_path):
        path = tmp_path / "t.db"
        empty = generate_chunks(n=10)[0].subset(slice(0, 0))
        with RawSqliteWriter(path, agrawal_schema()) as writer:
            writer.append(empty)
            assert writer.finish() == 0
        connection = sqlite3.connect(path)
        try:
            assert connection.execute("PRAGMA integrity_check").fetchone()[0] == "ok"
            assert connection.execute('SELECT COUNT(*) FROM "tuples"').fetchone()[0] == 0
        finally:
            connection.close()

    def test_appended_rows_are_copied(self, tmp_path):
        """No chunk buffer outlives its append: the carried rows are copies."""
        generated = generate_chunks(n=1_000)[0]
        salary = np.array(generated.column("salary"))
        columns = dict(generated.columns)
        columns["salary"] = salary
        chunk = Dataset(generated.schema, columns, generated.label_codes, validate=False)
        path = tmp_path / "t.db"
        with RawSqliteWriter(path, agrawal_schema()) as writer:
            writer.append(chunk)
            expected = salary.copy()
            salary[:] = -1.0
            writer.finish()
        connection = sqlite3.connect(path)
        try:
            stored = [row[0] for row in connection.execute('SELECT "salary" FROM "tuples" ORDER BY rowid')]
        finally:
            connection.close()
        assert np.array_equal(np.asarray(stored), expected)


class TestBoundedMemory:
    def test_raw_pipeline_peak_rss_does_not_grow_with_n(self, tmp_path):
        script = (
            "import resource, sys\n"
            "from repro.pipeline import run_pipeline\n"
            "run_pipeline(int(sys.argv[1]), function=2, chunk_size=100_000, "
            "db_path=sys.argv[2], store_method='raw', index_label=True)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        peaks = []
        for n in (400_000, 1_600_000):
            done = subprocess.run(
                [sys.executable, "-c", script, str(n), str(tmp_path / f"p{n}.db")],
                capture_output=True, text=True, env=env, check=True,
            )
            peaks.append(int(done.stdout.split()[-1]) / 1024)
        assert peaks[1] - peaks[0] < 32, peaks
