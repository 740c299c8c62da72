"""The tuple store: bulk-loading labelled tuples into SQLite, streaming out.

:class:`TupleStore` owns one :mod:`sqlite3` connection and one relation whose
columns are derived from a :class:`~repro.data.schema.Schema` (see
:func:`repro.db.schema.schema_ddl`).  The store speaks the library's one
dataset type in both directions: :meth:`TupleStore.load` takes a
:class:`~repro.data.dataset.Dataset` — or a multi-million-tuple stream of
them such as :meth:`AgrawalGenerator.iter_chunks
<repro.data.agrawal.AgrawalGenerator.iter_chunks>` — through the raw-page
writer or batched ``executemany`` over bounded slices of its columns, so
the tuples land on disk without ever materialising as dicts; reading back
is symmetric — :meth:`TupleStore.iter_chunks` turns cursor pages back into
``Dataset`` chunks for the NumPy inference path, and
:meth:`TupleStore.iter_rows` yields per-record dicts for anything
record-oriented.  Label-carrying record mappings (a JSONL or CSV export)
load through :meth:`TupleStore.load_records`.

Row order is insertion order throughout (every read is ``ORDER BY rowid``),
which is what makes label arrays produced inside the database comparable
tuple-for-tuple with the in-memory evaluation paths.
"""

from __future__ import annotations

import itertools
import sqlite3
import threading
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro import obs
from repro.data.dataset import Dataset, Record, storage_dtype
from repro.data.schema import Schema
from repro.db.dialect import SQLITE, SqlDialect
from repro.db.fastload import (
    RawLoadUnsupported,
    RawSqliteWriter,
    schema_supports_raw,
)
from repro.db.schema import (
    _check_class_column,
    drop_table_ddl,
    insert_sql,
    label_index_ddl,
    schema_ddl,
)
from repro.exceptions import DatabaseError

PathLike = Union[str, Path]

#: Rows inserted per ``executemany`` call; bounds resident memory during
#: bulk loads whatever the input size is.
DEFAULT_BATCH_SIZE = 50_000

#: Rows fetched per cursor page when streaming back out.
DEFAULT_FETCH_SIZE = 50_000


def dataset_rows(data: Dataset) -> Iterator[Tuple]:
    """``executemany``-ready insertion rows of a dataset, label last, in order.

    Columns convert through ``tolist()`` (Python scalars — sqlite3 rejects
    NumPy integer scalars) and are zipped directly, never materialising (or
    caching) per-record dicts.
    """
    lists = [data.column(name).tolist() for name in data.schema.attribute_names]
    return iter(zip(*lists, data.label_array().tolist()))


def insert_in_batches(
    connection: sqlite3.Connection,
    sql: str,
    rows: Iterator[Tuple],
    batch_size: int,
) -> int:
    """``executemany`` an arbitrary row iterator in bounded slices.

    Shared by the store's bulk loads and the predictor's staging inserts so
    the accumulate/flush logic exists exactly once.  Returns the row count.
    """
    inserted = 0
    batch: List[Tuple] = []
    for row in rows:
        batch.append(row)
        if len(batch) >= batch_size:
            connection.executemany(sql, batch)
            inserted += len(batch)
            batch = []
    if batch:
        connection.executemany(sql, batch)
        inserted += len(batch)
    return inserted


class TupleStore:
    """A schema-typed SQLite relation holding labelled tuples.

    Parameters
    ----------
    schema:
        Attribute schema of the stored relation; drives the DDL and every
        read path's column order.
    path:
        SQLite database file, or ``":memory:"`` (the default) for an
        in-process store.
    table:
        Relation name (default ``tuples``).
    class_column:
        Label column name (default ``class``); must not collide with an
        attribute name.
    dialect:
        Rendering dialect; SQLite unless you are generating statements for
        another engine through the same code path.
    """

    def __init__(
        self,
        schema: Schema,
        path: PathLike = ":memory:",
        table: str = "tuples",
        class_column: str = "class",
        dialect: SqlDialect = SQLITE,
    ) -> None:
        _check_class_column(schema, class_column)
        self.schema = schema
        self.table = table
        self.class_column = class_column
        self.dialect = dialect
        self.path = str(path)
        # check_same_thread=False lets the serving layer's dispatch threads
        # run pushdown batches; every store method and the bound predictor
        # serialise connection use through `lock` (sqlite3 objects are safe
        # to share once calls do not interleave), and the streaming readers
        # fully consume one short-lived cursor per page so no cursor is ever
        # left open across a yield.
        try:
            self._connection: Optional[sqlite3.Connection] = sqlite3.connect(
                self.path, check_same_thread=False
            )
        except sqlite3.Error as exc:
            raise DatabaseError(
                f"cannot open SQLite database {self.path!r}: {exc}"
            ) from exc
        #: Reentrant guard serialising connection use across threads; the
        #: predictor bound to this store shares it.
        self.lock = threading.RLock()
        self._insert = insert_sql(schema, table, class_column, dialect)

    # -- connection lifecycle ----------------------------------------------

    @property
    def connection(self) -> sqlite3.Connection:
        """The live connection; :class:`DatabaseError` after :meth:`close`."""
        if self._connection is None:
            raise DatabaseError(f"tuple store over {self.path!r} is closed")
        return self._connection

    def close(self) -> None:
        # Under the lock so a close racing with an in-flight query (or a
        # bound predictor's scan) cannot yank the connection mid-statement.
        with self.lock:
            if self._connection is not None:
                self._connection.close()
                self._connection = None

    def __enter__(self) -> "TupleStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._connection is None else "open"
        return (
            f"TupleStore(path={self.path!r}, table={self.table!r}, "
            f"attributes={self.schema.n_attributes}, {state})"
        )

    # -- DDL ----------------------------------------------------------------

    def create(self, drop: bool = False, index_label: bool = True) -> None:
        """Create the relation (and the label index) from the schema.

        ``drop=True`` replaces an existing relation; otherwise creation is
        idempotent (``IF NOT EXISTS``).
        """
        with self.lock:
            self._create_locked(drop, index_label)

    def _create_locked(self, drop: bool, index_label: bool) -> None:
        connection = self.connection
        with connection:
            if drop:
                connection.execute(drop_table_ddl(self.table, self.dialect))
            connection.execute(
                schema_ddl(
                    self.schema,
                    self.table,
                    self.class_column,
                    self.dialect,
                    if_not_exists=True,
                )
            )
            if index_label:
                connection.execute(
                    label_index_ddl(
                        self.table,
                        self.class_column,
                        self.dialect,
                        if_not_exists=True,
                    )
                )

    def table_exists(self) -> bool:
        # sqlite_master stores bare table names; a dot-qualified relation
        # ("main.tuples") must be looked up as "tuples" in the catalogue of
        # its schema.
        qualifier, _, bare = self.table.rpartition(".")
        master = (
            f"{self.dialect.quote(qualifier)}.sqlite_master"
            if qualifier
            else "sqlite_master"
        )
        with self.lock:
            row = self.connection.execute(
                f"SELECT COUNT(*) FROM {master} WHERE type = 'table' AND name = ?",
                (bare,),
            ).fetchone()
            return bool(row[0])

    def _require_table(self) -> None:
        if not self.table_exists():
            raise DatabaseError(
                f"table {self.table!r} does not exist in {self.path!r}; "
                "call create() (or `python -m repro db load`) first"
            )

    # -- loading ------------------------------------------------------------

    def load(
        self,
        data: Union[Dataset, Iterable[Dataset]],
        batch_size: int = DEFAULT_BATCH_SIZE,
        method: str = "auto",
    ) -> int:
        """Bulk-load a dataset — or a stream of them — and return the count.

        Accepts a :class:`~repro.data.dataset.Dataset` or any iterable of
        them (e.g. ``AgrawalGenerator.iter_chunks(...)``).

        ``method`` selects the write path:

        * ``"rows"`` — batched ``executemany`` of at most ``batch_size``
          rows per call, committed once at the end; chunks are never
          retained, so memory stays bounded by the chunk size.
        * ``"raw"`` — the :class:`~repro.db.fastload.RawSqliteWriter` fast
          lane: the database *file* is assembled directly from chunk columns
          (~6x the driver path).  Only valid when this store is file-backed,
          currently empty, and holds no other relations — the file is
          replaced wholesale.  Indexes on the table (e.g. the label index
          from :meth:`create`) are re-created afterwards from their recorded
          DDL.  Raises :class:`~repro.db.fastload.RawLoadUnsupported` when
          the shape is out of scope.
        * ``"auto"`` (default) — ``"raw"`` when the store qualifies,
          ``"rows"`` otherwise; shapes the raw lane
          rejects late (e.g. a load crossing the 1GiB lock-byte page) fall
          back to ``"rows"`` transparently.
        """
        if batch_size <= 0:
            raise DatabaseError(f"batch size must be positive, got {batch_size}")
        if method not in ("auto", "rows", "raw"):
            raise DatabaseError(
                f"unknown load method {method!r}; expected auto, rows, or raw"
            )
        stream: Iterator[Dataset]
        if isinstance(data, Dataset):
            stream = iter((data,))
        else:
            stream = iter(data)
        first = next(stream, None)
        if first is None:
            with self.lock:
                self._require_table()
            return 0
        chunks = itertools.chain((first,), stream)
        raw = method == "raw" or (method == "auto" and self._raw_eligible())
        # The span drives the whole consume-and-write loop, so with a lazy
        # input stream it is wall attribution of the store stage (upstream
        # production nests inside it as its own spans).
        with obs.trace(
            "db.load", table=self.table, method="raw" if raw else "rows"
        ) as span:
            if raw:
                inserted = self._load_raw(chunks, batch_size, fallback=method == "auto")
            else:
                inserted = self._load_rows(chunks, batch_size)
            span.set(rows=inserted)
        obs.counter("repro_store_rows_total", "Rows loaded into tuple stores").inc(
            inserted
        )
        return inserted

    def _load_rows(
        self,
        chunks: Iterable[Dataset],
        batch_size: int,
    ) -> int:
        with self.lock:
            self._require_table()
            connection = self.connection
            inserted = 0
            try:
                with connection:
                    for chunk in chunks:
                        if not isinstance(chunk, Dataset):
                            raise DatabaseError(
                                "load() expects a Dataset or an iterable of "
                                f"them, got a chunk of type {type(chunk).__name__}"
                            )
                        if chunk.schema.attribute_names != self.schema.attribute_names:
                            raise DatabaseError(
                                f"chunk schema {chunk.schema.attribute_names} does "
                                f"not match the store schema "
                                f"{self.schema.attribute_names}"
                            )
                        inserted += insert_in_batches(
                            connection, self._insert, dataset_rows(chunk), batch_size
                        )
            except sqlite3.Error as exc:
                raise DatabaseError(
                    f"cannot load tuples into {self.table!r}: {exc}"
                ) from exc
            return inserted

    def _raw_eligible(self) -> bool:
        """Whether the raw file-assembly fast lane may replace this store.

        Only a file-backed store whose database holds nothing but (at most)
        an *empty* target table and its indexes qualifies: the raw writer
        emits a whole fresh file, so any other content would be lost.
        """
        if self.path == ":memory:" or "." in self.table:
            return False
        if not schema_supports_raw(self.schema):
            return False
        with self.lock:
            try:
                entries = self.connection.execute(
                    "SELECT type, name, tbl_name FROM sqlite_master"
                ).fetchall()
                for type_, name, tbl_name in entries:
                    if type_ == "table" and name == self.table:
                        continue
                    if type_ == "index" and tbl_name == self.table:
                        continue
                    return False
                if self.table_exists() and self.count() > 0:
                    return False
            except sqlite3.Error:
                return False
        return True

    def _load_raw(
        self,
        chunks: Iterable[Dataset],
        batch_size: int,
        fallback: bool,
    ) -> int:
        if not self._raw_eligible():
            # Never clobber existing content: the raw writer replaces the
            # whole file, so anything but a fresh store must be refused even
            # when the caller asked for "raw" explicitly.
            raise RawLoadUnsupported(
                f"store {self.path!r} does not qualify for raw load (needs a "
                "file-backed store holding only an empty target table)"
            )
        writer = RawSqliteWriter(
            self.path, self.schema, self.table, self.class_column, self.dialect
        )
        staged: List[Dataset] = []
        chunks = iter(chunks)
        for chunk in chunks:
            if not isinstance(chunk, Dataset):
                raise DatabaseError(
                    "load() expects a Dataset or an iterable of them, got "
                    f"a chunk of type {type(chunk).__name__}"
                )
            try:
                writer.append(chunk)
            except RawLoadUnsupported:
                if not fallback:
                    raise
                # The refused chunk and the rest of the stream load too.
                return self._load_rows(
                    itertools.chain(staged, (chunk,), chunks), batch_size
                )
            staged.append(chunk)
        with self.lock:
            try:
                index_ddls = [
                    row[0]
                    for row in self.connection.execute(
                        "SELECT sql FROM sqlite_master WHERE type = 'index' "
                        "AND tbl_name = ? AND sql IS NOT NULL",
                        (self.table,),
                    ).fetchall()
                ]
                self.connection.close()
                self._connection = None
                try:
                    inserted = writer.finish()
                except RawLoadUnsupported:
                    self._connection = sqlite3.connect(
                        self.path, check_same_thread=False
                    )
                    if not fallback:
                        raise
                    return self._load_rows(staged, batch_size)
                self._connection = sqlite3.connect(
                    self.path, check_same_thread=False
                )
                with self._connection:
                    for ddl in index_ddls:
                        self._connection.execute(ddl)
            except sqlite3.Error as exc:
                raise DatabaseError(
                    f"cannot raw-load tuples into {self.table!r}: {exc}"
                ) from exc
            return inserted

    def load_records(
        self,
        records: Iterable[Record],
        label_key: Optional[str] = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        validate: bool = False,
    ) -> int:
        """Load records that carry their label under ``label_key``.

        This is the file-ingestion path (``python -m repro db load --input``):
        each record is a mapping holding every attribute plus the label under
        ``label_key`` (default: the store's class column).  ``validate=True``
        routes every record through :meth:`Schema.validate_record` and every
        label through :meth:`Schema.validate_label` (slower, but rejects
        out-of-domain values and unknown classes at load time — nothing is
        inserted then).  Returns the number of tuples inserted.
        """
        if batch_size <= 0:
            raise DatabaseError(f"batch size must be positive, got {batch_size}")
        key = label_key if label_key is not None else self.class_column
        names = self.schema.attribute_names

        def rows() -> Iterator[Tuple]:
            for record in records:
                if key not in record:
                    raise DatabaseError(
                        f"record is missing its label under {key!r}: "
                        f"{sorted(record)}"
                    )
                label = record[key]
                if validate:
                    values = self.schema.validate_record(
                        {name: value for name, value in record.items() if name != key}
                    )
                    self.schema.validate_label(label)
                else:
                    values = record
                try:
                    row = tuple(values[name] for name in names)
                except KeyError as exc:
                    raise DatabaseError(
                        f"record is missing attribute {exc.args[0]!r}"
                    ) from exc
                yield row + (label,)

        with self.lock:
            self._require_table()
            try:
                with self.connection:
                    return insert_in_batches(
                        self.connection, self._insert, rows(), batch_size
                    )
            except sqlite3.Error as exc:
                # NULLs, type violations, or a pre-existing table whose shape
                # does not match the schema surface as the library's own
                # error (the CLI turns ReproError into a clean exit-2).
                raise DatabaseError(
                    f"cannot load records into {self.table!r}: {exc}"
                ) from exc

    # -- aggregate reads ----------------------------------------------------

    def count(self) -> int:
        """Number of stored tuples."""
        with self.lock:
            self._require_table()
            quoted = self.dialect.quote_qualified(self.table)
            row = self.connection.execute(
                f"SELECT COUNT(*) FROM {quoted}"
            ).fetchone()
            return int(row[0])

    def __len__(self) -> int:
        return self.count()

    def class_distribution(self) -> Dict[str, int]:
        """Tuples per class label, via the indexed label column."""
        with self.lock:
            self._require_table()
            quoted = self.dialect.quote_qualified(self.table)
            label = self.dialect.quote(self.class_column)
            counts = dict(
                self.connection.execute(
                    f"SELECT {label}, COUNT(*) FROM {quoted} GROUP BY {label}"
                ).fetchall()
            )
        out = {c: int(counts.pop(c, 0)) for c in self.schema.classes}
        for label_value, count in counts.items():
            out[label_value] = int(count)
        return out

    # -- streaming reads ----------------------------------------------------

    def _page_sql(self) -> str:
        """One rowid-keyed page of the relation, in insertion order.

        Pages are read through short-lived, fully-consumed cursors (keyed on
        the last seen rowid) instead of one long-lived cursor held across
        yields: an open cursor on a shared sqlite3 connection blocks DDL —
        including the bound predictor's staging-table drop — for as long as
        the consumer keeps the generator alive.
        """
        names = [*self.schema.attribute_names, self.class_column]
        columns = ", ".join(self.dialect.quote(name) for name in names)
        quoted = self.dialect.quote_qualified(self.table)
        return (
            f"SELECT rowid, {columns} FROM {quoted} "
            f"WHERE rowid > ? ORDER BY rowid LIMIT ?"
        )

    def _iter_pages(self, page_size: int) -> Iterator[List[Tuple]]:
        """Yield fully-materialised row pages (rowid stripped by callers)."""
        if page_size <= 0:
            raise DatabaseError(f"page size must be positive, got {page_size}")
        sql = self._page_sql()
        last_rowid = 0
        while True:
            with self.lock:
                self._require_table()
                page = self.connection.execute(
                    sql, (last_rowid, page_size)
                ).fetchall()
            if not page:
                return
            last_rowid = page[-1][0]
            yield page

    def iter_rows(
        self, fetch_size: int = DEFAULT_FETCH_SIZE
    ) -> Iterator[Tuple[Record, str]]:
        """Yield ``(record, label)`` pairs in insertion order, page by page."""
        names = self.schema.attribute_names
        for page in self._iter_pages(fetch_size):
            for row in page:
                yield dict(zip(names, row[1:])), row[-1]

    def iter_chunks(
        self, chunk_size: int = DEFAULT_FETCH_SIZE
    ) -> Iterator[Dataset]:
        """Stream the relation back out as bounded columnar chunks.

        The inverse of :meth:`load`: each page becomes a
        :class:`~repro.data.dataset.Dataset` (column dtypes from
        :func:`~repro.data.dataset.storage_dtype`, the rule the DDL shares;
        ``validate=False`` — the data was validated on the way in), so the
        NumPy inference path can classify straight off the store without
        per-record dicts.  A stored label outside the schema's classes
        raises :class:`~repro.exceptions.SchemaError`.
        """
        if chunk_size <= 0:
            raise DatabaseError(f"chunk size must be positive, got {chunk_size}")
        names = self.schema.attribute_names
        dtypes = {
            attribute.name: storage_dtype(attribute)
            for attribute in self.schema.attributes
        }
        for page in self._iter_pages(chunk_size):
            transposed = list(zip(*page))
            columns = {
                name: np.asarray(transposed[i + 1], dtype=dtypes[name])
                for i, name in enumerate(names)
            }
            labels = np.asarray(transposed[-1], dtype=object)
            yield Dataset(self.schema, columns, labels, validate=False)

