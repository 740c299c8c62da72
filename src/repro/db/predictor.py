"""``SqlRulePredictor``: classifying tuples inside the database.

The NumPy compiler (:mod:`repro.inference.compiler`) pulls tuples *out* of
storage and evaluates rules over column arrays; this predictor pushes the
rules *down* instead.  The whole rule set renders once per predictor as a
single ``CASE`` expression (:func:`ruleset_to_case_expression`) and a
classification is one sequential scan executed by the database engine —
no per-record Python, no materialised records.  Up to eight rules the
expression is a flat first-match ``CASE``; a longer rule set renders as a
nested ``CASE`` decision tree whose leaves are short first-match lists
(:mod:`repro.rules.rule_tree`), so a tuple tests a few rules instead of
all of them and still gets the flat list's label.

Two entry points:

* :meth:`SqlRulePredictor.classify_stored` — label every tuple already in
  the bound :class:`~repro.db.store.TupleStore`, in insertion order.  This
  is the paper's deployment story and the pushdown side of
  ``benchmarks/test_bench_db.py``.
* :meth:`SqlRulePredictor.predict_batch` — the
  :class:`~repro.inference.predictor.BatchPredictor` protocol for ad-hoc
  batches: records are staged into a ``TEMP`` table, classified with the
  same ``CASE`` scan, and the staging table is dropped.  Labels are
  guaranteed identical to :func:`repro.inference.compiler.compile_ruleset`
  (the seeded equivalence tests in ``tests/db/test_predictor.py`` check all
  ten Agrawal functions, clean and perturbed).
"""

from __future__ import annotations

import sqlite3
import threading
from typing import Iterator, List, Optional, Sequence, Tuple, TYPE_CHECKING, Union

import numpy as np

from repro import obs
from repro.data.dataset import Dataset, Record
from repro.data.schema import Schema
from repro.db.dialect import SQLITE, SqlDialect
from repro.db.schema import drop_table_ddl, insert_sql, schema_ddl
from repro.db.store import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_FETCH_SIZE,
    TupleStore,
    insert_in_batches,
)
from repro.exceptions import DatabaseError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rules.rule import AttributeRule
    from repro.rules.ruleset import RuleSet

#: Name of the TEMP staging relation ad-hoc batches classify through.  TEMP
#: tables are connection-private, so concurrent predictors on separate
#: connections never collide.
STAGING_TABLE = "repro_sql_batch"


def classification_sql(
    ruleset: "RuleSet[AttributeRule]",
    table: str,
    column: str = "predicted_class",
    dialect: SqlDialect = SQLITE,
) -> str:
    """The single-pass classification ``SELECT`` over ``table``.

    One ``CASE`` evaluation per tuple, ordered by ``rowid`` so the label
    sequence aligns tuple-for-tuple with insertion order.
    """
    from repro.rules.serialization import ruleset_to_case_expression

    case = ruleset_to_case_expression(ruleset, column=column, dialect=dialect)
    return _select_labels(case, table, dialect)


def _select_labels(case: str, table: str, dialect: SqlDialect) -> str:
    return (
        f"SELECT {case}\n"
        f"FROM {dialect.quote_qualified(table)}\n"
        f"ORDER BY rowid"
    )


def _fold_ascii(name: str) -> str:
    """``name`` with its ASCII letters lower-cased: SQLite's identifier case."""
    return "".join(c.lower() if c.isascii() else c for c in name)


class SqlRulePredictor:
    """A :class:`BatchPredictor` that evaluates attribute rules in SQL.

    Parameters
    ----------
    ruleset:
        An *attribute* rule set (interval/membership conditions).  Binary
        rule sets constrain encoded network inputs, which have no relational
        representation — translate them first
        (:func:`repro.rules.translate.translate_ruleset`).
    schema:
        Attribute schema used to derive staging-table DDL for ad-hoc
        batches.  Defaults to the bound store's schema.
    store:
        A :class:`TupleStore` to classify in place (and to host staging
        tables).  Without one, the predictor opens its own private
        in-memory SQLite database.
    batch_size:
        Rows per ``executemany`` when staging ad-hoc batches.
    """

    def __init__(
        self,
        ruleset: "RuleSet[AttributeRule]",
        schema: Optional[Schema] = None,
        store: Optional[TupleStore] = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        if ruleset.rules and ruleset.is_binary:
            raise DatabaseError(
                f"rule set {ruleset.name!r} holds binary (encoded-input) rules; "
                "translate them to attribute conditions before SQL evaluation"
            )
        if schema is None:
            if store is None:
                raise DatabaseError(
                    "SqlRulePredictor needs a schema (or a store that carries one)"
                )
            schema = store.schema
        if batch_size <= 0:
            raise DatabaseError(f"batch size must be positive, got {batch_size}")
        self.ruleset = ruleset
        self.schema = schema
        self.store = store
        self.batch_size = batch_size
        self.dialect = store.dialect if store is not None else SQLITE
        self._own_connection: Optional[sqlite3.Connection] = None
        # The rendered CASE and the rule list it was rendered from.
        self._case_sql = ""
        self._case_key: tuple = ()
        # Serialises connection use so the micro-batching service can
        # dispatch predict_batch from its worker threads; a bound store's
        # lock is shared so store reads and pushdown batches never interleave.
        self._lock = store.lock if store is not None else threading.RLock()
        missing = [a for a in ruleset.referenced_attributes() if a not in schema]
        if missing:
            raise DatabaseError(
                f"rule set {ruleset.name!r} references attributes outside the "
                f"schema: {missing}"
            )
        # SQLite stores boolean labels as 0/1; decode them back so the
        # label-identity guarantee holds for boolean-consequent rule sets
        # too (the normal string vocabulary needs no decoding).
        self._label_decoder: Optional[dict] = None
        if any(isinstance(c, bool) for c in ruleset.classes):
            decoder: dict = {}
            for c in ruleset.classes:
                key = int(c) if isinstance(c, bool) else c
                if key in decoder:
                    raise DatabaseError(
                        f"classes {decoder[key]!r} and {c!r} store identically "
                        "in SQL and cannot be told apart"
                    )
                decoder[key] = c
            self._label_decoder = decoder

    # -- BatchPredictor protocol -------------------------------------------

    @property
    def classes(self) -> Tuple[str, ...]:
        return tuple(self.ruleset.classes)

    def predict_batch(
        self, data: Union[Dataset, Sequence[Record]]
    ) -> np.ndarray:
        """Class labels for a batch, computed by a ``CASE`` scan in SQLite.

        ``data`` is a dataset or a sequence of records; encoded matrices are
        rejected (attribute rules read named columns).  The batch is staged
        into a connection-private ``TEMP`` table, classified in one scan and
        the staging table dropped; labels come back in input order.
        """
        rows, n = self._staging_rows(data)
        if n == 0:
            return np.empty(0, dtype=object)
        staging_ddl = schema_ddl(
            self.schema, STAGING_TABLE, class_column=None, dialect=self.dialect
        ).replace("CREATE TABLE ", "CREATE TEMP TABLE ", 1)
        insert = insert_sql(
            self.schema, STAGING_TABLE, class_column=None, dialect=self.dialect
        )
        with obs.trace("sql.classify", mode="staged", rows=n):
            with self._lock:
                select = _select_labels(self._case(), STAGING_TABLE, self.dialect)
                connection = self._connection()
                try:
                    connection.execute(staging_ddl)
                    insert_in_batches(connection, insert, rows, self.batch_size)
                    labels = self._fetch_labels(connection, select, n)
                finally:
                    connection.execute(drop_table_ddl(STAGING_TABLE, self.dialect))
        obs.counter("repro_sql_rows_total", "Rows classified by SQL pushdown").inc(n)
        return labels

    def predict(self, data: Union[Dataset, Sequence[Record]]) -> List[str]:
        """List-returning wrapper around :meth:`predict_batch`."""
        return self.predict_batch(data).tolist()

    def predict_record(self, record: Record) -> str:
        """Single-record convenience path (stages a one-row batch)."""
        return self.predict_batch([record])[0]

    # -- in-place classification -------------------------------------------

    def classify_stored(self) -> np.ndarray:
        """Label every tuple of the bound store, in insertion order.

        This is the pushdown path: the only Python work is fetching the
        label column the ``CASE`` scan produced.
        """
        store = self._require_store()
        with obs.trace("sql.classify", mode="stored") as span:
            with self._lock:
                store._require_table()
                select = _select_labels(self._case(), store.table, self.dialect)
                labels = self._fetch_labels(store.connection, select, store.count())
            span.set(rows=len(labels))
        obs.counter("repro_sql_rows_total", "Rows classified by SQL pushdown").inc(
            len(labels)
        )
        return labels

    def classify_into(self, table: str = "labels", drop: bool = False) -> int:
        """Materialise the pushdown labels into a relation *inside* the DB.

        ``CREATE TABLE <table> AS SELECT CASE ...`` — classification result
        and tuples live in the same database, which is the paper's
        deployment story; no label ever crosses into Python.  Rows align
        with the store's insertion order.  Returns the number of labels
        written.  An existing ``table`` is refused unless ``drop=True``
        (the same contract as ``db classify --into`` / ``--drop-into``).
        """
        store = self._require_store()
        # Compare the unqualified name parts: in sqlite ``main.tuples`` *is*
        # ``tuples``, so a qualified spelling must not slip past the guard
        # and drop the tuple relation itself.  Nor may a case variant:
        # SQLite matches identifiers case-insensitively (ASCII letters only).
        if _fold_ascii(table.split(".")[-1]) == _fold_ascii(store.table.split(".")[-1]):
            raise DatabaseError(
                f"label table {table!r} would overwrite the tuple relation "
                f"{store.table!r}"
            )
        with self._lock:
            store._require_table()
            connection = store.connection
            quoted = self.dialect.quote_qualified(table)
            select = _select_labels(self._case(), store.table, self.dialect)
            # sqlite3 only opens implicit transactions for DML; DDL runs in
            # autocommit, so the drop+create needs an explicit scope to be
            # atomic (a failed CREATE must not leave the old label table
            # dropped).  A savepoint nests correctly whether or not the
            # driver already has a transaction open.
            connection.execute("SAVEPOINT repro_classify_into")
            try:
                if drop:
                    connection.execute(drop_table_ddl(table, self.dialect))
                connection.execute(f"CREATE TABLE {quoted} AS {select}")
                row = connection.execute(
                    f"SELECT COUNT(*) FROM {quoted}"
                ).fetchone()
            except Exception as exc:
                connection.execute("ROLLBACK TO repro_classify_into")
                connection.execute("RELEASE repro_classify_into")
                if isinstance(exc, sqlite3.Error):
                    raise DatabaseError(
                        f"cannot materialise labels into {table!r}: {exc}"
                    ) from exc
                raise
            connection.execute("RELEASE repro_classify_into")
            # Releasing the outermost savepoint commits; if an enclosing
            # transaction was already open, persist the labels explicitly.
            if connection.in_transaction:
                connection.commit()
            written = int(row[0])
        obs.counter("repro_sql_rows_total", "Rows classified by SQL pushdown").inc(
            written
        )
        return written

    def iter_classified(
        self, fetch_size: int = DEFAULT_FETCH_SIZE
    ) -> Iterator[str]:
        """Stream the pushdown labels one at a time (bounded memory).

        Pages are read through short-lived rowid-keyed cursors, each fully
        consumed under the lock — a cursor held open across yields would
        block every schema change on the shared connection (including this
        predictor's own staging-table drop) for as long as the consumer
        keeps the generator alive.
        """
        store = self._require_store()
        if fetch_size <= 0:
            raise DatabaseError(f"fetch size must be positive, got {fetch_size}")
        sql = (
            f"SELECT rowid, {self._case()} "
            f"FROM {self.dialect.quote_qualified(store.table)} "
            f"WHERE rowid > ? ORDER BY rowid LIMIT ?"
        )
        last_rowid = 0
        while True:
            with self._lock:
                store._require_table()
                page = store.connection.execute(
                    sql, (last_rowid, fetch_size)
                ).fetchall()
            if not page:
                return
            last_rowid = page[-1][0]
            decoder = self._label_decoder
            for _, label in page:
                yield decoder.get(label, label) if decoder else label

    # -- helpers ------------------------------------------------------------

    def _case(self) -> str:
        """The rule set's ``CASE`` expression, rendered once per rule list.

        Keyed on the rule values like :meth:`RuleSet.compiled`, so a rule
        set edited after construction is rendered afresh.
        """
        from repro.rules.serialization import ruleset_to_case_expression

        key = (tuple(self.ruleset.rules), self.ruleset.default_class)
        with self._lock:
            if self._case_key != key:
                self._case_sql = ruleset_to_case_expression(
                    self.ruleset, column="predicted_class", dialect=self.dialect
                )
                self._case_key = key
            return self._case_sql

    def _require_store(self) -> TupleStore:
        if self.store is None:
            raise DatabaseError(
                "this predictor is not bound to a tuple store; construct it "
                "with store=TupleStore(...) to classify stored tuples"
            )
        return self.store

    def _connection(self) -> sqlite3.Connection:
        if self.store is not None:
            return self.store.connection
        # Lazy init under the lock (RLock, so callers already holding it
        # re-enter freely): two dispatch threads racing here must not each
        # open a connection and strand one with the staging table.
        with self._lock:
            if self._own_connection is None:
                # Shared across the serving layer's dispatch threads; every
                # use happens under self._lock.
                self._own_connection = sqlite3.connect(
                    ":memory:", check_same_thread=False
                )
            return self._own_connection

    def _staging_rows(
        self, data: Union[Dataset, Sequence[Record]]
    ) -> Tuple[Iterator[Tuple], int]:
        names = self.schema.attribute_names
        if isinstance(data, np.ndarray) and data.dtype != object:
            raise DatabaseError(
                "SqlRulePredictor classifies records, not encoded matrices; "
                "pass a dataset or a sequence of attribute mappings"
            )
        if isinstance(data, Dataset):
            # Columns by the staging table's names, whatever order the
            # dataset's own schema lists them in; tolist() already yields
            # Python scalars, so no per-value unwrap.
            return zip(*(data.column(name).tolist() for name in names)), len(data)
        records = list(data)
        missing_ok_rows = (
            tuple(self._row_value(record, name) for name in names)
            for record in records
        )
        return missing_ok_rows, len(records)

    @staticmethod
    def _row_value(record: Record, name: str):
        try:
            value = record[name]
        except (KeyError, TypeError) as exc:
            raise DatabaseError(
                f"record is missing attribute {name!r} (or is not a mapping)"
            ) from exc
        # Unwrap NumPy scalars: the sqlite3 driver rejects them.
        item = getattr(value, "item", None)
        if item is not None and type(value).__module__ == "numpy":
            return value.item()
        return value

    def _fetch_labels(
        self, connection: sqlite3.Connection, select: str, n: int
    ) -> np.ndarray:
        labels = np.empty(n, dtype=object)
        cursor = connection.execute(select)
        try:
            position = 0
            while True:
                page = cursor.fetchmany(DEFAULT_FETCH_SIZE)
                if not page:
                    break
                decoder = self._label_decoder
                values = [row[0] for row in page]
                if decoder:
                    values = [decoder.get(v, v) for v in values]
                labels[position : position + len(page)] = values
                position += len(page)
        finally:
            cursor.close()
        if position != n:
            raise DatabaseError(
                f"classification scan returned {position} labels for {n} tuples"
            )
        return labels

    def close(self) -> None:
        """Release the private connection (bound stores are left open)."""
        with self._lock:
            if self._own_connection is not None:
                self._own_connection.close()
                self._own_connection = None

    def __enter__(self) -> "SqlRulePredictor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def describe(self) -> str:
        target = self.store.path if self.store is not None else "private :memory:"
        return (
            f"SqlRulePredictor({self.ruleset.name!r}: "
            f"{self.ruleset.n_rules} rules, backend sqlite @ {target})"
        )
