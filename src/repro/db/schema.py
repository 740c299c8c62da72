"""DDL derivation: from attribute schemas to ``CREATE TABLE`` statements.

Column types follow :func:`repro.data.columnar.storage_dtype`, the one rule
that also types columns built from records and the store's read-back
chunks, so write and read typing cannot drift:

* continuous attributes with the ``integer`` flag (``age``, ``hyears``) and
  categorical attributes over all-integer domains (``elevel``, ``car``,
  ``zipcode``) become ``INTEGER`` columns;
* boolean domains become ``INTEGER`` 0/1 columns in SQLite (``BOOLEAN`` in
  dialects whose boolean literals are keywords) and read back as ``bool``;
* other continuous attributes become ``REAL``;
* everything else (string-valued categorical domains) becomes ``TEXT``.

The class-label column is ``TEXT NOT NULL`` and gets a dedicated index —
per-class retrieval (``WHERE class = 'A'``) is the access path the paper's
retrieval queries and the in-database quality queries both lean on.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.data.columnar import storage_dtype
from repro.data.schema import Attribute, Schema
from repro.db.dialect import SQLITE, SqlDialect
from repro.exceptions import DatabaseError


def column_type(attribute: Attribute, dialect: SqlDialect = SQLITE) -> str:
    """The SQL column type storing ``attribute``'s values in ``dialect``.

    Boolean domains must agree with the literal renderer: a dialect whose
    booleans are keywords (``WHEN "windy" = TRUE``) needs a ``BOOLEAN``
    column — comparing an integer column to a boolean literal is a type
    error on PostgreSQL — while SQLite stores them as 0/1 integers.
    """
    dtype = storage_dtype(attribute)
    if dtype is object:
        return "TEXT"
    if dtype is float:
        return "REAL"
    if dtype is np.bool_:
        return "BOOLEAN" if dialect.boolean_keywords else "INTEGER"
    return "INTEGER"


def _check_class_column(schema: Schema, class_column: str) -> None:
    if class_column in schema:
        raise DatabaseError(
            f"class column {class_column!r} collides with an attribute name; "
            f"attributes: {schema.attribute_names}"
        )


def schema_ddl(
    schema: Schema,
    table: str = "tuples",
    class_column: Optional[str] = "class",
    dialect: SqlDialect = SQLITE,
    if_not_exists: bool = False,
) -> str:
    """``CREATE TABLE`` DDL for ``schema`` plus a ``NOT NULL`` label column.

    ``class_column=None`` omits the label column (unlabelled staging tables).
    """
    columns: List[str] = [
        f"  {dialect.quote(attribute.name)} {column_type(attribute, dialect)} NOT NULL"
        for attribute in schema.attributes
    ]
    if class_column is not None:
        _check_class_column(schema, class_column)
        columns.append(f"  {dialect.quote(class_column)} TEXT NOT NULL")
    guard = "IF NOT EXISTS " if if_not_exists else ""
    body = ",\n".join(columns)
    return (
        f"CREATE TABLE {guard}{dialect.quote_qualified(table)} (\n{body}\n)"
    )


def label_index_ddl(
    table: str = "tuples",
    class_column: str = "class",
    dialect: SqlDialect = SQLITE,
    index_name: Optional[str] = None,
    if_not_exists: bool = False,
) -> str:
    """``CREATE INDEX`` DDL over the label column of ``table``.

    Dot-qualified table names follow the dialect's grammar: SQLite wants
    the qualifier on the *index name* and a bare table in ``ON`` (the
    reverse is a syntax error), PostgreSQL/MySQL want a bare index name and
    the qualified table.
    """
    qualifier, _, bare_table = table.rpartition(".")
    if index_name is None:
        index_name = f"idx_{bare_table}_{class_column}"
    guard = "IF NOT EXISTS " if if_not_exists else ""
    if qualifier and dialect.index_qualifier_on_index:
        rendered_index = f"{dialect.quote(qualifier)}.{dialect.quote(index_name)}"
        rendered_table = dialect.quote(bare_table)
    else:
        rendered_index = dialect.quote(index_name)
        rendered_table = dialect.quote_qualified(table)
    return (
        f"CREATE INDEX {guard}{rendered_index} "
        f"ON {rendered_table} ({dialect.quote(class_column)})"
    )


def insert_sql(
    schema: Schema,
    table: str = "tuples",
    class_column: Optional[str] = "class",
    dialect: SqlDialect = SQLITE,
) -> str:
    """Parameterised ``INSERT`` covering every attribute (and the label).

    Pass ``class_column=None`` for unlabelled staging tables (the scratch
    table :class:`~repro.db.predictor.SqlRulePredictor` classifies ad-hoc
    batches through).
    """
    names = list(schema.attribute_names)
    if class_column is not None:
        _check_class_column(schema, class_column)
        names.append(class_column)
    quoted = ", ".join(dialect.quote(name) for name in names)
    markers = ", ".join([dialect.placeholder] * len(names))
    return (
        f"INSERT INTO {dialect.quote_qualified(table)} ({quoted}) "
        f"VALUES ({markers})"
    )


def drop_table_ddl(
    table: str, dialect: SqlDialect = SQLITE, if_exists: bool = True
) -> str:
    """``DROP TABLE`` DDL (used when re-creating a store in place)."""
    guard = "IF EXISTS " if if_exists else ""
    return f"DROP TABLE {guard}{dialect.quote_qualified(table)}"
