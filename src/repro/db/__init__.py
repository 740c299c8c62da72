"""In-database rule mining: a SQLite-backed tuple store with SQL pushdown.

The paper's deployment claim — "with explicit rules, tuples of a certain
pattern can be easily retrieved using a database query language" — becomes an
execution path here instead of a string renderer:

* :mod:`repro.db.dialect` — the portability layer: identifier quoting,
  boolean literals and the ``1=1``/``0=1`` constant predicates every rendered
  statement is built from;
* :mod:`repro.db.schema` — ``CREATE TABLE``/``CREATE INDEX``/``INSERT`` DDL
  derived from a :class:`repro.data.schema.Schema`;
* :mod:`repro.db.store` — :class:`TupleStore`, bulk-loading datasets
  (or streamed chunk generators) into SQLite in bounded memory and streaming
  them back out;
* :mod:`repro.db.predictor` — :class:`SqlRulePredictor`, the
  :class:`~repro.inference.predictor.BatchPredictor` that classifies tuples
  *inside* the database with a single-pass ``CASE`` scan;
* :mod:`repro.db.queries` — in-database rule quality: per-rule
  support/coverage/confidence and the full confusion matrix as one
  ``GROUP BY``.

Import note: this ``__init__`` eagerly imports only :mod:`repro.db.dialect`
(which depends on nothing but :mod:`repro.exceptions`); everything else
resolves lazily via module ``__getattr__``.  That keeps the import graph
acyclic — :mod:`repro.rules.serialization` imports the dialect layer, while
the store/predictor/queries modules import the rule renderers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.db.dialect import (
    ANSI,
    DEFAULT_DIALECT,
    DIALECT_NAMES,
    DIALECTS,
    MYSQL,
    POSTGRES,
    SQLITE,
    SqlDialect,
    dialect_for,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.predictor import SqlRulePredictor
    from repro.db.queries import SqlRuleQuality, confusion_matrix, rule_quality
    from repro.db.schema import column_type, insert_sql, label_index_ddl, schema_ddl
    from repro.db.store import TupleStore

#: Lazily resolved exports, keyed by name → defining submodule.
_LAZY = {
    "TupleStore": "repro.db.store",
    "SqlRulePredictor": "repro.db.predictor",
    "classification_sql": "repro.db.predictor",
    "SqlRuleQuality": "repro.db.queries",
    "rule_quality": "repro.db.queries",
    "confusion_matrix": "repro.db.queries",
    "rule_quality_sql": "repro.db.queries",
    "confusion_sql": "repro.db.queries",
    "schema_ddl": "repro.db.schema",
    "label_index_ddl": "repro.db.schema",
    "insert_sql": "repro.db.schema",
    "column_type": "repro.db.schema",
}

__all__ = [
    "ANSI",
    "DEFAULT_DIALECT",
    "DIALECT_NAMES",
    "DIALECTS",
    "MYSQL",
    "POSTGRES",
    "SQLITE",
    "SqlDialect",
    "dialect_for",
    *sorted(_LAZY),
]


def __getattr__(name: str):
    """PEP 562 lazy export: import the defining submodule on first access."""
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
