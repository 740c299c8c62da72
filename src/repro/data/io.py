"""Loading and saving datasets as CSV/JSONL files.

The paper mines rules from relations stored in a database; the practical
equivalent for a library user is a CSV or JSON-lines export.  This module
provides

* :func:`save_csv` / :func:`load_csv` — round-trip a :class:`Dataset` with an
  explicit schema;
* :func:`infer_schema` — build a schema from raw CSV columns (numeric columns
  become continuous attributes over their observed range, low-cardinality or
  non-numeric columns become categorical attributes);
* :func:`load_csv_with_inferred_schema` — the one-call convenience wrapper;
* :func:`iter_csv_records` / :func:`iter_jsonl_records` — bounded-memory
  record streams for the serving layer: a multi-million-tuple file is
  consumed one record at a time, never materialised as a list;
* :func:`write_jsonl` — the streaming counterpart on the output side;
* :func:`resolve_format` — the one place that decides whether a path means
  CSV or JSONL (the CLI's ``--format auto``).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

from repro.data.dataset import Dataset, Record
from repro.data.schema import (
    AttributeValue,
    CategoricalAttribute,
    ContinuousAttribute,
    Schema,
)
from repro.exceptions import DataGenerationError, SchemaError

PathLike = Union[str, Path]

#: File suffixes read/written as JSON lines; everything else is CSV.
JSONL_SUFFIXES = (".jsonl", ".ndjson")


def resolve_format(path: PathLike, form: str = "auto") -> str:
    """Resolve a ``--format`` choice against a file path.

    ``"csv"``/``"jsonl"`` pass through; ``"auto"`` picks by suffix
    (:data:`JSONL_SUFFIXES` mean JSONL, anything else CSV).  Every CLI
    entry point shares this one rule so a ``.ndjson`` file means the same
    thing to ``generate``, ``predict`` and ``db load``.
    """
    if form in ("csv", "jsonl"):
        return form
    if form != "auto":
        raise DataGenerationError(
            f"unknown format {form!r}; expected 'auto', 'csv' or 'jsonl'"
        )
    return "jsonl" if Path(path).suffix in JSONL_SUFFIXES else "csv"


def save_csv(dataset: Dataset, path: PathLike, class_column: str = "class") -> None:
    """Write a dataset to ``path`` with one column per attribute plus the class."""
    if class_column in dataset.schema:
        raise SchemaError(
            f"class column name {class_column!r} collides with an attribute name"
        )
    path = Path(path)
    fieldnames = dataset.schema.attribute_names + [class_column]
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        # iter_rows builds each record on the fly; iterating the dataset
        # would build and cache every record dict.
        for record, label in dataset.iter_rows():
            record[class_column] = label
            writer.writerow(record)


def _read_rows(path: PathLike) -> List[Dict[str, str]]:
    path = Path(path)
    if not path.exists():
        raise DataGenerationError(f"CSV file not found: {path}")
    with path.open(newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise DataGenerationError(f"CSV file has no header row: {path}")
        return [dict(row) for row in reader]


def _parse_value(attribute, raw: str) -> AttributeValue:
    if isinstance(attribute, ContinuousAttribute):
        return float(raw)
    # Categorical: prefer the original domain value type (int where possible).
    for value in attribute.values:
        if str(value) == raw:
            return value
    try:
        numeric = float(raw)
    except ValueError:
        numeric = None
    if numeric is not None:
        for value in attribute.values:
            if isinstance(value, (int, float)) and float(value) == numeric:
                return value
    raise SchemaError(
        f"attribute {attribute.name!r}: value {raw!r} not in domain {attribute.values!r}"
    )


def load_csv(path: PathLike, schema: Schema, class_column: str = "class") -> Dataset:
    """Load a CSV written by :func:`save_csv` (or compatible) with a known schema."""
    rows = _read_rows(path)
    if not rows:
        raise DataGenerationError(f"CSV file contains no data rows: {path}")
    missing = [name for name in schema.attribute_names + [class_column] if name not in rows[0]]
    if missing:
        raise DataGenerationError(f"CSV file is missing columns: {missing}")
    return _dataset_from_rows(rows, schema, class_column)


def _dataset_from_rows(
    rows: Sequence[Dict[str, str]], schema: Schema, class_column: str
) -> Dataset:
    """Parse raw CSV rows against ``schema`` into a validated dataset."""
    records = [_record_from_row(row, schema, class_column) for row in rows]
    labels = [row[class_column] for row in rows]
    return Dataset.from_records(schema, records, labels)


# ---------------------------------------------------------------------------
# Streaming record iterators (bounded memory, for the serving layer)
# ---------------------------------------------------------------------------

def _coerce_raw(raw: str) -> AttributeValue:
    """Best-effort typing of a schemaless CSV cell: int, then float, then str."""
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def _record_from_row(
    row: Dict[str, str], schema: Optional[Schema], class_column: Optional[str]
) -> Record:
    if schema is not None:
        return {
            attribute.name: _parse_value(attribute, row[attribute.name])
            for attribute in schema.attributes
        }
    return {
        name: _coerce_raw(value)
        for name, value in row.items()
        if name != class_column
    }


def iter_csv_records(
    path: PathLike,
    schema: Optional[Schema] = None,
    class_column: Optional[str] = "class",
) -> Iterator[Record]:
    """Stream the records of a CSV file one at a time (bounded memory).

    With a ``schema``, values are parsed into their declared attribute types
    exactly as :func:`load_csv` would (and missing columns raise
    :class:`DataGenerationError` on the first row); without one, each cell is
    coerced ``int`` → ``float`` → ``str``.  The ``class_column`` (when
    present) is dropped from the yielded records — prediction inputs carry no
    label.  Unlike :func:`load_csv`, the file is never materialised: this is
    the ingestion path the serving layer uses to classify multi-million-tuple
    exports.
    """
    path = Path(path)
    if not path.exists():
        raise DataGenerationError(f"CSV file not found: {path}")
    with path.open(newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise DataGenerationError(f"CSV file has no header row: {path}")
        if schema is not None:
            missing = [
                name for name in schema.attribute_names if name not in reader.fieldnames
            ]
            if missing:
                raise DataGenerationError(f"CSV file is missing columns: {missing}")
        for row in reader:
            yield _record_from_row(dict(row), schema, class_column)


def iter_jsonl_records(
    path: PathLike,
    schema: Optional[Schema] = None,
    class_column: Optional[str] = "class",
) -> Iterator[Record]:
    """Stream the records of a JSON-lines file one at a time (bounded memory).

    Each non-blank line must hold one JSON object; JSON already carries
    types, so a ``schema`` only validates/normalises values (via
    :meth:`Schema.validate_record`) rather than parsing strings.  As with
    :func:`iter_csv_records`, records are projected onto the schema when one
    is given — extra keys (bookkeeping columns, ids) are dropped, the same
    way the CSV reader ignores extra columns — and the ``class_column`` key
    is dropped when present.
    """
    path = Path(path)
    if not path.exists():
        raise DataGenerationError(f"JSONL file not found: {path}")
    with path.open() as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataGenerationError(
                    f"{path}:{line_number}: invalid JSON: {exc}"
                ) from exc
            if not isinstance(payload, dict):
                raise DataGenerationError(
                    f"{path}:{line_number}: expected a JSON object per line, "
                    f"got {type(payload).__name__}"
                )
            if class_column is not None:
                payload.pop(class_column, None)
            if schema is not None:
                missing = [
                    name for name in schema.attribute_names if name not in payload
                ]
                if missing:
                    raise DataGenerationError(
                        f"{path}:{line_number}: record is missing attributes: "
                        f"{missing}"
                    )
                payload = schema.validate_record(
                    {name: payload[name] for name in schema.attribute_names}
                )
            yield payload


def write_jsonl(path: PathLike, rows: Iterable[Dict]) -> int:
    """Write an iterable of JSON-ready mappings as one JSON object per line.

    The iterable is consumed lazily — streaming prediction output is written
    as it is produced, so the writer is as bounded-memory as the readers.
    Returns the number of rows written.
    """
    path = Path(path)
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")
            count += 1
    return count


def write_csv(path: PathLike, rows: Iterable[Dict], fieldnames: Sequence[str]) -> int:
    """Streaming CSV counterpart of :func:`write_jsonl`.

    ``fieldnames`` fixes the header and column order up front (a lazily
    consumed stream cannot be peeked for its keys without buffering).  Rows
    are written as they are produced; returns the number written.  The
    output round-trips through :func:`load_csv` / :func:`iter_csv_records`
    when the fields are a schema's attributes plus a class column.
    """
    path = Path(path)
    count = 0
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(fieldnames))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
            count += 1
    return count


def infer_schema(
    rows: Sequence[Dict[str, str]],
    class_column: str = "class",
    max_categorical_cardinality: int = 20,
    ordered_columns: Optional[Sequence[str]] = None,
) -> Schema:
    """Infer a schema from raw string-valued CSV rows.

    A column is treated as continuous when every value parses as a float and
    it has more than ``max_categorical_cardinality`` distinct values;
    otherwise it becomes a categorical attribute (numeric domains are kept as
    numbers, sorted).  Columns named in ``ordered_columns`` are marked as
    ordered categoricals so they receive thermometer coding.
    """
    if not rows:
        raise DataGenerationError("cannot infer a schema from an empty row list")
    ordered = set(ordered_columns or [])
    columns = [name for name in rows[0] if name != class_column]
    if class_column not in rows[0]:
        raise DataGenerationError(f"class column {class_column!r} not found in CSV header")

    attributes = []
    for name in columns:
        raw_values = [row[name] for row in rows]
        distinct = sorted(set(raw_values))
        numeric = True
        parsed: List[float] = []
        for value in raw_values:
            try:
                parsed.append(float(value))
            except ValueError:
                numeric = False
                break
        if numeric and len(distinct) > max_categorical_cardinality:
            low, high = min(parsed), max(parsed)
            if low == high:
                high = low + 1.0
            integer = all(float(v).is_integer() for v in parsed)
            attributes.append(ContinuousAttribute(name, low, high, integer=integer))
        else:
            if numeric:
                domain = tuple(sorted({int(v) if float(v).is_integer() else float(v) for v in parsed}))
            else:
                domain = tuple(distinct)
            if len(domain) < 2:
                domain = tuple(list(domain) + [f"__other_{name}__"])
            attributes.append(
                CategoricalAttribute(name, domain, ordered=(name in ordered or numeric))
            )

    classes = tuple(sorted({row[class_column] for row in rows}))
    if len(classes) < 2:
        raise DataGenerationError(
            f"the class column {class_column!r} must contain at least two distinct labels"
        )
    return Schema(attributes=attributes, classes=classes)


def load_csv_with_inferred_schema(
    path: PathLike,
    class_column: str = "class",
    max_categorical_cardinality: int = 20,
    ordered_columns: Optional[Sequence[str]] = None,
) -> Dataset:
    """Load a CSV file, inferring the schema from its contents."""
    rows = _read_rows(path)
    if not rows:
        raise DataGenerationError(f"CSV file contains no data rows: {path}")
    schema = infer_schema(
        rows,
        class_column=class_column,
        max_categorical_cardinality=max_categorical_cardinality,
        ordered_columns=ordered_columns,
    )
    return _dataset_from_rows(rows, schema, class_column)
