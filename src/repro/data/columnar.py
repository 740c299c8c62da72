"""Columnar datasets: one NumPy array per attribute, labels as class codes.

:class:`ColumnarDataset` is the library's one columnar container.  It is a
:class:`~repro.data.dataset.Dataset` (the same schema/records/labels
contract training relies on) backed by per-attribute NumPy arrays instead of
a Python list of dicts, and it is the type every stage of the data plane
hands on: the vectorised Agrawal generator and its chunk streams, the
synthetic sets, the shared-memory fan-out of :mod:`repro.data.chunks`, the
encoder's batch path, rule serving, and the tuple store in both directions.
Multi-million-tuple workloads never build a per-record dict unless something
genuinely record-oriented (C4.5 tree induction, JSON export of single
tuples) asks for one.

Design notes
------------
* Columns are read-only views of the arrays they were built from; an
  optional buffer ``owner`` (a shared-memory segment) is kept alive as long
  as the dataset or any view taken from it is.
* Labels are stored once, as an ``int64`` code array indexing the dataset's
  ``classes`` tuple (``schema.classes`` unless a model's vocabulary says
  otherwise).  Label strings are derived only on request (``labels``,
  ``label_array()``); a load or a classification that works on codes never
  builds them.  :func:`codes_from_labels` is the one check for an unknown
  label.
* ``records`` and ``labels`` are lazy properties that materialise (and
  cache) plain-Python structures on first access.  Materialised records
  carry Python scalars (``int``/``float``/``bool``/``str``), so they compare
  equal to scalar-generated records and serialise straight to JSON.
* ``subset`` with a ``range``/``slice`` of step 1 returns zero-copy column
  *views* — the nested Table-3 prefix test sets of
  :mod:`repro.experiments.function4` share the parent's memory.
* :func:`storage_dtype` is the one rule typing a column from its attribute:
  columns built from records, the database DDL and the store's read-back
  path all derive from it.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.data.dataset import Dataset, Record
from repro.data.schema import Attribute, AttributeValue, Schema
from repro.exceptions import DataGenerationError, SchemaError

Indices = Union[Sequence[int], range, slice, np.ndarray]

#: dtype of every label-code array.  int64 keeps the codes directly usable
#: as NumPy fancy indexes without casts.
LABEL_CODE_DTYPE = np.int64


def storage_dtype(attribute: Attribute):
    """NumPy dtype of a column holding ``attribute``'s values.

    Integer-flagged continuous attributes are ``int64`` and other continuous
    attributes ``float``; categorical domains of booleans are ``bool``, of
    (non-boolean) integers ``int64``, and anything else ``object``.  A
    ``True`` therefore stays a ``True`` on every path, never the integer 1.
    """
    if attribute.is_continuous:
        return np.int64 if getattr(attribute, "integer", False) else float
    values = attribute.values
    if all(isinstance(value, (bool, np.bool_)) for value in values):
        return np.bool_
    if all(
        isinstance(value, (int, np.integer)) and not isinstance(value, bool)
        for value in values
    ):
        return np.int64
    return object


def codes_from_labels(
    labels: Union[np.ndarray, Sequence[str]], classes: Sequence[str]
) -> np.ndarray:
    """Vectorised label → class-index conversion.

    Raises :class:`SchemaError` on a label outside ``classes`` — a silent
    ``-1`` would alias the last class through fancy indexing.
    """
    values = labels if isinstance(labels, np.ndarray) else np.asarray(labels, dtype=object)
    if values.dtype.kind != "U" or not all(isinstance(c, str) for c in classes):
        # Fixed-width strings compare natively; anything else as objects.
        values = values.astype(object, copy=False)
    codes = np.full(len(values), -1, dtype=LABEL_CODE_DTYPE)
    for index, label in enumerate(classes):
        codes[values == label] = index
    if len(values) and codes.min() < 0:
        bad = values[int(np.argmax(codes < 0))]
        raise SchemaError(f"unknown class label {bad!r}; known: {list(classes)}")
    return codes


def _readonly_view(array: np.ndarray) -> np.ndarray:
    """A non-writeable view of ``array`` (the caller's array is untouched)."""
    view = array.view()
    view.flags.writeable = False
    return view


def _as_slice(indices: Indices) -> Optional[slice]:
    """The basic-slicing form of ``indices`` (a NumPy view), or ``None``.

    Only the unambiguous forms map to a slice: an explicit ``slice``, an
    empty ``range`` and step-1 ranges of non-negative indices.  A ``range``
    holds *absolute* indices while a slice's negative bounds are
    end-relative, so anything involving negative range values falls back to
    fancy indexing, which treats them as the row indices they are.
    """
    if isinstance(indices, slice):
        return indices
    if isinstance(indices, range):
        if len(indices) == 0:
            return slice(0, 0, 1)
        if indices.step == 1 and indices.start >= 0:
            return slice(indices.start, indices.stop, 1)
    return None


class ColumnarDataset(Dataset):
    """A labelled dataset stored as per-attribute column arrays.

    Parameters
    ----------
    schema:
        The attribute schema the columns conform to.
    columns:
        Mapping from attribute name to an equal-length 1-D array (anything
        ``np.asarray`` accepts).  Every schema attribute must be present.
        The dataset holds read-only views; no copies are made.
    labels:
        One class label per row: the labels themselves (strings), or an
        integer array of codes indexing ``classes``.
    validate:
        When ``True``, vectorised range/domain checks run over every column
        (the columnar analogue of ``Schema.validate_record``).  Labels are
        checked either way.
    classes:
        The class vocabulary the labels index; defaults to
        ``schema.classes``.
    owner:
        Optional object kept alive as long as this dataset is — the
        shared-memory segment (or any other buffer owner) backing the
        column arrays.
    """

    def __init__(
        self,
        schema: Schema,
        columns: Mapping[str, Union[np.ndarray, Sequence[AttributeValue]]],
        labels: Union[np.ndarray, Sequence[str]],
        validate: bool = True,
        classes: Optional[Sequence[str]] = None,
        owner: object = None,
    ) -> None:
        # Deliberately no super().__init__(): records/labels are lazy
        # properties here, not stored fields.
        self.schema = schema
        self.validate = validate
        self.classes: Tuple[str, ...] = tuple(
            classes if classes is not None else schema.classes
        )
        missing = [a.name for a in schema.attributes if a.name not in columns]
        if missing:
            raise SchemaError(f"columns missing for attributes: {missing}")
        unknown = sorted(set(columns) - set(schema.attribute_names))
        if unknown:
            raise SchemaError(f"columns supplied for unknown attributes: {unknown}")
        self._columns: Dict[str, np.ndarray] = {}
        n: Optional[int] = None
        for attribute in schema.attributes:
            column = np.asarray(columns[attribute.name])
            if column.ndim != 1:
                raise SchemaError(
                    f"column {attribute.name!r} must be 1-D, got shape {column.shape}"
                )
            if n is None:
                n = column.shape[0]
            elif column.shape[0] != n:
                raise SchemaError(
                    f"column {attribute.name!r} has length {column.shape[0]}, "
                    f"expected {n}"
                )
            self._columns[attribute.name] = _readonly_view(column)
        self._n = int(n if n is not None else 0)
        label_array = np.asarray(labels)
        if label_array.shape != (self._n,):
            raise SchemaError(
                f"labels have shape {label_array.shape}, expected ({self._n},)"
            )
        if label_array.dtype.kind in "iu":
            if self._n and (
                int(label_array.min()) < 0 or int(label_array.max()) >= len(self.classes)
            ):
                raise SchemaError(f"label codes must index classes {list(self.classes)}")
            codes = label_array.astype(LABEL_CODE_DTYPE, copy=False)
        else:
            codes = codes_from_labels(label_array, self.classes)
        self._label_codes = _readonly_view(codes)
        self._owner = owner
        self._records_cache: Optional[List[Record]] = None
        self._labels_cache: Optional[List[str]] = None
        if validate:
            self._validate_columns()

    # -- validation --------------------------------------------------------

    def _validate_columns(self) -> None:
        """Vectorised schema validation over whole columns."""
        for attribute in self.schema.attributes:
            column = self._columns[attribute.name]
            if attribute.is_continuous:
                try:
                    values = column.astype(float)
                except (TypeError, ValueError) as exc:
                    raise SchemaError(
                        f"attribute {attribute.name!r}: column is not numeric"
                    ) from exc
                bad = (values < attribute.low) | (values > attribute.high)
                if bad.any():
                    index = int(np.argmax(bad))
                    raise SchemaError(
                        f"attribute {attribute.name!r}: value {values[index]} "
                        f"outside [{attribute.low}, {attribute.high}]"
                    )
            else:
                try:
                    domain = np.asarray(
                        attribute.values,
                        dtype=column.dtype if column.dtype.kind in "biuf" else object,
                    )
                except (TypeError, ValueError):
                    # Numeric column against a non-numeric domain: nothing can
                    # match, but the comparison itself must not blow up.
                    domain = np.asarray(attribute.values, dtype=object)
                inside = np.isin(column, domain)
                if not inside.all():
                    index = int(np.argmax(~inside))
                    raise SchemaError(
                        f"attribute {attribute.name!r}: value "
                        f"{column[index]!r} not in domain {attribute.values!r}"
                    )

    # -- columnar access ---------------------------------------------------

    @property
    def columns(self) -> Dict[str, np.ndarray]:
        """The read-only column arrays, keyed by attribute name."""
        return self._columns

    def column(self, name: str) -> np.ndarray:
        """The stored array for attribute ``name`` (zero-copy, read-only)."""
        try:
            return self._columns[name]
        except KeyError as exc:
            raise SchemaError(
                f"unknown attribute {name!r}; known: {self.schema.attribute_names}"
            ) from exc

    def column_values(self, name: str) -> List[AttributeValue]:
        """Attribute ``name`` as a list of Python scalars.

        This is the column provider the inference layer's ``ColumnCache``
        uses; it avoids materialising per-record dicts for rule evaluation.
        """
        return self.column(name).tolist()

    # -- labels ------------------------------------------------------------

    @property
    def label_codes(self) -> np.ndarray:
        """The read-only ``int64`` label codes, indexing :attr:`classes`."""
        return self._label_codes

    def with_label_codes(
        self, label_codes: np.ndarray, classes: Optional[Sequence[str]] = None
    ) -> "ColumnarDataset":
        """These columns with a new label-code array — zero-copy."""
        return ColumnarDataset(
            self.schema,
            self._columns,
            label_codes,
            validate=False,
            classes=classes if classes is not None else self.classes,
            owner=self._owner,
        )

    def label_array(self) -> np.ndarray:
        """Labels as an ``object``-dtype array, derived from the codes."""
        class_array = np.empty(len(self.classes), dtype=object)
        class_array[:] = list(self.classes)
        return class_array[self._label_codes]

    # -- Dataset contract --------------------------------------------------

    @property
    def records(self) -> List[Record]:  # type: ignore[override]
        """Per-record dicts, materialised lazily on first access."""
        if self._records_cache is None:
            names = self.schema.attribute_names
            lists = [self._columns[name].tolist() for name in names]
            self._records_cache = [
                dict(zip(names, row)) for row in zip(*lists)
            ] if lists else []
        return self._records_cache

    @property
    def labels(self) -> List[str]:  # type: ignore[override]
        """Labels as a plain list, materialised lazily on first access."""
        if self._labels_cache is None:
            self._labels_cache = self.label_array().tolist()
        return self._labels_cache

    @property
    def records_materialized(self) -> bool:
        """Whether the per-record dict view has been built."""
        return self._records_cache is not None

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:
        return (
            f"ColumnarDataset(n={self._n}, "
            f"attributes={self.schema.n_attributes}, "
            f"classes={self.classes})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.schema.attribute_names == other.schema.attribute_names
            and self.schema.classes == other.schema.classes
            and self.labels == other.labels
            and self.records == other.records
        )

    __hash__ = None  # type: ignore[assignment]  # mutable container, like Dataset

    def attribute_column(self, name: str) -> np.ndarray:
        attr = self.schema.attribute(name)
        column = self._columns[name]
        if attr.is_continuous:
            return column.astype(float) if column.dtype != float else column
        out = np.empty(len(column), dtype=object)
        out[:] = column.tolist()
        return out

    def label_indices(self) -> np.ndarray:
        """Labels as indices into ``schema.classes`` (the codes themselves
        unless this dataset carries another class vocabulary)."""
        if self.classes == tuple(self.schema.classes):
            return self._label_codes
        return codes_from_labels(self.label_array(), self.schema.classes)

    def class_distribution(self) -> Dict[str, int]:
        counts = np.bincount(self._label_codes, minlength=len(self.classes))
        distribution = dict.fromkeys(self.schema.classes, 0)
        distribution.update(zip(self.classes, counts.tolist()))
        return distribution

    def class_skew(self) -> float:
        if not self._n:
            raise DataGenerationError("cannot compute skew of an empty dataset")
        return max(self.class_distribution().values()) / self._n

    # -- dataset algebra ---------------------------------------------------

    def subset(self, indices: Indices) -> Dataset:
        """Row subset; prefix/slice selections are zero-copy column views.

        Views share the parent's per-record dicts once those exist.  Other
        selections copy the picked rows — except once the dicts exist, when
        they return a record-backed :class:`Dataset` sharing the dict
        objects: recursive consumers (C4.5 tree induction) would otherwise
        rebuild dicts for every partition.
        """
        if isinstance(indices, range) and len(indices) > 0:
            # NumPy slice views would silently clamp an out-of-range window;
            # a range holds absolute row indices, so fail fast exactly like
            # list indexing on the record-backed Dataset would.
            lowest, highest = (
                (indices[0], indices[-1]) if indices.step > 0 else (indices[-1], indices[0])
            )
            if lowest < -self._n or highest >= self._n:
                raise IndexError(
                    f"subset range {indices!r} out of bounds for dataset of "
                    f"length {self._n}"
                )
        window = _as_slice(indices)
        if window is None and self._records_cache is not None:
            if not isinstance(indices, (list, tuple, range)):
                indices = list(indices)
            return super().subset(indices)
        selector: Union[slice, np.ndarray]
        if window is not None:
            selector = window
        else:
            selector = np.asarray(indices, dtype=np.intp)
        columns = {name: column[selector] for name, column in self._columns.items()}
        picked = ColumnarDataset(
            self.schema,
            columns,
            self._label_codes[selector],
            validate=False,
            classes=self.classes,
            owner=self._owner,
        )
        if window is not None and self._records_cache is not None:
            picked._records_cache = self._records_cache[window]
        return picked

    def concat(self, other: Dataset) -> Dataset:
        if other.schema.attribute_names != self.schema.attribute_names:
            raise SchemaError("cannot concatenate datasets with different schemas")
        if other.schema.classes != self.schema.classes:
            raise SchemaError("cannot concatenate datasets with different class labels")
        if isinstance(other, ColumnarDataset):
            # Imported here: the chunk module builds on this one.
            from repro.data.chunks import concat_chunks

            return concat_chunks((self, other))
        return Dataset(
            self.schema,
            self.records + other.records,
            self.labels + other.labels,
            validate=False,
        )

    def relabelled(self, labeller: Callable[[Record], str]) -> Dataset:
        codes = codes_from_labels([labeller(r) for r in self.records], self.schema.classes)
        return ColumnarDataset(
            self.schema, self._columns, codes, validate=False, owner=self._owner
        )

    def relabelled_batch(self, batch_labeller: Callable[[Mapping[str, np.ndarray]], np.ndarray]) -> "ColumnarDataset":
        """Relabel with a vectorised labeller (one call for all rows)."""
        labels = np.asarray(batch_labeller(self._columns))
        if labels.shape != (self._n,):
            raise SchemaError(
                f"batch labeller returned shape {labels.shape}, expected ({self._n},)"
            )
        codes = codes_from_labels(labels, self.schema.classes)
        return ColumnarDataset(
            self.schema, self._columns, codes, validate=False, owner=self._owner
        )

    def to_dataset(self) -> Dataset:
        """An equivalent record-backed :class:`Dataset` (materialises)."""
        return Dataset(self.schema, list(self.records), list(self.labels), validate=False)

    def iter_rows(self) -> Iterator[Tuple[Record, str]]:
        """Yield ``(record, label)`` pairs one at a time without caching.

        Unlike iterating the dataset (which materialises and caches the full
        record list), this builds each dict on the fly — the bounded-memory
        row stream the ``generate`` CLI writers consume.
        """
        names = self.schema.attribute_names
        lists = [self._columns[name].tolist() for name in names]
        labels = self.label_array().tolist()
        for row, label in zip(zip(*lists), labels):
            yield dict(zip(names, row)), label


def columnar_from_records(
    schema: Schema,
    records: Sequence[Record],
    labels: Sequence[str],
    validate: bool = True,
) -> ColumnarDataset:
    """Build a :class:`ColumnarDataset` from per-record mappings.

    Each column gets its attribute's :func:`storage_dtype`.  With
    ``validate``, a categorical value the cast would change (``2`` or
    ``"yes"`` becoming ``True``, ``2.5`` becoming ``2``) is rejected like
    any other value outside the domain.
    """
    columns: Dict[str, np.ndarray] = {}
    for attribute in schema.attributes:
        try:
            values = [record[attribute.name] for record in records]
        except KeyError as exc:
            raise SchemaError(f"record missing attribute {attribute.name!r}") from exc
        dtype = storage_dtype(attribute)
        if dtype is object:
            column = np.empty(len(values), dtype=object)
            column[:] = values
        else:
            column = np.asarray(values, dtype=dtype)
            if validate and not attribute.is_continuous:
                cast = column.tolist()
                if cast != values:
                    bad = next(v for v, c in zip(values, cast) if v != c)
                    raise SchemaError(
                        f"attribute {attribute.name!r}: value {bad!r} "
                        f"not in domain {attribute.values!r}"
                    )
        columns[attribute.name] = column
    return ColumnarDataset(
        schema, columns, np.asarray(labels, dtype=object), validate=validate
    )
