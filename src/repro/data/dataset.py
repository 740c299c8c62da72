"""The dataset container used throughout the library.

A :class:`Dataset` couples a :class:`~repro.data.schema.Schema` with one NumPy
array per attribute and one class label per tuple.  It is the library's only
dataset type and the one every stage hands on: the vectorised Agrawal
generator and its chunk streams, the synthetic sets, the shared-memory
fan-out of :mod:`repro.data.chunks`, the encoder's batch path, rule serving,
the tuple store in both directions and network training.  Multi-million-tuple
workloads never build a per-record dict unless something genuinely
record-oriented (C4.5 tree induction, JSON export of single tuples) asks for
one.  Per-record mappings become a dataset through
:meth:`Dataset.from_records` — the CSV loaders, the scalar reference
generators and hand-built examples all go that way.

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
  :mod:`repro.experiments.function4` share the parent's memory.  Once a
  dataset's dicts exist, every subset shares them rather than rebuilding
  them, which is what keeps C4.5's recursive partitions cheap.
* :func:`storage_dtype` is the one rule typing a column from its attribute:
  columns built from records, the database DDL and the store's read-back
  path all derive from it.
* All mutating-style operations (``split``, ``subset``, ``shuffled``,
  ``with_label_codes``) return new datasets; a dataset is effectively
  immutable after construction.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.data.schema import Attribute, AttributeValue, Schema
from repro.exceptions import DataGenerationError, SchemaError

Record = Dict[str, AttributeValue]

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


def _column_from_values(
    attribute: Attribute, values: List[AttributeValue], validate: bool
) -> np.ndarray:
    """One attribute's record values as a column of its :func:`storage_dtype`.

    With ``validate``, a value the cast would change is rejected: a
    non-integral value of an integer-flagged attribute (``25.5`` would
    become ``25``), and a categorical value that is not its domain value
    (``2`` or ``"yes"`` becoming ``True``, ``2.5`` becoming ``2``).
    """
    dtype = storage_dtype(attribute)
    if dtype is object:
        column = np.empty(len(values), dtype=object)
        column[:] = values
        return column
    if attribute.is_continuous:
        try:
            numbers = np.asarray(values, dtype=float)
        except (TypeError, ValueError) as exc:
            raise SchemaError(
                f"attribute {attribute.name!r}: column is not numeric"
            ) from exc
        if dtype is float:
            return numbers
        if validate:
            integral = np.isfinite(numbers) & (numbers == np.floor(numbers))
            if not integral.all():
                raise SchemaError(
                    f"attribute {attribute.name!r}: value "
                    f"{values[int(np.argmax(~integral))]!r} is not an integer"
                )
        return numbers.astype(dtype)
    try:
        column = np.asarray(values, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(
            f"attribute {attribute.name!r}: values not in domain {attribute.values!r}"
        ) from exc
    if validate:
        cast = column.tolist()
        if cast != values:
            bad = next(v for v, c in zip(values, cast) if v != c)
            raise SchemaError(
                f"attribute {attribute.name!r}: value {bad!r} "
                f"not in domain {attribute.values!r}"
            )
    return column


class Dataset:
    """A labelled dataset stored as per-attribute column arrays.

    The constructor wraps column arrays; :meth:`from_records` builds a
    dataset from per-record mappings.

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

    @classmethod
    def from_records(
        cls,
        schema: Schema,
        records: Sequence[Mapping[str, AttributeValue]],
        labels: Sequence[str],
        validate: bool = True,
    ) -> "Dataset":
        """Build a dataset from per-record mappings.

        Each column gets its attribute's :func:`storage_dtype`.  With
        ``validate`` every record must hold exactly the schema's attributes,
        every value must lie in its attribute's range or domain — a value
        the column cast would change is rejected too (``25.5`` for an
        integer-flagged attribute, ``2`` or ``"yes"`` for a boolean domain)
        — and every label must be one of the schema's classes; anything
        else raises :class:`SchemaError`.  The record view is then rebuilt
        from the typed columns on first access.

        Without ``validate`` the records are trusted as given: the dataset
        keeps the caller's dict objects as its record view, as the scalar
        reference generators rely on.
        """
        if len(records) != len(labels):
            raise SchemaError(
                f"records ({len(records)}) and labels ({len(labels)}) "
                "must have the same length"
            )
        if validate:
            known = set(schema.attribute_names)
            for record in records:
                if not known.issuperset(record):
                    raise SchemaError(
                        f"record has unknown attributes: {sorted(set(record) - known)}"
                    )
        columns: Dict[str, np.ndarray] = {}
        for attribute in schema.attributes:
            try:
                values = [record[attribute.name] for record in records]
            except KeyError as exc:
                raise SchemaError(f"record missing attribute {attribute.name!r}") from exc
            columns[attribute.name] = _column_from_values(attribute, values, validate)
        dataset = cls(schema, columns, np.asarray(labels, dtype=object), validate=validate)
        if not validate:
            dataset._records_cache = list(records)
        return dataset

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
                # Written so that NaN lands outside the range too.
                bad = ~((values >= attribute.low) & (values <= attribute.high))
                if bad.any():
                    index = int(np.argmax(bad))
                    raise SchemaError(
                        f"attribute {attribute.name!r}: value {values[index]} "
                        f"outside [{attribute.low}, {attribute.high}]"
                    )
                continue
            if column.dtype == object:
                # Tuple membership compares with ==, exactly like
                # Schema.validate_record, whatever mix of types the column holds.
                domain = attribute.values
                inside = np.fromiter(
                    (value in domain for value in column), dtype=bool, count=len(column)
                )
            else:
                try:
                    domain = np.asarray(attribute.values, dtype=column.dtype)
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

    def attribute_column(self, name: str) -> np.ndarray:
        """One attribute as a NumPy array (``float`` for continuous
        attributes, ``object`` dtype for categorical ones)."""
        attr = self.schema.attribute(name)
        column = self._columns[name]
        if attr.is_continuous:
            return column.astype(float) if column.dtype != float else column
        out = np.empty(len(column), dtype=object)
        out[:] = column.tolist()
        return out

    # -- labels ------------------------------------------------------------

    @property
    def n_classes(self) -> int:
        return self.schema.n_classes

    @property
    def label_codes(self) -> np.ndarray:
        """The read-only ``int64`` label codes, indexing :attr:`classes`."""
        return self._label_codes

    def with_label_codes(
        self, label_codes: np.ndarray, classes: Optional[Sequence[str]] = None
    ) -> "Dataset":
        """These columns with a new label-code array — zero-copy.

        The record view, when it exists, is shared too: records do not
        depend on the labels.
        """
        relabelled = Dataset(
            self.schema,
            self._columns,
            label_codes,
            validate=False,
            classes=classes if classes is not None else self.classes,
            owner=self._owner,
        )
        relabelled._records_cache = self._records_cache
        return relabelled

    def label_array(self) -> np.ndarray:
        """Labels as an ``object``-dtype array, derived from the codes."""
        class_array = np.empty(len(self.classes), dtype=object)
        class_array[:] = list(self.classes)
        return class_array[self._label_codes]

    def label_indices(self) -> np.ndarray:
        """Labels as indices into ``schema.classes`` (the codes themselves
        unless this dataset carries another class vocabulary)."""
        if self.classes == tuple(self.schema.classes):
            return self._label_codes
        return codes_from_labels(self.label_array(), self.schema.classes)

    def label_targets(self) -> np.ndarray:
        """One-hot target matrix of shape ``(n, n_classes)``.

        This is the target representation used for network training: 1 for
        the true class output unit and 0 elsewhere, exactly as described in
        Section 2.1 of the paper.
        """
        n = len(self)
        targets = np.zeros((n, self.n_classes), dtype=float)
        targets[np.arange(n), self.label_indices()] = 1.0
        return targets

    def class_distribution(self) -> Dict[str, int]:
        """Number of records per class label (all classes present as keys)."""
        counts = np.bincount(self._label_codes, minlength=len(self.classes))
        distribution = dict.fromkeys(self.schema.classes, 0)
        distribution.update(zip(self.classes, counts.tolist()))
        return distribution

    def class_skew(self) -> float:
        """Fraction of records belonging to the majority class.

        The paper excludes Agrawal functions 8 and 10 because they produce
        "highly skewed data that made classification not meaningful"; this
        helper is what the experiment harness uses to apply the same rule.
        """
        if not self._n:
            raise DataGenerationError("cannot compute skew of an empty dataset")
        return max(self.class_distribution().values()) / self._n

    # -- the record view ---------------------------------------------------

    @property
    def records(self) -> List[Record]:
        """Per-record dicts, materialised lazily on first access."""
        if self._records_cache is None:
            names = self.schema.attribute_names
            lists = [self._columns[name].tolist() for name in names]
            self._records_cache = [
                dict(zip(names, row)) for row in zip(*lists)
            ] if lists else []
        return self._records_cache

    @property
    def labels(self) -> List[str]:
        """Labels as a plain list, materialised lazily on first access."""
        if self._labels_cache is None:
            self._labels_cache = self.label_array().tolist()
        return self._labels_cache

    @property
    def records_materialized(self) -> bool:
        """Whether the per-record dict view has been built."""
        return self._records_cache is not None

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

    # -- basic protocol ----------------------------------------------------

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[Tuple[Record, str]]:
        return iter(zip(self.records, self.labels))

    def __getitem__(self, index: int) -> Tuple[Record, str]:
        return self.records[index], self.labels[index]

    def __repr__(self) -> str:
        return (
            f"Dataset(n={self._n}, "
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

    __hash__ = None  # type: ignore[assignment]  # mutable caches, not hashable

    # -- dataset algebra ---------------------------------------------------

    def subset(self, indices: Indices) -> "Dataset":
        """Row subset; prefix/slice selections are zero-copy column views.

        Other selections copy the picked rows.  Either way the subset
        shares the parent's per-record dicts once those exist: recursive
        consumers (C4.5 tree induction) would otherwise rebuild dicts for
        every partition.
        """
        if isinstance(indices, range) and len(indices) > 0:
            # NumPy slice views would silently clamp an out-of-range window;
            # a range holds absolute row indices, so fail fast exactly like
            # list indexing would.
            lowest, highest = (
                (indices[0], indices[-1]) if indices.step > 0 else (indices[-1], indices[0])
            )
            if lowest < -self._n or highest >= self._n:
                raise IndexError(
                    f"subset range {indices!r} out of bounds for dataset of "
                    f"length {self._n}"
                )
        window = _as_slice(indices)
        selector = window if window is not None else np.asarray(indices, dtype=np.intp)
        columns = {name: column[selector] for name, column in self._columns.items()}
        picked = Dataset(
            self.schema,
            columns,
            self._label_codes[selector],
            validate=False,
            classes=self.classes,
            owner=self._owner,
        )
        if self._records_cache is not None:
            records = self._records_cache
            picked._records_cache = (
                records[window]
                if window is not None
                else [records[i] for i in selector.tolist()]
            )
        return picked

    def filter(self, predicate: Callable[[Record, str], bool]) -> "Dataset":
        """Return a dataset with only the records for which ``predicate``
        returns ``True``."""
        indices = [i for i, (r, l) in enumerate(self) if predicate(r, l)]
        return self.subset(indices)

    def shuffled(self, seed: Optional[int] = None) -> "Dataset":
        """Return a copy with records in a random order."""
        rng = np.random.default_rng(seed)
        return self.subset(rng.permutation(len(self)))

    def split(self, train_fraction: float, seed: Optional[int] = None) -> Tuple["Dataset", "Dataset"]:
        """Split into (train, test) datasets.

        Parameters
        ----------
        train_fraction:
            Fraction of records assigned to the training split, in (0, 1).
        seed:
            Seed for the shuffle applied before splitting.
        """
        if not (0.0 < train_fraction < 1.0):
            raise DataGenerationError(
                f"train_fraction must be in (0, 1), got {train_fraction}"
            )
        shuffled = self.shuffled(seed)
        cut = int(round(train_fraction * len(shuffled)))
        cut = min(max(cut, 1), len(shuffled) - 1)
        train = shuffled.subset(range(cut))
        test = shuffled.subset(range(cut, len(shuffled)))
        return train, test

    def concat(self, other: "Dataset") -> "Dataset":
        """Concatenate two datasets sharing the same schema."""
        if other.schema.attribute_names != self.schema.attribute_names:
            raise SchemaError("cannot concatenate datasets with different schemas")
        if other.schema.classes != self.schema.classes:
            raise SchemaError("cannot concatenate datasets with different class labels")
        # Imported here: the chunk module builds on this one.
        from repro.data.chunks import concat_chunks

        return concat_chunks((self, other))

    def relabelled(self, labeller: Callable[[Record], str]) -> "Dataset":
        """Return a dataset with labels recomputed by ``labeller``.

        Used by the experiment harness to apply a different Agrawal function
        to an existing attribute sample.
        """
        codes = codes_from_labels([labeller(r) for r in self.records], self.schema.classes)
        return self.with_label_codes(codes, self.schema.classes)

    def relabelled_batch(self, batch_labeller: Callable[[Mapping[str, np.ndarray]], np.ndarray]) -> "Dataset":
        """Relabel with a vectorised labeller (one call for all rows)."""
        labels = np.asarray(batch_labeller(self._columns))
        if labels.shape != (self._n,):
            raise SchemaError(
                f"batch labeller returned shape {labels.shape}, expected ({self._n},)"
            )
        codes = codes_from_labels(labels, self.schema.classes)
        return self.with_label_codes(codes, self.schema.classes)

    # -- reporting ---------------------------------------------------------

    def summary(self) -> str:
        """One-line human-readable summary used by examples and reports."""
        dist = self.class_distribution()
        dist_text = ", ".join(f"{label}: {count}" for label, count in dist.items())
        return (
            f"Dataset(n={len(self)}, attributes={self.schema.n_attributes}, "
            f"classes={{{dist_text}}})"
        )
