"""Shared lazily-built columnar views over one batch of records.

Batch evaluation of rules and trees needs the same primitive everywhere: "the
values of attribute *a* for every record in this batch, as an array, built at
most once".  :class:`ColumnCache` is that primitive, shared by the rule
compiler, the C4.5 tree and ID3 so column semantics (missing attributes,
float/int-coded categories, domain coding) live in exactly one place.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Union

import numpy as np

from repro.data.dataset import Dataset, Record
from repro.exceptions import RuleError, SchemaError
from repro.preprocessing.features import domain_positions_array


class ColumnCache:
    """Columnar views over one batch of records, materialised lazily.

    Parameters
    ----------
    records:
        The batch: a :class:`~repro.data.dataset.Dataset`, whose stored
        columns are read directly, or a sequence of record mappings.
    missing:
        ``"error"`` raises :class:`RuleError` when a record lacks a requested
        attribute (mirroring per-record condition evaluation); ``"none"``
        yields ``None`` placeholders instead (mirroring ``dict.get`` walkers
        such as ID3's, where unmatched values fall through to a majority
        class).
    """

    def __init__(
        self, records: Union[Dataset, Sequence[Record]], missing: str = "error"
    ) -> None:
        if missing not in ("error", "none"):
            raise ValueError(f"missing policy must be 'error' or 'none', got {missing!r}")
        self.records = records
        self._missing = missing
        # A dataset supplies whole columns directly, so no per-record dict
        # is ever iterated; its raw arrays feed the numeric paths zero-copy.
        self._dataset: Optional[Dataset] = (
            records if isinstance(records, Dataset) and missing == "error" else None
        )
        self._lists: Dict[str, list] = {}
        self._raw: Dict[str, np.ndarray] = {}
        self._numeric: Dict[str, np.ndarray] = {}
        self._codes: Dict[tuple, Optional[np.ndarray]] = {}
        self._membership: Dict[tuple, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.records)

    def values(self, attribute: str) -> list:
        """The attribute's values as a plain list (fastest to build/iterate)."""
        cached = self._lists.get(attribute)
        if cached is None:
            if self._dataset is not None:
                try:
                    cached = self._dataset.column_values(attribute)
                except SchemaError:
                    raise RuleError(
                        f"record is missing attribute {attribute!r}"
                    ) from None
            elif self._missing == "none":
                cached = [record.get(attribute) for record in self.records]
            else:
                try:
                    cached = [record[attribute] for record in self.records]
                except KeyError:
                    raise RuleError(
                        f"record is missing attribute {attribute!r}"
                    ) from None
            self._lists[attribute] = cached
        return cached

    def raw(self, attribute: str) -> np.ndarray:
        """The attribute's values as an ``object``-dtype array."""
        cached = self._raw.get(attribute)
        if cached is None:
            values = self.values(attribute)
            cached = np.empty(len(values), dtype=object)
            cached[:] = values
            self._raw[attribute] = cached
        return cached

    def _source_array(self, attribute: str) -> Optional[np.ndarray]:
        """The column as a numeric ndarray straight from the dataset.

        Returns ``None`` when the batch is not a dataset or the stored
        column is not numeric; raises :class:`RuleError` for a missing
        attribute, mirroring :meth:`values`.
        """
        if self._dataset is None:
            return None
        try:
            array = self._dataset.column(attribute)
        except SchemaError:
            raise RuleError(f"record is missing attribute {attribute!r}") from None
        if array.dtype.kind in "biuf":
            return array
        return None

    def numeric(self, attribute: str) -> np.ndarray:
        """The attribute's values as a float array."""
        cached = self._numeric.get(attribute)
        if cached is None:
            array = self._source_array(attribute)
            if array is not None:
                # Zero-copy when the stored column is already float64.
                cached = array if array.dtype == np.float64 else array.astype(float)
            else:
                try:
                    cached = np.asarray(self.values(attribute), dtype=float)
                except (TypeError, ValueError) as exc:
                    raise RuleError(
                        f"attribute {attribute!r}: column contains a non-numeric value"
                    ) from exc
            self._numeric[attribute] = cached
        return cached

    def _domain_codes(self, attribute: str, domain: tuple) -> Optional[np.ndarray]:
        """The column as integer positions in ``domain`` (-1 = outside).

        Built once per attribute, then every membership test on that
        attribute reduces to a numeric ``isin``.  Hash-based lookup equates
        2.0 with 2, mirroring MembershipCondition.matches for integer-coded
        domains; ``None`` is returned when the column holds unhashable values
        and the caller must fall back to per-value comparison.
        """
        key = (attribute, domain)
        if key not in self._codes:
            column = self._source_array(attribute)
            if column is None:
                column = self.values(attribute)
            codes = self._numeric_domain_codes(column, domain)
            if codes is None:
                index = {value: i for i, value in enumerate(domain)}
                try:
                    codes = np.fromiter(
                        (index.get(value, -1) for value in column),
                        dtype=np.int64,
                        count=len(column),
                    )
                except TypeError:
                    codes = None
            self._codes[key] = codes
        return self._codes[key]

    @staticmethod
    def _numeric_domain_codes(column, domain: tuple) -> Optional[np.ndarray]:
        """Vectorised coding for all-numeric columns over all-numeric domains.

        Equivalent to the hash-based path (floats equate to equal ints both
        ways) but runs as array operations instead of one Python dict lookup
        per record — the membership hot path for big serving batches.
        ``None`` defers to the hash path whenever the equivalence cannot be
        guaranteed: non-numeric domains, empty domains, and columns holding
        anything but genuine numbers (a numeric *string* must stay unequal to
        the number it spells, exactly as ``MembershipCondition.matches`` and
        the dict lookup treat it).  The coding itself is the shared
        :func:`~repro.preprocessing.features.domain_positions_array`.
        """
        try:
            raw = np.asarray(column)
        except (TypeError, ValueError):  # pragma: no cover - ragged input
            return None
        return domain_positions_array(domain, raw)

    def membership(self, attribute: str, allowed: tuple, domain: tuple) -> np.ndarray:
        """Boolean mask: which rows take a value in ``allowed``."""
        key = (attribute, allowed)
        cached = self._membership.get(key)
        if cached is None:
            codes = self._domain_codes(attribute, domain)
            if codes is not None:
                positions = [i for i, value in enumerate(domain) if value in set(allowed)]
                cached = np.isin(codes, positions)
            else:
                # Fallback for columns holding unhashable values: tuple
                # containment is equality-based, exactly like
                # MembershipCondition.matches.
                column = self.values(attribute)
                cached = np.fromiter(
                    (value in allowed for value in column),
                    dtype=bool,
                    count=len(column),
                )
            self._membership[key] = cached
        return cached
