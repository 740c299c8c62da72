"""Normalisation of the three batch-input shapes the library accepts.

Historically every ``predict`` method accepted a
:class:`~repro.data.dataset.Dataset`, a sequence of records, *or* an encoded
NumPy matrix — each with its own, subtly different semantics.  This module is
the single place those shapes are told apart.  The result of
:func:`normalize_batch_input` is a :class:`BatchInput` that is exactly one of

* ``records`` — a list of attribute mappings (attribute-level evaluation), or
* ``matrix`` — an encoded ``(n_records, n_inputs)`` 0/1 matrix
  (binary-input evaluation),

optionally both when an encoder is available to bridge them.  Anything
ambiguous (1-D arrays, sequences of mixed content, matrices where records are
required, ...) raises a :class:`~repro.exceptions.ReproError` with an
explanation instead of silently mis-evaluating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Mapping, Optional, Sequence, TYPE_CHECKING

import numpy as np

from repro.data.dataset import Dataset, Record
from repro.exceptions import ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.preprocessing.encoder import TupleEncoder


@dataclass
class BatchInput:
    """One batch of tuples in canonical form.

    Exactly one of ``records`` / ``matrix`` may be ``None``; ``dataset`` is
    kept when the caller passed one so label access stays cheap.
    """

    n: int
    records: Optional[List[Record]] = None
    matrix: Optional[np.ndarray] = None
    #: The dataset the caller passed: it builds ``.records`` lazily and
    #: encodes from its columns through ``transform_matrix``.
    dataset: Optional[Dataset] = None

    def require_records(self, context: str) -> List[Record]:
        if self.records is None:
            if self.dataset is not None:
                # Materialised lazily so that dataset inputs that only ever
                # need the encoded matrix (the binary-rule and network paths)
                # never build per-record dicts.
                self.records = self.dataset.records
                return self.records
            raise ReproError(
                f"{context} needs attribute-level records, but an encoded matrix "
                "was supplied; pass a Dataset or a sequence of records instead"
            )
        return self.records

    def require_matrix(self, context: str, encoder: Optional["TupleEncoder"] = None) -> np.ndarray:
        if self.matrix is None:
            if encoder is not None:
                assert self.records is not None or self.dataset is not None
                self.matrix = (
                    encoder.transform_matrix(self.dataset)
                    if self.dataset is not None
                    else encoder.transform_matrix(self.records)
                )
            else:
                raise ReproError(
                    f"{context} needs an encoded input matrix, but attribute-level "
                    "records were supplied and no encoder is available to encode "
                    "them; pass the encoded matrix or supply an encoder"
                )
        return self.matrix


def _matrix_from_array(array: np.ndarray) -> np.ndarray:
    if array.ndim != 2:
        raise ReproError(
            f"encoded input arrays must be 2-D (n_records, n_inputs); got shape "
            f"{array.shape}.  For a single record use predict_record, or reshape "
            "to (1, n_inputs)"
        )
    return np.asarray(array, dtype=float)


def normalize_batch_input(data, encoder: Optional["TupleEncoder"] = None) -> BatchInput:
    """Classify ``data`` into records or an encoded matrix.

    Accepted forms:

    * :class:`Dataset` (a whole dataset or a chunk of a stream) — records
      (and, with an ``encoder``, a matrix on demand);
    * 2-D :class:`numpy.ndarray` — an encoded matrix;
    * iterable of mappings — records (generators are materialised);
    * iterable of 1-D numeric vectors — stacked into an encoded matrix;
    * empty iterable — an empty batch valid for either evaluation path.

    Everything else raises :class:`ReproError`.
    """
    if isinstance(data, Dataset):
        # records stays None here; require_records materialises it on demand
        # (the common paths never need it).
        return BatchInput(n=len(data), dataset=data)
    if isinstance(data, np.ndarray):
        matrix = _matrix_from_array(data)
        return BatchInput(n=matrix.shape[0], matrix=matrix)
    if isinstance(data, Mapping):
        raise ReproError(
            "a single record mapping is not a batch; use predict_record or wrap "
            "it in a list"
        )
    if isinstance(data, (Sequence, Iterable)) or hasattr(data, "__len__"):
        items = list(data)
        if not items:
            return BatchInput(n=0, records=[], matrix=np.zeros((0, 0), dtype=float))
        # The plain-dict check first: isinstance against typing.Mapping walks
        # the ABC machinery per element, which dominated batch normalisation
        # for large record batches (the overwhelmingly common case is a list
        # of dicts, for which type(...) is dict short-circuits everything).
        if all(type(item) is dict or isinstance(item, Mapping) for item in items):
            return BatchInput(n=len(items), records=items)
        if all(isinstance(item, (np.ndarray, list, tuple)) for item in items):
            try:
                matrix = _matrix_from_array(np.asarray(items, dtype=float))
            except (TypeError, ValueError) as exc:
                raise ReproError(
                    "could not stack the supplied sequence into an encoded "
                    "(n_records, n_inputs) matrix; supply records (mappings) or "
                    "a well-formed 2-D array"
                ) from exc
            return BatchInput(n=matrix.shape[0], matrix=matrix)
        raise ReproError(
            "ambiguous batch input: expected a Dataset, a 2-D encoded array, a "
            f"sequence of records, or a sequence of encoded vectors; got a "
            f"sequence whose first element is {type(items[0]).__name__}"
        )
    raise ReproError(
        f"unsupported batch input of type {type(data).__name__}; expected a "
        "Dataset, a 2-D encoded array, or a sequence of records"
    )
