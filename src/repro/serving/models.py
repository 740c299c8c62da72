"""The servable-model wrapper: one record-batch interface for every artifact.

The registry hands the :class:`~repro.serving.service.PredictionService`
instances of :class:`ServableModel`, which adapt whatever was loaded — an
extracted attribute :class:`~repro.rules.ruleset.RuleSet`, a binary rule set
plus its encoder, a deserialised
:class:`~repro.inference.network.NetworkBatchPredictor`, or any fitted
baseline implementing the :class:`~repro.inference.predictor.BatchPredictor`
protocol — to two calls:

* :meth:`ServableModel.predict_batch` — classify a batch of *records*
  (attribute mappings), or a whole dataset, in one vectorised pass; this is
  the hot path the micro-batcher dispatches to.
* :meth:`ServableModel.predict_record` — the naive per-record reference path,
  kept for latency-insensitive single lookups and as the baseline the serving
  benchmark measures against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.data.dataset import Dataset, Record
from repro.exceptions import ServingError
from repro.inference.predictor import indices_from_labels
from repro.preprocessing.encoder import TupleEncoder
from repro.rules.ruleset import RuleSet

#: Model kinds the registry distinguishes (informational; behaviour is
#: decided by the predictor's type, not the label).
KIND_RULES = "rules"
KIND_RULES_SQL = "rules-sql"
KIND_NETWORK = "network"
KIND_BASELINE = "baseline"


@dataclass
class ServableModel:
    """A named, ready-to-serve predictor plus its provenance.

    Parameters
    ----------
    name:
        The registry name traffic addresses the model by.
    kind:
        Informational label (``"rules"``, ``"network"``, ``"baseline"``).
    predictor:
        A :class:`RuleSet`, :class:`NetworkBatchPredictor`-style object, or
        any object exposing ``predict_batch(records)``.
    encoder:
        Tuple encoder bridging records to encoded inputs; required for binary
        rule sets, optional elsewhere (a network predictor usually carries
        its own).
    source:
        Where the model came from (a file path, a cache key, ``"memory"``) —
        reported by the registry and the CLI.
    """

    name: str
    kind: str
    predictor: object
    encoder: Optional[TupleEncoder] = None
    source: str = "memory"

    def __post_init__(self) -> None:
        if not self.name:
            raise ServingError("a servable model needs a non-empty name")
        if not hasattr(self.predictor, "predict_batch"):
            raise ServingError(
                f"model {self.name!r}: {type(self.predictor).__name__} does not "
                "implement predict_batch and cannot be served"
            )
        if (
            isinstance(self.predictor, RuleSet)
            and self.predictor.is_binary
            and self.predictor.rules
            and self.encoder is None
        ):
            raise ServingError(
                f"model {self.name!r}: binary rule sets need an encoder to "
                "classify records; supply one or translate the rules to "
                "attribute conditions"
            )

    # -- prediction -----------------------------------------------------------

    def predict_batch(self, records: Union[Dataset, Sequence[Record]]) -> np.ndarray:
        """Class labels for a batch of records (``object``-dtype array).

        A :class:`~repro.data.dataset.Dataset` is classified through
        :meth:`predict_codes`, on its columns.
        """
        if isinstance(records, Dataset):
            codes, classes = self.predict_codes(records)
            return np.asarray(classes, dtype=object)[codes]
        if isinstance(self.predictor, RuleSet):
            ruleset = self.predictor
            if ruleset.rules and not ruleset.is_binary:
                # Serving batches are known to be record lists, so attribute
                # rule sets skip batch-input classification and go straight
                # to the compiled columnar evaluator (identical labels — the
                # normalised path ends in exactly this call).
                if not records:
                    return np.empty(0, dtype=object)
                return ruleset.compiled().predict_batch(list(records))
            return ruleset.predict_batch(list(records), encoder=self.encoder)
        return self.predictor.predict_batch(list(records))

    def predict_codes(self, chunk: Dataset) -> Tuple[np.ndarray, Tuple[str, ...]]:
        """Class-*index* predictions for a dataset chunk.

        The chunk-fabric hot path: labels stay an ``int64`` code array
        indexing the returned class tuple — no per-record dicts and no label
        strings are materialised for compiled rule sets (attribute rules
        evaluate on the chunk's columns directly, binary rules on its encoded
        matrix).  Other predictors get the chunk itself, so one that reads
        columns (a network encodes them, the SQL backend stages them) builds
        no dicts either; their labels go through one vectorised label→code
        conversion.
        """
        if isinstance(self.predictor, RuleSet):
            ruleset = self.predictor
            if not ruleset.rules:
                # Empty set: everything is the default class, no evaluation.
                classes = self.classes or tuple(chunk.classes)
                if ruleset.default_class not in classes:
                    classes = classes + (ruleset.default_class,)
                codes = np.full(
                    len(chunk), classes.index(ruleset.default_class), dtype=np.int64
                )
                return codes, tuple(classes)
            compiled = ruleset.compiled()
            if ruleset.is_binary:
                assert self.encoder is not None  # enforced in __post_init__
                matrix = self.encoder.transform_matrix(chunk)
                return compiled.predict_indices(matrix), tuple(compiled.classes)
            return compiled.predict_indices(chunk), tuple(compiled.classes)
        # Not self.predict_batch: its list() would turn the dataset into
        # (record, label) pairs.
        labels = self.predictor.predict_batch(chunk)
        classes = self.classes or tuple(chunk.classes)
        return indices_from_labels(labels, classes), tuple(classes)

    def predict_record(self, record: Record) -> str:
        """The per-record reference path (no batching, no compilation)."""
        if isinstance(self.predictor, RuleSet):
            if self.predictor.is_binary and self.predictor.rules:
                assert self.encoder is not None  # enforced in __post_init__
                return self.predictor.predict_record(self.encoder.encode_record(record))
            return self.predictor.predict_record(record)
        if hasattr(self.predictor, "predict_record"):
            return self.predictor.predict_record(record)
        return self.predict_batch([record])[0]

    # -- introspection --------------------------------------------------------

    @property
    def classes(self) -> Tuple[str, ...]:
        """The label vocabulary, whichever attribute the predictor exposes."""
        for attribute in ("classes", "classes_"):
            value = getattr(self.predictor, attribute, None)
            if value is not None:
                return tuple(value)
        return ()

    def describe(self) -> str:
        extras: List[str] = []
        if isinstance(self.predictor, RuleSet):
            extras.append(f"{self.predictor.n_rules} rules")
        if self.classes:
            extras.append(f"classes {list(self.classes)}")
        detail = f" ({', '.join(extras)})" if extras else ""
        return f"{self.name}: {self.kind} from {self.source}{detail}"


# Re-exported here so the registry and service share one definition without
# importing each other.
__all__ = [
    "ServableModel",
    "KIND_RULES",
    "KIND_RULES_SQL",
    "KIND_NETWORK",
    "KIND_BASELINE",
]
