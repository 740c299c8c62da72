"""ID3 baseline: plain information-gain decision tree over discrete attributes.

The paper's evaluation quotes ID3 results from Agrawal et al. (e.g. "ID3
generated a relatively large number of strings for Function 2").  ID3 differs
from C4.5 in two ways that matter here: it maximises raw information gain
(not gain ratio) and it handles only categorical attributes, so continuous
attributes must be discretised first.  This implementation discretises
numeric attributes with the same interval partitions used for the network
coding, which keeps the comparison like-for-like.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.baselines.c45.criteria import class_counts, entropy, information_gain
from repro.data.dataset import Dataset, Record
from repro.data.schema import AttributeValue, ContinuousAttribute
from repro.exceptions import BaselineError
from repro.inference.columns import ColumnCache
from repro.inference.inputs import normalize_batch_input
from repro.preprocessing.discretization import Discretizer, EqualWidthDiscretizer
from repro.preprocessing.intervals import IntervalPartition


@dataclass
class ID3Config:
    """Induction parameters for ID3."""

    max_depth: int = 20
    min_split_size: int = 2
    min_gain: float = 1e-9
    n_subintervals: int = 5
    discretizer: Discretizer = field(default_factory=lambda: EqualWidthDiscretizer(n_subintervals=5))

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise BaselineError(f"max_depth must be >= 1, got {self.max_depth}")


@dataclass
class ID3Leaf:
    prediction: str
    counts: Dict[str, int]

    def n_leaves(self) -> int:
        return 1


@dataclass
class ID3Node:
    attribute: str
    children: Dict[AttributeValue, Union["ID3Node", ID3Leaf]]
    majority: str

    def n_leaves(self) -> int:
        return sum(child.n_leaves() for child in self.children.values())


class ID3Classifier:
    """Categorical information-gain decision tree with numeric pre-discretisation."""

    def __init__(self, config: Optional[ID3Config] = None) -> None:
        self.config = config or ID3Config()
        self.root_: Optional[Union[ID3Node, ID3Leaf]] = None
        self.partitions_: Dict[str, IntervalPartition] = {}
        self.classes_: Optional[List[str]] = None

    # -- discretisation ---------------------------------------------------------

    def _discrete_value(self, name: str, value: AttributeValue) -> AttributeValue:
        if name in self.partitions_:
            return self.partitions_[name].subinterval_index(float(value))  # type: ignore[arg-type]
        return value

    def _discretise_record(self, record: Record) -> Record:
        return {name: self._discrete_value(name, value) for name, value in record.items()}

    # -- fitting -------------------------------------------------------------------

    def fit(self, dataset: Dataset) -> "ID3Classifier":
        if len(dataset) == 0:
            raise BaselineError("cannot fit ID3 on an empty dataset")
        self.classes_ = list(dataset.schema.classes)
        self.partitions_ = {}
        for attribute in dataset.schema.attributes:
            if isinstance(attribute, ContinuousAttribute):
                values = [float(r[attribute.name]) for r in dataset.records]
                self.partitions_[attribute.name] = self.config.discretizer.partition(
                    attribute, values
                )
        records = [self._discretise_record(r) for r in dataset.records]
        attributes = dataset.schema.attribute_names
        self.root_ = self._build(records, list(dataset.labels), attributes, depth=0)
        return self

    def _build(
        self,
        records: List[Record],
        labels: List[str],
        attributes: List[str],
        depth: int,
    ) -> Union[ID3Node, ID3Leaf]:
        counts = class_counts(labels)
        majority = max(counts, key=lambda label: counts[label])
        if (
            len(counts) == 1
            or not attributes
            or depth >= self.config.max_depth
            or len(records) < self.config.min_split_size
        ):
            return ID3Leaf(prediction=majority, counts=counts)

        best_attribute = None
        best_gain = self.config.min_gain
        for name in attributes:
            partitions: Dict[AttributeValue, List[str]] = {}
            for record, label in zip(records, labels):
                partitions.setdefault(record[name], []).append(label)
            if len(partitions) < 2:
                continue
            gain = information_gain(labels, list(partitions.values()))
            if gain > best_gain:
                best_gain = gain
                best_attribute = name
        if best_attribute is None:
            return ID3Leaf(prediction=majority, counts=counts)

        remaining = [name for name in attributes if name != best_attribute]
        children: Dict[AttributeValue, Union[ID3Node, ID3Leaf]] = {}
        groups: Dict[AttributeValue, List[int]] = {}
        for index, record in enumerate(records):
            groups.setdefault(record[best_attribute], []).append(index)
        for value, indices in groups.items():
            children[value] = self._build(
                [records[i] for i in indices],
                [labels[i] for i in indices],
                remaining,
                depth + 1,
            )
        return ID3Node(attribute=best_attribute, children=children, majority=majority)

    # -- prediction --------------------------------------------------------------------

    def _require_fitted(self) -> Union[ID3Node, ID3Leaf]:
        if self.root_ is None:
            raise BaselineError("this ID3Classifier instance is not fitted yet")
        return self.root_

    def predict_record(self, record: Record) -> str:
        node = self._require_fitted()
        discrete = self._discretise_record(dict(record))
        while isinstance(node, ID3Node):
            value = discrete.get(node.attribute)
            if value in node.children:
                node = node.children[value]
            else:
                return node.majority
        return node.prediction

    def _discretised_column(self, name: str, cache: ColumnCache) -> np.ndarray:
        """One attribute of a record batch, discretised, as an object array.

        Missing attributes become ``None`` (no child matches, so those rows
        fall through to the majority class, mirroring ``predict_record``).
        """
        raw = cache.raw(name)
        if name not in self.partitions_:
            return raw
        # subinterval_index counts the cuts <= value, which is exactly one
        # vectorised searchsorted(side="right") over the present values.
        values_list = cache.values(name)
        column = np.empty(len(raw), dtype=object)
        present = np.fromiter(
            (v is not None for v in values_list), dtype=bool, count=len(values_list)
        )
        if present.any():
            cuts = np.asarray(self.partitions_[name].cuts, dtype=float)
            values = raw[present].astype(float)
            column[present] = np.searchsorted(cuts, values, side="right")
        return column

    def _predict_batch_node(
        self,
        node: Union[ID3Node, ID3Leaf],
        columns: Dict[str, np.ndarray],
        cache: ColumnCache,
        indices: np.ndarray,
        out: np.ndarray,
    ) -> None:
        if isinstance(node, ID3Leaf):
            out[indices] = node.prediction
            return
        if node.attribute not in columns:
            columns[node.attribute] = self._discretised_column(node.attribute, cache)
        values = columns[node.attribute][indices]
        unmatched = np.ones(len(indices), dtype=bool)
        for value, child in node.children.items():
            selected = values == value
            if selected.any():
                self._predict_batch_node(child, columns, cache, indices[selected], out)
                unmatched &= ~selected
        if unmatched.any():
            out[indices[unmatched]] = node.majority

    def predict_batch(self, data) -> np.ndarray:
        """Vectorised prediction: the tree descends once over columnar views.

        Accepts a :class:`Dataset` or a sequence of records and returns an
        ``object``-dtype label array identical, tuple by tuple, to
        :meth:`predict_record`.
        """
        root = self._require_fitted()
        batch = normalize_batch_input(data)
        if batch.n == 0:
            return np.empty(0, dtype=object)
        records = batch.require_records("ID3 prediction")
        out = np.empty(len(records), dtype=object)
        self._predict_batch_node(
            root, {}, ColumnCache(records, missing="none"), np.arange(len(records)), out
        )
        return out

    def predict(self, data) -> List[str]:
        return self.predict_batch(data).tolist()

    def score(self, dataset: Dataset) -> float:
        from repro.metrics.classification import accuracy

        if len(dataset) == 0:
            raise BaselineError("cannot score an empty dataset")
        return accuracy(self.predict_batch(dataset), dataset.labels)

    @property
    def n_leaves(self) -> int:
        return self._require_fitted().n_leaves()
