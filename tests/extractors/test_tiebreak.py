"""Property tests: one default-class tie-breaking rule across the zoo.

Every place the system picks a "majority" class — RX's default class
(``repro.core.extraction._majority_label``), the C4.5rules default class and
the covering extractor's default — must break ties identically (first tied
label in class order), or two extractors could emit rule sets that disagree
on tuples no rule covers.  The shared implementation is
:func:`repro.metrics.classification.majority_label`; these tests pin its
contract and the delegation of every call site.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.baselines.c45.rules import C45Rules, C45RulesConfig
from repro.core.extraction import _majority_label
from repro.data.dataset import Dataset
from repro.data.schema import CategoricalAttribute, Schema
from repro.exceptions import ReproError
from repro.metrics.classification import majority_label

#: A drawn (class order, observed labels) pair: the order is a permutation of
#: up to four classes, the labels are any multiset over those classes.
orders_and_labels = st.lists(
    st.sampled_from(["A", "B", "C", "D"]), min_size=1, max_size=4, unique=True
).flatmap(
    lambda order: st.tuples(
        st.just(order),
        st.lists(st.sampled_from(order), min_size=0, max_size=40),
    )
)


@given(orders_and_labels)
def test_first_tied_label_in_class_order_wins(case):
    order, labels = case
    winner = majority_label(labels, order)
    counts = {label: labels.count(label) for label in order}
    best = max(counts.values())
    assert winner == next(label for label in order if counts[label] == best)


@given(orders_and_labels)
def test_winner_never_depends_on_observation_order(case):
    order, labels = case
    assert majority_label(labels, order) == majority_label(
        list(reversed(labels)), order
    )


@given(orders_and_labels)
def test_rx_default_class_delegates(case):
    """RX's `_majority_label` is the same rule, byte for byte."""
    order, labels = case
    predictions = np.asarray(labels, dtype=object)
    assert _majority_label(predictions, order) == majority_label(labels, order)


@given(st.lists(st.sampled_from(["A", "B"]), min_size=0, max_size=20))
def test_class_order_is_the_only_tie_breaker(labels):
    """On a perfect tie, reversing the class order reverses the winner."""
    counts = {label: labels.count(label) for label in ("A", "B")}
    forward = majority_label(labels, ("A", "B"))
    backward = majority_label(labels, ("B", "A"))
    if counts["A"] == counts["B"]:
        assert (forward, backward) == ("A", "B")
    else:
        assert forward == backward


def test_empty_class_labels_rejected():
    with pytest.raises(ReproError, match="class label"):
        majority_label(["A"], [])


class TestC45DefaultClass:
    """The surrogate baseline's default class follows the shared rule."""

    def _tied_dataset(self, classes):
        schema = Schema(
            attributes=[CategoricalAttribute("bit", (0, 1))], classes=classes
        )
        records = [{"bit": i % 2} for i in range(6)]
        labels = [classes[0]] * 3 + [classes[1]] * 3
        return Dataset.from_records(schema, records, labels)

    @pytest.mark.parametrize("classes", [("yes", "no"), ("no", "yes")])
    def test_everything_covered_falls_back_to_shared_majority(self, classes):
        dataset = self._tied_dataset(classes)
        chooser = C45Rules(C45RulesConfig())
        assert chooser._default_class([], dataset) == majority_label(
            dataset.labels, classes
        )
        # 3 vs 3 is a perfect tie: the first class in schema order wins.
        assert chooser._default_class([], dataset) == classes[0]
