"""Tests of the C4.5 split search."""

import numpy as np
import pytest

from repro.baselines.c45.splitter import best_split, candidate_thresholds, evaluate_splits
from repro.data.dataset import Dataset
from repro.data.schema import CategoricalAttribute, ContinuousAttribute, Schema


@pytest.fixture()
def threshold_dataset():
    """Label is determined by income >= 50; colour is irrelevant."""
    schema = Schema(
        attributes=[
            ContinuousAttribute("income", 0.0, 100.0),
            CategoricalAttribute("colour", ("red", "green")),
        ],
        classes=("yes", "no"),
    )
    records = []
    labels = []
    rng = np.random.default_rng(0)
    for _ in range(60):
        income = float(rng.uniform(0, 100))
        colour = "red" if rng.uniform() < 0.5 else "green"
        records.append({"income": income, "colour": colour})
        labels.append("yes" if income >= 50 else "no")
    return Dataset.from_records(schema, records, labels)


class TestCandidateThresholds:
    def test_midpoints_between_distinct_values(self):
        thresholds = candidate_thresholds(np.array([1.0, 2.0, 3.0]))
        assert thresholds == [1.5, 2.5]

    def test_constant_column_has_no_thresholds(self):
        assert candidate_thresholds(np.array([5.0, 5.0])) == []

    def test_subsampling_cap(self):
        values = np.arange(1000, dtype=float)
        thresholds = candidate_thresholds(values, max_candidates=32)
        assert len(thresholds) == 32


class TestBestSplit:
    def test_picks_informative_attribute(self, threshold_dataset):
        split = best_split(threshold_dataset)
        assert split is not None
        assert split.attribute == "income"
        assert split.threshold == pytest.approx(50.0, abs=5.0)

    def test_no_split_on_pure_node(self, threshold_dataset):
        pure = threshold_dataset.filter(lambda record, label: label == "yes")
        assert best_split(pure) is None

    def test_respects_min_leaf_size(self, threshold_dataset):
        # With an absurd minimum leaf size nothing is admissible.
        assert best_split(threshold_dataset, min_leaf_size=50) is None

    def test_attribute_restriction(self, threshold_dataset):
        split = best_split(threshold_dataset, attributes=["colour"])
        # Colour is uninformative: either no split or a negligible gain.
        assert split is None or split.gain < 0.1

    def test_evaluate_splits_scores_every_candidate(self, threshold_dataset):
        candidates = evaluate_splits(threshold_dataset)
        assert any(c.attribute == "income" for c in candidates)
        assert all(c.gain >= 0 for c in candidates)
