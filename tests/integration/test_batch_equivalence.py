"""The batch-inference equivalence guarantee.

For every classifier in the repository the vectorised ``predict_batch`` path
must produce *exactly* the labels the per-record reference path produces —
on randomized datasets, not just hand-picked examples.  This is the contract
that lets every consumer (metrics, experiments, benchmarks) switch to label
arrays without changing any result.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.c45.classifier import C45Classifier
from repro.baselines.c45.rules import C45Rules
from repro.baselines.id3 import ID3Classifier
from repro.core.neurorule import NeuroRuleClassifier, NeuroRuleConfig
from repro.data.dataset import Dataset
from repro.data.schema import CategoricalAttribute, ContinuousAttribute, Schema
from repro.preprocessing.encoder import default_encoder
from repro.preprocessing.features import InputFeature, KIND_ORDINAL_THRESHOLD
from repro.rules.conditions import InputLiteral
from repro.rules.rule import BinaryRule
from repro.rules.ruleset import RuleSet


def random_schema_and_dataset(rng: np.random.Generator, n: int = 300):
    """A randomized mixed schema plus a dataset drawn from it."""
    schema = Schema(
        attributes=[
            ContinuousAttribute("x1", 0.0, 100.0),
            ContinuousAttribute("x2", -50.0, 50.0),
            CategoricalAttribute("colour", ("red", "green", "blue")),
            CategoricalAttribute("grade", (0, 1, 2, 3), ordered=True),
        ],
        classes=("A", "B"),
    )
    records = [
        {
            "x1": float(rng.uniform(0, 100)),
            "x2": float(rng.uniform(-50, 50)),
            "colour": str(rng.choice(["red", "green", "blue"])),
            "grade": int(rng.integers(0, 4)),
        }
        for _ in range(n)
    ]
    labels = [
        "A" if (r["x1"] > 50) != (r["colour"] == "red") else "B" for r in records
    ]
    return schema, Dataset.from_records(schema, records, labels)


def random_binary_ruleset(rng: np.random.Generator, n_inputs: int, n_rules: int) -> RuleSet:
    """A random binary rule set over ``n_inputs`` encoded inputs."""

    def feature(index: int) -> InputFeature:
        return InputFeature(
            index=index,
            name=f"I{index + 1}",
            attribute=f"x{index}",
            kind=KIND_ORDINAL_THRESHOLD,
            rank=1,
            domain=(0, 1),
        )

    rules = []
    for _ in range(n_rules):
        k = int(rng.integers(1, 4))
        indices = rng.choice(n_inputs, size=k, replace=False)
        literals = tuple(
            InputLiteral(feature(int(i)), int(rng.integers(0, 2))) for i in indices
        )
        rules.append(BinaryRule(literals, "A" if rng.random() < 0.5 else "B"))
    return RuleSet(rules, default_class="B", classes=("A", "B"), name="random")


class TestRuleSetEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_binary_rules_batch_equals_per_record(self, seed):
        rng = np.random.default_rng(seed)
        n_inputs = 12
        ruleset = random_binary_ruleset(rng, n_inputs, n_rules=int(rng.integers(1, 8)))
        matrix = (rng.random((500, n_inputs)) > 0.5).astype(float)
        batch = ruleset.predict_batch(matrix)
        reference = [ruleset.predict_record(row) for row in matrix]
        assert batch.tolist() == reference

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_c45rules_attribute_rules_batch_equals_per_record(self, seed):
        rng = np.random.default_rng(seed)
        _, dataset = random_schema_and_dataset(rng)
        model = C45Rules().fit(dataset)
        batch = model.predict_batch(dataset)
        reference = [model.ruleset.predict_record(r) for r in dataset.records]
        assert batch.tolist() == reference


class TestTreeEquivalence:
    @pytest.mark.parametrize("seed", [20, 21, 22])
    def test_c45_batch_equals_per_record(self, seed):
        rng = np.random.default_rng(seed)
        _, dataset = random_schema_and_dataset(rng)
        train, test = dataset.split(0.6, seed=seed)
        model = C45Classifier().fit(train)
        batch = model.predict_batch(test)
        reference = [model.predict_record(r) for r in test.records]
        assert batch.tolist() == reference

    @pytest.mark.parametrize("seed", [30, 31, 32])
    def test_id3_batch_equals_per_record(self, seed):
        rng = np.random.default_rng(seed)
        _, dataset = random_schema_and_dataset(rng)
        train, test = dataset.split(0.6, seed=seed)
        model = ID3Classifier().fit(train)
        batch = model.predict_batch(test)
        reference = [model.predict_record(r) for r in test.records]
        assert batch.tolist() == reference

    def test_c45_unseen_categorical_falls_back_identically(self):
        schema = Schema(
            attributes=[CategoricalAttribute("colour", ("red", "green", "blue"))],
            classes=("A", "B"),
        )
        records = [{"colour": "red"}] * 5 + [{"colour": "green"}] * 5
        labels = ["A"] * 5 + ["B"] * 5
        model = C45Classifier().fit(Dataset.from_records(schema, records, labels))
        probe = [{"colour": "blue"}, {"colour": "red"}]
        assert model.predict_batch(probe).tolist() == [
            model.predict_record(r) for r in probe
        ]


class TestNeuroRuleEquivalence:
    @pytest.fixture(scope="class")
    def fitted(self):
        rng = np.random.default_rng(99)
        _, dataset = random_schema_and_dataset(rng, n=240)
        classifier = NeuroRuleClassifier(NeuroRuleConfig.fast(seed=3))
        classifier.fit(dataset)
        return classifier, dataset

    def test_rules_batch_equals_per_record(self, fitted):
        classifier, dataset = fitted
        batch = classifier.predict_batch(dataset)
        reference = [classifier.predict_record(r) for r in dataset.records]
        assert batch.tolist() == reference

    def test_network_batch_equals_per_record_argmax(self, fitted):
        classifier, dataset = fitted
        encoded = classifier.encoder.encode_dataset(dataset)
        batch = classifier.predict_network_batch(dataset)
        reference = [
            classifier.classes_[int(classifier.network_.predict_indices(row[None, :])[0])]
            for row in encoded
        ]
        assert batch.tolist() == reference

    def test_list_and_array_predictions_agree(self, fitted):
        classifier, dataset = fitted
        assert classifier.predict(dataset) == classifier.predict_batch(dataset).tolist()


class TestEncoderEquivalence:
    @pytest.mark.parametrize("seed", [40, 41])
    def test_transform_matrix_equals_per_record_encoding(self, seed):
        rng = np.random.default_rng(seed)
        schema, dataset = random_schema_and_dataset(rng, n=100)
        encoder = default_encoder(schema, dataset)
        matrix = encoder.transform_matrix(dataset)
        reference = np.vstack([encoder.encode_record(r) for r in dataset.records])
        np.testing.assert_array_equal(matrix, reference)
