"""Tests of decision-tree induction."""

import pytest

from repro.baselines.c45.tree import Leaf, TreeConfig, build_tree, tree_paths
from repro.data.agrawal import AgrawalGenerator
from repro.data.dataset import Dataset
from repro.data.schema import CategoricalAttribute, ContinuousAttribute, Schema
from repro.exceptions import BaselineError


@pytest.fixture(scope="module")
def function1_data():
    return AgrawalGenerator(function=1, perturbation=0.0, seed=2).generate(300)


class TestTreeConfig:
    def test_validation(self):
        with pytest.raises(BaselineError):
            TreeConfig(max_depth=0)
        with pytest.raises(BaselineError):
            TreeConfig(min_split_size=1)
        with pytest.raises(BaselineError):
            TreeConfig(min_leaf_size=0)


class TestBuildTree:
    def test_empty_dataset_rejected(self, small_dataset):
        with pytest.raises(BaselineError):
            build_tree(small_dataset.subset([]))

    def test_pure_dataset_yields_leaf(self, small_dataset):
        pure = small_dataset.filter(lambda record, label: label == "yes")
        tree = build_tree(pure)
        assert isinstance(tree, Leaf)
        assert tree.prediction == "yes"

    def test_learns_age_bands_of_function1(self, function1_data):
        tree = build_tree(function1_data)
        correct = sum(
            1 for record, label in function1_data if tree.predict(record) == label
        )
        assert correct / len(function1_data) >= 0.95

    def test_max_depth_respected(self, function1_data):
        tree = build_tree(function1_data, TreeConfig(max_depth=2))
        assert tree.depth() <= 2

    def test_leaf_counts_sum_to_dataset(self, function1_data):
        tree = build_tree(function1_data)
        paths = tree_paths(tree)
        assert sum(leaf.n_records for _, leaf in paths if isinstance(leaf, Leaf)) == len(
            function1_data
        )

    def test_paths_cover_every_record(self, function1_data):
        tree = build_tree(function1_data)
        paths = tree_paths(tree)
        assert all(len(path) >= 1 for path, _ in paths)
        assert len(paths) == tree.n_leaves()

    def test_categorical_split_handles_unseen_value(self):
        schema = Schema(
            attributes=[CategoricalAttribute("c", ("x", "y", "z")), ContinuousAttribute("v", 0, 10)],
            classes=("A", "B"),
        )
        records = [
            {"c": "x", "v": 1.0}, {"c": "x", "v": 2.0},
            {"c": "y", "v": 8.0}, {"c": "y", "v": 9.0},
            {"c": "x", "v": 1.5}, {"c": "y", "v": 8.5},
            {"c": "x", "v": 0.5}, {"c": "y", "v": 9.5},
        ]
        labels = ["A", "A", "B", "B", "A", "B", "A", "B"]
        dataset = Dataset.from_records(schema, records, labels)
        tree = build_tree(dataset, TreeConfig(min_split_size=2, min_leaf_size=1))
        # "z" never occurs in training; prediction must still work.
        assert tree.predict({"c": "z", "v": 5.0}) in ("A", "B")

    def test_describe_renders_tests(self, function1_data):
        tree = build_tree(function1_data, TreeConfig(max_depth=3))
        text = tree.describe()
        assert "age" in text
