"""Unit tests for the rule compiler (binary and attribute lowering)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.schema import CategoricalAttribute, ContinuousAttribute, Schema
from repro.data.dataset import Dataset
from repro.exceptions import RuleError
from repro.inference.compiler import (
    CompiledAttributeRuleSet,
    CompiledBinaryRuleSet,
    compile_ruleset,
)
from repro.preprocessing.features import InputFeature, KIND_ORDINAL_THRESHOLD
from repro.preprocessing.intervals import Interval
from repro.rules.conditions import (
    InputLiteral,
    IntervalCondition,
    MembershipCondition,
)
from repro.rules.rule import AttributeRule, BinaryRule
from repro.rules.ruleset import RuleSet


def _feature(index: int) -> InputFeature:
    return InputFeature(
        index=index,
        name=f"I{index + 1}",
        attribute=f"x{index}",
        kind=KIND_ORDINAL_THRESHOLD,
        rank=1,
        domain=(0, 1),
    )


def _binary_rule(assignments, consequent="A"):
    literals = tuple(InputLiteral(_feature(i), v) for i, v in assignments.items())
    return BinaryRule(literals, consequent)


@pytest.fixture()
def binary_ruleset() -> RuleSet:
    rules = [
        _binary_rule({0: 1, 2: 0}, "A"),
        _binary_rule({1: 1}, "A"),
        _binary_rule({3: 1, 0: 0}, "B"),
    ]
    return RuleSet(rules, default_class="B", classes=("A", "B"), name="test")


class TestCompiledBinaryRuleSet:
    def test_first_match_and_default(self, binary_ruleset):
        compiled = compile_ruleset(binary_ruleset, n_inputs=4)
        assert isinstance(compiled, CompiledBinaryRuleSet)
        matrix = np.array(
            [
                [1, 0, 0, 0],  # rule 1 fires -> A
                [0, 1, 0, 0],  # rule 2 fires -> A
                [0, 0, 0, 1],  # rule 3 fires -> B
                [0, 0, 1, 0],  # nothing fires -> default B
            ],
            dtype=float,
        )
        assert compiled.predict_batch(matrix).tolist() == ["A", "A", "B", "B"]

    def test_matches_per_record_covers(self, binary_ruleset, rng):
        compiled = compile_ruleset(binary_ruleset, n_inputs=4)
        matrix = (rng.random((64, 4)) > 0.5).astype(float)
        fired = compiled.covers_matrix(matrix)
        for row_index, row in enumerate(matrix):
            for rule_index, rule in enumerate(binary_ruleset.rules):
                assert fired[row_index, rule_index] == rule.covers(row)

    def test_matches_per_record_even_on_non_binary_inputs(self, binary_ruleset, rng):
        # The shared input_is_set binarisation rule makes the batch and
        # per-record paths agree on *every* numeric input, not just exact 0/1.
        matrix = rng.uniform(-0.5, 2.5, size=(64, 4))
        batch = binary_ruleset.predict_batch(matrix)
        assert batch.tolist() == [binary_ruleset.predict_record(row) for row in matrix]

    def test_empty_rule_fires_everywhere(self):
        ruleset = RuleSet(
            [BinaryRule((), "A")], default_class="B", classes=("A", "B")
        )
        compiled = compile_ruleset(ruleset, n_inputs=3)
        matrix = np.zeros((5, 3))
        assert compiled.predict_batch(matrix).tolist() == ["A"] * 5

    def test_empty_ruleset_predicts_default(self):
        ruleset = RuleSet([], default_class="B", classes=("A", "B"))
        compiled = compile_ruleset(ruleset)
        assert compiled.predict_batch(np.zeros((4, 7))).tolist() == ["B"] * 4

    def test_narrow_matrix_rejected(self, binary_ruleset):
        compiled = compile_ruleset(binary_ruleset, n_inputs=4)
        with pytest.raises(RuleError):
            compiled.covers_matrix(np.zeros((2, 2)))

    def test_wider_matrix_accepted(self, binary_ruleset):
        compiled = compile_ruleset(binary_ruleset, n_inputs=4)
        matrix = np.zeros((3, 10))
        matrix[:, 1] = 1.0
        assert compiled.predict_batch(matrix).tolist() == ["A"] * 3


@pytest.fixture()
def attribute_schema() -> Schema:
    return Schema(
        attributes=[
            ContinuousAttribute("salary", 0.0, 150_000.0),
            CategoricalAttribute("elevel", (0, 1, 2, 3, 4), ordered=True),
        ],
        classes=("A", "B"),
    )


@pytest.fixture()
def attribute_ruleset(attribute_schema) -> RuleSet:
    rules = [
        AttributeRule(
            (
                IntervalCondition("salary", Interval(low=None, high=100_000.0)),
                MembershipCondition("elevel", (2, 3), (0, 1, 2, 3, 4)),
            ),
            "A",
        ),
        AttributeRule(
            (IntervalCondition("salary", Interval(low=120_000.0, high=None)),),
            "B",
        ),
    ]
    return RuleSet(rules, default_class="B", classes=("A", "B"), name="attr")


class TestCompiledAttributeRuleSet:
    def test_matches_per_record_covers(self, attribute_schema, attribute_ruleset, rng):
        records = [
            {
                "salary": float(rng.uniform(0, 150_000)),
                "elevel": int(rng.integers(0, 5)),
            }
            for _ in range(200)
        ]
        compiled = compile_ruleset(attribute_ruleset)
        assert isinstance(compiled, CompiledAttributeRuleSet)
        fired = compiled.covers_matrix(records)
        for row, record in enumerate(records):
            for rule_index, rule in enumerate(attribute_ruleset.rules):
                assert fired[row, rule_index] == rule.covers(record)
            assert (
                compiled.predict_batch(records)[row]
                == attribute_ruleset.predict_record(record)
            )

    def test_float_coded_categoricals_match(self, attribute_ruleset):
        records = [{"salary": 50_000.0, "elevel": 2.0}]
        assert compile_ruleset(attribute_ruleset).predict_batch(records).tolist() == ["A"]

    def test_unhashable_membership_value_matches_per_record(self, attribute_ruleset):
        # An unhashable categorical value must take the equality-based
        # fallback, not crash — mirroring MembershipCondition.matches.
        records = [
            {"salary": 50_000.0, "elevel": ["not", "hashable"]},
            {"salary": 50_000.0, "elevel": 2},
        ]
        batch = attribute_ruleset.predict_batch(records)
        assert batch.tolist() == [attribute_ruleset.predict_record(r) for r in records]

    def test_numeric_string_membership_matches_per_record(self, attribute_ruleset):
        # A numeric *string* is not equal to the number it spells — the
        # vectorised domain coding must not coerce "2" to 2.0 and fire a rule
        # the per-record path would not.
        records = [
            {"salary": 50_000.0, "elevel": "2"},
            {"salary": 50_000.0, "elevel": 2},
        ]
        batch = attribute_ruleset.predict_batch(records)
        assert batch.tolist() == [attribute_ruleset.predict_record(r) for r in records]

    def test_empty_membership_domain_matches_nothing(self):
        # Constructible from handcrafted rules.json: an empty domain must be
        # a well-defined no-match, not an IndexError in the codes path.
        ruleset = RuleSet(
            [AttributeRule((MembershipCondition("g", (), ()),), "A")],
            default_class="B",
            classes=("A", "B"),
        )
        assert ruleset.predict_batch([{"g": 1}, {"g": 2}]).tolist() == ["B", "B"]

    def test_missing_attribute_raises(self, attribute_ruleset):
        with pytest.raises(RuleError):
            compile_ruleset(attribute_ruleset).predict_batch([{"salary": 1.0}])

    def test_non_numeric_interval_column_raises_rule_error(self, attribute_ruleset):
        # The BatchPredictor protocol promises ReproError subclasses, never a
        # bare ValueError from the float conversion.
        with pytest.raises(RuleError):
            compile_ruleset(attribute_ruleset).predict_batch(
                [{"salary": "lots", "elevel": 2}]
            )

    def test_trivial_interval_still_checks_missing_attribute(self):
        # predict_record raises on a missing attribute even when the interval
        # is unbounded; the batch path must not silently skip the column.
        ruleset = RuleSet(
            [AttributeRule((IntervalCondition("foo", Interval()),), "A")],
            default_class="B",
            classes=("A", "B"),
        )
        with pytest.raises(RuleError):
            ruleset.predict_batch([{"bar": 1.0}])


class TestRuleSetBatchFacade:
    def test_predict_batch_on_dataset(self, attribute_schema, attribute_ruleset):
        records = [
            {"salary": 50_000.0, "elevel": 2},
            {"salary": 130_000.0, "elevel": 0},
            {"salary": 110_000.0, "elevel": 4},
        ]
        dataset = Dataset.from_records(attribute_schema, records, ["A", "B", "B"])
        batch = attribute_ruleset.predict_batch(dataset)
        assert batch.tolist() == [attribute_ruleset.predict_record(r) for r in records]
        assert attribute_ruleset.accuracy(dataset) == 1.0

    def test_compiled_cache_invalidated_on_rule_change(self, binary_ruleset):
        compiled_before = binary_ruleset.compiled()
        assert binary_ruleset.compiled() is compiled_before
        binary_ruleset.rules.pop()
        compiled_after = binary_ruleset.compiled()
        assert compiled_after is not compiled_before
        assert compiled_after.n_rules == 2

    def test_compiled_cache_invalidated_on_in_place_replacement(self, binary_ruleset):
        # The cache is keyed on rule values, so replacing a rule with a
        # logically different one must recompile even if CPython happens to
        # reuse the old object's id.
        matrix = np.eye(4, dtype=float)
        binary_ruleset.compiled()
        binary_ruleset.rules[0] = _binary_rule({2: 1}, "A")
        batch = binary_ruleset.predict_batch(matrix)
        assert batch.tolist() == [binary_ruleset.predict_record(row) for row in matrix]

    def test_rule_statistics_vectorised(self, attribute_schema, attribute_ruleset):
        records = [
            {"salary": 50_000.0, "elevel": 2},
            {"salary": 60_000.0, "elevel": 3},
            {"salary": 130_000.0, "elevel": 0},
        ]
        dataset = Dataset.from_records(attribute_schema, records, ["A", "B", "B"])
        stats = attribute_ruleset.rule_statistics(dataset)
        assert [s.total for s in stats] == [2, 1]
        assert [s.correct for s in stats] == [1, 1]
