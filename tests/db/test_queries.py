"""Tests of in-database rule quality: the aggregates must agree with the
in-memory metrics stack on the same tuples."""

import math

import pytest

from repro.data.agrawal import AgrawalGenerator, agrawal_schema
from repro.db.queries import (
    SqlRuleQuality,
    confusion_matrix,
    confusion_sql,
    rule_quality,
    rule_quality_sql,
)
from repro.db.store import TupleStore
from repro.exceptions import DatabaseError
from repro.metrics.classification import ConfusionMatrix
from repro.preprocessing.intervals import Interval
from repro.rules.conditions import IntervalCondition
from repro.rules.rule import AttributeRule
from repro.rules.ruleset import RuleSet
from repro.serving.reference import reference_ruleset


@pytest.fixture(scope="module")
def loaded_store():
    data = AgrawalGenerator(function=4, perturbation=0.05, seed=5).generate(800)
    store = TupleStore(agrawal_schema())
    store.create()
    store.load(data)
    yield store, data
    store.close()


class TestRuleQuality:
    def test_matches_rule_statistics(self, loaded_store):
        store, data = loaded_store
        ruleset = reference_ruleset(4)
        qualities = rule_quality(store, ruleset)
        statistics = ruleset.rule_statistics(data)
        assert [(q.covered, q.correct) for q in qualities] == [
            (s.total, s.correct) for s in statistics
        ]
        assert all(q.n_rows == len(data) for q in qualities)

    def test_statistics_bridge(self, loaded_store):
        store, _ = loaded_store
        ruleset = reference_ruleset(4)
        for quality in rule_quality(store, ruleset):
            stats = quality.statistics()
            assert (stats.total, stats.correct) == (quality.covered, quality.correct)
            assert stats.consequent == quality.consequent

    def test_ratios(self):
        quality = SqlRuleQuality(
            rule_index=0, consequent="A", covered=50, correct=40, n_rows=200
        )
        assert quality.coverage == pytest.approx(0.25)
        assert quality.support == pytest.approx(0.2)
        assert quality.confidence == pytest.approx(0.8)

    def test_uncovered_rule_confidence_is_nan(self):
        quality = SqlRuleQuality(
            rule_index=0, consequent="A", covered=0, correct=0, n_rows=200
        )
        assert math.isnan(quality.confidence)
        assert quality.coverage == 0.0

    def test_unknown_attribute_rejected(self, loaded_store):
        """Regression: sqlite's quoted-string fallback made rules over
        unknown attributes silently report zero coverage."""
        store, _ = loaded_store
        bogus = RuleSet(
            [
                AttributeRule(
                    (IntervalCondition("not_a_column", Interval(None, 1.0)),), "A"
                )
            ],
            default_class="B",
            classes=("A", "B"),
        )
        with pytest.raises(DatabaseError, match="outside the store schema"):
            rule_quality(store, bogus)
        with pytest.raises(DatabaseError, match="outside the store schema"):
            confusion_matrix(store, bogus)

    def test_empty_ruleset_is_empty_report(self, loaded_store):
        store, _ = loaded_store
        empty = RuleSet([], default_class="B", classes=("A", "B"))
        assert rule_quality(store, empty) == []

    def test_single_scan_sql_shape(self):
        ruleset = reference_ruleset(2)
        sql = rule_quality_sql(ruleset, "tuples")
        # One sequential scan: exactly one FROM, one aggregate per rule,
        # grouped by the stored label.
        assert sql.count("FROM") == 1
        assert sql.count("SUM(") == ruleset.n_rules
        assert sql.count("GROUP BY") == 1

    def test_empty_relation_reports_zero(self):
        with TupleStore(agrawal_schema()) as store:
            store.create()
            qualities = rule_quality(store, reference_ruleset(1))
            # SUM over zero rows is NULL in SQL; it must surface as 0.
            assert all(q.covered == 0 and q.correct == 0 for q in qualities)
            assert all(math.isnan(q.confidence) for q in qualities)


class TestConfusionMatrix:
    def test_matches_from_predictions(self, loaded_store):
        store, data = loaded_store
        ruleset = reference_ruleset(4)
        in_db = confusion_matrix(store, ruleset)
        predictions = ruleset.compiled().predict_batch(data)
        reference = ConfusionMatrix.from_predictions(
            predictions.tolist(), data.labels, ruleset.classes
        )
        assert in_db.classes == reference.classes
        assert (in_db.matrix == reference.matrix).all()
        assert in_db.accuracy() == pytest.approx(reference.accuracy())

    def test_one_group_by(self):
        sql = confusion_sql(reference_ruleset(2), "tuples")
        assert sql.count("GROUP BY") == 1
        assert sql.count("FROM") == 1

    def test_class_column_named_predicted_does_not_alias(self):
        """Regression: GROUP BY by alias bound to a *source column* named
        ``predicted``, merging rows with different CASE outcomes."""
        data = AgrawalGenerator(function=2, perturbation=0.05, seed=8).generate(300)
        ruleset = reference_ruleset(2)
        with TupleStore(agrawal_schema(), class_column="predicted") as store:
            store.create()
            store.load(data)
            in_db = confusion_matrix(store, ruleset)
        predictions = ruleset.compiled().predict_batch(data)
        reference = ConfusionMatrix.from_predictions(
            predictions.tolist(), data.labels, ruleset.classes
        )
        assert (in_db.matrix == reference.matrix).all()

    def test_unknown_stored_label_raises(self):
        with TupleStore(agrawal_schema()) as store:
            store.create()
            store.connection.execute(
                'INSERT INTO "tuples" VALUES (50000.0, 0.0, 30, 1, 5, 3, '
                "100000.0, 10, 1000.0, 'C')"
            )
            with pytest.raises(Exception, match="outside the declared classes"):
                confusion_matrix(store, reference_ruleset(1))

    def test_from_counts_builds_matrix(self):
        matrix = ConfusionMatrix.from_counts(
            ("A", "B"), {("A", "A"): 3, ("A", "B"): 1, ("B", "B"): 6}
        )
        assert matrix.total == 10
        assert matrix.accuracy() == pytest.approx(0.9)

    def test_binary_rulesets_rejected(self, loaded_store):
        store, _ = loaded_store
        from repro.preprocessing.features import InputFeature
        from repro.rules.conditions import InputLiteral
        from repro.rules.rule import BinaryRule

        feature = InputFeature(
            index=0, name="I1", attribute="salary", kind="threshold", threshold=1.0
        )
        binary = RuleSet(
            [BinaryRule((InputLiteral(feature, 1),), "A")],
            default_class="B",
            classes=("A", "B"),
        )
        with pytest.raises(DatabaseError, match="binary"):
            confusion_matrix(store, binary)
        with pytest.raises(DatabaseError, match="binary"):
            rule_quality(store, binary)


class TestUnsatisfiableRuleQuality:
    def test_dead_rule_reports_zero_coverage(self, loaded_store):
        store, _ = loaded_store
        # [100, 100) is empty: same low/high with an exclusive upper end.
        dead = AttributeRule(
            (IntervalCondition("salary", Interval(100.0, 100.0)),), "A"
        )
        live = reference_ruleset(4).rules[0]
        ruleset = RuleSet([dead, live], default_class="B", classes=("A", "B"))
        qualities = rule_quality(store, ruleset)
        assert qualities[0].covered == 0
        assert math.isnan(qualities[0].confidence)
        assert qualities[1].covered > 0
