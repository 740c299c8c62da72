"""Equivalence tests: the SQL pushdown classifier vs the NumPy compiler.

The acceptance property of the in-database backend: for data drawn from
every one of the ten Agrawal benchmark functions (clean *and* perturbed),
:class:`SqlRulePredictor` labels every tuple exactly as the compiled NumPy
path (:func:`repro.inference.compiler.compile_ruleset`) does — whichever
reference rule set is being evaluated, and whichever way the tuples reach
the database.
"""

import numpy as np
import pytest

from repro.data.agrawal import AgrawalGenerator, agrawal_schema
from repro.data.dataset import Dataset
from repro.data.schema import Schema
from repro.db.predictor import SqlRulePredictor, classification_sql
from repro.db.store import TupleStore
from repro.exceptions import DatabaseError
from repro.inference.predictor import BatchPredictor
from repro.rules.rule import BinaryRule
from repro.rules.ruleset import RuleSet
from repro.serving.reference import reference_ruleset

ALL_FUNCTIONS = list(range(1, 11))
#: Functions with a ground-truth interval rule set (the servable references).
RULE_FUNCTIONS = [1, 2, 3, 4]


@pytest.fixture(scope="module")
def schema():
    return agrawal_schema()


def generate(function: int, n: int = 400, perturbation: float = 0.05, seed: int = 23):
    return AgrawalGenerator(
        function=function, perturbation=perturbation, seed=seed
    ).generate(n)


class TestProtocol:
    def test_implements_batch_predictor(self, schema):
        predictor = SqlRulePredictor(reference_ruleset(1), schema=schema)
        assert isinstance(predictor, BatchPredictor)
        assert predictor.classes == ("A", "B")

    def test_binary_rulesets_rejected(self, schema):
        from repro.preprocessing.features import InputFeature
        from repro.rules.conditions import InputLiteral

        feature = InputFeature(
            index=0, name="I1", attribute="salary", kind="threshold", threshold=1.0
        )
        binary = RuleSet(
            [BinaryRule((InputLiteral(feature, 1),), "A")],
            default_class="B",
            classes=("A", "B"),
        )
        with pytest.raises(DatabaseError, match="binary"):
            SqlRulePredictor(binary, schema=schema)

    def test_rules_outside_schema_rejected(self, schema):
        from repro.preprocessing.intervals import Interval
        from repro.rules.conditions import IntervalCondition
        from repro.rules.rule import AttributeRule

        ruleset = RuleSet(
            [AttributeRule((IntervalCondition("bogus", Interval(None, 1.0)),), "A")],
            default_class="B",
            classes=("A", "B"),
        )
        with pytest.raises(DatabaseError, match="outside the schema"):
            SqlRulePredictor(ruleset, schema=schema)

    def test_needs_schema_or_store(self):
        with pytest.raises(DatabaseError, match="schema"):
            SqlRulePredictor(reference_ruleset(1))

    def test_empty_batch(self, schema):
        predictor = SqlRulePredictor(reference_ruleset(1), schema=schema)
        labels = predictor.predict_batch([])
        assert labels.shape == (0,)
        assert labels.dtype == object


class TestEquivalenceAllFunctions:
    """SQL labels == compiled-NumPy labels on data from all ten functions."""

    @pytest.mark.parametrize("function", ALL_FUNCTIONS)
    def test_perturbed_data_matches_numpy_path(self, schema, function):
        data = generate(function, seed=100 + function)
        # Evaluate a rule set with a different shape per data function so
        # interval and membership conditions both get exercised.
        ruleset = reference_ruleset(RULE_FUNCTIONS[function % len(RULE_FUNCTIONS)])
        with SqlRulePredictor(ruleset, schema=schema) as predictor:
            sql_labels = predictor.predict_batch(data)
        numpy_labels = ruleset.compiled().predict_batch(data)
        assert sql_labels.tolist() == numpy_labels.tolist()

    @pytest.mark.parametrize("rule_function", RULE_FUNCTIONS)
    def test_clean_data_recovers_generating_labels(self, schema, rule_function):
        data = AgrawalGenerator(
            function=rule_function, perturbation=0.0, seed=41
        ).generate(400)
        with SqlRulePredictor(
            reference_ruleset(rule_function), schema=schema
        ) as predictor:
            labels = predictor.predict_batch(data)
        # The reference rules are exact on clean data, so SQL labels equal
        # the generating function's labels, transitively proving equivalence
        # with every other evaluation path.
        assert labels.tolist() == data.labels

    def test_record_batches_match_dataset_batches(self, schema):
        data = generate(3, n=200)
        ruleset = reference_ruleset(3)
        with SqlRulePredictor(ruleset, schema=schema) as predictor:
            from_dataset = predictor.predict_batch(data)
            from_records = predictor.predict_batch(list(data.records))
        assert from_dataset.tolist() == from_records.tolist()

    def test_dataset_columns_staged_by_name(self, schema):
        """Regression: a dataset whose schema lists the attributes in another
        order was staged positionally, so values landed in the wrong
        columns and the labels came out wrong without an error."""
        data = generate(2, n=300, perturbation=0.0)
        reordered = Schema(list(reversed(schema.attributes)), schema.classes)
        same_tuples = Dataset(reordered, data.columns, data.label_codes)
        with SqlRulePredictor(reference_ruleset(2), schema=schema) as predictor:
            assert predictor.predict_batch(same_tuples).tolist() == data.labels

    def test_generator_chunks_are_batches(self, schema):
        """Regression: a chunk from ``iter_chunks`` was rejected as not
        iterable while ``generate()`` output of the same shape worked."""
        ruleset = reference_ruleset(2)
        generator = AgrawalGenerator(function=2, seed=3)
        chunk = next(generator.iter_chunks(50, chunk_size=50))
        with SqlRulePredictor(ruleset, schema=schema) as predictor:
            pushed = predictor.predict_batch(chunk)
        assert pushed.tolist() == ruleset.predict_batch(chunk).tolist()

    def test_boolean_consequents_round_trip(self):
        """Regression: boolean labels came back as the integers SQLite
        stores, breaking label identity with the NumPy/per-record paths."""
        from repro.data.schema import ContinuousAttribute, Schema
        from repro.preprocessing.intervals import Interval
        from repro.rules.conditions import IntervalCondition
        from repro.rules.rule import AttributeRule

        bool_schema = Schema(
            attributes=[ContinuousAttribute("x", 0.0, 100.0)],
            classes=(True, False),  # type: ignore[arg-type]
        )
        ruleset = RuleSet(
            [AttributeRule((IntervalCondition("x", Interval(None, 50.0)),), True)],
            default_class=False,
            classes=(True, False),
        )
        records = [{"x": 10.0}, {"x": 90.0}]
        with SqlRulePredictor(ruleset, schema=bool_schema) as predictor:
            labels = predictor.predict_batch(records)
        assert labels.tolist() == [True, False]
        assert [ruleset.predict_record(r) for r in records] == [True, False]

    def test_predict_and_predict_record_wrappers(self, schema):
        data = generate(2, n=50)
        ruleset = reference_ruleset(2)
        with SqlRulePredictor(ruleset, schema=schema) as predictor:
            listed = predictor.predict(data)
            assert listed == ruleset.compiled().predict_batch(data).tolist()
            assert predictor.predict_record(data.records[0]) == listed[0]


class TestStoredClassification:
    def test_classify_stored_matches_numpy(self, schema):
        data = generate(4, n=600, seed=7)
        ruleset = reference_ruleset(4)
        with TupleStore(schema) as store:
            store.create()
            store.load(data)
            predictor = SqlRulePredictor(ruleset, store=store)
            pushdown = predictor.classify_stored()
            streamed = list(predictor.iter_classified(fetch_size=97))
        expected = ruleset.compiled().predict_batch(data)
        assert pushdown.tolist() == expected.tolist()
        assert streamed == expected.tolist()

    def test_classify_stored_matches_after_chunked_load(self, schema):
        generator = AgrawalGenerator(function=2, perturbation=0.05, seed=13)
        with TupleStore(schema) as store:
            store.create()
            store.load(generator.iter_chunks(500, chunk_size=64))
            predictor = SqlRulePredictor(reference_ruleset(2), store=store)
            pushdown = predictor.classify_stored()
        reference = AgrawalGenerator(function=2, perturbation=0.05, seed=13).generate(500)
        expected = reference_ruleset(2).compiled().predict_batch(reference)
        assert pushdown.tolist() == expected.tolist()

    def test_classify_into_materialises_in_database(self, schema):
        data = generate(2, n=300, seed=17)
        ruleset = reference_ruleset(2)
        with TupleStore(schema) as store:
            store.create()
            store.load(data)
            predictor = SqlRulePredictor(ruleset, store=store)
            assert predictor.classify_into("labels") == 300
            # An existing label table is refused unless drop=True is asked
            # for explicitly (same contract as the CLI's --drop-into).
            with pytest.raises(DatabaseError, match="cannot materialise"):
                predictor.classify_into("labels")
            assert predictor.classify_into("labels", drop=True) == 300
            stored = [
                row[0]
                for row in store.connection.execute(
                    'SELECT "predicted_class" FROM "labels" ORDER BY rowid'
                )
            ]
        expected = ruleset.compiled().predict_batch(data)
        assert stored == expected.tolist()

    def test_classify_into_cannot_overwrite_tuple_relation(self, schema):
        with TupleStore(schema) as store:
            store.create()
            predictor = SqlRulePredictor(reference_ruleset(1), store=store)
            with pytest.raises(DatabaseError, match="overwrite"):
                predictor.classify_into(store.table)

    def test_classify_into_qualified_spelling_cannot_drop_tuples(self, schema):
        """Regression: ``main.tuples`` names the same relation as ``tuples``;
        the guard must catch the qualified spelling *before* any DROP runs."""
        data = generate(1, n=20)
        with TupleStore(schema) as store:
            store.create()
            store.load(data)
            predictor = SqlRulePredictor(reference_ruleset(1), store=store)
            with pytest.raises(DatabaseError, match="overwrite"):
                predictor.classify_into(f"main.{store.table}")
            assert store.count() == 20  # the stored tuples survived

    @pytest.mark.parametrize("spelling", ["Tuples", "TUPLES", "main.Tuples"])
    @pytest.mark.parametrize("drop", [False, True])
    def test_classify_into_case_variant_refused_before_any_statement(
        self, schema, spelling, drop
    ):
        """Regression: SQLite identifiers are case-insensitive, so
        ``Tuples`` *is* ``tuples``.  The guard compared names exactly, and
        ``drop=True`` ran ``DROP TABLE "Tuples"`` against the tuple
        relation.  Its own error must come before any statement runs."""
        data = generate(1, n=20)
        with TupleStore(schema) as store:
            store.create()
            store.load(data)
            predictor = SqlRulePredictor(reference_ruleset(1), store=store)
            statements = []
            store.connection.set_trace_callback(statements.append)
            try:
                with pytest.raises(DatabaseError, match="would overwrite the tuple relation"):
                    predictor.classify_into(spelling, drop=drop)
            finally:
                store.connection.set_trace_callback(None)
            assert statements == []
            assert store.count() == 20

    def test_classify_into_non_ascii_case_is_another_table(self, schema):
        """SQLite folds case for ASCII letters only: ``tuplés`` and
        ``TUPLÉS`` are two tables, neither of them the tuple relation."""
        data = generate(1, n=20)
        with TupleStore(schema, table="tuplés") as store:
            store.create()
            store.load(data)
            predictor = SqlRulePredictor(reference_ruleset(1), store=store)
            with pytest.raises(DatabaseError, match="overwrite"):
                predictor.classify_into("TUPLéS")
            assert predictor.classify_into("TUPLÉS") == 20
            assert store.count() == 20

    def test_classify_into_failure_keeps_previous_labels(self, schema):
        """The drop+create is atomic: when CREATE fails the old label table
        must still be there (sqlite DDL is autocommit without the guard)."""
        import sqlite3

        data = generate(1, n=20)
        with TupleStore(schema) as store:
            store.create()
            store.load(data)
            predictor = SqlRulePredictor(reference_ruleset(1), store=store)
            assert predictor.classify_into("labels") == 20

            # Sabotage: an authorizer that denies CREATE TABLE makes the
            # CREATE ... AS SELECT fail *after* the DROP inside the call.
            def deny_create(action, *args):
                if action == sqlite3.SQLITE_CREATE_TABLE:
                    return sqlite3.SQLITE_DENY
                return sqlite3.SQLITE_OK

            store.connection.set_authorizer(deny_create)
            try:
                with pytest.raises(DatabaseError, match="cannot materialise"):
                    predictor.classify_into("labels", drop=True)
            finally:
                store.connection.set_authorizer(None)
            count = store.connection.execute(
                'SELECT COUNT(*) FROM "labels"'
            ).fetchone()[0]
            assert count == 20  # previous labels intact

    def test_predict_batch_during_iter_classified(self, schema):
        """Regression: a cursor held open across yields blocked the staging
        table's DDL; interleaving streaming with ad-hoc batches must work."""
        data = generate(2, n=300, seed=21)
        ruleset = reference_ruleset(2)
        expected = ruleset.compiled().predict_batch(data).tolist()
        with TupleStore(schema) as store:
            store.create()
            store.load(data)
            predictor = SqlRulePredictor(ruleset, store=store)
            streamed = []
            iterator = predictor.iter_classified(fetch_size=50)
            for label in iterator:
                streamed.append(label)
                if len(streamed) == 75:  # mid-page, generator still alive
                    batch = predictor.predict_batch(list(data.records[:10]))
                    assert batch.tolist() == expected[:10]
            assert streamed == expected

    def test_unbound_predictor_cannot_classify_stored(self, schema):
        predictor = SqlRulePredictor(reference_ruleset(1), schema=schema)
        with pytest.raises(DatabaseError, match="not bound"):
            predictor.classify_stored()

    def test_case_expression_rendered_once_per_predictor(self, schema, monkeypatch):
        """Every staged micro-batch and stored scan reuses one rendering;
        an edited rule list is rendered afresh."""
        from repro.rules import serialization

        renders = []
        render = serialization.ruleset_to_case_expression

        def counting(*args, **kwargs):
            renders.append(args[0].n_rules)
            return render(*args, **kwargs)

        monkeypatch.setattr(serialization, "ruleset_to_case_expression", counting)
        reference = reference_ruleset(4)
        ruleset = RuleSet(
            list(reference.rules), reference.default_class, reference.classes
        )
        data = generate(4, n=60)
        with TupleStore(schema) as store:
            store.create()
            store.load(data)
            predictor = SqlRulePredictor(ruleset, store=store)
            for start in range(0, 60, 20):
                predictor.predict_batch(data.records[start : start + 20])
            predictor.classify_stored()
            list(predictor.iter_classified(fetch_size=25))
            predictor.classify_into("labels")
            assert renders == [ruleset.n_rules]
            ruleset.rules.pop()
            labels = predictor.classify_stored()
        assert renders == [ruleset.n_rules + 1, ruleset.n_rules]
        assert labels.tolist() == ruleset.compiled().predict_batch(data).tolist()

    def test_ad_hoc_batches_leave_store_intact(self, schema):
        data = generate(1, n=100)
        with TupleStore(schema) as store:
            store.create()
            store.load(data)
            predictor = SqlRulePredictor(reference_ruleset(1), store=store)
            predictor.predict_batch(list(data.records[:25]))
            assert store.count() == 100


class TestConcurrentDispatch:
    def test_thread_pool_predictions_match(self, schema):
        """The serving layer dispatches from worker threads; the shared
        lock must keep concurrent staged batches correct."""
        from concurrent.futures import ThreadPoolExecutor

        data = generate(2, n=400)
        ruleset = reference_ruleset(2)
        expected = ruleset.compiled().predict_batch(data).tolist()
        batches = [data.records[i : i + 50] for i in range(0, 400, 50)]
        with SqlRulePredictor(ruleset, schema=schema) as predictor:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(predictor.predict_batch, batches))
        flattened = [label for labels in results for label in labels.tolist()]
        assert flattened == expected


class TestClassificationSql:
    def test_order_by_rowid(self, schema):
        sql = classification_sql(reference_ruleset(1), "tuples")
        assert sql.endswith("ORDER BY rowid")
        assert '"tuples"' in sql
