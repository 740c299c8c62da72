"""Unit tests for the Dataset container: records in, columns, labels, views."""

import numpy as np
import pytest

from repro.data.agrawal import AgrawalGenerator, agrawal_schema
from repro.data.dataset import Dataset, codes_from_labels, storage_dtype
from repro.data.schema import CategoricalAttribute, ContinuousAttribute, Schema
from repro.exceptions import DataGenerationError, SchemaError
from repro.preprocessing.encoder import agrawal_encoder


@pytest.fixture()
def tiny_schema():
    return Schema(
        attributes=[
            ContinuousAttribute("income", 0.0, 100.0),
            ContinuousAttribute("age", 18.0, 90.0, integer=True),
            CategoricalAttribute("grade", (0, 1, 2), ordered=True),
        ],
        classes=("yes", "no"),
    )


@pytest.fixture()
def tiny_columnar(tiny_schema):
    return Dataset(
        tiny_schema,
        {
            "income": np.asarray([10.0, 20.0, 30.0, 40.0]),
            "age": np.asarray([20, 30, 40, 50]),
            "grade": np.asarray([0, 1, 2, 1]),
        },
        np.asarray(["yes", "no", "yes", "no"]),
    )


#: One valid record of the conftest ``small_schema``.
SMALL_RECORD = {"income": 10.0, "age": 20, "grade": 0, "colour": "red"}


class TestConstruction:
    def test_length_and_iteration(self, small_dataset):
        assert len(small_dataset) == 12
        records = list(small_dataset)
        assert len(records) == 12
        record, label = records[0]
        assert label in ("yes", "no")
        assert "income" in record

    def test_mismatched_lengths_rejected(self, small_schema):
        with pytest.raises(SchemaError):
            Dataset.from_records(small_schema, [{"income": 1, "age": 20, "grade": 0, "colour": "red"}], [])

    def test_validation_rejects_bad_values(self, small_schema):
        with pytest.raises(SchemaError):
            Dataset.from_records(
                small_schema,
                [{"income": 1000.0, "age": 20, "grade": 0, "colour": "red"}],
                ["yes"],
            )

    def test_validation_rejects_bad_labels(self, small_schema):
        with pytest.raises(SchemaError):
            Dataset.from_records(
                small_schema,
                [{"income": 10.0, "age": 20, "grade": 0, "colour": "red"}],
                ["maybe"],
            )

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"zip": 3}, "unknown attributes"),
            ({"income": "rich"}, "not numeric"),
            ({"income": None}, "outside"),
            ({"income": float("nan")}, "outside"),
            ({"age": 95}, "outside"),
            ({"grade": 7}, "not in domain"),
            ({"grade": "x"}, "not in domain"),
            ({"colour": "mauve"}, "not in domain"),
            ({"colour": None}, "not in domain"),
        ],
        ids=[
            "unknown-key",
            "non-numeric",
            "none-numeric",
            "nan",
            "out-of-range-integer",
            "out-of-domain",
            "string-for-integer-domain",
            "out-of-domain-string",
            "none-categorical",
        ],
    )
    def test_from_records_validation_rejects(self, small_schema, change, message):
        with pytest.raises(SchemaError, match=message):
            Dataset.from_records(small_schema, [{**SMALL_RECORD, **change}], ["yes"])

    def test_from_records_rejects_missing_attribute(self, small_schema):
        record = {name: value for name, value in SMALL_RECORD.items() if name != "grade"}
        with pytest.raises(SchemaError, match="missing attribute 'grade'"):
            Dataset.from_records(small_schema, [record], ["yes"])

    def test_from_records_rejects_fractional_integer(self):
        """Regression: an integer-flagged value was silently truncated into
        its int64 column (``age=25.5`` stored as 25)."""
        record = AgrawalGenerator(function=2, seed=0).generate(1).records[0]
        with pytest.raises(SchemaError, match="'age': value 25.5 is not an integer"):
            Dataset.from_records(agrawal_schema(), [{**record, "age": 25.5}], ["A"])
        # Integral floats are integers all the same.
        data = Dataset.from_records(agrawal_schema(), [{**record, "age": 25.0}], ["A"])
        assert data.column("age").tolist() == [25]

    def test_from_records_without_validation_keeps_the_dicts(self, small_schema):
        records = [dict(SMALL_RECORD), dict(SMALL_RECORD, income=60.0)]
        data = Dataset.from_records(small_schema, records, ["no", "yes"], validate=False)
        assert data.records_materialized
        assert data.records[1] is records[1]
        assert data.column("income").tolist() == [10.0, 60.0]

    def test_from_records_with_validation_types_the_record_view(self, small_schema):
        data = Dataset.from_records(
            small_schema, [dict(SMALL_RECORD, income=10, age=20.0)], ["no"]
        )
        assert not data.records_materialized
        record = data.records[0]
        assert type(record["income"]) is float and type(record["age"]) is int

    def test_getitem(self, small_dataset):
        record, label = small_dataset[3]
        assert record["income"] == pytest.approx(40.0)
        assert label == "no"

    def test_is_a_dataset(self, tiny_columnar):
        assert isinstance(tiny_columnar, Dataset)
        assert len(tiny_columnar) == 4

    def test_missing_column_rejected(self, tiny_schema):
        with pytest.raises(SchemaError, match="columns missing"):
            Dataset(tiny_schema, {"income": np.zeros(2)}, np.asarray(["yes", "no"]))

    def test_unknown_column_rejected(self, tiny_schema):
        with pytest.raises(SchemaError, match="unknown attributes"):
            Dataset(
                tiny_schema,
                {
                    "income": np.zeros(1),
                    "age": np.asarray([20]),
                    "grade": np.asarray([0]),
                    "bogus": np.zeros(1),
                },
                np.asarray(["yes"]),
            )

    def test_ragged_columns_rejected(self, tiny_schema):
        with pytest.raises(SchemaError, match="length"):
            Dataset(
                tiny_schema,
                {
                    "income": np.zeros(2),
                    "age": np.asarray([20, 30, 40]),
                    "grade": np.asarray([0, 1]),
                },
                np.asarray(["yes", "no"]),
            )

    def test_label_length_mismatch_rejected(self, tiny_schema):
        with pytest.raises(SchemaError, match="labels"):
            Dataset(
                tiny_schema,
                {
                    "income": np.zeros(2),
                    "age": np.asarray([20, 30]),
                    "grade": np.asarray([0, 1]),
                },
                np.asarray(["yes"]),
            )

    def test_validation_rejects_out_of_range(self, tiny_schema):
        with pytest.raises(SchemaError, match="outside"):
            Dataset(
                tiny_schema,
                {
                    "income": np.asarray([10.0, 500.0]),
                    "age": np.asarray([20, 30]),
                    "grade": np.asarray([0, 1]),
                },
                np.asarray(["yes", "no"]),
            )

    def test_validation_rejects_out_of_domain(self, tiny_schema):
        with pytest.raises(SchemaError, match="domain"):
            Dataset(
                tiny_schema,
                {
                    "income": np.asarray([10.0, 20.0]),
                    "age": np.asarray([20, 30]),
                    "grade": np.asarray([0, 7]),
                },
                np.asarray(["yes", "no"]),
            )

    def test_validation_rejects_bad_label(self, tiny_schema):
        with pytest.raises(SchemaError, match="label"):
            Dataset(
                tiny_schema,
                {
                    "income": np.asarray([10.0]),
                    "age": np.asarray([20]),
                    "grade": np.asarray([0]),
                },
                np.asarray(["maybe"]),
            )

    def test_from_records_columns_follow_storage_dtype(self):
        schema = Schema(
            attributes=[
                ContinuousAttribute("income", 0.0, 100.0),
                ContinuousAttribute("age", 18.0, 90.0, integer=True),
                CategoricalAttribute("grade", (0, 1, 2)),
                CategoricalAttribute("level", (np.int64(1), np.int64(2))),
                CategoricalAttribute("flag", (True, False)),
                CategoricalAttribute("colour", ("red", "green")),
            ],
            classes=("yes", "no"),
        )
        record = {"income": 5, "age": 30, "grade": 2, "level": 1, "flag": True, "colour": "red"}
        data = Dataset.from_records(schema, [record], ["yes"])
        dtypes = {name: data.column(name).dtype for name in schema.attribute_names}
        assert dtypes == {
            "income": np.float64,
            "age": np.int64,
            "grade": np.int64,
            "level": np.int64,
            "flag": np.bool_,
            "colour": object,
        }
        assert all(dtypes[a.name] == np.dtype(storage_dtype(a)) for a in schema.attributes)

    def test_columns_are_read_only(self, tiny_columnar):
        with pytest.raises(ValueError):
            tiny_columnar.column("income")[0] = 0.0

    def test_source_arrays_stay_writable(self, tiny_schema):
        income = np.array([10.0, 20.0])
        Dataset(
            tiny_schema,
            {"income": income, "age": np.asarray([20, 30]), "grade": np.asarray([0, 1])},
            ["yes", "no"],
        )
        income[0] = 90.0  # the dataset wraps views; the caller's array is untouched

    def test_label_codes_accepted(self, tiny_schema, tiny_columnar):
        dataset = Dataset(
            tiny_schema, tiny_columnar.columns, np.asarray([0, 1, 0, 1], dtype=np.int32)
        )
        assert dataset.labels == tiny_columnar.labels
        assert dataset.label_codes.dtype == np.int64

    def test_out_of_range_codes_rejected(self, tiny_schema, tiny_columnar):
        with pytest.raises(SchemaError, match="index classes"):
            Dataset(tiny_schema, tiny_columnar.columns, np.full(4, 2))

    def test_float_labels_are_not_codes(self, tiny_schema, tiny_columnar):
        with pytest.raises(SchemaError, match="unknown class label"):
            Dataset(tiny_schema, tiny_columnar.columns, np.zeros(4))

    def test_from_records_round_trip(self, tiny_columnar):
        rebuilt = Dataset.from_records(
            tiny_columnar.schema, tiny_columnar.records, tiny_columnar.labels
        )
        assert rebuilt.records == tiny_columnar.records
        assert rebuilt.labels == tiny_columnar.labels
        assert rebuilt.column("age").dtype == np.int64


class TestArrayViews:
    def test_attribute_column_continuous(self, small_dataset):
        column = small_dataset.attribute_column("income")
        assert column.dtype == float
        assert column.shape == (12,)

    def test_attribute_column_categorical(self, small_dataset):
        column = small_dataset.attribute_column("colour")
        assert column.dtype == object
        assert set(column) <= {"red", "green", "blue"}

    def test_label_indices(self, small_dataset):
        indices = small_dataset.label_indices()
        assert set(np.unique(indices)) <= {0, 1}
        assert indices.shape == (12,)

    def test_label_targets_one_hot(self, small_dataset):
        targets = small_dataset.label_targets()
        assert targets.shape == (12, 2)
        assert np.all(targets.sum(axis=1) == 1.0)
        # Row classes must agree with label_indices.
        assert np.array_equal(np.argmax(targets, axis=1), small_dataset.label_indices())

    def test_class_distribution_counts_all_classes(self, small_dataset):
        distribution = small_dataset.class_distribution()
        assert set(distribution) == {"yes", "no"}
        assert sum(distribution.values()) == len(small_dataset)

    def test_class_skew(self, small_dataset):
        skew = small_dataset.class_skew()
        assert 0.5 <= skew <= 1.0


class TestColumnViews:
    def test_attribute_column_continuous(self, tiny_columnar):
        column = tiny_columnar.attribute_column("income")
        assert column.dtype == float
        assert column.tolist() == [10.0, 20.0, 30.0, 40.0]

    def test_attribute_column_categorical_object_dtype(self, tiny_columnar):
        column = tiny_columnar.attribute_column("grade")
        assert column.dtype == object
        assert column.tolist() == [0, 1, 2, 1]

    def test_label_indices_reject_unknown_labels(self, tiny_schema):
        # Labels are stored as codes, so an unknown label cannot get as far
        # as label_indices(): it fails at construction, validate or not.
        with pytest.raises(SchemaError, match="unknown class label"):
            Dataset(
                tiny_schema,
                {
                    "income": np.asarray([10.0, 20.0]),
                    "age": np.asarray([20, 30]),
                    "grade": np.asarray([0, 1]),
                },
                np.asarray(["yes", "typo"]),
                validate=False,
            )

    def test_column_values_are_python_scalars(self, tiny_columnar):
        assert all(type(v) is int for v in tiny_columnar.column_values("age"))

    def test_unknown_column_rejected(self, tiny_columnar):
        with pytest.raises(SchemaError, match="unknown attribute"):
            tiny_columnar.column("wages")

    def test_validation_numeric_column_vs_string_domain(self):
        schema = Schema(
            attributes=[
                ContinuousAttribute("income", 0.0, 100.0),
                CategoricalAttribute("colour", ("red", "green")),
            ],
            classes=("yes", "no"),
        )
        with pytest.raises(SchemaError, match="domain"):
            Dataset(
                schema,
                {"income": np.asarray([1.0]), "colour": np.asarray([3])},
                np.asarray(["yes"]),
            )

    def test_label_indices_and_targets(self, tiny_columnar):
        assert tiny_columnar.label_indices().tolist() == [0, 1, 0, 1]
        targets = tiny_columnar.label_targets()
        assert targets.shape == (4, 2)
        assert targets[:, 0].tolist() == [1.0, 0.0, 1.0, 0.0]

    def test_class_distribution_and_skew(self, tiny_columnar):
        assert tiny_columnar.class_distribution() == {"yes": 2, "no": 2}
        assert tiny_columnar.class_skew() == 0.5


class TestLazyRecords:
    def test_records_materialise_lazily_with_python_scalars(self, tiny_columnar):
        assert not tiny_columnar.records_materialized
        records = tiny_columnar.records
        assert tiny_columnar.records_materialized
        assert records[0] == {"income": 10.0, "age": 20, "grade": 0}
        assert type(records[0]["income"]) is float
        assert type(records[0]["age"]) is int

    def test_records_cached(self, tiny_columnar):
        assert tiny_columnar.records is tiny_columnar.records

    def test_labels_list(self, tiny_columnar):
        assert tiny_columnar.labels == ["yes", "no", "yes", "no"]
        assert all(type(label) is str for label in tiny_columnar.labels)

    def test_labels_are_stored_as_codes(self, tiny_columnar):
        codes = tiny_columnar.label_codes
        assert codes.dtype == np.int64
        assert codes.tolist() == [0, 1, 0, 1]
        assert tiny_columnar.classes == ("yes", "no")
        with pytest.raises(ValueError):
            codes[0] = 1

    def test_with_label_codes_replaces_labels(self, tiny_columnar):
        flipped = tiny_columnar.with_label_codes(1 - tiny_columnar.label_codes)
        assert flipped.labels == ["no", "yes", "no", "yes"]
        assert np.shares_memory(flipped.column("income"), tiny_columnar.column("income"))

    def test_with_label_codes_over_other_classes(self, tiny_columnar):
        relabelled = tiny_columnar.with_label_codes(
            np.asarray([1, 1, 0, 0]), classes=("no", "yes")
        )
        assert relabelled.labels == ["yes", "yes", "no", "no"]
        assert relabelled.label_indices().tolist() == [0, 0, 1, 1]

    def test_codes_from_labels_rejects_unknown(self):
        with pytest.raises(SchemaError, match="unknown class"):
            codes_from_labels(np.array(["A", "C"], dtype=object), ("A", "B"))

    def test_iteration_pairs(self, tiny_columnar):
        pairs = list(tiny_columnar)
        assert pairs[2] == ({"income": 30.0, "age": 40, "grade": 2}, "yes")

    def test_iter_rows_does_not_cache(self, tiny_columnar):
        rows = list(tiny_columnar.iter_rows())
        assert rows[1] == ({"income": 20.0, "age": 30, "grade": 1}, "no")
        assert not tiny_columnar.records_materialized


class TestSubset:
    @pytest.mark.parametrize(
        "window, rows", [(range(2), [0, 1]), (slice(1, 3), [1, 2])], ids=["range", "slice"]
    )
    def test_window_subset_is_zero_copy(self, tiny_columnar, window, rows):
        picked = tiny_columnar.subset(window)
        assert len(picked) == 2
        assert np.shares_memory(picked.column("income"), tiny_columnar.column("income"))
        assert np.shares_memory(picked.label_codes, tiny_columnar.label_codes)
        assert picked.labels == [tiny_columnar.labels[i] for i in rows]

    def test_fancy_subset(self, tiny_columnar):
        picked = tiny_columnar.subset([3, 0])
        assert picked.labels == ["no", "yes"]
        assert picked.records[0]["income"] == 40.0

    def test_subset_after_materialisation_shares_dicts(self, tiny_columnar):
        records = tiny_columnar.records  # materialise
        picked = tiny_columnar.subset([1, 2])
        assert picked.records[0] is records[1]
        # Recursive partitions keep sharing, and the columns stay columns.
        nested = picked.subset(np.asarray([1]))
        assert nested.records[0] is records[2]
        assert nested.column("age").tolist() == [40]

    def test_empty_range_selects_nothing(self, tiny_columnar):
        # Computed bounds like range(n - offset) can come out empty with a
        # negative stop; that must select zero rows, not wrap around.
        assert len(tiny_columnar.subset(range(0))) == 0
        assert len(tiny_columnar.subset(range(0, -5))) == 0

    def test_negative_range_indices_select_those_rows(self, tiny_columnar):
        picked = tiny_columnar.subset(range(-2, 0))
        assert len(picked) == 2
        assert picked.labels == tiny_columnar.labels[-2:]

    def test_out_of_range_subset_raises(self, tiny_columnar):
        with pytest.raises(IndexError):
            tiny_columnar.subset(range(0, 15))
        with pytest.raises(IndexError):
            tiny_columnar.subset(range(-9, 2))

    def test_slice_subset_after_materialisation_is_a_view(self, tiny_columnar):
        records = tiny_columnar.records  # materialise
        window = tiny_columnar.subset(slice(1, 3))
        assert np.shares_memory(window.column("income"), tiny_columnar.column("income"))
        assert window.records[0] is records[1]  # the dicts are shared, not rebuilt

    def test_slice_subset_before_and_after_materialisation(self, tiny_columnar):
        before = tiny_columnar.subset(slice(0, 3))
        assert len(before) == 3
        tiny_columnar.records  # materialise
        after = tiny_columnar.subset(slice(0, 3))
        assert len(after) == 3
        assert after.labels == before.labels

    def test_split_round_trip(self, tiny_columnar):
        train, test = tiny_columnar.split(0.5, seed=0)
        assert len(train) + len(test) == len(tiny_columnar)

    def test_filter(self, tiny_columnar):
        kept = tiny_columnar.filter(lambda record, label: label == "yes")
        assert len(kept) == 2


class TestAlgebra:
    def test_subset(self, small_dataset):
        subset = small_dataset.subset([0, 2, 4])
        assert len(subset) == 3
        assert subset.records[1] == small_dataset.records[2]

    def test_filter(self, small_dataset):
        rich = small_dataset.filter(lambda record, label: record["income"] >= 50)
        assert len(rich) > 0
        assert all(r["income"] >= 50 for r in rich.records)

    def test_shuffled_preserves_pairs(self, small_dataset):
        shuffled = small_dataset.shuffled(seed=0)
        assert len(shuffled) == len(small_dataset)
        original = {(r["income"], l) for r, l in small_dataset}
        permuted = {(r["income"], l) for r, l in shuffled}
        assert original == permuted

    def test_split_sizes(self, small_dataset):
        train, test = small_dataset.split(0.75, seed=1)
        assert len(train) + len(test) == len(small_dataset)
        assert len(train) == 9

    def test_split_rejects_bad_fraction(self, small_dataset):
        with pytest.raises(DataGenerationError):
            small_dataset.split(1.5)

    def test_concat(self, small_dataset):
        doubled = small_dataset.concat(small_dataset)
        assert len(doubled) == 2 * len(small_dataset)

    def test_concat_rejects_different_schema(self, small_dataset, agrawal_train):
        with pytest.raises(SchemaError):
            small_dataset.concat(agrawal_train)

    def test_relabelled(self, small_dataset):
        flipped = small_dataset.relabelled(lambda record: "yes")
        assert set(flipped.labels) == {"yes"}
        assert flipped.records == small_dataset.records

    def test_summary_mentions_size(self, small_dataset):
        assert "n=12" in small_dataset.summary()

    def test_concat_columnar(self, tiny_columnar):
        doubled = tiny_columnar.concat(tiny_columnar)
        assert len(doubled) == 8
        assert doubled.labels == tiny_columnar.labels * 2

    def test_relabelled_batch(self, tiny_columnar):
        flipped = tiny_columnar.relabelled_batch(
            lambda columns: np.where(np.asarray(columns["grade"]) >= 1, "yes", "no")
        )
        assert flipped.labels == ["no", "yes", "yes", "yes"]

    def test_relabelled_batch_rejects_unknown_labels(self, tiny_columnar):
        with pytest.raises(SchemaError, match="unknown class label"):
            tiny_columnar.relabelled_batch(
                lambda columns: np.asarray(["bogus"] * len(columns["grade"]))
            )

    def test_equality_with_equal_columnar(self, tiny_columnar, tiny_schema):
        other = Dataset(
            tiny_schema,
            {name: column.copy() for name, column in tiny_columnar.columns.items()},
            tiny_columnar.label_array().copy(),
        )
        assert tiny_columnar == other

    def test_equality_leaves_the_record_view_unbuilt(self, tiny_columnar, tiny_schema):
        """Regression: == compared the record views, building (and caching)
        one dict per tuple on both sides."""
        columns = {name: column.copy() for name, column in tiny_columnar.columns.items()}
        other = Dataset(tiny_schema, columns, tiny_columnar.label_array().copy())
        assert tiny_columnar == other
        columns["age"][-1] = 51
        assert tiny_columnar != Dataset(tiny_schema, columns, other.label_array())
        assert not tiny_columnar.records_materialized
        assert not other.records_materialized

    def test_equality_survives_label_indices(self, small_schema):
        """Regression: comparing two record-built datasets raised ValueError
        once both had cached their label-index arrays."""
        records = [dict(SMALL_RECORD), dict(SMALL_RECORD, income=60.0)]
        first = Dataset.from_records(small_schema, records, ["no", "yes"])
        second = Dataset.from_records(small_schema, records, ["no", "yes"])
        first.label_indices()
        second.label_indices()
        assert first == second
        assert first != Dataset.from_records(small_schema, records, ["yes", "yes"])


class TestFromArrays:
    def test_round_trip(self, small_schema):
        columns = {
            "income": [10.0, 60.0],
            "age": [20, 30],
            "grade": [0, 1],
            "colour": ["red", "blue"],
        }
        dataset = Dataset(small_schema, columns, ["no", "yes"])
        assert len(dataset) == 2
        assert dataset.records[1]["colour"] == "blue"

    def test_missing_column_rejected(self, small_schema):
        with pytest.raises(SchemaError):
            Dataset(small_schema, {"income": [1.0]}, ["no"])

    def test_inconsistent_lengths_rejected(self, small_schema):
        columns = {
            "income": [10.0, 60.0],
            "age": [20],
            "grade": [0, 1],
            "colour": ["red", "blue"],
        }
        with pytest.raises(SchemaError):
            Dataset(small_schema, columns, ["no", "yes"])


class TestEncoderFastPath:
    def test_transform_matrix_matches_record_path(self):
        dataset = AgrawalGenerator(function=2, seed=11).generate(500)
        encoder = agrawal_encoder()
        columnar = encoder.transform_matrix(dataset)
        assert not dataset.records_materialized  # no dicts built for the encode
        record_path = encoder.transform_matrix(list(dataset.records))
        assert np.array_equal(columnar, record_path)

    def test_attribute_rules_predict_without_dicts(self):
        from repro.serving import reference_ruleset

        dataset = AgrawalGenerator(function=4, perturbation=0.0, seed=5).generate(300)
        rules = reference_ruleset(4)
        labels = rules.predict_batch(dataset)
        assert not dataset.records_materialized
        assert labels.tolist() == dataset.labels
