"""Tests of CSV loading/saving and schema inference."""

import csv

import pytest

from repro.data.agrawal import AgrawalGenerator
from repro.data.io import (
    infer_schema,
    load_csv,
    load_csv_with_inferred_schema,
    save_csv,
)
from repro.data.schema import CategoricalAttribute, ContinuousAttribute
from repro.exceptions import DataGenerationError, SchemaError


class TestCsvRoundTrip:
    def test_round_trip_with_known_schema(self, tmp_path, small_dataset):
        path = tmp_path / "small.csv"
        save_csv(small_dataset, path)
        restored = load_csv(path, small_dataset.schema)
        assert len(restored) == len(small_dataset)
        assert restored.labels == small_dataset.labels
        assert restored.records[0]["colour"] == small_dataset.records[0]["colour"]
        assert restored.records[0]["income"] == pytest.approx(small_dataset.records[0]["income"])

    def test_round_trip_agrawal_sample(self, tmp_path):
        dataset = AgrawalGenerator(function=2, seed=5).generate(50)
        path = tmp_path / "agrawal.csv"
        save_csv(dataset, path)
        restored = load_csv(path, dataset.schema)
        assert restored.labels == dataset.labels

    @pytest.mark.parametrize("source", ["agrawal", "small"])
    def test_save_builds_no_records_and_writes_the_same_bytes(
        self, tmp_path, small_dataset, source
    ):
        """Regression: save_csv iterated the dataset, which built and cached
        every record dict; the file must not change."""
        if source == "agrawal":
            dataset = AgrawalGenerator(function=2, seed=5).generate(2_000)
            reference = AgrawalGenerator(function=2, seed=5).generate(2_000)
        else:
            dataset = reference = small_dataset
        path = tmp_path / "saved.csv"
        save_csv(dataset, path)
        if source == "agrawal":
            assert not dataset.records_materialized
        expected = tmp_path / "expected.csv"
        with expected.open("w", newline="") as handle:
            writer = csv.DictWriter(
                handle, fieldnames=reference.schema.attribute_names + ["class"]
            )
            writer.writeheader()
            for record, label in zip(reference.records, reference.labels):
                writer.writerow(dict(record, **{"class": label}))
        assert path.read_bytes() == expected.read_bytes()

    def test_class_column_collision_rejected(self, tmp_path, small_dataset):
        with pytest.raises(SchemaError):
            save_csv(small_dataset, tmp_path / "x.csv", class_column="income")

    def test_missing_file_rejected(self, tmp_path, small_schema):
        with pytest.raises(DataGenerationError):
            load_csv(tmp_path / "missing.csv", small_schema)

    def test_missing_columns_rejected(self, tmp_path, small_schema):
        path = tmp_path / "bad.csv"
        path.write_text("income,class\n10,yes\n")
        with pytest.raises(DataGenerationError):
            load_csv(path, small_schema)

    def test_fractional_integer_rejected(self, tmp_path, small_schema):
        """Regression: ``age`` is integer-flagged, so 25.5 must not load."""
        path = tmp_path / "fractional.csv"
        path.write_text("income,age,grade,colour,class\n10,25.5,0,red,yes\n")
        with pytest.raises(SchemaError, match="not an integer"):
            load_csv(path, small_schema)
        path.write_text("income,age,grade,colour,class\n10,25,0,red,yes\n")
        assert load_csv(path, small_schema).column("age").tolist() == [25]


class TestSchemaInference:
    def test_numeric_column_becomes_continuous(self):
        rows = [{"x": str(float(i)), "class": "A" if i % 2 else "B"} for i in range(50)]
        schema = infer_schema(rows)
        attribute = schema.attribute("x")
        assert isinstance(attribute, ContinuousAttribute)
        assert attribute.low == 0.0 and attribute.high == 49.0

    def test_low_cardinality_numeric_becomes_ordered_categorical(self):
        rows = [{"grade": str(i % 3), "class": "A" if i % 2 else "B"} for i in range(30)]
        schema = infer_schema(rows)
        attribute = schema.attribute("grade")
        assert isinstance(attribute, CategoricalAttribute)
        assert attribute.ordered
        assert attribute.values == (0, 1, 2)

    def test_string_column_becomes_categorical(self):
        rows = [
            {"colour": c, "class": "A"} for c in ("red", "green", "blue")
        ] + [{"colour": "red", "class": "B"}]
        schema = infer_schema(rows)
        attribute = schema.attribute("colour")
        assert isinstance(attribute, CategoricalAttribute)
        assert not attribute.ordered
        assert set(attribute.values) == {"red", "green", "blue"}

    def test_classes_collected_from_class_column(self):
        rows = [{"x": "1.5", "class": "yes"}, {"x": "2.5", "class": "no"}]
        schema = infer_schema(rows, max_categorical_cardinality=0)
        assert schema.classes == ("no", "yes")

    def test_single_class_rejected(self):
        rows = [{"x": "1", "class": "only"}]
        with pytest.raises(DataGenerationError):
            infer_schema(rows)

    def test_missing_class_column_rejected(self):
        with pytest.raises(DataGenerationError):
            infer_schema([{"x": "1"}])

    def test_empty_rows_rejected(self):
        with pytest.raises(DataGenerationError):
            infer_schema([])


class TestLoadWithInferredSchema:
    def test_end_to_end(self, tmp_path, small_dataset):
        path = tmp_path / "small.csv"
        save_csv(small_dataset, path)
        restored = load_csv_with_inferred_schema(
            path, max_categorical_cardinality=4, ordered_columns=["grade"]
        )
        assert len(restored) == len(small_dataset)
        assert set(restored.schema.attribute_names) == set(small_dataset.schema.attribute_names)
        assert restored.labels == small_dataset.labels


class TestResolveFormat:
    def test_explicit_choices_pass_through(self):
        from repro.data.io import resolve_format

        assert resolve_format("anything.txt", "csv") == "csv"
        assert resolve_format("anything.txt", "jsonl") == "jsonl"

    def test_auto_picks_by_suffix(self):
        from repro.data.io import resolve_format

        assert resolve_format("tuples.jsonl") == "jsonl"
        assert resolve_format("tuples.ndjson") == "jsonl"
        assert resolve_format("tuples.csv") == "csv"
        assert resolve_format("tuples") == "csv"

    def test_unknown_format_rejected(self):
        from repro.data.io import resolve_format

        with pytest.raises(DataGenerationError, match="unknown format"):
            resolve_format("tuples.csv", "parquet")
