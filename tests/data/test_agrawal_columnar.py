"""Equivalence and streaming tests for the columnar Agrawal generator.

The scalar per-record path (`generate_scalar`) is the executable
specification; the vectorised columnar path must reproduce it bit for bit —
same tuples, same labels, same perturbed values — for any seed, because both
consume identical per-attribute random streams.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.agrawal import AgrawalGenerator, DriftPoint
from repro.data.dataset import Dataset
from repro.data.functions import get_batch_function
from repro.exceptions import DataGenerationError


class TestScalarColumnarEquivalence:
    @pytest.mark.parametrize("function_number", (1, 2, 3, 4, 5, 6, 7, 8, 9, 10))
    def test_perturbed_generation_bit_identical(self, function_number):
        columnar = AgrawalGenerator(function=function_number, seed=42).generate(400)
        scalar = AgrawalGenerator(function=function_number, seed=42).generate_scalar(400)
        assert columnar.labels == scalar.labels
        assert columnar.records == scalar.records

    def test_clean_generation_bit_identical(self):
        columnar = AgrawalGenerator(function=2, seed=9).generate_clean(300)
        scalar = AgrawalGenerator(function=2, seed=9).generate_clean_scalar(300)
        assert columnar.labels == scalar.labels
        assert columnar.records == scalar.records

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        perturbation=st.sampled_from([0.0, 0.05, 0.3]),
    )
    def test_equivalence_property(self, seed, perturbation):
        columnar = AgrawalGenerator(
            function=4, perturbation=perturbation, seed=seed
        ).generate(100)
        scalar = AgrawalGenerator(
            function=4, perturbation=perturbation, seed=seed
        ).generate_scalar(100)
        assert columnar.labels == scalar.labels
        assert columnar.records == scalar.records

    def test_returns_columnar_dataset(self):
        dataset = AgrawalGenerator(function=1, seed=0).generate(10)
        assert isinstance(dataset, Dataset)
        assert not dataset.records_materialized  # columns only, no dicts


class TestDtypes:
    def test_integer_flag_drives_stored_dtype(self):
        dataset = AgrawalGenerator(function=2, seed=0).generate(50)
        assert dataset.column("age").dtype == np.int64
        assert dataset.column("hyears").dtype == np.int64
        assert dataset.column("elevel").dtype == np.int64
        assert dataset.column("salary").dtype == np.float64

    def test_scalar_records_carry_int_values(self):
        record = AgrawalGenerator(function=2, seed=0).generate_scalar(5).records[0]
        for name in ("age", "hyears", "elevel", "car", "zipcode"):
            assert type(record[name]) is int, name
        for name in ("salary", "commission", "hvalue", "loan"):
            assert type(record[name]) is float, name

    def test_perturbed_integers_stay_integers(self):
        dataset = AgrawalGenerator(function=2, perturbation=0.2, seed=1).generate(200)
        assert dataset.column("age").dtype == np.int64
        ages = dataset.column("age")
        assert (ages >= 20).all() and (ages <= 80).all()


class TestNoiseAlignment:
    def test_noise_streams_unaffected_by_zero_commission(self):
        """The structural-zero commission must not shift other attributes' noise.

        Two generators with the same seed perturb two records that differ
        only in commission (zero vs not); every other perturbed attribute
        must receive exactly the same delta — per-attribute noise streams
        make the draw unconditional.
        """
        base = {
            "salary": 80_000.0,
            "commission": 0.0,
            "age": 40,
            "elevel": 2,
            "car": 3,
            "zipcode": 4,
            "hvalue": 500_000.0,
            "hyears": 15,
            "loan": 250_000.0,
        }
        with_commission = dict(base, salary=60_000.0, commission=30_000.0)
        first = AgrawalGenerator(function=1, perturbation=0.05, seed=7)._perturb(base)
        second = AgrawalGenerator(function=1, perturbation=0.05, seed=7)._perturb(
            with_commission
        )
        for name in ("age", "hvalue", "hyears", "loan"):
            assert first[name] == second[name], name

    def test_sampling_independent_of_perturbation(self):
        clean = AgrawalGenerator(function=2, seed=9, perturbation=0.0).generate(200)
        noisy = AgrawalGenerator(function=2, seed=9, perturbation=0.05).generate(200)
        assert clean.labels == noisy.labels
        assert not np.array_equal(clean.column("salary"), noisy.column("salary"))


class TestChunkedStreaming:
    def test_chunks_concatenate_to_one_shot(self):
        one_shot = AgrawalGenerator(function=2, seed=7).generate(1000)
        chunks = list(
            AgrawalGenerator(function=2, seed=7).iter_chunks(1000, chunk_size=137)
        )
        assert [len(chunk) for chunk in chunks] == [137] * 7 + [41]
        merged = chunks[0]
        for chunk in chunks[1:]:
            merged = merged.concat(chunk)
        assert merged.labels == one_shot.labels
        assert merged.records == one_shot.records

    def test_chunk_size_bounds_memory(self):
        chunks = AgrawalGenerator(function=1, seed=1).iter_chunks(500, chunk_size=100)
        assert all(len(chunk) <= 100 for chunk in chunks)

    def test_invalid_arguments(self):
        generator = AgrawalGenerator(function=1, seed=0)
        with pytest.raises(DataGenerationError):
            list(generator.iter_chunks(0))
        with pytest.raises(DataGenerationError):
            list(generator.iter_chunks(10, chunk_size=0))


class TestDriftScenarios:
    def test_function_drift_switches_labels(self):
        drift = [DriftPoint(at=200, function=5)]
        chunks = list(
            AgrawalGenerator(function=2, perturbation=0.0, seed=3).iter_chunks(
                400, chunk_size=150, drift=drift
            )
        )
        # Chunks split at the drift offset: 150, 50 (to 200), 150, 50.
        assert [len(chunk) for chunk in chunks] == [150, 50, 150, 50]
        # The attribute sample is unaffected by the drift; only the concept
        # switches, so relabelling the post-drift chunks with function 2
        # recovers the undrifted stream.
        undrifted = AgrawalGenerator(function=2, perturbation=0.0, seed=3).generate(400)
        merged = chunks[0]
        for chunk in chunks[1:]:
            merged = merged.concat(chunk)
        assert merged.records == undrifted.records
        assert merged.labels[:200] == undrifted.labels[:200]
        labeller_2 = get_batch_function(2)
        labeller_5 = get_batch_function(5)
        post = chunks[2].concat(chunks[3])
        assert post.labels == labeller_5(post.columns).tolist()
        assert post.labels != labeller_2(post.columns).tolist()

    def test_perturbation_drift(self):
        drift = [DriftPoint(at=100, perturbation=0.0)]
        chunks = list(
            AgrawalGenerator(function=1, perturbation=0.3, seed=5).iter_chunks(
                200, chunk_size=200, drift=drift
            )
        )
        assert [len(chunk) for chunk in chunks] == [100, 100]
        clean = AgrawalGenerator(function=1, perturbation=0.0, seed=5)
        reference = clean.generate(200)
        # After the drift the stream is unperturbed: values equal the clean
        # reference sample (same sampling streams, noise switched off).
        assert chunks[1].records == reference.records[100:200]

    def test_drift_points_validated(self):
        with pytest.raises(DataGenerationError):
            DriftPoint(at=0, function=2)
        with pytest.raises(DataGenerationError):
            DriftPoint(at=10)
        with pytest.raises(DataGenerationError):
            DriftPoint(at=10, function=77)
        with pytest.raises(DataGenerationError):
            DriftPoint(at=10, perturbation=1.5)
        with pytest.raises(DataGenerationError):
            list(
                AgrawalGenerator(function=1, seed=0).iter_chunks(
                    100,
                    drift=[DriftPoint(at=10, function=2), DriftPoint(at=10, function=3)],
                )
            )

    def test_drift_beyond_stream_ignored(self):
        chunks = list(
            AgrawalGenerator(function=1, seed=0).iter_chunks(
                50, chunk_size=50, drift=[DriftPoint(at=60, function=2)]
            )
        )
        assert [len(chunk) for chunk in chunks] == [50]
