"""Tests of the serving layer's chunk fabric: codes end-to-end, routed streams.

A chunk is a :class:`~repro.data.dataset.Dataset`; the streams here
are zero-copy ``subset`` windows of one generated dataset.
"""

import numpy as np
import pytest

from repro.data.agrawal import AgrawalGenerator
from repro.db.predictor import SqlRulePredictor
from repro.exceptions import ServingError
from repro.inference.network import NetworkBatchPredictor
from repro.nn.network import new_network
from repro.preprocessing.encoder import agrawal_encoder
from repro.rules.ruleset import RuleSet
from repro.serving.models import KIND_RULES, ServableModel
from repro.serving.reference import reference_ruleset
from repro.serving.registry import ModelRegistry
from repro.serving.service import PredictionService, ServiceConfig


@pytest.fixture(scope="module")
def data():
    return AgrawalGenerator(function=1, perturbation=0.0, seed=9).generate(3_000)


def pieces(data, size):
    """Zero-copy consecutive subsets of at most ``size`` rows."""
    return [data.subset(slice(start, start + size)) for start in range(0, len(data), size)]


@pytest.fixture()
def service():
    registry = ModelRegistry()
    registry.register(
        ServableModel(name="f1", kind=KIND_RULES, predictor=reference_ruleset(1))
    )
    with PredictionService(registry, ServiceConfig(workers=2)) as svc:
        yield svc


class TestPredictCodes:
    def test_attribute_rules_agree_with_predict_batch(self, data):
        model = ServableModel(
            name="f1", kind=KIND_RULES, predictor=reference_ruleset(1)
        )
        codes, classes = model.predict_codes(data)
        assert codes.dtype == np.int64
        labels = np.array(list(classes), dtype=object)[codes]
        assert labels.tolist() == model.predict_batch(data.records).tolist()

    def test_empty_ruleset_defaults_everything(self, data):
        empty = RuleSet(rules=[], default_class="B", classes=("A", "B"), name="empty")
        model = ServableModel(name="empty", kind=KIND_RULES, predictor=empty)
        codes, classes = model.predict_codes(data)
        assert set(np.unique(codes).tolist()) == {classes.index("B")}
        assert len(codes) == len(data)

    def test_binary_rules_take_the_encoded_path(self, data):
        from repro.rules.conditions import InputLiteral
        from repro.rules.rule import BinaryRule

        encoder = agrawal_encoder()
        # "age < 40" over the thermometer coding: I14 (age >= 30) may be
        # anything, I15 (age >= 40) must be 0 — plus the young-side rule the
        # function-1 truth uses, which keeps both classes populated.
        binary = RuleSet(
            rules=[
                BinaryRule((InputLiteral(encoder.feature(14), 0),), "A"),
            ],
            default_class="B",
            classes=("A", "B"),
            name="binary-age",
        )
        model = ServableModel(
            name="b1", kind=KIND_RULES, predictor=binary, encoder=encoder
        )
        codes, classes = model.predict_codes(data)
        labels = np.array(list(classes), dtype=object)[codes]
        assert labels.tolist() == model.predict_batch(data.records).tolist()

    def test_non_ruleset_predictor_falls_back(self, data):
        class Constant:
            classes = ("A", "B")

            def predict_batch(self, records):
                return np.array(["A"] * len(records), dtype=object)

        model = ServableModel(name="c", kind="baseline", predictor=Constant())
        codes, classes = model.predict_codes(data)
        assert codes.tolist() == [classes.index("A")] * len(data)

    @pytest.mark.parametrize("backend", ["network", "sql"])
    def test_other_predictors_get_the_chunk_itself(self, backend):
        """Regression: predict_codes handed a non-rule predictor the chunk's
        records, so every chunk built one dict per tuple."""
        chunk = AgrawalGenerator(function=2, seed=4).generate(3_000)
        if backend == "network":
            encoder = agrawal_encoder()
            network = new_network(encoder.n_inputs, 3, 2, seed=0)
            predictor = NetworkBatchPredictor(network, ("A", "B"), encoder=encoder)
        else:
            predictor = SqlRulePredictor(reference_ruleset(2), schema=chunk.schema)
        try:
            model = ServableModel(name=backend, kind=backend, predictor=predictor)
            codes, classes = model.predict_codes(chunk)
            assert not chunk.records_materialized
            labels = np.array(list(classes), dtype=object)[codes]
            assert labels.tolist() == predictor.predict_batch(chunk.records).tolist()
        finally:
            if backend == "sql":
                predictor.close()


class TestPredictChunks:
    def test_yields_labelled_chunks_in_order(self, service, data):
        labelled = list(service.predict_chunks("f1", pieces(data, 500)))
        assert [len(c) for c in labelled] == [500] * 6
        merged = np.concatenate([c.label_array() for c in labelled])
        assert merged.tolist() == data.labels  # clean tuples: rules == truth
        # Columns ride through untouched (zero-copy).
        assert np.shares_memory(labelled[0].column("salary"), data.column("salary"))

    def test_submit_chunk_future(self, service, data):
        codes, classes = service.submit_chunk("f1", data).result(timeout=10)
        assert len(codes) == len(data)
        assert set(classes) >= set(data.classes)

    def test_errors_propagate(self, service, data):
        class Exploding:
            classes = ("A", "B")

            def predict_batch(self, records):
                raise RuntimeError("boom")

        service.registry.register(
            ServableModel(name="bad", kind="baseline", predictor=Exploding())
        )
        with pytest.raises(RuntimeError, match="boom"):
            service.submit_chunk("bad", data).result(timeout=10)

    def test_closed_service_rejects_chunks(self, data):
        registry = ModelRegistry()
        registry.register(
            ServableModel(name="f1", kind=KIND_RULES, predictor=reference_ruleset(1))
        )
        service = PredictionService(registry, ServiceConfig(workers=1))
        service.close()
        with pytest.raises(ServingError, match="closed"):
            service.submit_chunk("f1", data)

    def test_observability_counts_chunk_tuples(self, service, data):
        list(service.predict_chunks("f1", pieces(data, 1_000)))
        stats = service.stats("f1")
        assert stats.records == len(data)


class TestStreamRouting:
    """predict_stream_batches routes datasets through the chunk path."""

    def test_single_chunk(self, service, data):
        arrays = list(service.predict_stream_batches("f1", data))
        assert [len(a) for a in arrays] == [len(data)]
        assert np.concatenate(arrays).tolist() == data.labels

    def test_iterable_of_chunks(self, service, data):
        arrays = list(service.predict_stream_batches("f1", iter(pieces(data, 700))))
        assert [len(a) for a in arrays] == [700, 700, 700, 700, 200]
        assert np.concatenate(arrays).tolist() == data.labels

    def test_record_stream_unchanged(self, service, data):
        arrays = list(service.predict_stream_batches("f1", iter(data.records)))
        assert np.concatenate(arrays).tolist() == data.labels

    def test_empty_stream(self, service):
        assert list(service.predict_stream_batches("f1", iter([]))) == []

    def test_chunk_and_record_paths_agree(self, service, data):
        via_chunks = np.concatenate(
            list(service.predict_stream_batches("f1", data))
        )
        via_records = np.concatenate(
            list(service.predict_stream_batches("f1", iter(data.records)))
        )
        assert via_chunks.tolist() == via_records.tolist()


class TestPredictBatchOnDatasets:
    @pytest.mark.parametrize("backend", ["rules", "network", "sql"])
    def test_dataset_classifies_like_its_records(self, backend):
        """Regression: a dataset handed to predict_batch became a list of
        (record, label) pairs and failed to classify."""
        dataset = AgrawalGenerator(function=2, seed=5).generate(500)
        ruleset = reference_ruleset(2)
        if backend == "rules":
            predictor = ruleset
        elif backend == "network":
            encoder = agrawal_encoder()
            network = new_network(encoder.n_inputs, 3, 2, seed=0)
            predictor = NetworkBatchPredictor(network, ("A", "B"), encoder=encoder)
        else:
            predictor = SqlRulePredictor(ruleset, schema=dataset.schema)
        try:
            registry = ModelRegistry()
            registry.register(ServableModel(name="m", kind=backend, predictor=predictor))
            with PredictionService(registry, ServiceConfig(workers=1)) as svc:
                labels = svc.predict_batch("m", dataset)
                assert svc.stats("m").records == len(dataset)
            assert not dataset.records_materialized
            reference = ruleset if backend != "network" else predictor
            expected = reference.predict_batch(dataset.records)
            assert labels.dtype == object
            assert labels.tolist() == list(expected)
        finally:
            if backend == "sql":
                predictor.close()
