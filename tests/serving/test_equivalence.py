"""Property tests: the serving layer is label-exact.

For every predictor kind the repository can serve — attribute rules, binary
rules (encoder-bridged), the network predictor and the symbolic baselines —
the labels coming back from the micro-batched :class:`PredictionService` must
be identical, in order, to one direct ``predict_batch`` call on the same
records.  That includes concurrent micro-batch dispatch (many small batches
across several workers) and the full CSV → stream → JSONL round trip the
``predict`` CLI performs.
"""

import json

import numpy as np
import pytest

from repro.baselines.c45 import C45Classifier
from repro.baselines.id3 import ID3Classifier
from repro.data.agrawal import AgrawalGenerator
from repro.data.io import iter_csv_records, save_csv, write_jsonl
from repro.data.synthetic import boolean_function_dataset
from repro.inference.network import NetworkBatchPredictor
from repro.nn.network import new_network
from repro.preprocessing.encoder import agrawal_encoder, default_encoder
from repro.rules.conditions import InputLiteral
from repro.rules.rule import BinaryRule
from repro.rules.ruleset import RuleSet
from repro.serving import (
    ModelRegistry,
    PredictionService,
    ServableModel,
    ServiceConfig,
    reference_ruleset,
)


@pytest.fixture(scope="module")
def agrawal_records():
    """1 500 perturbed function-2 tuples (perturbation exercises edge values)."""
    return AgrawalGenerator(function=2, perturbation=0.05, seed=17).generate(1500)


@pytest.fixture(scope="module")
def boolean_data():
    dataset = boolean_function_dataset(
        4, lambda bits: bool(bits[0]) and (bool(bits[1]) or bool(bits[2]))
    )
    replicated = dataset
    for _ in range(4):
        replicated = replicated.concat(dataset)
    return replicated


def _binary_ruleset(encoder):
    """A small hand-built binary rule set over the boolean coding."""
    features = encoder.features
    rules = [
        BinaryRule((InputLiteral(features[0], 1), InputLiteral(features[1], 1)), "1"),
        BinaryRule((InputLiteral(features[0], 1), InputLiteral(features[2], 1)), "1"),
    ]
    return RuleSet(rules, default_class="0", classes=("0", "1"), name="binary-truth")


def _serve_all(model: ServableModel, records, config: ServiceConfig):
    registry = ModelRegistry()
    registry.register(model)
    with PredictionService(registry, config) as service:
        return list(service.predict_stream(model.name, iter(records)))


#: Small batches + several workers force concurrent micro-batch dispatch.
CONCURRENT = ServiceConfig(max_batch_size=97, workers=4)


class TestServiceEquivalence:
    def test_attribute_rules(self, agrawal_records):
        rules = reference_ruleset(2)
        model = ServableModel(name="m", kind="rules", predictor=rules)
        direct = rules.predict_batch(agrawal_records.records)
        assert _serve_all(model, agrawal_records.records, CONCURRENT) == direct.tolist()

    def test_binary_rules_with_encoder(self, boolean_data):
        encoder = default_encoder(boolean_data.schema, boolean_data)
        rules = _binary_ruleset(encoder)
        model = ServableModel(name="m", kind="rules", predictor=rules, encoder=encoder)
        direct = rules.predict_batch(boolean_data.records, encoder=encoder)
        assert _serve_all(model, boolean_data.records, CONCURRENT) == direct.tolist()

    def test_network_predictor(self, agrawal_records):
        encoder = agrawal_encoder()
        predictor = NetworkBatchPredictor(
            new_network(encoder.n_inputs, 3, 2, seed=9),
            classes=("A", "B"),
            encoder=encoder,
        )
        model = ServableModel(name="m", kind="network", predictor=predictor)
        direct = predictor.predict_batch(agrawal_records.records)
        assert _serve_all(model, agrawal_records.records, CONCURRENT) == direct.tolist()

    def test_c45_baseline(self, agrawal_records):
        subset = agrawal_records.subset(range(300))
        c45 = C45Classifier().fit(subset)
        model = ServableModel(name="m", kind="baseline", predictor=c45)
        direct = c45.predict_batch(agrawal_records.records)
        assert _serve_all(model, agrawal_records.records, CONCURRENT) == direct.tolist()

    def test_id3_baseline(self, boolean_data):
        id3 = ID3Classifier().fit(boolean_data)
        model = ServableModel(name="m", kind="baseline", predictor=id3)
        direct = id3.predict_batch(boolean_data.records)
        assert _serve_all(model, boolean_data.records, CONCURRENT) == direct.tolist()

    def test_per_record_reference_agrees(self, agrawal_records):
        """ServableModel.predict_record (the naive loop the benchmark times)
        agrees with the batch path on every record."""
        rules = reference_ruleset(2)
        model = ServableModel(name="m", kind="rules", predictor=rules)
        direct = rules.predict_batch(agrawal_records.records)
        sample = agrawal_records.records[:200]
        assert [model.predict_record(r) for r in sample] == direct[:200].tolist()


class TestCsvJsonlRoundTrip:
    def test_csv_stream_to_jsonl_preserves_order(self, tmp_path, agrawal_records):
        """The CLI pipeline: CSV on disk → schema-typed record stream →
        micro-batched service → JSONL labels, equal to direct predict_batch."""
        csv_path = tmp_path / "tuples.csv"
        out_path = tmp_path / "labels.jsonl"
        save_csv(agrawal_records, csv_path)

        rules = reference_ruleset(2)
        direct = rules.predict_batch(agrawal_records.records)

        registry = ModelRegistry()
        registry.register_predictor("m", rules, kind="rules")
        records = iter_csv_records(csv_path, schema=agrawal_records.schema)
        with PredictionService(registry, CONCURRENT) as service:
            batches = service.predict_stream_batches("m", records)
            count = write_jsonl(
                out_path,
                ({"label": label} for labels in batches for label in labels),
            )
        assert count == len(agrawal_records)
        read_back = [
            json.loads(line)["label"] for line in out_path.read_text().splitlines()
        ]
        assert read_back == direct.tolist()
