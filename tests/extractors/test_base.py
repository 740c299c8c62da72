"""Tests of the shared extractor harness (validation, measurement)."""

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.exceptions import ExtractionError
from repro.extractors import ExtractorResult, available_extractors, create_extractor
from repro.metrics.classification import majority_label
from repro.nn.network import new_network
from repro.preprocessing.encoder import agrawal_encoder


@pytest.fixture(scope="module")
def boolean_case(pruned_boolean_network):
    """The pruned boolean network with its dataset and encoder."""
    return {
        "network": pruned_boolean_network["pruning"].network,
        "dataset": pruned_boolean_network["dataset"],
        "encoder": pruned_boolean_network["encoder"],
        "classes": pruned_boolean_network["classes"],
    }


class TestValidation:
    def test_empty_dataset_rejected(self, boolean_case):
        empty = Dataset.from_records(boolean_case["dataset"].schema, [], [])
        with pytest.raises(ExtractionError, match="empty dataset"):
            create_extractor("covering").extract(
                boolean_case["network"], empty, encoder=boolean_case["encoder"]
            )

    def test_class_count_mismatch_rejected(self, boolean_case):
        network = new_network(
            boolean_case["encoder"].n_inputs, 3, 3, seed=0
        )  # three outputs, two classes
        with pytest.raises(ExtractionError, match="classes"):
            create_extractor("covering").extract(
                network, boolean_case["dataset"], encoder=boolean_case["encoder"]
            )

    def test_encoder_width_mismatch_rejected(self, boolean_case):
        with pytest.raises(ExtractionError, match="inputs"):
            create_extractor("covering").extract(
                boolean_case["network"],
                boolean_case["dataset"],
                encoder=agrawal_encoder(),
            )

    def test_missing_encoder_rejected(self, boolean_case):
        with pytest.raises(ExtractionError, match="encoder"):
            create_extractor("covering").extract(
                boolean_case["network"], boolean_case["dataset"], encoder=None
            )


class TestUniformMeasurement:
    """Every registered strategy is measured through the same harness."""

    @pytest.mark.parametrize("name", sorted(("neurorule", "c45-surrogate", "covering")))
    def test_result_is_uniform_and_sane(self, boolean_case, name):
        extractor = create_extractor(name)
        result = extractor.extract(
            boolean_case["network"],
            boolean_case["dataset"],
            encoder=boolean_case["encoder"],
        )
        assert isinstance(result, ExtractorResult)
        assert result.extractor == name
        assert result.params == extractor.params()
        assert result.n_rules == result.ruleset.n_rules
        assert 0.0 <= result.fidelity <= 1.0
        assert 0.0 <= result.training_accuracy <= 1.0
        assert result.seconds > 0.0
        assert result.default_class == result.ruleset.default_class
        # The boolean concept is easy: every strategy should describe the
        # pruned network faithfully on its own training data.
        assert result.fidelity >= 0.9

    def test_default_class_shares_the_tie_break(self, boolean_case):
        network = boolean_case["network"]
        encoded = boolean_case["encoder"].encode_dataset(boolean_case["dataset"])
        oracle = [
            boolean_case["classes"][int(i)]
            for i in network.predict_indices(encoded)
        ]
        expected = majority_label(oracle, boolean_case["classes"])
        result = create_extractor("covering").extract(
            network, boolean_case["dataset"], encoder=boolean_case["encoder"]
        )
        assert result.default_class == expected

    def test_repr_is_compact(self, boolean_case):
        result = create_extractor("covering").extract(
            boolean_case["network"],
            boolean_case["dataset"],
            encoder=boolean_case["encoder"],
        )
        text = repr(result)
        assert "covering" in text and "fidelity" in text
        assert "details" not in text  # bulky payloads stay out of the repr

    def test_registered_extractors_report_json_ready_params(self):
        import json

        for name in available_extractors():
            payload = create_extractor(name).params()
            assert json.loads(json.dumps(payload)) == payload
