"""Tests of hidden-unit splitting via subnetworks (Section 3.2)."""

import numpy as np
import pytest

from repro.core.clustering import ActivationDiscretizer, HiddenUnitClustering
from repro.core.extraction import ExtractionConfig, RuleExtractor
from repro.core.pruning import NetworkPruner, PruningConfig
from repro.core.splitting import HiddenUnitSplitter, SplitterConfig
from repro.core.training import NetworkTrainer, TrainerConfig
from repro.data.synthetic import wide_binary_dataset
from repro.exceptions import ExtractionError
from repro.nn.penalty import PenaltyConfig
from repro.optim.bfgs import BFGSConfig
from repro.preprocessing.encoder import default_encoder


@pytest.fixture(scope="module")
def wide_fitted():
    """A trained, lightly pruned network on the wide majority concept."""
    dataset = wide_binary_dataset(n_inputs=12, n_relevant=5, n_samples=400, seed=3)
    encoder = default_encoder(dataset.schema, dataset)
    inputs = encoder.encode_dataset(dataset)
    targets = dataset.label_targets()
    trainer = NetworkTrainer(
        TrainerConfig(
            n_hidden=3,
            seed=2,
            penalty=PenaltyConfig(epsilon1=0.3, epsilon2=1e-3),
            bfgs=BFGSConfig(max_iterations=250, gradient_tolerance=1e-3),
        )
    )
    training = trainer.train(inputs, targets)
    pruner = NetworkPruner(PruningConfig(accuracy_threshold=0.93, max_rounds=40, retrain_iterations=50))
    network = pruner.prune(training.network, inputs, targets, trainer).network
    return {
        "dataset": dataset,
        "encoder": encoder,
        "inputs": inputs,
        "targets": targets,
        "network": network,
        "classes": list(dataset.schema.classes),
        "trainer": trainer,
    }


class TestSplitterConfig:
    def test_rejects_bad_depth(self):
        with pytest.raises(ExtractionError):
            SplitterConfig(max_depth=0)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ExtractionError):
            SplitterConfig(fidelity_threshold=0.0)


class TestHiddenUnitSplitter:
    def test_single_cluster_unit_is_trivial(self, wide_fitted):
        splitter = HiddenUnitSplitter()
        unit = HiddenUnitClustering(
            hidden_index=wide_fitted["network"].active_hidden_units()[0],
            centers=np.array([0.5]),
            assignments=np.zeros(wide_fitted["inputs"].shape[0], dtype=int),
        )
        rules = splitter.input_rules(
            network=wide_fitted["network"],
            clustering_unit=unit,
            inputs=wide_fitted["inputs"],
            needed_clusters=[0],
        )
        assert rules == {0: [dict()]}

    def test_subnetwork_rules_describe_clusters(self, wide_fitted):
        network = wide_fitted["network"]
        clustering = ActivationDiscretizer().discretize(
            network, wide_fitted["inputs"], wide_fitted["targets"], required_accuracy=0.9
        )
        unit = clustering.clusterings[0]
        if unit.n_clusters < 2:
            pytest.skip("the first hidden unit collapsed to a single cluster")
        splitter = HiddenUnitSplitter(
            SplitterConfig(fidelity_threshold=0.8)
        )
        needed = list(range(unit.n_clusters))
        rules = splitter.input_rules(
            network=network,
            clustering_unit=unit,
            inputs=wide_fitted["inputs"],
            needed_clusters=needed,
        )
        assert set(rules) == set(needed)
        # Every rule references only inputs actually connected to the unit.
        connected_names = {f"I{i + 1}" for i in network.connected_inputs(unit.hidden_index)}
        for conjunctions in rules.values():
            for conjunction in conjunctions:
                assert set(conjunction) <= connected_names

    def test_default_splitter_is_seeded_and_repeatable(self, wide_fitted):
        """The default subnetwork trainer is seeded, so two splits of one unit
        give the same rules (an unseeded one lets a seeded fit drift)."""
        assert SplitterConfig().trainer.seed is not None
        network = wide_fitted["network"]
        clustering = ActivationDiscretizer().discretize(
            network, wide_fitted["inputs"], wide_fitted["targets"], required_accuracy=0.9
        )
        unit = clustering.clusterings[0]
        if unit.n_clusters < 2:
            pytest.skip("the first hidden unit collapsed to a single cluster")
        first, second = (
            HiddenUnitSplitter().input_rules(
                network=network,
                clustering_unit=unit,
                inputs=wide_fitted["inputs"],
                needed_clusters=list(range(unit.n_clusters)),
            )
            for _ in range(2)
        )
        assert first == second

    def test_extraction_with_splitter_on_wide_network(self, wide_fitted):
        """End to end: force splitting by setting a tiny enumeration limit."""
        extractor = RuleExtractor(
            ExtractionConfig(max_enumeration_inputs=3),
            splitter=HiddenUnitSplitter(SplitterConfig(fidelity_threshold=0.75)),
        )
        result = extractor.extract(
            wide_fitted["network"],
            wide_fitted["inputs"],
            wide_fitted["targets"],
            wide_fitted["classes"],
            encoder=wide_fitted["encoder"],
        )
        assert result.binary_rules.n_rules >= 1
        assert result.training_accuracy >= 0.75
