"""Shared fixtures for the test suite.

Network-training fixtures are session-scoped: several test modules inspect
the same trained/pruned network, and training it once keeps the suite fast.
All fixtures use fixed seeds so failures are reproducible.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

from repro.core.pruning import NetworkPruner, PruningConfig
from repro.core.training import NetworkTrainer, TrainerConfig
from repro.data.agrawal import AgrawalGenerator, agrawal_schema
from repro.data.dataset import Dataset
from repro.data.schema import CategoricalAttribute, ContinuousAttribute, Schema
from repro.data.synthetic import boolean_function_dataset, xor_dataset
from repro.experiments.config import ExperimentConfig
from repro.experiments.orchestrator import ARTIFACT_VERSION, ArtifactCache, SweepTask
from repro.experiments.runner import FunctionExperimentResult
from repro.metrics.rules_metrics import RuleSetComplexity
from repro.nn.network import new_network
from repro.nn.penalty import PenaltyConfig
from repro.nn.serialization import network_to_json
from repro.optim.bfgs import BFGSConfig
from repro.preprocessing.encoder import agrawal_encoder, default_encoder
from repro.rules.serialization import ruleset_to_json
from repro.serving import reference_ruleset


@pytest.fixture(scope="session")
def small_schema() -> Schema:
    """A tiny mixed schema used by schema/dataset/encoder unit tests."""
    return Schema(
        attributes=[
            ContinuousAttribute("income", 0.0, 100.0),
            ContinuousAttribute("age", 18.0, 90.0, integer=True),
            CategoricalAttribute("grade", (0, 1, 2, 3), ordered=True),
            CategoricalAttribute("colour", ("red", "green", "blue")),
        ],
        classes=("yes", "no"),
    )


@pytest.fixture(scope="session")
def small_dataset(small_schema: Schema) -> Dataset:
    """Twelve hand-written records over ``small_schema``."""
    records = [
        {"income": 10.0, "age": 20, "grade": 0, "colour": "red"},
        {"income": 20.0, "age": 25, "grade": 1, "colour": "green"},
        {"income": 30.0, "age": 30, "grade": 2, "colour": "blue"},
        {"income": 40.0, "age": 35, "grade": 3, "colour": "red"},
        {"income": 50.0, "age": 40, "grade": 0, "colour": "green"},
        {"income": 60.0, "age": 45, "grade": 1, "colour": "blue"},
        {"income": 70.0, "age": 50, "grade": 2, "colour": "red"},
        {"income": 80.0, "age": 55, "grade": 3, "colour": "green"},
        {"income": 90.0, "age": 60, "grade": 0, "colour": "blue"},
        {"income": 15.0, "age": 65, "grade": 1, "colour": "red"},
        {"income": 55.0, "age": 70, "grade": 2, "colour": "green"},
        {"income": 95.0, "age": 75, "grade": 3, "colour": "blue"},
    ]
    labels = ["yes" if r["income"] >= 50 else "no" for r in records]
    return Dataset.from_records(small_schema, records, labels)


@pytest.fixture(scope="session")
def agrawal_train() -> Dataset:
    """A small perturbed Function 2 training sample."""
    return AgrawalGenerator(function=2, perturbation=0.05, seed=11).generate(200)


@pytest.fixture(scope="session")
def agrawal_test_clean() -> Dataset:
    """A small clean Function 2 test sample."""
    return AgrawalGenerator(function=2, perturbation=0.0, seed=23).generate(200)


@pytest.fixture(scope="session")
def encoder():
    """The Table 2 encoder (86 binary inputs)."""
    return agrawal_encoder()


@pytest.fixture(scope="session")
def fast_trainer() -> NetworkTrainer:
    """A trainer with a small optimisation budget for unit tests."""
    config = TrainerConfig(
        n_hidden=3,
        seed=5,
        penalty=PenaltyConfig(epsilon1=0.2, epsilon2=1e-3),
        bfgs=BFGSConfig(max_iterations=150, gradient_tolerance=1e-3),
    )
    return NetworkTrainer(config)


@pytest.fixture(scope="session")
def xor_training_data():
    """Encoded XOR data: inputs, one-hot targets, class labels."""
    dataset = xor_dataset(n_copies=8)
    enc = default_encoder(dataset.schema, dataset)
    return enc.encode_dataset(dataset), dataset.label_targets(), list(dataset.schema.classes), enc


@pytest.fixture(scope="session")
def trained_boolean_network(fast_trainer: NetworkTrainer):
    """A network trained on a simple 4-input boolean function.

    The target concept is ``x1 AND (x2 OR x3)``, ignoring ``x4``; the full
    truth table (16 rows, replicated) is easy to learn and small enough that
    training plus pruning takes well under a second.
    """
    dataset = boolean_function_dataset(
        4, lambda bits: bool(bits[0]) and (bool(bits[1]) or bool(bits[2]))
    )
    replicated = dataset
    for _ in range(7):
        replicated = replicated.concat(dataset)
    enc = default_encoder(replicated.schema, replicated)
    inputs = enc.encode_dataset(replicated)
    targets = replicated.label_targets()
    training = fast_trainer.train(inputs, targets)
    return {
        "dataset": replicated,
        "encoder": enc,
        "inputs": inputs,
        "targets": targets,
        "training": training,
        "classes": list(replicated.schema.classes),
        "trainer": fast_trainer,
    }


@pytest.fixture(scope="session")
def pruned_boolean_network(trained_boolean_network):
    """The boolean network after algorithm NP."""
    pruner = NetworkPruner(PruningConfig(accuracy_threshold=0.95, max_rounds=40, retrain_iterations=40))
    result = pruner.prune(
        trained_boolean_network["training"].network,
        trained_boolean_network["inputs"],
        trained_boolean_network["targets"],
        trained_boolean_network["trainer"],
    )
    return {**trained_boolean_network, "pruning": result}


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh seeded NumPy generator per test."""
    return np.random.default_rng(1234)


# ---------------------------------------------------------------------------
# Artifact-cache fabrication (serving and CLI tests)
#
# Registry/CLI tests need real artifact-cache entries without paying minutes
# of train → prune → extract per run, so fabricate_cache_entry writes an
# entry byte-compatible with what a sweep worker persists: the same key
# derivation (SweepTask.cache_key), the same four files, the same
# serialisation helpers — only the numbers in result.json and the network
# weights are synthetic.
# ---------------------------------------------------------------------------

def dummy_result(function: int, ruleset) -> FunctionExperimentResult:
    """A plausible, plain-data result row for a fabricated cache entry."""
    return FunctionExperimentResult(
        function=function,
        config_label="fabricated",
        n_train=100,
        n_test=100,
        class_skew=0.6,
        nn_train_accuracy=0.99,
        nn_test_accuracy=0.98,
        rule_train_accuracy=0.99,
        rule_test_accuracy=0.98,
        rule_fidelity=1.0,
        n_rules=ruleset.n_rules,
        rule_complexity=RuleSetComplexity.of(ruleset),
        initial_connections=100,
        pruned_connections=10,
        active_hidden_units=2,
        relevant_inputs=5,
        spurious_attributes=[],
        neurorule_seconds=1.0,
        c45_train_accuracy=0.97,
        c45_test_accuracy=0.96,
        c45_leaves=9,
        c45rules_count=7,
        c45rules_test_accuracy=0.96,
        c45_seconds=0.5,
        c45rules_seconds=0.6,
    )


def fabricate_cache_entry(
    cache: ArtifactCache,
    function: int = 1,
    seed: int = 0,
    config: Optional[ExperimentConfig] = None,
    with_rules: bool = True,
    with_network: bool = True,
) -> str:
    """Write one complete artifact-cache entry; returns its key."""
    config = config or ExperimentConfig.quick()
    task = SweepTask(function=function, seed=seed, config=config)
    key = task.cache_key()
    ruleset = reference_ruleset(min(function, 4))
    entry = cache.entry_dir(key)
    entry.mkdir(parents=True, exist_ok=True)
    (entry / "config.json").write_text(
        json.dumps(
            {
                "artifact_version": ARTIFACT_VERSION,
                "function": task.function,
                "seed": task.seed,
                "config": task.effective_config().to_dict(),
            },
            indent=2,
        )
        + "\n"
    )
    (entry / "result.json").write_text(
        json.dumps(dummy_result(function, ruleset).to_dict(), indent=2) + "\n"
    )
    if with_rules:
        (entry / "rules.json").write_text(ruleset_to_json(ruleset) + "\n")
    if with_network:
        # An 86-input network matching the Agrawal coding; untrained weights
        # are fine — loading and shape checks do not care about accuracy.
        network = new_network(86, 3, 2, seed=function)
        (entry / "network.json").write_text(network_to_json(network) + "\n")
    return key


@pytest.fixture()
def artifact_cache(tmp_path: Path) -> ArtifactCache:
    """An empty artifact cache rooted in a per-test temporary directory."""
    return ArtifactCache(tmp_path / "cache")


@pytest.fixture()
def fabricate_entry():
    """The entry fabricator as a fixture (test dirs are not packages)."""
    return fabricate_cache_entry
