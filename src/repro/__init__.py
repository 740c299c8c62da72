"""NeuroRule reproduction: mining classification rules from neural networks.

This package reproduces *NeuroRule: A Connectionist Approach to Data Mining*
(Lu, Setiono, Liu — VLDB 1995): a pipeline that trains a three-layer neural
network on binarised relational tuples, prunes it down to a handful of
connections, and extracts explicit ``if ... then class`` rules from the
pruned network.

Quick start::

    from repro import AgrawalGenerator, NeuroRuleClassifier, NeuroRuleConfig
    from repro.preprocessing import agrawal_encoder

    train = AgrawalGenerator(function=2, seed=7).generate(1000)
    clf = NeuroRuleClassifier(NeuroRuleConfig.fast(seed=7), encoder=agrawal_encoder())
    clf.fit(train)
    print(clf.describe_rules())

Sub-packages
------------
``repro.data``
    Attribute schemas, datasets, the Agrawal et al. synthetic benchmark.
``repro.preprocessing``
    Discretisation, thermometer/one-hot coding, the Table 2 tuple encoder.
``repro.nn`` / ``repro.optim``
    The three-layer network, penalised cross-entropy objective, BFGS and
    gradient-descent minimisers.
``repro.core``
    Training, pruning (algorithm NP), rule extraction (algorithm RX),
    hidden-unit splitting and the :class:`NeuroRuleClassifier` facade.
``repro.rules``
    Rule representation, perfect-cover generation, simplification,
    translation and pretty printing.
``repro.baselines``
    C4.5-style decision tree, C4.5rules-style rule generator, ID3.
``repro.inference``
    The vectorised batch-inference pipeline: the :class:`BatchPredictor`
    protocol, the rule compiler and batch input normalisation.
``repro.metrics`` / ``repro.experiments``
    Evaluation metrics and the harness reproducing the paper's tables and
    figures.
``repro.serving``
    The model-serving subsystem: the artifact-backed :class:`ModelRegistry`,
    the micro-batched :class:`PredictionService` and the CLI behind
    ``python -m repro predict``.
``repro.obs``
    The observability layer: thread-sharded metrics, span tracing across
    threads and worker processes, JSONL/Prometheus/table exporters
    (``--trace`` / ``--metrics-out`` and ``python -m repro obs``).
"""

from repro.core.neurorule import NeuroRuleClassifier, NeuroRuleConfig
from repro.data.agrawal import (
    AgrawalGenerator,
    DriftPoint,
    agrawal_schema,
    generate_function_dataset,
)
from repro.data.dataset import Dataset
from repro.data.schema import CategoricalAttribute, ContinuousAttribute, Schema
from repro.exceptions import ReproError
from repro.inference import BatchPredictor, NetworkBatchPredictor, compile_ruleset

__version__ = "1.8.0"

__all__ = [
    "AgrawalGenerator",
    "BatchPredictor",
    "CategoricalAttribute",
    "ContinuousAttribute",
    "Dataset",
    "DriftPoint",
    "NetworkBatchPredictor",
    "NeuroRuleClassifier",
    "NeuroRuleConfig",
    "ReproError",
    "Schema",
    "agrawal_schema",
    "compile_ruleset",
    "generate_function_dataset",
    "__version__",
]
