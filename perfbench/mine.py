"""``mine``: the paper's own job, ``NeuroRuleClassifier.fit`` on function 2.

Encode -> train -> prune -> extract on 400 function-2 tuples with 5 %
perturbation, at the benchmark suite's reduced budgets (250 training
iterations, 80 per retrain, 100 pruning rounds).  Function 2's pruned
network keeps more than 12 inputs on one hidden unit, so the hidden-unit
splitter runs too.

The inputs are fixed, not drawn from ``--seed``: every fit must reproduce
the committed fixture rule for rule, and the fit's running time depends
strongly on the sample.  The splitter's subnetwork trainer is seeded
explicitly (its default ``TrainerConfig(seed=None)`` makes ``fit``
non-deterministic whenever the splitter engages).

End-to-end: ``latency_ms`` is the median fit, ``tuples_per_s`` the training
tuples over all fit time — the same fits seen as a wait and as a rate.
"""

from __future__ import annotations

from typing import Dict, List

from common import log, median, now, peak_rss_mb
from spans import Spans

from repro.core.neurorule import NeuroRuleClassifier
from repro.core.pruning import NetworkPruner
from repro.core.splitting import HiddenUnitSplitter, SplitterConfig
from repro.core.training import NetworkTrainer, TrainerConfig
from repro.data.agrawal import AgrawalGenerator
from repro.experiments.config import ExperimentConfig
from repro.extractors.base import BaseExtractor
# fit imports it lazily; importing it here counts it with the other imports.
from repro.extractors.neurorule import NeuroRuleExtractor  # noqa: F401
from repro.preprocessing.encoder import TupleEncoder, agrawal_encoder

import fixture

FUNCTION = 2
N_TRAIN = 400
PERTURBATION = 0.05
N_SCORE = 1000
SPLITTER_SEED = 1
SETUP_REPEATS = 5
#: Rough seconds of one fit on a 2-vCPU machine; sets the fits per run.
FIT_SECONDS = 15


def experiment_config(**overrides) -> ExperimentConfig:
    budgets = dict(
        n_train=N_TRAIN, training_iterations=250, retrain_iterations=80, pruning_rounds=100
    )
    budgets.update(overrides)
    return ExperimentConfig.quick(**budgets)


def classifier(config: ExperimentConfig) -> NeuroRuleClassifier:
    neurorule = config.neurorule_config()
    neurorule.splitter = SplitterConfig(trainer=TrainerConfig(n_hidden=3, seed=SPLITTER_SEED))
    return NeuroRuleClassifier(neurorule, encoder=agrawal_encoder())


def training_data(config: ExperimentConfig):
    return AgrawalGenerator(
        function=FUNCTION, perturbation=PERTURBATION, seed=config.data_seed
    ).generate(config.n_train)


def scoring_data(config: ExperimentConfig):
    return AgrawalGenerator(function=FUNCTION, perturbation=0.0, seed=config.test_seed).generate(
        N_SCORE
    )


def fit() -> NeuroRuleClassifier:
    """One fit on the fixed inputs (what the fixture was mined from)."""
    config = experiment_config()
    return classifier(config).fit(training_data(config))


def install_spans(spans: Spans) -> None:
    def evaluations(span, result) -> None:
        span.attrs["evals"] = result.optimization.function_evaluations

    spans.wrap(TupleEncoder, "encode_dataset", "preprocessing.encode")
    spans.wrap(NetworkTrainer, "train", "training.train", on_result=evaluations)
    spans.wrap(NetworkTrainer, "retrain", "training.retrain")
    spans.wrap(NetworkPruner, "prune", "pruning.prune")
    spans.wrap(HiddenUnitSplitter, "input_rules", "splitting.input_rules")
    spans.wrap(BaseExtractor, "extract", "extraction.extract")


def layer_metrics(spans: Spans, root, fitted: NeuroRuleClassifier) -> Dict[str, float]:
    inside = spans.within(root)
    children = [s for s in inside if s.parent == root.id]
    extract = [s for s in children if s.name == "extraction.extract"]
    prune = [s for s in children if s.name == "pruning.prune"]
    extract_ids = {s.id for s in extract}
    prune_ids = {s.id for s in prune}
    return {
        "preprocessing.encode_s": sum(
            s.seconds for s in inside if s.name == "preprocessing.encode"
        ),
        "training.train_s": sum(s.seconds for s in children if s.name == "training.train"),
        "training.retrain_s": sum(
            s.seconds for s in inside if s.name == "training.retrain" and s.parent in prune_ids
        ),
        "pruning.self_s": sum(s.self_seconds for s in prune),
        "splitting.split_s": sum(
            s.seconds
            for s in inside
            if s.name == "splitting.input_rules" and s.parent in extract_ids
        ),
        "extraction.self_s": sum(s.self_seconds for s in extract),
        "optim.objective_evals": sum(s.attrs.get("evals", 0) for s in inside),
        "pruning.rounds": fitted.pruning_result_.n_rounds,
        "splitting.calls": sum(1 for s in inside if s.name == "splitting.input_rules"),
        "pruning.connections": fitted.pruning_result_.final_connections,
        "extraction.fidelity": fitted.extractor_result_.fidelity,
    }


LAYER_UNITS = {
    "preprocessing.encode_s": "s",
    "training.train_s": "s",
    "training.retrain_s": "s",
    "pruning.self_s": "s",
    "splitting.split_s": "s",
    "extraction.self_s": "s",
    "optim.objective_evals": "count",
    "pruning.rounds": "count",
    "splitting.calls": "count",
    "pruning.connections": "count",
    "extraction.fidelity": "ratio",
}


def run(ctx) -> None:
    spans, setup, report = ctx.spans, ctx.setup, ctx.report
    config = experiment_config()
    warm_trainer = NetworkTrainer(experiment_config(training_iterations=20).trainer_config())
    for _ in range(SETUP_REPEATS):
        start = now()
        train = training_data(config)
        score = scoring_data(config)
        expected = fixture.rules_payload(fixture.load_ruleset())
        # Warm-up: a short training run on the encoded sample.
        warm_trainer.train(agrawal_encoder().encode_dataset(train), train.label_targets())
        setup.record(now() - start)
    if spans.enabled:
        install_spans(spans)

    phase = report.phase("fit")
    fit_seconds: List[float] = []
    layers: List[Dict[str, float]] = []
    fitted = None
    # A fit takes 15-18 s: --seconds 30 gives two.
    for _ in range(max(1, round(ctx.seconds / FIT_SECONDS))):
        with spans.span("mine.fit") as root:
            start = now()
            fitted = classifier(config).fit(train)
            fit_seconds.append(now() - start)
        phase.attempted += 1
        if fixture.rules_payload(fitted.rules_) != expected:
            phase.fail(
                f"fit mined {fitted.rules_.n_rules} rules that differ from the "
                f"{len(expected['rules'])}-rule fixture"
            )
        if root is not None:
            layers.append(layer_metrics(spans, root, fitted))

    log("fits (s): " + " ".join(f"{x:.3f}" for x in fit_seconds))
    report.metric("latency_ms", 1e3 * median(fit_seconds), "ms")
    report.metric("tuples_per_s", N_TRAIN * len(fit_seconds) / sum(fit_seconds), "1/s")
    report.metric("peak_rss_mb", peak_rss_mb(), "MB")
    if spans.enabled:
        for name, unit in LAYER_UNITS.items():
            report.layer(name, median([m[name] for m in layers]), unit)
        report.layer("extraction.n_rules", fitted.rules_.n_rules, "count")
        report.layer("extraction.test_accuracy", 100.0 * fitted.score(score), "%")
