"""Serve prediction traffic from a rule-set model with micro-batching.

Demonstrates the serving subsystem end to end without any training: the
ground-truth reference rules of Agrawal function 2 (the paper reports
NeuroRule extracts exactly these) are registered as a servable model, a
PredictionService answers single-record and streaming traffic against them,
and the per-model statistics show the micro-batcher at work.

Run with:  PYTHONPATH=src python examples/serve_predictions.py
"""

from repro.data.agrawal import AgrawalGenerator
from repro.serving import (
    ModelRegistry,
    PredictionService,
    ServiceConfig,
    reference_ruleset,
)


def main() -> None:
    rules = reference_ruleset(2)
    print(rules.describe())
    print()

    registry = ModelRegistry()
    registry.register_predictor("function-2", rules, kind="rules")

    data = AgrawalGenerator(function=2, perturbation=0.0, seed=7).generate(100_000)

    config = ServiceConfig(max_batch_size=8192, workers=2)
    with PredictionService(registry, config) as service:
        # Latency path: on an idle service a lone record is dispatched at
        # once as its own batch, so it waits for no timer.
        record, label = data[0]
        print(f"single record -> {service.predict_record('function-2', record)!r} "
              f"(truth {label!r})")

        # Throughput path: stream everything, labels come back in order.
        correct = 0
        for predicted, truth in zip(
            service.predict_stream("function-2", iter(data.records)), data.labels
        ):
            correct += predicted == truth
        print(f"streamed {len(data)} records, accuracy {correct / len(data):.3f}")

        stats = service.stats("function-2")
        print(
            f"{stats.batches} micro-batches, mean size {stats.mean_batch_size:.0f}, "
            f"{stats.records_per_second:,.0f} records/s in-batch"
        )


if __name__ == "__main__":
    main()
