"""Quickstart: mine classification rules from a neural network.

This is the smallest end-to-end use of the library: create a labelled
dataset, fit a :class:`NeuroRuleClassifier`, and print the extracted rules.
The data here is a synthetic "loan approval" table whose true concept is
``income >= 40k and age < 55`` — small enough that the whole run takes a few
seconds and the extracted rules can be checked by eye.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    CategoricalAttribute,
    ContinuousAttribute,
    Dataset,
    NeuroRuleClassifier,
    NeuroRuleConfig,
    Schema,
)


def build_dataset(n: int = 400, seed: int = 0) -> Dataset:
    """A synthetic loan-approval table with a known generating rule."""
    schema = Schema(
        attributes=[
            ContinuousAttribute("income", 0.0, 100_000.0),
            ContinuousAttribute("age", 18.0, 80.0, integer=True),
            CategoricalAttribute("owns_home", (0, 1), ordered=True),
        ],
        classes=("approve", "reject"),
    )
    rng = np.random.default_rng(seed)
    records = []
    labels = []
    for _ in range(n):
        income = float(rng.uniform(0, 100_000))
        age = float(rng.integers(18, 81))
        owns_home = int(rng.integers(0, 2))
        records.append({"income": income, "age": age, "owns_home": owns_home})
        labels.append("approve" if income >= 40_000 and age < 55 else "reject")
    return Dataset.from_records(schema, records, labels)


def main() -> None:
    train = build_dataset(n=400, seed=0)
    test = build_dataset(n=400, seed=1)
    print("Training data:", train.summary())

    classifier = NeuroRuleClassifier(NeuroRuleConfig.fast(n_hidden=3, seed=2))
    classifier.fit(train)

    print()
    print(classifier.summary())
    print()
    print("Extracted rules:")
    print(classifier.describe_rules())
    print()
    print(f"Rule accuracy on held-out data : {classifier.score(test):.3f}")
    print(f"Network accuracy on held-out   : {classifier.score_network(test):.3f}")

    example = {"income": 62_000.0, "age": 35.0, "owns_home": 1}
    print()
    print(f"Prediction for {example}: {classifier.predict_record(example)}")


if __name__ == "__main__":
    main()
