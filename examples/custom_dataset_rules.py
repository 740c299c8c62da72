"""Mine rules from your own tabular data.

The paper's pipeline is not tied to the Agrawal benchmark: any table of
numeric and categorical attributes with a class column works.  This example
shows the pieces a downstream user typically touches:

* declaring a :class:`Schema` for their attributes,
* choosing a binary coding (here: an explicit thermometer coding for the
  numeric attributes, so the rule thresholds land on meaningful values),
* fitting the pipeline and inspecting every intermediate artefact,
* evaluating the extracted rules per class and per rule.

The data set is a synthetic "customer churn" table with a known generating
concept plus label noise, so you can judge how close the mined rules get.

Run with::

    python examples/custom_dataset_rules.py
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
from repro.metrics.comparison import accuracy_by_class
from repro.metrics.rules_metrics import per_rule_accuracy_table
from repro.preprocessing.discretization import ExplicitCutsDiscretizer
from repro.preprocessing.encoder import TupleEncoder
from repro.preprocessing.onehot import OneHotEncoder
from repro.preprocessing.thermometer import OrdinalThermometerEncoder, ThermometerEncoder


def churn_schema() -> Schema:
    return Schema(
        attributes=[
            ContinuousAttribute("monthly_fee", 10.0, 120.0),
            ContinuousAttribute("tenure_months", 0.0, 72.0, integer=True),
            CategoricalAttribute("support_calls", (0, 1, 2, 3, 4, 5), ordered=True),
            CategoricalAttribute("contract", ("monthly", "yearly", "two_year")),
        ],
        classes=("churn", "stay"),
    )


def generate_customers(n: int, seed: int, noise: float = 0.05) -> Dataset:
    """Synthetic churn data: expensive + short-tenure + monthly contracts churn."""
    schema = churn_schema()
    rng = np.random.default_rng(seed)
    records, labels = [], []
    contracts = ("monthly", "yearly", "two_year")
    for _ in range(n):
        record = {
            "monthly_fee": float(rng.uniform(10, 120)),
            "tenure_months": float(rng.integers(0, 73)),
            "support_calls": int(rng.integers(0, 6)),
            "contract": contracts[int(rng.integers(0, 3))],
        }
        churns = (
            record["contract"] == "monthly"
            and record["monthly_fee"] >= 70
            and record["tenure_months"] < 24
        ) or record["support_calls"] >= 4
        if rng.uniform() < noise:
            churns = not churns
        records.append(record)
        labels.append("churn" if churns else "stay")
    return Dataset.from_records(schema, records, labels)


def churn_encoder(schema: Schema) -> TupleEncoder:
    """A hand-chosen coding: thresholds at business-meaningful values."""
    fee = schema.attribute("monthly_fee")
    tenure = schema.attribute("tenure_months")
    return TupleEncoder(
        schema,
        {
            "monthly_fee": ThermometerEncoder(
                fee, ExplicitCutsDiscretizer([30, 50, 70, 90]).partition(fee)
            ),
            "tenure_months": ThermometerEncoder(
                tenure, ExplicitCutsDiscretizer([12, 24, 48]).partition(tenure)
            ),
            "support_calls": OrdinalThermometerEncoder(schema.attribute("support_calls")),
            "contract": OneHotEncoder(schema.attribute("contract")),
        },
    )


def main() -> None:
    schema = churn_schema()
    train = generate_customers(600, seed=0)
    test = generate_customers(600, seed=1, noise=0.0)
    print("Training data:", train.summary())

    config = NeuroRuleConfig.fast(n_hidden=4, seed=3)
    # The training labels carry 5 % noise; dropping extracted rules that do
    # not improve training accuracy keeps the rule list readable.
    config.prune_redundant_rules = True
    classifier = NeuroRuleClassifier(config, encoder=churn_encoder(schema))
    classifier.fit(train)

    print()
    print(classifier.summary())
    print()
    print("Extracted rules:")
    print(classifier.describe_rules())

    print()
    print(f"Rule accuracy on clean held-out data: {classifier.score(test):.3f}")
    per_class = accuracy_by_class(classifier.rules_, test)
    for label, value in per_class.items():
        print(f"  recall for class {label!r}: {value:.3f}")

    print()
    print("Per-rule coverage and precision on the held-out data:")
    table = per_rule_accuracy_table(classifier.rules_, [test])
    print(table.describe())


if __name__ == "__main__":
    main()
