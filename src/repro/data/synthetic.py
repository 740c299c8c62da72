"""Auxiliary synthetic data sets.

Besides the Agrawal benchmark, the paper mentions one more workload: a
"genetic classification problem with 60 attributes" that forces the recursive
hidden-node-splitting step of Section 3.2 (the data set itself is
unpublished).  This module provides

* :func:`wide_binary_dataset` — a synthetic wide binary classification task
  whose generating rule involves many inputs, so a trained hidden node ends
  up connected to many inputs and the splitting step has something to do;
* :func:`boolean_function_dataset` — exhaustive or sampled truth tables of an
  arbitrary boolean function, used heavily by unit and property tests of the
  rule-extraction machinery;
* :func:`xor_dataset` — the classic non-linearly-separable sanity check for
  the network trainer.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.data.schema import CategoricalAttribute, Schema
from repro.exceptions import DataGenerationError

BooleanFunction = Callable[[Sequence[int]], bool]


def binary_schema(n_inputs: int, classes: Sequence[str] = ("A", "B")) -> Schema:
    """Schema with ``n_inputs`` binary attributes named ``x1 .. xn``."""
    if n_inputs < 1:
        raise DataGenerationError(f"need at least one input, got {n_inputs}")
    attributes = [
        CategoricalAttribute(f"x{i + 1}", (0, 1), ordered=True) for i in range(n_inputs)
    ]
    return Schema(attributes=attributes, classes=tuple(classes))


def boolean_function_dataset(
    n_inputs: int,
    function: BooleanFunction,
    n_samples: Optional[int] = None,
    seed: Optional[int] = None,
) -> Dataset:
    """Dataset labelled by an arbitrary boolean function of binary inputs.

    Parameters
    ----------
    n_inputs:
        Number of binary attributes.
    function:
        Predicate mapping a bit vector to ``True`` (class ``"A"``) or
        ``False`` (class ``"B"``).
    n_samples:
        When ``None`` the complete truth table (``2**n_inputs`` rows) is
        enumerated; otherwise ``n_samples`` rows are drawn uniformly at
        random with replacement.
    seed:
        Random seed, only used when sampling.
    """
    schema = binary_schema(n_inputs)
    if n_samples is None:
        if n_inputs > 16:
            raise DataGenerationError(
                "refusing to enumerate a truth table with more than 2**16 rows; "
                "pass n_samples to sample instead"
            )
        bits = np.asarray(list(product((0, 1), repeat=n_inputs)), dtype=np.int64)
    else:
        if n_samples <= 0:
            raise DataGenerationError(f"n_samples must be positive, got {n_samples}")
        rng = np.random.default_rng(seed)
        # One draw for the whole (n_samples, n_inputs) matrix; the row-major
        # fill consumes the stream exactly like the old per-record loop did.
        bits = rng.integers(0, 2, size=(n_samples, n_inputs), dtype=np.int64)
    labels = np.asarray(
        ["A" if function(tuple(row)) else "B" for row in bits.tolist()]
    )
    columns = {f"x{i + 1}": bits[:, i] for i in range(n_inputs)}
    return Dataset(schema, columns, labels, validate=False)


def xor_dataset(n_copies: int = 1) -> Dataset:
    """The 4-row XOR truth table, optionally replicated ``n_copies`` times.

    XOR is the canonical test that a hidden layer is actually being used: no
    single-layer (linear) classifier can fit it.
    """
    if n_copies < 1:
        raise DataGenerationError(f"n_copies must be >= 1, got {n_copies}")
    base = boolean_function_dataset(2, lambda bits: bool(bits[0]) != bool(bits[1]))
    dataset = base
    for _ in range(n_copies - 1):
        dataset = dataset.concat(base)
    return dataset


def wide_binary_dataset(
    n_inputs: int = 20,
    n_relevant: int = 8,
    n_samples: int = 400,
    seed: Optional[int] = None,
) -> Dataset:
    """A wide binary classification task with a many-input generating rule.

    The label is ``"A"`` when at least half of the first ``n_relevant``
    inputs are set.  Because the rule genuinely depends on ``n_relevant``
    inputs, a pruned network keeps a hidden node with many incoming links —
    exactly the situation in which Section 3.2 resorts to training a
    subnetwork for that hidden node.
    """
    if not (1 <= n_relevant <= n_inputs):
        raise DataGenerationError(
            f"n_relevant must be in [1, n_inputs]; got {n_relevant} with n_inputs={n_inputs}"
        )
    threshold = (n_relevant + 1) // 2

    def majority(bits: Sequence[int]) -> bool:
        return sum(bits[:n_relevant]) >= threshold

    return boolean_function_dataset(n_inputs, majority, n_samples=n_samples, seed=seed)
