"""The rule compiler: lowering rule sets to NumPy boolean-mask evaluation.

A :class:`~repro.rules.ruleset.RuleSet` is an ordered list of conjunctions
with first-match semantics.  Evaluating it record by record costs
``O(n_records * n_rules * n_conditions)`` Python-level operations — far too
slow for the data-mining workloads the paper targets.  The compiler lowers a
rule set once into flat NumPy structures so that a whole batch is classified
with a handful of vectorised operations:

* **Binary rules** (conjunctions of ``I_k = 0/1`` literals over the encoded
  inputs) become two ``(n_rules, n_inputs)`` indicator matrices ``pos`` and
  ``neg``.  For a binarised batch ``X`` the rule ``r`` fires on row ``i``
  exactly when ``X[i] @ pos[r] == pos_count[r]`` (every required-1 input is 1)
  and ``X[i] @ neg[r] == 0`` (no required-0 input is 1) — two matrix products
  for the entire rule set.
* **Attribute rules** (interval/membership conditions over the original
  attributes) become per-column comparison plans evaluated on columnar views
  of the batch, one vectorised comparison per condition instead of one Python
  call per record per condition.

Both compiled forms share the first-match + default-class decision:
``argmax`` over the boolean fire matrix picks the first firing rule, rows
where no rule fires take the default class.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro.data.dataset import Record
from repro.exceptions import RuleError
from repro.inference.columns import ColumnCache
from repro.inference.predictor import class_array
from repro.rules.conditions import (
    IntervalCondition,
    MembershipCondition,
    input_is_set,
)
from repro.rules.rule import AttributeRule, BinaryRule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.rules.ruleset import RuleSet


def _decide_first_match(
    fired: np.ndarray, rule_class_indices: np.ndarray, default_index: int
) -> np.ndarray:
    """First-match decision over a boolean ``(n, n_rules)`` fire matrix."""
    n = fired.shape[0]
    if fired.shape[1] == 0:
        return np.full(n, default_index, dtype=int)
    first = np.argmax(fired, axis=1)  # index of the first True per row
    any_fired = fired.any(axis=1)
    return np.where(any_fired, rule_class_indices[first], default_index)


class CompiledBinaryRuleSet:
    """A binary rule set lowered to indicator-matrix evaluation."""

    kind = "binary"

    def __init__(
        self,
        rules: Sequence[BinaryRule],
        classes: Sequence[str],
        default_class: str,
        n_inputs: Optional[int] = None,
    ) -> None:
        self.classes: Tuple[str, ...] = tuple(classes)
        self._class_array = class_array(self.classes)
        index = {label: i for i, label in enumerate(self.classes)}
        self.default_index = index[default_class]
        self.rule_class_indices = np.asarray(
            [index[rule.consequent] for rule in rules], dtype=int
        )
        self.n_rules = len(rules)
        max_index = max(
            (l.input_index for rule in rules for l in rule.literals), default=-1
        )
        self.min_inputs = max_index + 1
        if n_inputs is not None and n_inputs < self.min_inputs:
            raise RuleError(
                f"rule set references input index {max_index} but the declared "
                f"input width is only {n_inputs}"
            )
        self.n_inputs = n_inputs if n_inputs is not None else self.min_inputs
        # Indicator matrices over the declared width; masks for wider input
        # matrices are derived (and cached) on demand.
        self._literals: List[Tuple[List[int], List[int]]] = []
        for rule in rules:
            pos = [l.input_index for l in rule.literals if l.value == 1]
            neg = [l.input_index for l in rule.literals if l.value == 0]
            self._literals.append((pos, neg))
        self._mask_cache: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def _masks(self, width: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        cached = self._mask_cache.get(width)
        if cached is not None:
            return cached
        pos = np.zeros((self.n_rules, width), dtype=float)
        neg = np.zeros((self.n_rules, width), dtype=float)
        for row, (pos_idx, neg_idx) in enumerate(self._literals):
            pos[row, pos_idx] = 1.0
            neg[row, neg_idx] = 1.0
        pos_counts = pos.sum(axis=1)
        self._mask_cache[width] = (pos, neg, pos_counts)
        return self._mask_cache[width]

    # Below this many total literals, per-column comparisons touch far less
    # memory than binarising the whole matrix for the matmul formulation.
    COLUMNWISE_LITERAL_LIMIT = 64

    def covers_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Boolean ``(n, n_rules)`` matrix: which rule fires on which row.

        Every rule is evaluated independently (no first-match shadowing) —
        this is what the per-rule statistics of the paper's Table 3 need.
        Inputs are binarised with the shared
        :func:`~repro.rules.conditions.input_is_set` rule, so the result is
        identical to the per-record reference path on every numeric input.

        Small rule sets (the common case for extracted rules) are evaluated
        column by column, touching only the inputs the literals reference;
        large rule sets switch to the two-matrix-product formulation, whose
        one-off binarisation cost is amortised over many rules.
        """
        matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        if matrix.shape[1] < self.min_inputs:
            raise RuleError(
                f"encoded matrix has {matrix.shape[1]} columns but the rule set "
                f"references inputs up to index {self.min_inputs - 1}"
            )
        n = matrix.shape[0]
        total_literals = sum(len(pos) + len(neg) for pos, neg in self._literals)
        if total_literals <= self.COLUMNWISE_LITERAL_LIMIT:
            fired = np.empty((n, self.n_rules), dtype=bool)
            for row, (pos_idx, neg_idx) in enumerate(self._literals):
                mask = np.ones(n, dtype=bool)
                for index in pos_idx:
                    mask &= input_is_set(matrix[:, index])
                for index in neg_idx:
                    mask &= ~input_is_set(matrix[:, index])
                fired[:, row] = mask
            return fired
        binary = input_is_set(matrix).astype(float)
        pos, neg, pos_counts = self._masks(matrix.shape[1])
        pos_hits = binary @ pos.T
        neg_hits = binary @ neg.T
        return (pos_hits == pos_counts) & (neg_hits == 0.0)

    def predict_indices(self, matrix: np.ndarray) -> np.ndarray:
        """Integer class indices for a whole encoded batch."""
        return _decide_first_match(
            self.covers_matrix(matrix), self.rule_class_indices, self.default_index
        )

    def predict_batch(self, matrix: np.ndarray) -> np.ndarray:
        """Class labels (``object`` dtype) for a whole encoded batch."""
        return self._class_array[self.predict_indices(matrix)]


class CompiledAttributeRuleSet:
    """An attribute rule set lowered to columnar comparison plans."""

    kind = "attribute"

    def __init__(
        self,
        rules: Sequence[AttributeRule],
        classes: Sequence[str],
        default_class: str,
    ) -> None:
        self.classes: Tuple[str, ...] = tuple(classes)
        self._class_array = class_array(self.classes)
        index = {label: i for i, label in enumerate(self.classes)}
        self.default_index = index[default_class]
        self.rule_class_indices = np.asarray(
            [index[rule.consequent] for rule in rules], dtype=int
        )
        self.n_rules = len(rules)
        self.rules = list(rules)

    @staticmethod
    def _condition_mask(condition, columns: ColumnCache, n: int) -> Optional[np.ndarray]:
        """Vectorised evaluation of one condition; ``None`` means trivial."""
        if isinstance(condition, IntervalCondition):
            interval = condition.interval
            if interval.unbounded:
                # Still touch the column so missing attributes are reported,
                # exactly as the per-record matches() would.
                columns.values(condition.attribute)
                return None
            values = columns.numeric(condition.attribute)
            mask = np.ones(n, dtype=bool)
            if interval.low is not None:
                mask &= (
                    values >= interval.low
                    if interval.low_inclusive
                    else values > interval.low
                )
            if interval.high is not None:
                mask &= (
                    values <= interval.high
                    if interval.high_inclusive
                    else values < interval.high
                )
            return mask
        if isinstance(condition, MembershipCondition):
            if condition.is_trivial():
                columns.values(condition.attribute)
                return None
            return columns.membership(
                condition.attribute, condition.allowed, condition.domain
            )
        raise RuleError(f"cannot compile condition of type {type(condition).__name__}")

    def covers_matrix(self, records) -> np.ndarray:
        """Boolean ``(n, n_rules)`` matrix of independent rule coverage.

        ``records`` is a sequence of record mappings or a
        :class:`~repro.data.dataset.Dataset`; datasets feed their column
        arrays straight into the cache without materialising dicts.

        Columnar evaluation is *strict*: every record must carry (with a
        usable value) every attribute referenced by any rule, because whole
        columns are materialised up front.  The per-record path short-circuits
        at the first matching rule and may never look at a later rule's
        attributes; for such malformed records the batch path raises
        :class:`RuleError` where ``predict_record`` could still answer.
        """
        n = len(records)
        columns = ColumnCache(records)
        fired = np.ones((n, self.n_rules), dtype=bool)
        # Extracted rule sets repeat conditions across rules (the same age
        # band guards several disjuncts), so each distinct condition — they
        # are hashable frozen dataclasses — is evaluated once per batch.
        memo: Dict = {}
        for row, rule in enumerate(self.rules):
            mask: Optional[np.ndarray] = None
            for condition in rule.conditions:
                if condition in memo:
                    condition_mask = memo[condition]
                else:
                    condition_mask = self._condition_mask(condition, columns, n)
                    memo[condition] = condition_mask
                if condition_mask is None:
                    continue
                mask = condition_mask if mask is None else mask & condition_mask
            if mask is not None:
                fired[:, row] = mask
        return fired

    def predict_indices(self, records) -> np.ndarray:
        """Integer class indices for a whole batch of records (or a Dataset)."""
        return _decide_first_match(
            self.covers_matrix(records), self.rule_class_indices, self.default_index
        )

    def predict_batch(self, records) -> np.ndarray:
        """Class labels (``object`` dtype) for a whole batch of records (or a
        Dataset)."""
        return self._class_array[self.predict_indices(records)]


CompiledRuleSet = (CompiledBinaryRuleSet, CompiledAttributeRuleSet)


def compile_ruleset(
    ruleset: "RuleSet", n_inputs: Optional[int] = None
):
    """Lower a :class:`RuleSet` into its compiled batch-evaluation form.

    Binary rule sets compile to :class:`CompiledBinaryRuleSet` (evaluated on
    encoded matrices), attribute rule sets to
    :class:`CompiledAttributeRuleSet` (evaluated on record batches).  An empty
    rule set compiles to the binary form, which degenerates to "always the
    default class" and accepts any input width.
    """
    rules = list(ruleset.rules)
    if rules and isinstance(rules[0], AttributeRule):
        if not all(isinstance(rule, AttributeRule) for rule in rules):
            raise RuleError("cannot compile a rule set mixing rule types")
        return CompiledAttributeRuleSet(rules, ruleset.classes, ruleset.default_class)
    if not all(isinstance(rule, BinaryRule) for rule in rules):
        raise RuleError("cannot compile a rule set mixing rule types")
    return CompiledBinaryRuleSet(
        rules, ruleset.classes, ruleset.default_class, n_inputs=n_inputs
    )
