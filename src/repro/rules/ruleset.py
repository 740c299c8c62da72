"""Rule sets: ordered rules plus a default class.

The paper's extracted classifiers have the form "if any of these rules fires,
predict Group A; otherwise predict the default class Group B" (Figure 5).
:class:`RuleSet` generalises that to multiple classes with first-match
semantics and provides the bookkeeping used in the evaluation section:
per-rule coverage and correctness (Table 3), rule-count and condition-count
complexity metrics (the conciseness comparison with C4.5rules), and accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generic, List, Mapping, Optional, Sequence, TypeVar, Union

import numpy as np

from repro.data.dataset import Dataset
from repro.exceptions import RuleError
from repro.rules.rule import AttributeRule, BinaryRule

RuleType = TypeVar("RuleType", AttributeRule, BinaryRule)

# The optional encoder forwarded through predict paths is a
# repro.preprocessing.encoder.TupleEncoder; typed loosely to avoid an import
# cycle (preprocessing does not depend on rules, and must stay that way).


@dataclass
class RuleStatistics:
    """Coverage and correctness of a single rule on a data set.

    ``total`` is the number of tuples the rule fires on, ``correct`` the
    number of those whose true label equals the rule's consequent — exactly
    the two columns of the paper's Table 3.
    """

    rule_index: int
    consequent: str
    total: int
    correct: int

    @property
    def correct_fraction(self) -> float:
        """Fraction of covered tuples classified correctly (1.0 when the rule
        covers nothing, so unused rules do not read as "wrong")."""
        if self.total == 0:
            return 1.0
        return self.correct / self.total

    @property
    def correct_percent(self) -> float:
        return 100.0 * self.correct_fraction


@dataclass
class RuleSet(Generic[RuleType]):
    """An ordered list of rules with a default class.

    Prediction uses first-match semantics: rules are tried in order and the
    first one whose antecedent holds decides the class; if none fires the
    ``default_class`` is predicted.  For the rule sets NeuroRule extracts the
    order is irrelevant (all non-default rules predict the same class), but
    C4.5rules produces genuinely ordered lists, so the general semantics live
    here.
    """

    rules: List[RuleType]
    default_class: str
    classes: Sequence[str]
    name: str = "ruleset"
    _classes: tuple = field(init=False, repr=False)
    _compiled: object = field(init=False, repr=False, default=None, compare=False)
    _compiled_key: tuple = field(init=False, repr=False, default=(), compare=False)

    def __post_init__(self) -> None:
        self._classes = tuple(self.classes)
        if self.default_class not in self._classes:
            raise RuleError(
                f"default class {self.default_class!r} not among classes {self._classes}"
            )
        for rule in self.rules:
            if rule.consequent not in self._classes:
                raise RuleError(
                    f"rule consequent {rule.consequent!r} not among classes {self._classes}"
                )

    # -- structure ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)

    def __getitem__(self, index: int) -> RuleType:
        return self.rules[index]

    @property
    def n_rules(self) -> int:
        return len(self.rules)

    @property
    def total_conditions(self) -> int:
        """Total number of conditions across all rules (a conciseness metric)."""
        return sum(rule.n_conditions for rule in self.rules)

    @property
    def mean_conditions_per_rule(self) -> float:
        if not self.rules:
            return 0.0
        return self.total_conditions / len(self.rules)

    def rules_for_class(self, label: str) -> List[RuleType]:
        """All rules predicting ``label`` (the paper reports e.g. "8 rules
        define the conditions for Group A")."""
        return [rule for rule in self.rules if rule.consequent == label]

    def referenced_attributes(self) -> List[str]:
        """Attributes mentioned by any rule (only meaningful for attribute
        rule sets); used to check the paper's observation that NeuroRule never
        references irrelevant attributes such as ``car``."""
        names: set = set()
        for rule in self.rules:
            if isinstance(rule, AttributeRule):
                names.update(rule.attributes)
        return sorted(names)

    # -- prediction ------------------------------------------------------------

    def compiled(self, n_inputs: Optional[int] = None):
        """The rule set lowered to its vectorised batch-evaluation form.

        The compiled form (see :mod:`repro.inference.compiler`) is cached and
        transparently rebuilt when the rule list changes; all batch prediction
        and statistics below run through it.
        """
        from repro.inference.compiler import compile_ruleset

        # Key on the rule *values* (both rule types are frozen dataclasses):
        # an id()-based key could alias a replaced rule whose id was reused.
        key = (tuple(self.rules), self.default_class, n_inputs)
        if self._compiled is None or self._compiled_key != key:
            self._compiled = compile_ruleset(self, n_inputs=n_inputs)
            self._compiled_key = key
        return self._compiled

    @property
    def is_binary(self) -> bool:
        """True when the rules constrain encoded binary inputs (or the set is
        empty, in which case either evaluation path is valid)."""
        return not self.rules or isinstance(self.rules[0], BinaryRule)

    def predict_record(self, item: Union[Mapping, np.ndarray]) -> str:
        """Predict the class of a single record (attribute rules) or encoded
        vector (binary rules).

        This is the per-record reference semantics; :meth:`predict_batch` is
        guaranteed to produce exactly the same labels (see
        ``tests/integration/test_batch_equivalence.py``).
        """
        for rule in self.rules:
            if rule.covers(item):  # type: ignore[arg-type]
                return rule.consequent
        return self.default_class

    def predict_batch(
        self, items: Union[Dataset, Sequence, np.ndarray], encoder=None
    ) -> np.ndarray:
        """Predict a whole batch in one vectorised pass.

        ``items`` may be a :class:`Dataset`, a sequence of records, or an
        encoded ``(n, n_inputs)`` matrix; inconsistent combinations (an
        encoded matrix with attribute rules, records with binary rules and no
        ``encoder``, 1-D arrays, ...) raise a
        :class:`~repro.exceptions.ReproError` instead of guessing.  Returns
        an ``object``-dtype label array.

        Labels are identical to :meth:`predict_record` per tuple for records
        that carry every attribute any rule references; batch evaluation is
        strict about those attributes (it materialises whole columns), while
        the per-record path short-circuits at the first matching rule.
        """
        from repro.inference.inputs import normalize_batch_input
        from repro.inference.predictor import class_array

        batch = normalize_batch_input(items, encoder=encoder)
        if batch.n == 0:
            return np.empty(0, dtype=object)
        if not self.rules:
            return np.full(batch.n, self.default_class, dtype=object)
        compiled = self.compiled()
        context = f"rule set {self.name!r} ({compiled.kind} rules)"
        if compiled.kind == "binary":
            return compiled.predict_batch(batch.require_matrix(context, encoder=encoder))
        if batch.dataset is not None:
            # Datasets evaluate straight off their column arrays.
            return compiled.predict_batch(batch.dataset)
        return compiled.predict_batch(batch.require_records(context))

    def predict(
        self, items: Union[Dataset, Sequence, np.ndarray], encoder=None
    ) -> List[str]:
        """Predict classes for a dataset, a sequence of records, or an
        encoded input matrix (list-returning wrapper of
        :meth:`predict_batch`)."""
        return self.predict_batch(items, encoder=encoder).tolist()

    def accuracy(self, dataset: Dataset, encoded: Optional[np.ndarray] = None) -> float:
        """Fraction of correctly classified tuples (the paper's equation 6)."""
        from repro.metrics.classification import accuracy  # lazy: avoids import cycle

        if len(dataset) == 0:
            raise RuleError("cannot compute accuracy on an empty dataset")
        predictions = self.predict_batch(encoded if encoded is not None else dataset)
        return accuracy(predictions, dataset.labels)

    # -- per-rule statistics (Table 3) -------------------------------------------

    def rule_statistics(
        self, dataset: Dataset, encoded: Optional[np.ndarray] = None
    ) -> List[RuleStatistics]:
        """Per-rule coverage and correctness, in rule order.

        Each rule is evaluated independently (not first-match): Table 3 of
        the paper reports, for every extracted rule, how many tuples it
        covers and what fraction of those are truly of the rule's class.
        """
        if not self.rules:
            return []
        compiled = self.compiled()
        if compiled.kind == "binary":
            if encoded is None:
                raise RuleError(
                    "binary rule statistics need the encoded input matrix; pass "
                    "encoded= or translate the rules to attribute conditions"
                )
            covered_matrix = compiled.covers_matrix(encoded)
        else:
            covered_matrix = compiled.covers_matrix(dataset)
        labels = np.asarray(dataset.labels, dtype=object)
        consequents = np.asarray([rule.consequent for rule in self.rules], dtype=object)
        label_matches = labels[:, None] == consequents[None, :]
        totals = covered_matrix.sum(axis=0)
        corrects = (covered_matrix & label_matches).sum(axis=0)
        return [
            RuleStatistics(
                rule_index=index,
                consequent=rule.consequent,
                total=int(totals[index]),
                correct=int(corrects[index]),
            )
            for index, rule in enumerate(self.rules)
        ]

    # -- transformation -----------------------------------------------------------

    def without_rule(self, index: int) -> "RuleSet[RuleType]":
        """A copy of the rule set with one rule removed."""
        if not (0 <= index < len(self.rules)):
            raise RuleError(f"rule index {index} out of range 0..{len(self.rules) - 1}")
        remaining = [r for i, r in enumerate(self.rules) if i != index]
        return RuleSet(remaining, self.default_class, self._classes, name=self.name)

    def describe(self) -> str:
        """Multi-line rendering in the style of the paper's Figure 5."""
        lines = [f"Rule set: {self.name}"]
        for i, rule in enumerate(self.rules, start=1):
            lines.append(f"  Rule {i}. {rule.describe()}")
        lines.append(f"  Default rule. {self.default_class}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - thin delegation
        return self.describe()
