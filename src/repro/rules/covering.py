"""Perfect-cover rule generation over small discrete tables.

Steps 2 and 3 of the paper's rule-extraction algorithm RX both reduce to the
same sub-problem: given a small table whose columns take a handful of discrete
values (discretised hidden activations in step 2, binary inputs in step 3) and
whose rows each carry an outcome, "generate perfect rules that have a perfect
cover of all the tuples" — i.e. a set of conjunctions over ``column = value``
literals that

* never cover a row with a different outcome (consistency), and
* together cover every row with the target outcome (completeness).

The paper delegates this to the authors' X2R rule generator, which is not
published; this module provides a deterministic equivalent: start from a fully
specified row, greedily drop literals while consistency is preserved (yielding
a maximally general conjunction), repeat until every target row is covered,
then drop redundant conjunctions.  On the tables RX produces (tens of rows,
single-digit column counts) this is exact and instantaneous.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Sequence, Tuple

from repro.exceptions import RuleError

Value = Hashable
Conjunction = Dict[str, Value]


@dataclass
class DiscreteTable:
    """A labelled table over discrete-valued columns.

    Rows are tuples of values aligned with ``columns``; ``outcomes`` holds one
    label per row.  Duplicate rows are allowed as long as they agree on the
    outcome; contradictory duplicates are rejected because no consistent rule
    set can exist for them.
    """

    columns: List[str]
    rows: List[Tuple[Value, ...]]
    outcomes: List[Value]
    _seen: Dict[Tuple[Value, ...], Value] = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.rows) != len(self.outcomes):
            raise RuleError(
                f"rows ({len(self.rows)}) and outcomes ({len(self.outcomes)}) differ in length"
            )
        if not self.columns:
            raise RuleError("a discrete table needs at least one column")
        width = len(self.columns)
        for row in self.rows:
            if len(row) != width:
                raise RuleError(
                    f"row {row!r} has {len(row)} values but the table has {width} columns"
                )
        for row, outcome in zip(self.rows, self.outcomes):
            previous = self._seen.get(row)
            if previous is not None and previous != outcome:
                raise RuleError(
                    f"contradictory outcomes for row {row!r}: {previous!r} vs {outcome!r}"
                )
            self._seen[row] = outcome

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def outcome_values(self) -> List[Value]:
        """Distinct outcomes, in first-appearance order."""
        seen: List[Value] = []
        for outcome in self.outcomes:
            if outcome not in seen:
                seen.append(outcome)
        return seen

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError as exc:
            raise RuleError(f"unknown column {name!r}; known: {self.columns}") from exc


def _covers(conjunction: Conjunction, column_index: Dict[str, int], row: Tuple[Value, ...]) -> bool:
    return all(row[column_index[name]] == value for name, value in conjunction.items())


def generate_perfect_rules(table: DiscreteTable, target: Value) -> List[Conjunction]:
    """Generate a consistent, complete set of conjunctions for ``target``.

    Returns a list of conjunctions (mappings ``column -> value``).  Each
    conjunction covers at least one target row and no non-target row; the
    union covers every target row.  Returns an empty list when no row has the
    target outcome.
    """
    column_index = {name: i for i, name in enumerate(table.columns)}
    positives = [row for row, outcome in zip(table.rows, table.outcomes) if outcome == target]
    negatives = [row for row, outcome in zip(table.rows, table.outcomes) if outcome != target]
    # Deduplicate while keeping deterministic order.
    positives = list(dict.fromkeys(positives))
    negatives = list(dict.fromkeys(negatives))
    if not positives:
        return []

    rules: List[Conjunction] = []
    uncovered = list(positives)

    while uncovered:
        seed = uncovered[0]
        conjunction: Conjunction = {
            name: seed[column_index[name]] for name in table.columns
        }
        # Greedily drop literals while no negative row becomes covered.
        improved = True
        while improved:
            improved = False
            best_drop = None
            best_gain = -1
            for name in list(conjunction):
                candidate = {k: v for k, v in conjunction.items() if k != name}
                if any(_covers(candidate, column_index, row) for row in negatives):
                    continue
                gain = sum(1 for row in uncovered if _covers(candidate, column_index, row))
                if gain > best_gain:
                    best_gain = gain
                    best_drop = name
            if best_drop is not None:
                del conjunction[best_drop]
                improved = True
        rules.append(conjunction)
        uncovered = [row for row in uncovered if not _covers(conjunction, column_index, row)]

    return _drop_redundant(rules, positives, column_index)


def _drop_redundant(
    rules: List[Conjunction],
    positives: List[Tuple[Value, ...]],
    column_index: Dict[str, int],
) -> List[Conjunction]:
    """Remove conjunctions whose positive coverage is provided by the others."""
    kept = list(rules)
    changed = True
    while changed:
        changed = False
        for i in range(len(kept) - 1, -1, -1):
            others = kept[:i] + kept[i + 1:]
            if not others:
                continue
            covered_without = {
                row for row in positives if any(_covers(c, column_index, row) for c in others)
            }
            if all(row in covered_without for row in positives if _covers(kept[i], column_index, row)):
                del kept[i]
                changed = True
    return kept


def generate_rules_for_all_outcomes(table: DiscreteTable) -> Dict[Value, List[Conjunction]]:
    """Perfect rules for every outcome value appearing in the table."""
    return {outcome: generate_perfect_rules(table, outcome) for outcome in table.outcome_values()}


def check_perfect_cover(
    table: DiscreteTable, target: Value, rules: Sequence[Conjunction]
) -> bool:
    """Verify consistency and completeness of a rule list for ``target``.

    Exposed for tests and for the property-based checks on the covering
    algorithm (every generated rule set must pass this).
    """
    column_index = {name: i for i, name in enumerate(table.columns)}
    for row, outcome in zip(table.rows, table.outcomes):
        fired = any(_covers(rule, column_index, row) for rule in rules)
        if outcome == target and not fired:
            return False
        if outcome != target and fired:
            return False
    return True
