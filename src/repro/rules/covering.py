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
then drop redundant conjunctions.  RX's tables range from tens of enumerated
rows to the few hundred distinct input patterns observed for a hidden unit
with dozens of connected inputs, so the search runs over integer-coded row
blocks: each column's values are numbered, and which rows a conjunction
admits when it loses one literal follows from each row's mismatch count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Sequence, Tuple

import numpy as np

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
    positives = [row for row, outcome in zip(table.rows, table.outcomes) if outcome == target]
    negatives = [row for row, outcome in zip(table.rows, table.outcomes) if outcome != target]
    # Deduplicate while keeping deterministic order.
    positives = list(dict.fromkeys(positives))
    negatives = list(dict.fromkeys(negatives))
    if not positives:
        return []

    # A conjunction holds one literal per column *name*, read from the last
    # column of that name, in first-appearance order.
    column_index = {name: i for i, name in enumerate(table.columns)}
    names = list(column_index)
    columns = [column_index[name] for name in names]
    pos, neg = _value_codes(columns, positives, negatives)

    rules: List[Conjunction] = []
    covers: List[np.ndarray] = []  # each rule's cover of `positives`
    uncovered = np.arange(len(positives))

    while uncovered.size:
        seed = uncovered[0]
        # Literals kept so far, and each row's mismatches against them: a
        # row is covered at 0 mismatches, and dropping literal d admits the
        # rows whose one mismatch is d.
        kept = np.ones(len(names), dtype=bool)
        neg_miss = neg != pos[seed]
        unc_miss = pos[uncovered] != pos[seed]
        neg_count = neg_miss.sum(axis=1)
        unc_count = unc_miss.sum(axis=1)
        # Greedily drop literals while no negative row becomes covered:
        # the allowed drop admitting the most uncovered rows, the first
        # literal winning ties.  A covered negative blocks every drop.
        while not (neg_count == 0).any():
            allowed = kept & ~(neg_miss[neg_count == 1].any(axis=0))
            if not allowed.any():
                break
            gain = unc_miss[unc_count == 1].sum(axis=0)
            drop = int(np.argmax(np.where(allowed, gain, -1)))
            kept[drop] = False
            neg_count -= neg_miss[:, drop]
            unc_count -= unc_miss[:, drop]
        rules.append(
            {names[j]: positives[seed][columns[j]] for j in np.flatnonzero(kept)}
        )
        covers.append((pos[:, kept] == pos[seed, kept]).all(axis=1))
        uncovered = uncovered[unc_count != 0]

    return _drop_redundant(rules, np.vstack(covers))


def _value_codes(
    columns: List[int],
    positives: List[Tuple[Value, ...]],
    negatives: List[Tuple[Value, ...]],
) -> Tuple[np.ndarray, np.ndarray]:
    """The rows' values at ``columns`` as integer codes, numbered per column,
    so that two rows agree on a column exactly when their codes do."""
    lookups: List[Dict[Value, int]] = [{} for _ in columns]
    codes = np.array(
        [
            [lookup.setdefault(row[c], len(lookup)) for lookup, c in zip(lookups, columns)]
            for row in positives + negatives
        ],
        dtype=np.int64,
    ).reshape(len(positives) + len(negatives), len(columns))
    return codes[: len(positives)], codes[len(positives) :]


def _drop_redundant(rules: List[Conjunction], covers: np.ndarray) -> List[Conjunction]:
    """Remove conjunctions whose positive coverage is provided by the others.

    ``covers[r, p]`` tells whether rule ``r`` covers positive row ``p``.  A
    rule goes when every row it covers is covered twice among the rules
    still kept; the sweep runs from the last rule to the first and repeats
    until a sweep drops nothing.
    """
    kept = list(range(len(rules)))
    counts = covers.sum(axis=0)
    changed = True
    while changed:
        changed = False
        for i in range(len(kept) - 1, -1, -1):
            if len(kept) == 1:
                continue
            cover = covers[kept[i]]
            if (counts[cover] >= 2).all():
                counts -= cover
                del kept[i]
                changed = True
    return [rules[r] for r in kept]


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
