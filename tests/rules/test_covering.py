"""Tests of the perfect-cover rule generator (the X2R stand-in)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import RuleError
from repro.rules.covering import (
    DiscreteTable,
    check_perfect_cover,
    generate_perfect_rules,
    generate_rules_for_all_outcomes,
)


def and_table():
    """x1 AND x2 over the full 2-bit truth table."""
    rows = [(0, 0), (0, 1), (1, 0), (1, 1)]
    outcomes = ["B", "B", "B", "A"]
    return DiscreteTable(columns=["x1", "x2"], rows=rows, outcomes=outcomes)


def xor_table():
    rows = [(0, 0), (0, 1), (1, 0), (1, 1)]
    outcomes = ["B", "A", "A", "B"]
    return DiscreteTable(columns=["x1", "x2"], rows=rows, outcomes=outcomes)


class TestDiscreteTable:
    def test_row_width_checked(self):
        with pytest.raises(RuleError):
            DiscreteTable(columns=["a", "b"], rows=[(1,)], outcomes=["A"])

    def test_outcome_length_checked(self):
        with pytest.raises(RuleError):
            DiscreteTable(columns=["a"], rows=[(1,)], outcomes=[])

    def test_contradictory_duplicates_rejected(self):
        with pytest.raises(RuleError):
            DiscreteTable(columns=["a"], rows=[(1,), (1,)], outcomes=["A", "B"])

    def test_consistent_duplicates_allowed(self):
        table = DiscreteTable(columns=["a"], rows=[(1,), (1,)], outcomes=["A", "A"])
        assert table.n_rows == 2

    def test_outcome_values_order(self):
        table = xor_table()
        assert table.outcome_values() == ["B", "A"]

    def test_column_index(self):
        assert and_table().column_index("x2") == 1
        with pytest.raises(RuleError):
            and_table().column_index("nope")


class TestGeneratePerfectRules:
    def test_and_function_single_rule(self):
        rules = generate_perfect_rules(and_table(), "A")
        assert rules == [{"x1": 1, "x2": 1}]

    def test_and_function_negative_class(self):
        rules = generate_perfect_rules(and_table(), "B")
        assert check_perfect_cover(and_table(), "B", rules)
        # The minimal DNF for NOT(AND) has two single-literal rules.
        assert len(rules) == 2
        assert all(len(rule) == 1 for rule in rules)

    def test_xor_needs_two_full_rules(self):
        rules = generate_perfect_rules(xor_table(), "A")
        assert check_perfect_cover(xor_table(), "A", rules)
        assert len(rules) == 2
        assert all(len(rule) == 2 for rule in rules)

    def test_no_positive_rows_yields_empty(self):
        table = DiscreteTable(columns=["x"], rows=[(0,), (1,)], outcomes=["B", "B"])
        assert generate_perfect_rules(table, "A") == []

    def test_irrelevant_column_dropped(self):
        rows = [(0, 0), (0, 1), (1, 0), (1, 1)]
        outcomes = ["B", "B", "A", "A"]  # depends only on x1
        table = DiscreteTable(columns=["x1", "x2"], rows=rows, outcomes=outcomes)
        rules = generate_perfect_rules(table, "A")
        assert rules == [{"x1": 1}]

    def test_multivalued_columns(self):
        rows = [(0, "low"), (1, "low"), (2, "low"), (0, "high"), (1, "high"), (2, "high")]
        outcomes = ["B", "A", "A", "B", "B", "A"]
        table = DiscreteTable(columns=["grade", "income"], rows=rows, outcomes=outcomes)
        rules = generate_perfect_rules(table, "A")
        assert check_perfect_cover(table, "A", rules)

    def test_all_outcomes_helper(self):
        rules = generate_rules_for_all_outcomes(xor_table())
        assert set(rules) == {"A", "B"}
        assert check_perfect_cover(xor_table(), "A", rules["A"])
        assert check_perfect_cover(xor_table(), "B", rules["B"])

    @settings(max_examples=60, deadline=None)
    @given(
        n_columns=st.integers(min_value=1, max_value=4),
        data=st.data(),
    )
    def test_random_tables_always_perfectly_covered(self, n_columns, data):
        """Property: the generated rules are always consistent and complete."""
        n_rows = data.draw(st.integers(min_value=1, max_value=16))
        rows = data.draw(
            st.lists(
                st.tuples(*[st.integers(min_value=0, max_value=2) for _ in range(n_columns)]),
                min_size=n_rows,
                max_size=n_rows,
                unique=True,
            )
        )
        outcomes = [data.draw(st.sampled_from(["A", "B"])) for _ in rows]
        table = DiscreteTable(
            columns=[f"c{i}" for i in range(n_columns)], rows=rows, outcomes=outcomes
        )
        for target in ("A", "B"):
            rules = generate_perfect_rules(table, target)
            assert check_perfect_cover(table, target, rules)


def _reference_rules(table, target):
    """The covering search spelled out literal by literal over the rows
    themselves: the specification ``generate_perfect_rules`` must match
    rule for rule, in order."""
    index = {name: i for i, name in enumerate(table.columns)}

    def covers(conjunction, row):
        return all(row[index[name]] == value for name, value in conjunction.items())

    positives = list(dict.fromkeys(r for r, o in zip(table.rows, table.outcomes) if o == target))
    negatives = list(dict.fromkeys(r for r, o in zip(table.rows, table.outcomes) if o != target))
    rules, uncovered = [], list(positives)
    while uncovered:
        conjunction = {name: uncovered[0][index[name]] for name in table.columns}
        while True:
            best, best_gain = None, -1
            for name in conjunction:
                candidate = {k: v for k, v in conjunction.items() if k != name}
                if any(covers(candidate, row) for row in negatives):
                    continue
                gain = sum(covers(candidate, row) for row in uncovered)
                if gain > best_gain:
                    best, best_gain = name, gain
            if best is None:
                break
            del conjunction[best]
        rules.append(conjunction)
        uncovered = [row for row in uncovered if not covers(conjunction, row)]
    changed = True
    while changed:
        changed = False
        for i in range(len(rules) - 1, -1, -1):
            others = rules[:i] + rules[i + 1 :]
            if others and all(
                any(covers(c, row) for c in others) for row in positives if covers(rules[i], row)
            ):
                del rules[i]
                changed = True
    return rules


class TestMatchesReferenceSearch:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_tables_give_the_reference_rules(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(12):
            n_columns = int(rng.integers(1, 11))
            columns = [f"c{i}" for i in range(n_columns)]
            if n_columns > 2 and rng.random() < 0.2:
                columns[int(rng.integers(1, n_columns))] = "c0"  # a repeated name
            cardinality = int(rng.integers(2, 5))
            rows = list(
                dict.fromkeys(
                    tuple(int(v) for v in rng.integers(0, cardinality, n_columns))
                    for _ in range(int(rng.integers(1, 60)))
                )
            )
            labels = ["A", "B", "C"][: int(rng.integers(1, 4))]
            outcomes = [labels[int(rng.integers(0, len(labels)))] for _ in rows]
            # Repeated rows (consistent duplicates) are part of the input too.
            table = DiscreteTable(columns, rows + rows[:5], outcomes + outcomes[:5])
            for target in ("A", "B", "C"):
                rules = generate_perfect_rules(table, target)
                reference = _reference_rules(table, target)
                assert [list(r.items()) for r in rules] == [list(r.items()) for r in reference]

    def test_observed_pattern_table_is_covered(self):
        """An RX step-3 sized table: a few hundred distinct 0/1 patterns
        over dozens of connected inputs."""
        rng = np.random.default_rng(7)
        patterns = sorted({tuple(int(b) for b in rng.integers(0, 2, 40)) for _ in range(300)})
        weights = rng.normal(size=40)
        outcomes = [int(np.dot(p, weights) > 0) + int(p[0] and p[1]) for p in patterns]
        table = DiscreteTable([f"x{i}" for i in range(40)], patterns, outcomes)
        for target in (0, 1, 2):
            rules = generate_perfect_rules(table, target)
            assert check_perfect_cover(table, target, rules)
