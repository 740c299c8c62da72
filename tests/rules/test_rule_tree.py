"""Tests of the first-match decision tree behind the SQL ``CASE`` renderer.

The oracle is the flat first-match ``CASE`` — one ``WHEN`` arm per
satisfiable rule, built here from :func:`rule_to_sql` exactly as the
renderer did before rule sets were compiled into trees.  Every label the
nested ``CASE`` assigns is checked against it by executing both on SQLite,
over rows that sit exactly on the rule bounds, fall outside the categorical
domains, store REAL values in INTEGER columns, or hold NULLs.
"""

import itertools
import re
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.schema import ContinuousAttribute, Schema
from repro.db.dialect import ANSI, MYSQL, SQLITE
from repro.db.predictor import SqlRulePredictor
from repro.db.queries import confusion_matrix
from repro.db.store import TupleStore
from repro.preprocessing.intervals import Interval
from repro.rules.conditions import IntervalCondition, MembershipCondition
from repro.rules.rule import AttributeRule
from repro.rules.rule_tree import (
    LEAF_RULES,
    MAX_TESTS,
    RuleLeaf,
    RuleSplit,
    build_rule_tree,
)
from repro.rules.ruleset import RuleSet
from repro.rules.serialization import rule_to_sql, ruleset_to_case_expression

CLASSES = ("A", "B", "C")
DEFAULT = "B"

#: Bounds come from a small grid so rows land exactly on them.
GRID = {"x": (0, 1, 2, 3, 4), "y": (0.0, 1.0, 2.5, 4.0)}
DOMAINS = {"c": (0, 1, 2, 3, 4, 5), "s": ("a", "b", "c")}

#: Column values: the grid itself, points between and beyond it (REAL
#: values in the INTEGER column ``x``), values outside the categorical
#: domains, and NULL.
VALUES = {
    "x": (None, -1, 0, 1, 1.5, 2, 3, 3.5, 4, 5),
    "y": (None, -1.0, 0.0, 0.5, 1.0, 2.5, 3.0, 4.0, 5.0),
    "c": (None, 0, 1, 2, 3, 4, 5, 7, 1.5),
    "s": (None, "a", "b", "c", "zz"),
}


def flat_case_expression(ruleset, column="predicted_class", dialect=ANSI):
    """The pre-tree renderer: one ``WHEN`` arm per satisfiable rule."""
    satisfiable = [rule for rule in ruleset.rules if rule.is_satisfiable()]
    quoted = dialect.quote(column)
    if not satisfiable:
        return f"{dialect.literal(ruleset.default_class)} AS {quoted}"
    lines = ["CASE"]
    for rule in satisfiable:
        lines.append(
            f"  WHEN {rule_to_sql(rule, dialect)} "
            f"THEN {dialect.literal(rule.consequent)}"
        )
    lines.append(f"  ELSE {dialect.literal(ruleset.default_class)}")
    lines.append(f"END AS {quoted}")
    return "\n".join(lines)


def case_nesting(sql):
    """The deepest ``CASE`` nesting in ``sql``."""
    depth = deepest = 0
    for token in re.findall(r"\b(CASE|END)\b", sql):
        depth += 1 if token == "CASE" else -1
        deepest = max(deepest, depth)
    assert depth == 0
    return deepest


@st.composite
def intervals(draw, attribute):
    low, high = sorted(
        draw(st.lists(st.sampled_from(GRID[attribute]), min_size=2, max_size=2))
    )
    low, high = draw(st.sampled_from(((low, None), (None, high), (low, high))))
    return IntervalCondition(
        attribute,
        Interval(
            low,
            high,
            low_inclusive=draw(st.booleans()),
            high_inclusive=draw(st.booleans()),
        ),
        integer=attribute == "x",
    )


@st.composite
def memberships(draw, attribute):
    domain = DOMAINS[attribute]
    allowed = draw(
        st.one_of(
            st.sampled_from(domain).map(lambda v: (v,)),
            st.lists(st.sampled_from(domain), min_size=2, unique=True).map(tuple),
        )
    )
    return MembershipCondition(attribute, allowed, domain)


@st.composite
def rules(draw, consequents=st.sampled_from(CLASSES)):
    attributes = draw(
        st.lists(st.sampled_from(sorted(VALUES)), min_size=1, max_size=3, unique=True)
    )
    conditions = tuple(
        draw(intervals(a) if a in GRID else memberships(a)) for a in attributes
    )
    return AttributeRule(conditions, draw(consequents))


@st.composite
def rulesets(draw, min_rules, max_rules):
    """Ordered rule lists with mixed consequents; optionally an always-true
    rule part-way down (after at least ``min_rules`` rules, so the list
    does not collapse to a short one) and a trailing run of
    default-consequent rules."""
    listed = draw(st.lists(rules(), min_size=min_rules, max_size=max_rules))
    if draw(st.booleans()):
        position = draw(st.integers(min_rules, len(listed)))
        listed.insert(position, AttributeRule((), draw(st.sampled_from(CLASSES))))
    listed += draw(
        st.lists(rules(consequents=st.just(DEFAULT)), max_size=3)
    )
    return RuleSet(listed, default_class=DEFAULT, classes=CLASSES)


@pytest.fixture(scope="module")
def rows():
    """Every combination of the column values, in a table without NOT NULL."""
    connection = sqlite3.connect(":memory:")
    connection.execute('CREATE TABLE "t" ("x" INTEGER, "y" REAL, "c" INTEGER, "s" TEXT)')
    names = ("x", "y", "c", "s")
    connection.executemany(
        "INSERT INTO t VALUES (?, ?, ?, ?)",
        itertools.product(*(VALUES[name] for name in names)),
    )
    yield connection
    connection.close()


class TestTreeMatchesFlatCase:
    @settings(max_examples=120, deadline=None)
    @given(ruleset=rulesets(9, 40))
    def test_labels_equal_the_flat_first_match_case(self, rows, ruleset):
        flat = flat_case_expression(ruleset, column="flat", dialect=SQLITE)
        tree = ruleset_to_case_expression(ruleset, column="tree", dialect=SQLITE)
        assert case_nesting(tree) <= MAX_TESTS + 1
        differing = rows.execute(
            f"SELECT COUNT(*) FROM (SELECT {flat}, {tree} FROM t) WHERE flat IS NOT tree"
        ).fetchone()[0]
        assert differing == 0

    @settings(max_examples=60, deadline=None)
    @given(ruleset=rulesets(0, LEAF_RULES - 4))  # at most 4 + 1 + 3 rules
    def test_short_rule_sets_render_byte_identically(self, ruleset):
        for dialect in (ANSI, SQLITE, MYSQL):
            assert ruleset_to_case_expression(
                ruleset, dialect=dialect
            ) == flat_case_expression(ruleset, dialect=dialect)


def threshold_ruleset(n_rules):
    """``n_rules`` rules, each a unit interval of ``x`` on its own bounds."""
    listed = [
        AttributeRule(
            (IntervalCondition("x", Interval(float(i), float(i + 1))),),
            "A" if i % 2 else "C",
        )
        for i in range(n_rules)
    ]
    return RuleSet(listed, default_class=DEFAULT, classes=CLASSES)


def leaves(tree, depth=0):
    if isinstance(tree, RuleLeaf):
        return [(depth, tree)]
    return leaves(tree.then, depth + 1) + leaves(tree.otherwise, depth + 1)


class TestDepth:
    def test_tree_is_capped_and_splits_long_lists(self):
        tree = build_rule_tree(threshold_ruleset(200).rules, DEFAULT)
        assert isinstance(tree, RuleSplit)
        found = leaves(tree)
        assert max(depth for depth, _ in found) <= MAX_TESTS
        assert all(len(leaf.rules) <= LEAF_RULES for _, leaf in found)

    def test_200_rules_execute_in_create_table_as_and_group_by(self):
        """SQLite's parser overflows on deeply nested CASE; the capped tree
        must run inside ``CREATE TABLE AS`` and the confusion ``GROUP BY``."""
        ruleset = threshold_ruleset(200)
        schema = Schema(
            attributes=[ContinuousAttribute("x", -1.0, 201.0)], classes=CLASSES
        )
        records = [{"x": v / 2} for v in range(-2, 404)]
        expected = ruleset.predict_batch(records).tolist()
        assert case_nesting(ruleset_to_case_expression(ruleset)) <= MAX_TESTS + 1
        with TupleStore(schema) as store:
            store.create()
            store.load_records(
                ({**record, "class": label} for record, label in zip(records, expected)),
                label_key="class",
            )
            predictor = SqlRulePredictor(ruleset, store=store)
            assert predictor.classify_into("labels") == len(records)
            stored = [
                row[0]
                for row in store.connection.execute(
                    'SELECT * FROM "labels" ORDER BY rowid'
                )
            ]
            matrix = confusion_matrix(store, ruleset)
        assert stored == expected
        assert matrix.total == len(records)
        assert matrix.accuracy() == 1.0
