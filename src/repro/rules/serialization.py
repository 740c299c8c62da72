"""Exporting extracted rules: SQL predicates and JSON documents.

A central motivation of the paper is that *explicit* rules can be used
directly against the database: "with explicit rules, tuples of a certain
pattern can be easily retrieved using a database query language" (Section 1).
This module makes that concrete:

* :func:`rule_to_sql` / :func:`ruleset_to_sql` render attribute rules as SQL
  ``WHERE`` predicates (and full ``SELECT`` statements) so the mined rules can
  be executed against the relation they were mined from;
* :func:`ruleset_to_case_expression` renders the whole classifier as one
  ``CASE`` expression — a flat first-match list up to eight rules, a nested
  first-match decision tree (:mod:`repro.rules.rule_tree`) beyond;
* :func:`ruleset_to_json` / :func:`ruleset_from_json` provide a lossless
  round-trip for persisting rule sets.

All SQL renderers are dialect-aware (see :mod:`repro.db.dialect`): identifiers
are quoted, boolean literals follow the target engine, and constant
predicates render as ``1=1`` / ``0=1`` — the portable spellings; a bare
``TRUE`` in predicate position is invalid in SQLite before 3.23 and several
other dialects.  The rendered statements are *executed*, not just printed:
:mod:`repro.db` runs them against a SQLite tuple store, and
``tests/rules/test_serialization.py`` locks the grammar by execution.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from repro.db.dialect import DEFAULT_DIALECT, SqlDialect
from repro.exceptions import RuleError
from repro.preprocessing.intervals import Interval
from repro.rules.conditions import IntervalCondition, MembershipCondition
from repro.rules.rule import AttributeCondition, AttributeRule
from repro.rules.rule_tree import LEAF_RULES, RuleLeaf, RuleTree, build_rule_tree
from repro.rules.ruleset import RuleSet


# ---------------------------------------------------------------------------
# SQL rendering
# ---------------------------------------------------------------------------

def condition_to_sql(
    condition: AttributeCondition, dialect: SqlDialect = DEFAULT_DIALECT
) -> str:
    """Render one attribute condition as a SQL predicate.

    A trivial (unbounded) condition renders as ``1=1`` and an unsatisfiable
    (empty-membership) condition as ``0=1`` — never as bare ``TRUE`` /
    ``FALSE``, which are not valid predicates in every engine.
    """
    if isinstance(condition, IntervalCondition):
        interval = condition.interval
        name = dialect.quote(condition.attribute)
        parts: List[str] = []
        if interval.low is not None:
            op = ">=" if interval.low_inclusive else ">"
            parts.append(f"{name} {op} {dialect.literal(interval.low)}")
        if interval.high is not None:
            op = "<=" if interval.high_inclusive else "<"
            parts.append(f"{name} {op} {dialect.literal(interval.high)}")
        if not parts:
            return dialect.true_predicate
        return " AND ".join(parts)
    if isinstance(condition, MembershipCondition):
        if not condition.allowed:
            return dialect.false_predicate
        name = dialect.quote(condition.attribute)
        if len(condition.allowed) == 1:
            return f"{name} = {dialect.literal(condition.allowed[0])}"
        values = ", ".join(dialect.literal(v) for v in condition.allowed)
        return f"{name} IN ({values})"
    raise RuleError(f"cannot render condition of type {type(condition).__name__} as SQL")


def rule_to_sql(rule: AttributeRule, dialect: SqlDialect = DEFAULT_DIALECT) -> str:
    """Render a rule's antecedent as a SQL ``WHERE`` predicate."""
    meaningful = [c for c in rule.conditions if not c.is_trivial()]
    if not meaningful:
        return dialect.true_predicate
    return " AND ".join(f"({condition_to_sql(c, dialect)})" for c in meaningful)


def ruleset_to_sql(
    ruleset: RuleSet[AttributeRule],
    table: str,
    class_label: Optional[str] = None,
    dialect: SqlDialect = DEFAULT_DIALECT,
) -> List[str]:
    """Render a rule set as ``SELECT`` statements against ``table``.

    One statement per rule (optionally restricted to rules predicting
    ``class_label``): each retrieves exactly the tuples the rule covers, which
    is the retrieval use-case the paper motivates.  ``table`` may be
    dot-qualified (``main.customers``); every part is quoted, so keyword or
    hostile names cannot change the statement's shape.
    """
    quoted_table = dialect.quote_qualified(table)
    statements: List[str] = []
    for rule in ruleset.rules:
        if class_label is not None and rule.consequent != class_label:
            continue
        statements.append(
            f"SELECT * FROM {quoted_table} WHERE {rule_to_sql(rule, dialect)};"
            f"  -- class {rule.consequent}"
        )
    return statements


def _case_lines(
    rules: Sequence[AttributeRule], default_class: str, dialect: SqlDialect
) -> List[str]:
    """A flat first-match ``CASE`` over ``rules``, one line per arm.

    With no rule the classifier is just the default-class literal (``CASE``
    needs at least one ``WHEN`` arm to be valid SQL).
    """
    default = dialect.literal(default_class)
    if not rules:
        return [default]
    return [
        "CASE",
        *(
            f"  WHEN {rule_to_sql(rule, dialect)} "
            f"THEN {dialect.literal(rule.consequent)}"
            for rule in rules
        ),
        f"  ELSE {default}",
        "END",
    ]


def _tree_lines(tree: RuleTree, default_class: str, dialect: SqlDialect) -> List[str]:
    """A rule tree as nested ``CASE WHEN <test> THEN <subtree> ELSE <subtree>
    END``, each leaf a flat :func:`_case_lines` ``CASE``."""
    if isinstance(tree, RuleLeaf):
        return _case_lines(tree.rules, default_class, dialect)
    lines = ["CASE"]
    for head, subtree in (
        (f"  WHEN {condition_to_sql(tree.test, dialect)} THEN", tree.then),
        ("  ELSE", tree.otherwise),
    ):
        body = _tree_lines(subtree, default_class, dialect)
        if len(body) == 1:
            lines.append(f"{head} {body[0]}")
        else:
            lines.append(head)
            lines.extend(f"    {line}" for line in body)
    lines.append("END")
    return lines


def ruleset_to_case_expression(
    ruleset: RuleSet[AttributeRule],
    column: str = "predicted_class",
    dialect: SqlDialect = DEFAULT_DIALECT,
) -> str:
    """Render the whole classifier as a single SQL ``CASE`` expression.

    First-match semantics map directly onto ``CASE WHEN ... THEN ... ELSE``,
    so the expression labels every tuple exactly as :meth:`RuleSet.predict`
    would.  Unsatisfiable rules (the paper discards rule R'1, which "can
    never be satisfied by any tuple") are skipped instead of emitting dead
    ``WHEN 0=1`` arms; when *no* rule is satisfiable the whole classifier
    collapses to the default-class literal.

    Up to :data:`~repro.rules.rule_tree.LEAF_RULES` satisfiable rules render
    as one flat ``CASE`` with an arm per rule.  A longer list is compiled by
    :func:`~repro.rules.rule_tree.build_rule_tree` into a first-match
    decision tree and renders as nested ``CASE WHEN <test> THEN <subtree>
    ELSE <subtree> END`` whose leaves are flat ``CASE`` lists: a tuple
    evaluates only the tests on its path and the rules of one leaf instead
    of every rule, and still gets exactly the label the flat list gives it
    (NULL attributes included).
    """
    satisfiable = [rule for rule in ruleset.rules if rule.is_satisfiable()]
    if len(satisfiable) > LEAF_RULES:
        tree = build_rule_tree(satisfiable, ruleset.default_class)
        lines = _tree_lines(tree, ruleset.default_class, dialect)
    else:
        lines = _case_lines(satisfiable, ruleset.default_class, dialect)
    lines[-1] += f" AS {dialect.quote(column)}"
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def _condition_to_dict(condition: AttributeCondition) -> Dict:
    if isinstance(condition, IntervalCondition):
        return {
            "type": "interval",
            "attribute": condition.attribute,
            "low": condition.interval.low,
            "high": condition.interval.high,
            "low_inclusive": condition.interval.low_inclusive,
            "high_inclusive": condition.interval.high_inclusive,
            "integer": condition.integer,
        }
    if isinstance(condition, MembershipCondition):
        return {
            "type": "membership",
            "attribute": condition.attribute,
            "allowed": list(condition.allowed),
            "domain": list(condition.domain),
        }
    raise RuleError(f"cannot serialise condition of type {type(condition).__name__}")


def _condition_from_dict(payload: Dict) -> AttributeCondition:
    kind = payload.get("type")
    if kind == "interval":
        return IntervalCondition(
            payload["attribute"],
            Interval(
                low=payload.get("low"),
                high=payload.get("high"),
                low_inclusive=payload.get("low_inclusive", True),
                high_inclusive=payload.get("high_inclusive", False),
            ),
            integer=payload.get("integer", False),
        )
    if kind == "membership":
        return MembershipCondition(
            payload["attribute"],
            tuple(payload["allowed"]),
            tuple(payload["domain"]),
        )
    raise RuleError(f"unknown condition type in JSON payload: {kind!r}")


def ruleset_to_json(
    ruleset: RuleSet[AttributeRule],
    indent: int = 2,
    extractor: Optional[Dict] = None,
) -> str:
    """Serialise an attribute rule set to a JSON document.

    ``extractor`` is optional provenance metadata — typically
    ``{"name": <registered extractor>, "params": {...}}`` — persisted next to
    the rules so an artifact is self-describing about the strategy that
    produced it.  It does not affect the rules themselves and round-trips via
    :func:`ruleset_extractor_metadata`.
    """
    payload: Dict = {
        "name": ruleset.name,
        "classes": list(ruleset.classes),
        "default_class": ruleset.default_class,
        "rules": [
            {
                "consequent": rule.consequent,
                "conditions": [_condition_to_dict(c) for c in rule.conditions],
            }
            for rule in ruleset.rules
        ],
    }
    if extractor is not None:
        payload["extractor"] = extractor
    return json.dumps(payload, indent=indent)


def ruleset_extractor_metadata(document: str) -> Optional[Dict]:
    """The ``extractor`` provenance block of a rules document, if present.

    Documents written before the extractor zoo (or by hand) simply have no
    block; ``None`` distinguishes "unknown provenance" from an empty one.
    """
    try:
        payload = json.loads(document)
    except json.JSONDecodeError as exc:
        raise RuleError(f"invalid rule-set JSON: {exc}") from exc
    metadata = payload.get("extractor")
    if metadata is not None and not isinstance(metadata, dict):
        raise RuleError(
            f"extractor metadata must be an object, got {type(metadata).__name__}"
        )
    return metadata


def ruleset_from_json(document: str) -> RuleSet[AttributeRule]:
    """Reconstruct an attribute rule set from :func:`ruleset_to_json` output."""
    try:
        payload = json.loads(document)
    except json.JSONDecodeError as exc:
        raise RuleError(f"invalid rule-set JSON: {exc}") from exc
    try:
        rules = [
            AttributeRule(
                tuple(_condition_from_dict(c) for c in entry["conditions"]),
                entry["consequent"],
            )
            for entry in payload["rules"]
        ]
        return RuleSet(
            rules=rules,
            default_class=payload["default_class"],
            classes=tuple(payload["classes"]),
            name=payload.get("name", "ruleset"),
        )
    except (KeyError, TypeError) as exc:
        raise RuleError(f"rule-set JSON is missing required fields: {exc}") from exc
