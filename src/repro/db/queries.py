"""In-database rule quality: support, coverage, confidence, confusion.

Rule quality is usually computed by pulling tuples out and replaying the
rules in Python; against a loaded :class:`~repro.db.store.TupleStore` both
reports come back from aggregation queries instead:

* :func:`rule_quality` — one ``SELECT`` with one conditional-``SUM``
  aggregate per rule (tuples covered) plus ``COUNT(*)``, grouped by the
  stored label; a single scan evaluates each rule predicate once per tuple,
  whatever the rule count.  A rule's coverage is its sum over the groups,
  its correct count the sum in the group labelled with its consequent, and
  each result feeds the same :class:`~repro.rules.ruleset.RuleStatistics`
  the paper's Table 3 uses.
* :func:`confusion_matrix` — the full
  :class:`~repro.metrics.classification.ConfusionMatrix` from one
  ``GROUP BY (true label, CASE-predicted label)``.  The predicted label is
  the same ``CASE`` expression the pushdown classifier scans with — a
  nested decision tree for rule sets of more than eight rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, TYPE_CHECKING

from repro.db.dialect import SQLITE, SqlDialect
from repro.db.store import TupleStore
from repro.exceptions import DatabaseError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.metrics.classification import ConfusionMatrix
    from repro.rules.rule import AttributeRule
    from repro.rules.ruleset import RuleSet, RuleStatistics


@dataclass(frozen=True)
class SqlRuleQuality:
    """Quality of one rule over the whole stored relation.

    ``covered`` counts tuples satisfying the antecedent, ``correct`` those
    whose stored label equals the consequent, ``n_rows`` the relation size.
    The derived ratios follow the association-rule vocabulary: *coverage* is
    ``covered / n_rows``, *support* is ``correct / n_rows`` (antecedent and
    consequent together) and *confidence* is ``correct / covered``.
    """

    rule_index: int
    consequent: str
    covered: int
    correct: int
    n_rows: int

    @property
    def coverage(self) -> float:
        return self.covered / self.n_rows if self.n_rows else float("nan")

    @property
    def support(self) -> float:
        return self.correct / self.n_rows if self.n_rows else float("nan")

    @property
    def confidence(self) -> float:
        """NaN when the rule covers nothing (an undefined ratio must not
        read as perfect — same convention as the per-class metrics)."""
        return self.correct / self.covered if self.covered else float("nan")

    def statistics(self) -> "RuleStatistics":
        """The Table-3 form consumed by :mod:`repro.metrics.rules_metrics`."""
        from repro.rules.ruleset import RuleStatistics

        return RuleStatistics(
            rule_index=self.rule_index,
            consequent=self.consequent,
            total=self.covered,
            correct=self.correct,
        )


def rule_quality_sql(
    ruleset: "RuleSet[AttributeRule]",
    table: str,
    class_column: str = "class",
    dialect: SqlDialect = SQLITE,
) -> str:
    """The single-scan per-rule quality ``SELECT``, one row per stored label.

    Each row holds the label, then one ``label = consequent`` flag per
    distinct consequent (in order of first appearance), then each rule's
    covered count and the group's ``COUNT(*)``.  Every rule is evaluated
    independently (no first-match shadowing), which is exactly what the
    paper's Table 3 reports.
    """
    from repro.rules.serialization import rule_to_sql

    label = dialect.quote(class_column)
    parts: List[str] = [f"  {label}"]
    for index, consequent in enumerate(_consequents(ruleset)):
        parts.append(
            f"  {label} = {dialect.literal(consequent)} "
            f"AS {dialect.quote(f'is_consequent_{index}')}"
        )
    for index, rule in enumerate(ruleset.rules):
        parts.append(
            f"  SUM(CASE WHEN {rule_to_sql(rule, dialect)} THEN 1 ELSE 0 END) "
            f"AS {dialect.quote(f'covered_{index}')}"
        )
    parts.append("  COUNT(*) AS n_rows")
    body = ",\n".join(parts)
    # Ordinal position, not the name: see confusion_sql.
    return f"SELECT\n{body}\nFROM {dialect.quote_qualified(table)}\nGROUP BY 1"


def _consequents(ruleset: "RuleSet[AttributeRule]") -> List:
    """The distinct rule consequents, in order of first appearance."""
    return list(dict.fromkeys(rule.consequent for rule in ruleset.rules))


def _check_evaluable(store: TupleStore, ruleset: "RuleSet[AttributeRule]") -> None:
    """Reject rule sets the stored relation cannot evaluate.

    Binary rules have no relational form, and a rule naming an attribute
    outside the store schema must error rather than silently reporting zero
    coverage (SQLite's double-quoted-string fallback would turn the unknown
    quoted identifier into a never-matching string literal).
    """
    if ruleset.rules and ruleset.is_binary:
        raise DatabaseError(
            f"rule set {ruleset.name!r} holds binary rules; translate them to "
            "attribute conditions before in-database evaluation"
        )
    missing = [a for a in ruleset.referenced_attributes() if a not in store.schema]
    if missing:
        raise DatabaseError(
            f"rule set {ruleset.name!r} references attributes outside the "
            f"store schema: {missing}"
        )


def rule_quality(store: TupleStore, ruleset: "RuleSet[AttributeRule]") -> List[SqlRuleQuality]:
    """Per-rule quality of ``ruleset`` over every stored tuple, in rule order."""
    _check_evaluable(store, ruleset)
    if not ruleset.rules:
        return []
    sql = rule_quality_sql(ruleset, store.table, store.class_column)
    with store.lock:
        store._require_table()
        groups = store.connection.execute(sql).fetchall()
    # Row layout: label, one flag per consequent, one count per rule, size.
    # An empty relation has no groups, so every sum below is 0.
    consequents = _consequents(ruleset)
    flag_of = {c: 1 + i for i, c in enumerate(consequents)}
    first_count = 1 + len(consequents)
    n_rows = sum(int(group[-1]) for group in groups)
    qualities: List[SqlRuleQuality] = []
    for index, rule in enumerate(ruleset.rules):
        column = first_count + index
        flag = flag_of[rule.consequent]
        qualities.append(
            SqlRuleQuality(
                rule_index=index,
                consequent=rule.consequent,
                covered=sum(int(group[column]) for group in groups),
                correct=sum(int(group[column]) for group in groups if group[flag]),
                n_rows=n_rows,
            )
        )
    return qualities


def classification_preview_sql(
    ruleset: "RuleSet[AttributeRule]",
    table: str,
    dialect: SqlDialect = SQLITE,
) -> str:
    """Every stored column plus the ``CASE``-predicted label, as one query.

    The ``db sql`` transcript ends with this statement so the emitted script
    is runnable end to end: create, insert, then see each tuple next to its
    rule-predicted class.
    """
    from repro.rules.serialization import ruleset_to_case_expression

    case = ruleset_to_case_expression(ruleset, dialect=dialect)
    return f"SELECT *,\n{case}\nFROM {dialect.quote_qualified(table)}"


def confusion_sql(
    ruleset: "RuleSet[AttributeRule]",
    table: str,
    class_column: str = "class",
    dialect: SqlDialect = SQLITE,
) -> str:
    """The one-``GROUP BY`` confusion-matrix query."""
    from repro.rules.serialization import ruleset_to_case_expression

    case = ruleset_to_case_expression(ruleset, column="predicted", dialect=dialect)
    label = dialect.quote(class_column)
    truth = dialect.quote("truth")
    return (
        f"SELECT {label} AS {truth}, {case}, COUNT(*)\n"
        f"FROM {dialect.quote_qualified(table)}\n"
        # Ordinal positions, not aliases: GROUP BY "predicted" would bind to
        # a *source column* of that name (e.g. class_column="predicted"),
        # merging rows with different CASE outcomes.
        f"GROUP BY 1, 2"
    )


def confusion_matrix(
    store: TupleStore, ruleset: "RuleSet[AttributeRule]"
) -> "ConfusionMatrix":
    """The full confusion matrix of ``ruleset`` against the stored labels.

    One ``GROUP BY`` over (stored label, ``CASE``-predicted label); the
    grouped counts build a :class:`ConfusionMatrix` directly — no label
    arrays ever leave the database.
    """
    from repro.metrics.classification import ConfusionMatrix

    _check_evaluable(store, ruleset)
    sql = confusion_sql(ruleset, store.table, store.class_column)
    with store.lock:
        store._require_table()
        counts = {
            (truth, predicted): int(count)
            for truth, predicted, count in store.connection.execute(sql).fetchall()
        }
    return ConfusionMatrix.from_counts(ruleset.classes, counts)
