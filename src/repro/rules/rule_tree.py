"""First-match decision trees: an ordered rule list compiled for dispatch.

A first-match classifier tries its rules in order, so a tuple that no rule
covers pays for every rule before it reaches the default class.  NeuroRule's
rule sets make that the common case: every mined rule predicts the same
class and the default is the other one (Figure 5), so most tuples walk the
whole list.  :func:`build_rule_tree` compiles the list into a binary tree of
single-attribute tests whose leaves are short rule lists.  Each tuple
reaches exactly one leaf, and the first rule of that leaf that covers the
tuple is the first rule of the original list that covers it — so the tree
labels every tuple exactly as the flat list does, while a tuple only tests
the few rules that can still fire for it.

The tree is pure data over the rule types of :mod:`repro.rules.rule`; its
SQL form is rendered by
:func:`repro.rules.serialization.ruleset_to_case_expression` as a nested
``CASE``.  Construction looks only at the rules — no data, no statistics.

**Tests.**  Candidate tests come from the remaining rules' own conditions:
``a < v`` or ``a <= v`` at each interval bound (the side of the bound the
rule excludes), and ``a IN S`` for each membership condition.  The chosen
test minimises the larger branch's rule count, ties going to the smaller
total.

**Branches.**  The tree is evaluated the way SQL evaluates ``CASE WHEN test
THEN ... ELSE ... END``: a row takes the THEN branch only when the test is
true, so ``a`` is known to be non-NULL there, and a row whose ``a`` is NULL
takes the ELSE branch.  Hence

* THEN drops every rule whose condition on ``a`` is disjoint from the test,
  and drops the bounds and values the test already guarantees (an implied
  upper bound; membership values outside ``S``);
* ELSE drops every rule whose condition on ``a`` implies the test — such a
  rule cannot fire on a row that fails the test, NULL or not — and
  simplifies nothing else.

Both branches keep the original rule order.  Every list is then cut after
its first rule with no remaining condition (nothing after it can fire), and
a trailing run of default-class rules is dropped (the fall-through gives
the same label).

Bounds compare in one total order, which is how SQL compares a numeric
column: interval conditions must constrain numeric columns, as the tuple
store declares every continuous attribute (``REAL`` or ``INTEGER``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Tuple, Union

from repro.preprocessing.intervals import Interval
from repro.rules.conditions import IntervalCondition, MembershipCondition
from repro.rules.rule import AttributeCondition, AttributeRule

#: Rule lists of at most this many rules stay flat: rule sets this short are
#: never split, and splitting stops once a branch is down to this many.
LEAF_RULES = 8

#: The most tests on any root-to-leaf path.  Rendered, each test is one
#: nested ``CASE`` and the leaf adds one more, so SQL nests at most
#: ``MAX_TESTS + 1`` deep; SQLite's parser overflows its stack somewhere
#: past 16 nested ``CASE`` expressions.
MAX_TESTS = 5


@dataclass(frozen=True)
class RuleLeaf:
    """An ordered first-match rule list, evaluated as-is."""

    rules: Tuple[AttributeRule, ...]


@dataclass(frozen=True)
class RuleSplit:
    """``test`` decides the branch: ``then`` when it is true, ``otherwise``
    when it is false or unknown (a NULL attribute).

    ``test`` is an :class:`IntervalCondition` with only an upper bound
    (``a < v`` / ``a <= v``) or a :class:`MembershipCondition` (``a IN S``).
    """

    test: AttributeCondition
    then: "RuleTree"
    otherwise: "RuleTree"


RuleTree = Union[RuleLeaf, RuleSplit]

#: Cut keys order bounds on one attribute: ``(v, 0)`` sits just below
#: ``v`` (between ``a < v`` and ``a >= v``), ``(v, 1)`` just above it
#: (between ``a <= v`` and ``a > v``).  Tree construction works on their
#: ranks.
_CutKey = Tuple[float, int]
#: Ranks standing for an absent bound; ``_FREE`` is the bounds entry of a
#: rule with no interval on the attribute.
_NO_LOW = -1
_NO_HIGH = 1 << 62
_FREE = (_NO_LOW, _NO_HIGH, None)


def _low_key(interval: Interval) -> Optional[_CutKey]:
    if interval.low is None:
        return None
    return (interval.low, 0 if interval.low_inclusive else 1)


def _high_key(interval: Interval) -> Optional[_CutKey]:
    if interval.high is None:
        return None
    return (interval.high, 1 if interval.high_inclusive else 0)


class _Cuts:
    """Every bound of the rule set, ranked per attribute."""

    def __init__(self, rules: Sequence[AttributeRule]) -> None:
        keys: Dict[str, set] = {}
        for rule in rules:
            for condition in rule.conditions:
                if isinstance(condition, IntervalCondition):
                    bucket = keys.setdefault(condition.attribute, set())
                    bucket.update(
                        key
                        for key in (_low_key(condition.interval), _high_key(condition.interval))
                        if key is not None
                    )
        self.keys: Dict[str, List[_CutKey]] = {a: sorted(k) for a, k in keys.items()}
        self.rank: Dict[Tuple[str, _CutKey], int] = {
            (attribute, key): index
            for attribute, ordered in self.keys.items()
            for index, key in enumerate(ordered)
        }

    def bounds(self, condition: IntervalCondition) -> Tuple[int, int]:
        """The condition's (lower, upper) cut ranks; absent bounds are open."""
        low = _low_key(condition.interval)
        high = _high_key(condition.interval)
        return (
            _NO_LOW if low is None else self.rank[(condition.attribute, low)],
            _NO_HIGH if high is None else self.rank[(condition.attribute, high)],
        )

    def test(self, attribute: str, cut: int) -> IntervalCondition:
        """The test selecting values below cut ``cut`` of ``attribute``."""
        value, above = self.keys[attribute][cut]
        return IntervalCondition(
            attribute, Interval(None, value, high_inclusive=bool(above))
        )


class _Arm:
    """One rule during tree construction: its remaining non-trivial conditions,
    interval conditions with their cut ranks, memberships with their value
    sets."""

    __slots__ = ("consequent", "bounds", "members", "rule")

    def __init__(
        self,
        consequent: Hashable,
        bounds: Dict[str, Tuple[int, int, IntervalCondition]],
        members: Dict[str, Tuple[FrozenSet, MembershipCondition]],
        rule: Optional[AttributeRule] = None,
    ) -> None:
        self.consequent = consequent
        self.bounds = bounds
        self.members = members
        #: The rule this arm still equals, or None once a branch changed it.
        self.rule = rule

    @classmethod
    def of(cls, rule: AttributeRule, cuts: _Cuts) -> "_Arm":
        arm = cls(rule.consequent, {}, {}, rule)
        for condition in rule.conditions:
            if not condition.is_trivial():
                arm._set(condition, cuts)
        return arm

    def _set(self, condition: AttributeCondition, cuts: _Cuts) -> None:
        if isinstance(condition, IntervalCondition):
            self.bounds[condition.attribute] = (*cuts.bounds(condition), condition)
        else:
            self.members[condition.attribute] = (frozenset(condition.allowed), condition)

    @property
    def unconditional(self) -> bool:
        return not self.bounds and not self.members

    def replace(
        self, attribute: str, condition: Optional[AttributeCondition], cuts: _Cuts
    ) -> "_Arm":
        """This arm with its condition on ``attribute`` replaced (or dropped)."""
        arm = _Arm(
            self.consequent,
            {a: b for a, b in self.bounds.items() if a != attribute},
            {a: m for a, m in self.members.items() if a != attribute},
        )
        if condition is not None:
            arm._set(condition, cuts)
        return arm

    def to_rule(self) -> AttributeRule:
        if self.rule is None:
            conditions = [c for _, _, c in self.bounds.values()]
            conditions += [c for _, c in self.members.values()]
            self.rule = AttributeRule(tuple(conditions), self.consequent)
        return self.rule


def _prune(arms: List[_Arm], default_class: Hashable) -> List[_Arm]:
    """Cut after the first unconditional arm, then drop trailing defaults."""
    for index, arm in enumerate(arms):
        if arm.unconditional:
            arms = arms[: index + 1]
            break
    end = len(arms)
    while end and arms[end - 1].consequent == default_class:
        end -= 1
    return arms[:end]


def _interval_sizes(arms: List[_Arm], attribute: str, cut: int) -> Tuple[int, int]:
    """(THEN, ELSE) arm counts for the test "below cut ``cut``"."""
    then = sum(1 for arm in arms if arm.bounds.get(attribute, _FREE)[0] < cut)
    otherwise = sum(1 for arm in arms if arm.bounds.get(attribute, _FREE)[1] > cut)
    return then, otherwise


def _membership_sizes(arms: List[_Arm], attribute: str, values: FrozenSet) -> Tuple[int, int]:
    """(THEN, ELSE) arm counts for the test ``attribute IN values``."""
    then = otherwise = 0
    for arm in arms:
        entry = arm.members.get(attribute)
        if entry is None:
            then += 1
            otherwise += 1
            continue
        allowed = entry[0]
        then += not allowed.isdisjoint(values)
        otherwise += not allowed <= values
    return then, otherwise


def _best_test(arms: List[_Arm]) -> Union[Tuple[str, int], MembershipCondition, None]:
    """The candidate test minimising (larger branch, total): an interval cut
    as ``(attribute, cut rank)`` or a membership condition.  None when no
    test leaves both branches shorter than ``arms``."""
    intervals: Dict[Tuple[str, int], None] = {}
    memberships: Dict[Tuple[str, FrozenSet], MembershipCondition] = {}
    for arm in arms:
        for attribute, (low, high, _) in arm.bounds.items():
            if low != _NO_LOW:
                intervals[(attribute, low)] = None
            if high != _NO_HIGH:
                intervals[(attribute, high)] = None
        for attribute, (values, condition) in arm.members.items():
            memberships.setdefault((attribute, values), condition)
    best: Union[Tuple[str, int], MembershipCondition, None] = None
    best_score = (len(arms), 2 * len(arms))
    for attribute, cut in intervals:
        then, otherwise = _interval_sizes(arms, attribute, cut)
        score = (max(then, otherwise), then + otherwise)
        if score < best_score:
            best, best_score = (attribute, cut), score
    for (attribute, values), condition in memberships.items():
        then, otherwise = _membership_sizes(arms, attribute, values)
        score = (max(then, otherwise), then + otherwise)
        if score < best_score:
            best, best_score = condition, score
    return best


def _split_interval(
    arms: List[_Arm], attribute: str, cut: int, cuts: _Cuts
) -> Tuple[List[_Arm], List[_Arm]]:
    then: List[_Arm] = []
    otherwise: List[_Arm] = []
    for arm in arms:
        entry = arm.bounds.get(attribute)
        if entry is None:
            then.append(arm)
            otherwise.append(arm)
            continue
        low, high, condition = entry
        if low < cut:  # not disjoint from the test
            if high >= cut:  # the test guarantees the upper bound
                interval = condition.interval
                lower = None
                if interval.low is not None:
                    lower = IntervalCondition(
                        attribute,
                        Interval(interval.low, None, low_inclusive=interval.low_inclusive),
                        integer=condition.integer,
                    )
                then.append(arm.replace(attribute, lower, cuts))
            else:
                then.append(arm)
        if high > cut:  # does not imply the test
            otherwise.append(arm)
    return then, otherwise


def _split_membership(
    arms: List[_Arm], test: MembershipCondition, cuts: _Cuts
) -> Tuple[List[_Arm], List[_Arm]]:
    attribute = test.attribute
    values = frozenset(test.allowed)
    then: List[_Arm] = []
    otherwise: List[_Arm] = []
    for arm in arms:
        entry = arm.members.get(attribute)
        if entry is None:
            then.append(arm)
            otherwise.append(arm)
            continue
        allowed, condition = entry
        if allowed >= values:
            then.append(arm.replace(attribute, None, cuts))
        elif not allowed.isdisjoint(values):
            narrowed = MembershipCondition(
                attribute,
                tuple(v for v in condition.allowed if v in values),
                condition.domain,
            )
            then.append(arm.replace(attribute, narrowed, cuts))
        if not allowed <= values:
            otherwise.append(arm)
    return then, otherwise


def _build(arms: List[_Arm], default_class: Hashable, cuts: _Cuts, depth: int) -> RuleTree:
    arms = _prune(arms, default_class)
    best = None
    if len(arms) > LEAF_RULES and depth < MAX_TESTS:
        best = _best_test(arms)
    if best is None:
        return RuleLeaf(tuple(arm.to_rule() for arm in arms))
    if isinstance(best, MembershipCondition):
        test: AttributeCondition = best
        then, otherwise = _split_membership(arms, best, cuts)
    else:
        test = cuts.test(*best)
        then, otherwise = _split_interval(arms, *best, cuts)
    return RuleSplit(
        test,
        _build(then, default_class, cuts, depth + 1),
        _build(otherwise, default_class, cuts, depth + 1),
    )


def build_rule_tree(rules: Sequence[AttributeRule], default_class: Hashable) -> RuleTree:
    """Compile an ordered first-match rule list into a :data:`RuleTree`.

    Unsatisfiable rules are skipped.  A list that prunes to at most
    :data:`LEAF_RULES` rules comes back as a single :class:`RuleLeaf`; the
    tree is at most :data:`MAX_TESTS` tests deep.
    """
    satisfiable = [rule for rule in rules if rule.is_satisfiable()]
    cuts = _Cuts(satisfiable)
    return _build([_Arm.of(rule, cuts) for rule in satisfiable], default_class, cuts, 0)
