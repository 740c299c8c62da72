"""``lock-discipline``: state guarded by a lock stays guarded everywhere.

The serving service and the tuple store are mutated from thread-pool
dispatch threads and the callers' threads at once;
their correctness contract is "every mutation of shared state happens under
``self._lock``".  That contract is easy to break one edit at a time — a new
``close()`` path, a lazily-initialised connection — and the breakage is a
data race, not a test failure.

The rule is inferred per class, not hard-coded: for every class that binds a
lock attribute (``self._lock`` / ``self.lock``), collect the attributes it
mutates inside ``with self._lock:`` blocks — those are the *guarded set* —
then flag any mutation of a guarded attribute outside a lock block.
Constructors are exempt (no concurrent access before ``__init__`` returns).
Mutation means assignment (`self.x = …`, `self.x += …`), item assignment
(`self.x[k] = …`, `del self.x[k]`) or calling a mutating method
(``self.x.append(…)``, ``.pop``, ``.clear``, ``.observe``, …).

The static rule is paired with the dynamic tracer in
:mod:`repro.analysis.racecheck`, which catches the cross-object cases
(e.g. ``ModelStats`` instances guarded by the *service's* lock) that a
lexical analysis cannot see.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Set, Tuple

from repro.analysis.base import BaseChecker, is_self_attribute, register_checker
from repro.analysis.context import AnalysisContext, SourceModule
from repro.analysis.findings import Finding

#: Attribute names recognised as the instance's lock.
LOCK_ATTRIBUTES: Tuple[str, ...] = ("_lock", "lock")

#: Method names that mutate their receiver in place.
MUTATING_METHODS: Set[str] = {
    "append",
    "extend",
    "insert",
    "add",
    "remove",
    "discard",
    "pop",
    "popleft",
    "popitem",
    "appendleft",
    "clear",
    "update",
    "setdefault",
    "observe",
    "sort",
    "reverse",
}

#: Methods that run before (or without) concurrent access and are exempt.
EXEMPT_METHODS: Set[str] = {"__init__", "__post_init__", "__new__", "__del__"}


def _is_lock_context(item: ast.withitem) -> bool:
    return is_self_attribute(item.context_expr, LOCK_ATTRIBUTES)


class _Mutation:
    __slots__ = ("attr", "node", "how")

    def __init__(self, attr: str, node: ast.AST, how: str) -> None:
        self.attr = attr
        self.node = node
        self.how = how


def _iter_mutations(node: ast.AST) -> Iterator[_Mutation]:
    """Every ``self.<attr>`` mutation in ``node`` (non-recursive over classes)."""
    for inner in ast.walk(node):
        if isinstance(inner, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets: List[ast.AST]
            if isinstance(inner, ast.Assign):
                targets = list(inner.targets)
            else:
                targets = [inner.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    yield _Mutation(target.attr, inner, "assignment")
                elif isinstance(target, ast.Subscript) and (
                    isinstance(target.value, ast.Attribute)
                    and isinstance(target.value.value, ast.Name)
                    and target.value.value.id == "self"
                ):
                    yield _Mutation(target.value.attr, inner, "item assignment")
        elif isinstance(inner, ast.Delete):
            for target in inner.targets:
                if isinstance(target, ast.Subscript) and (
                    isinstance(target.value, ast.Attribute)
                    and isinstance(target.value.value, ast.Name)
                    and target.value.value.id == "self"
                ):
                    yield _Mutation(target.value.attr, inner, "item deletion")
        elif isinstance(inner, ast.Call) and isinstance(inner.func, ast.Attribute):
            receiver = inner.func.value
            if (
                inner.func.attr in MUTATING_METHODS
                and isinstance(receiver, ast.Attribute)
                and isinstance(receiver.value, ast.Name)
                and receiver.value.id == "self"
            ):
                yield _Mutation(
                    receiver.attr, inner, f".{inner.func.attr}() call"
                )


def _split_by_lock(
    method: ast.AST,
) -> Tuple[List[ast.AST], List[ast.AST]]:
    """Partition a method body into locked and unlocked regions.

    Returns ``(locked_roots, unlocked_roots)`` — the statement subtrees
    inside ``with self._lock:`` blocks, and the method body with those
    subtrees pruned out (approximated by collecting every with-lock node and
    later excluding any mutation positioned inside one).
    """
    locked: List[ast.AST] = []
    for node in ast.walk(method):
        if isinstance(node, (ast.With, ast.AsyncWith)) and any(
            _is_lock_context(item) for item in node.items
        ):
            locked.append(node)
    return locked, [method]


def _inside_any(node: ast.AST, containers: List[ast.AST]) -> bool:
    for container in containers:
        for inner in ast.walk(container):
            if inner is node:
                return True
    return False


def _class_methods(cls: ast.ClassDef) -> Iterator[ast.FunctionDef]:
    for item in cls.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield item


def _binds_lock(cls: ast.ClassDef) -> bool:
    for method in _class_methods(cls):
        for node in ast.walk(method):
            if isinstance(node, ast.Assign) and any(
                is_self_attribute(target, LOCK_ATTRIBUTES)
                for target in node.targets
            ):
                return True
    return False


@register_checker
class LockDisciplineChecker(BaseChecker):
    """Lock-guarded attributes must never be mutated outside the lock."""

    name = "lock-discipline"
    description = (
        "an attribute mutated under `with self._lock:` in a lock-owning "
        "class is also mutated outside the lock"
    )

    def check(
        self, module: SourceModule, context: AnalysisContext
    ) -> Iterable[Finding]:
        for cls in (n for n in ast.walk(module.tree) if isinstance(n, ast.ClassDef)):
            if not _binds_lock(cls):
                continue

            # Pass 1: the guarded set — attributes mutated under the lock
            # anywhere in the class (constructors included: an attribute
            # initialised under the lock is guarded from birth).
            guarded: Set[str] = set()
            locked_regions: Dict[str, List[ast.AST]] = {}
            for method in _class_methods(cls):
                locked, _ = _split_by_lock(method)
                locked_regions[method.name] = locked
                for region in locked:
                    for mutation in _iter_mutations(region):
                        guarded.add(mutation.attr)
            guarded -= set(LOCK_ATTRIBUTES)
            if not guarded:
                continue

            # Pass 2: mutations of guarded attributes outside every lock
            # region (constructors exempt).
            for method in _class_methods(cls):
                if method.name in EXEMPT_METHODS:
                    continue
                locked = locked_regions.get(method.name, [])
                for mutation in _iter_mutations(method):
                    if mutation.attr not in guarded:
                        continue
                    if _inside_any(mutation.node, locked):
                        continue
                    yield self.finding(
                        module,
                        mutation.node,
                        f"{cls.name}.{mutation.attr} is guarded by "
                        f"self._lock elsewhere but mutated here "
                        f"({mutation.how} in {method.name}()) without "
                        "holding it — a data race under the thread-pool "
                        "dispatch",
                    )
