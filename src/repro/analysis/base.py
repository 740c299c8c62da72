"""The checker protocol and registry — the extractor-zoo pattern, for rules.

Each checker is a class with a ``name`` (the rule id findings carry and
suppressions reference), a one-line ``description`` (the rule catalogue) and
a :meth:`BaseChecker.check` over one parsed module.  Checkers that reason
across files get the whole :class:`~repro.analysis.context.AnalysisContext`
and may override :meth:`BaseChecker.check_project` instead.

Registration mirrors :mod:`repro.extractors.registry`: ``@register_checker``
on the class, :func:`create_checker` / :func:`available_checkers` to look
strategies up by name — adding a rule is one decorated class, not a tour of
the runner.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.analysis.context import AnalysisContext, SourceModule
from repro.analysis.findings import Finding, Severity
from repro.exceptions import AnalysisError


class BaseChecker:
    """Shared harness for one analysis rule.

    Subclasses set :attr:`name`/:attr:`description` and implement either
    :meth:`check` (per-module rules) or :meth:`check_project` (cross-file
    rules); the default :meth:`check_project` fans out over every module.
    """

    #: Rule id: the findings' ``rule`` field and the suppression token.
    name: str = ""
    #: One-line summary for ``analyze --list-rules``.
    description: str = ""
    #: Default severity of this rule's findings.
    severity: Severity = Severity.ERROR

    def finding(
        self,
        module: SourceModule,
        node_or_line: object,
        message: str,
        severity: Optional[Severity] = None,
    ) -> Finding:
        """Build a finding anchored at an AST node (or a raw line number)."""
        if isinstance(node_or_line, int):
            line = node_or_line
        else:
            line = getattr(node_or_line, "lineno", 1)
        return Finding(
            path=module.relpath,
            line=line,
            rule=self.name,
            severity=self.severity if severity is None else severity,
            message=message,
        )

    # -- subclass surface ---------------------------------------------------

    def check(
        self, module: SourceModule, context: AnalysisContext
    ) -> Iterable[Finding]:
        """Findings of this rule in one module (default: none)."""
        return ()

    def check_project(self, context: AnalysisContext) -> Iterator[Finding]:
        """Findings over the whole tree; defaults to per-module fan-out."""
        for module in context:
            for finding in self.check(module, context):
                yield finding


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, Callable[..., BaseChecker]] = {}


def register_checker(factory: Callable[..., BaseChecker]) -> Callable[..., BaseChecker]:
    """Class decorator: register a checker under its ``name`` attribute."""
    name = getattr(factory, "name", None)
    if not isinstance(name, str) or not name:
        raise AnalysisError(
            f"checker {factory!r} must define a non-empty string `name`"
        )
    if name in _REGISTRY and _REGISTRY[name] is not factory:
        raise AnalysisError(f"checker name {name!r} is already registered")
    _REGISTRY[name] = factory
    return factory


def available_checkers() -> List[str]:
    """Registered rule ids, sorted for stable listings."""
    return sorted(_REGISTRY)


def checker_catalogue() -> List[Tuple[str, str, Severity]]:
    """``(name, description, severity)`` of every registered rule."""
    return [
        (name, _REGISTRY[name].description, _REGISTRY[name].severity)
        for name in available_checkers()
    ]


def create_checker(name: str, **kwargs) -> BaseChecker:
    """Instantiate the checker registered under ``name``."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(available_checkers()) or "none registered"
        raise AnalysisError(
            f"unknown checker {name!r}; available: {known}"
        ) from None
    return factory(**kwargs)


# ---------------------------------------------------------------------------
# Small AST helpers shared by several checkers
# ---------------------------------------------------------------------------

def dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for a Name/Attribute chain, ``""`` for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def is_self_attribute(node: ast.AST, names: Iterable[str]) -> bool:
    """True for ``self.<attr>`` where ``attr`` is one of ``names``."""
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr in set(names)
    )
