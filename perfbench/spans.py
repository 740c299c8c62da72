"""Span recording for the traced run, installed from the benchmark's own files.

``Spans.wrap`` replaces a public method of a program class with a
wrapper that records one span per call: name, start, end, parent span and
thread.  ``uninstall`` restores the originals.  The untraced run never calls
``wrap``, and the benchmark's inline ``spans.span(...)`` blocks are no-ops
there, so end-to-end numbers carry no tracing cost.

A span's self time is its duration minus the durations of its direct
children (children always nest inside their parent on the same thread).
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

now = time.perf_counter


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    thread: int
    start: float
    end: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)
    child_seconds: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_seconds


class Spans:
    """In-memory span store; disabled instances record nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Callable[[], None]] = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def _record(self, name: str, attrs: Dict[str, Any]) -> Iterator[Span]:
        stack = self._stack()
        with self._lock:
            span = Span(
                id=len(self.spans),
                name=name,
                parent=stack[-1].id if stack else None,
                thread=threading.get_ident(),
                start=0.0,
                attrs=attrs,
            )
            self.spans.append(span)
        stack.append(span)
        span.start = now()
        try:
            yield span
        finally:
            span.end = now()
            stack.pop()
            if stack:
                stack[-1].child_seconds += span.seconds

    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        if not self.enabled:
            return nullcontext(None)
        return self._record(name, {})

    # -- wrapping program calls ---------------------------------------------

    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: str,
        on_result: Optional[Callable[[Span, Any], None]] = None,
    ) -> None:
        """Record a span around every call of ``owner.attribute``."""
        original = owner.__dict__[attribute]
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot wrap {name}: static and class methods are not supported")
        record = self._record

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with record(name, {}) as span:
                result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(span, result)
                return result

        setattr(owner, attribute, wrapper)
        self._restore.append(lambda: setattr(owner, attribute, original))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- queries ------------------------------------------------------------

    def named(
        self, name: str, start: float = float("-inf"), end: float = float("inf")
    ) -> List[Span]:
        """Finished spans called ``name`` that began within ``[start, end]``."""
        return [s for s in self.spans if s.name == name and start <= s.start <= end and s.end]

    def within(self, root: Span) -> List[Span]:
        """Every span nested (at any depth) under ``root``."""
        inside = {root.id}
        found = []
        for span in self.spans[root.id + 1 :]:
            if span.parent in inside:
                inside.add(span.id)
                found.append(span)
        return found

    def summary(self) -> List[str]:
        """One line per span name: calls, total and self seconds."""
        totals: Dict[str, List[float]] = {}
        for span in self.spans:
            entry = totals.setdefault(span.name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += span.seconds
            entry[2] += span.self_seconds
        return [
            f"span {name} calls={int(calls)} total_s={total:.4f} self_s={own:.4f}"
            for name, (calls, total, own) in sorted(totals.items(), key=lambda kv: -kv[1][2])
        ]
