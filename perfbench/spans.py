"""Spans recorded from outside the program, around calls into its layers.

The benchmark never edits ``src/``: it replaces a function where its
caller looks it up (a module global or a class attribute) with a
wrapper that opens a span, calls the original and closes the span.
Spans nest on one stack, so a span's *self time* is its duration
minus the part of it that its child spans cover.  Everything stays in
memory and is read out once the run has ended.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

__all__ = ["Tracer", "Patches", "span_wrapper", "grade_of",
           "GRADE_COUNTERS", "GRADES"]

#: Plan-cache read grades, in the order the program resolves them, with
#: the PERF counter whose increment marks each one.  A read that moves
#: none of them ran fully cold.
GRADE_COUNTERS: Tuple[Tuple[str, str], ...] = (
    ("hit", "flow.plan_cache_hits"),
    ("repair", "flow.plan_repairs"),
    ("coarse", "flow.plan_coarse_hits"),
)
GRADES: Tuple[str, ...] = tuple(g for g, _ in GRADE_COUNTERS) + ("cold",)


def grade_of(before: Mapping[str, int], after: Mapping[str, int]) -> str:
    """The grade of one plan-cache read from counter values around it."""
    for grade, counter in GRADE_COUNTERS:
        if after.get(counter, 0) > before.get(counter, 0):
            return grade
    return "cold"


class Tracer:
    """A stack of open spans and per-name totals of closed ones."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: Open spans: [name, start, time covered by closed children].
        self._stack: List[List[Any]] = []
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> float:
        """Close the innermost span; returns its duration."""
        name, start, covered = self._stack.pop()
        duration = self.clock() - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - covered
        if self._stack:
            self._stack[-1][2] += duration
        return duration


def span_wrapper(tracer: Tracer, name: str, fn: Callable[..., Any],
                 on_close: Optional[Callable[[tuple, float], None]] = None
                 ) -> Callable[..., Any]:
    """``fn`` inside a span; ``on_close(args, duration)`` runs after."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            duration = tracer.exit()
            if on_close is not None:
                on_close(args, duration)

    return wrapper


class Patches:
    """Attribute replacements that can all be undone at once."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str,
             make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
        """Replace ``owner.attr`` by ``make(original)``.

        A missing target raises: a benchmark whose hook silently stopped
        firing would report a layer as idle.
        """
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc: object) -> None:
        self.undo()
