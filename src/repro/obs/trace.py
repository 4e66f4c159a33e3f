"""Per-query trace spans: a query's monotonic time interval and its phases.

A query gets one root :class:`TraceSpan` (created by the front end that
accepted it) plus a 16-hex-char trace id that travels with the
``QueryContext`` through the engine and back to the client in the result
header.  Layers record their phase — ``parse``, ``plan``, ``prepare`` or
``execute``, ``respond`` — with :meth:`TraceSpan.add`, from the two
``perf_counter`` readings they already hold, so a phase costs no extra
clock call.

Spans are built by **one thread at a time** (the thread driving the query);
per-morsel timings are aggregated by the plan instrumentation in
:mod:`repro.sqldb.plan`, not recorded as spans, so no locking is needed
here.  Recording a span costs two ``perf_counter()`` calls and one list
append — cheap enough to leave on for every query, which is what makes the
"slow queries always carry a full breakdown" policy possible: by the time a
query turns out to be slow, its spans already exist.
"""

from __future__ import annotations

import time
import uuid
from typing import Any

__all__ = ["TraceSpan", "new_trace_id"]


def new_trace_id() -> str:
    """A 16-hex-char random trace id (64 bits — plenty for correlation)."""
    return uuid.uuid4().hex[:16]


class TraceSpan:
    """A query's interval on the monotonic clock, with the phases recorded
    under it (one level deep: the slow-query log's breakdown)."""

    __slots__ = ("name", "start", "end", "children")

    def __init__(self, name: str, *, start: float | None = None) -> None:
        self.name = name
        self.start = time.perf_counter() if start is None else start
        self.end: float | None = None
        #: ``(name, start, end)`` of each phase, in the order recorded
        self.children: list[tuple[str, float, float]] = []

    def add(self, name: str, start: float, end: float) -> None:
        """Record an already-measured phase (both ends are
        ``perf_counter`` readings the caller took anyway)."""
        self.children.append((name, start, end))

    def finish(self) -> None:
        if self.end is None:
            self.end = time.perf_counter()

    def breakdown(self) -> list[dict[str, Any]]:
        """The span at depth 0, then its phases at depth 1, in µs; an
        unfinished span reads as elapsed-so-far."""
        end = time.perf_counter() if self.end is None else self.end
        spans = [(0, self.name, self.start, end)]
        spans += [(1, *child) for child in self.children]
        return [{"span": name, "depth": depth, "us": max(0, int((stop - begin) * 1e6))}
                for depth, name, begin, stop in spans]
