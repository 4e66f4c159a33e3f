"""Per-query trace spans: a tree of named monotonic time intervals.

A query gets one root :class:`TraceSpan` (created by whichever front end
accepted it) plus a 16-hex-char trace id that travels with the
``QueryContext`` through the engine and back to the client in the result
header.  Layers attach children for their phase — ``parse``, ``plan``,
``execute``, ``encode`` — either with the context-manager protocol or, on
hot paths that already hold two ``perf_counter`` readings, with
:meth:`TraceSpan.add`, which records a finished child without extra clock
calls.

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
from typing import Any, Iterator

__all__ = ["TraceSpan", "new_trace_id"]


def new_trace_id() -> str:
    """A 16-hex-char random trace id (64 bits — plenty for correlation)."""
    return uuid.uuid4().hex[:16]


class TraceSpan:
    """One named interval on the monotonic clock, with child spans."""

    __slots__ = ("name", "start", "end", "children", "attrs")

    def __init__(self, name: str, *, start: float | None = None,
                 attrs: dict[str, Any] | None = None) -> None:
        self.name = name
        self.start = time.perf_counter() if start is None else start
        self.end: float | None = None
        self.children: list[TraceSpan] = []
        self.attrs: dict[str, Any] | None = attrs

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def child(self, name: str) -> "TraceSpan":
        """Start a child span now and return it (caller must finish it)."""
        span = TraceSpan(name)
        self.children.append(span)
        return span

    def add(self, name: str, start: float, end: float) -> "TraceSpan":
        """Attach an already-measured child (both ends are
        ``perf_counter`` readings the caller took anyway)."""
        span = TraceSpan(name, start=start)
        span.end = end
        self.children.append(span)
        return span

    def finish(self) -> "TraceSpan":
        if self.end is None:
            self.end = time.perf_counter()
        return self

    def __enter__(self) -> "TraceSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.finish()

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    @property
    def duration_us(self) -> int:
        """Elapsed µs; an unfinished span reads as elapsed-so-far."""
        end = time.perf_counter() if self.end is None else self.end
        return max(0, int((end - self.start) * 1e6))

    def walk(self, depth: int = 0) -> Iterator[tuple[int, "TraceSpan"]]:
        yield depth, self
        for child in self.children:
            yield from child.walk(depth + 1)

    def breakdown(self) -> list[dict[str, Any]]:
        """Flattened span list for logs / the slow-query ring buffer."""
        return [{"span": span.name, "depth": depth, "us": span.duration_us}
                for depth, span in self.walk()]

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"span": self.name, "us": self.duration_us}
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceSpan({self.name!r}, us={self.duration_us})"
