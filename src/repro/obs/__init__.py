"""``repro.obs`` — zero-dependency observability primitives.

Two small, threading-safe building blocks shared by every layer of the
engine (sqldb, persist, netproto):

* :mod:`~repro.obs.metrics` — a :class:`MetricsRegistry` of named counters
  and log-bucketed latency :class:`Histogram`\\ s.  Snapshots are flat
  ``{name: int}`` dicts, so they merge directly into ``SHOW STATS`` and the
  wire ``stats`` message.
* :mod:`~repro.obs.trace` — a per-query :class:`TraceSpan` tree with
  monotonic (``perf_counter``) timings and 16-hex-char trace ids, used for
  the parse/plan/execute/encode breakdown behind the slow-query log.

The package has **no third-party dependencies** and never touches the
filesystem.
"""

from __future__ import annotations

from .metrics import Counter, Histogram, MetricsRegistry, NULL_REGISTRY
from .trace import TraceSpan, new_trace_id

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "TraceSpan",
    "new_trace_id",
]
