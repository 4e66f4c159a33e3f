"""Cooperative query cancellation and statement timeouts.

A :class:`QueryContext` is the per-statement control block threaded from
:meth:`repro.sqldb.database.Database.execute` through the plan driver down
to the morsel loop.  Execution is *cooperative*: the engine calls
:meth:`QueryContext.check` at every morsel boundary, so a cancelled or
timed-out statement aborts within roughly one morsel's worth of work —
numpy kernels are never interrupted mid-array.

The context is intentionally tiny and lock-free on the hot path: ``cancel``
may be called from any thread (the wire server's ``cancel`` message handler,
a signal handler, a watchdog) while the executing thread is inside
``check``.
"""

from __future__ import annotations

import threading
import time

from ..errors import QueryCancelledError, QueryTimeoutError


class QueryContext:
    """Deadline + cancel flag for one statement's execution.

    ``timeout`` is seconds from construction; ``deadline`` (monotonic clock)
    wins when both are given and tighter.  A context without either still
    provides cancellation points — the server attaches one to every query so
    a wire-level ``cancel`` can abort it mid-pipeline.

    The context also carries the query's observability identity: a
    ``trace_id`` (returned to clients in result headers for correlation)
    and, when the front end decided to trace this query, the root
    :class:`repro.obs.trace.TraceSpan` under which the engine records its
    parse/plan/execute/encode phase boundaries.  Both default to ``None``
    and cost nothing when unused.
    """

    __slots__ = ("timeout", "deadline", "_cancelled", "_reason",
                 "trace_id", "trace", "catalog_version")

    def __init__(self, *, timeout: float | None = None,
                 deadline: float | None = None,
                 trace_id: str | None = None) -> None:
        self.timeout = None if timeout is None else max(0.0, float(timeout))
        if self.timeout is not None:
            timeout_deadline = time.monotonic() + self.timeout
            deadline = (timeout_deadline if deadline is None
                        else min(deadline, timeout_deadline))
        self.deadline = deadline
        self._cancelled = threading.Event()
        self._reason: str | None = None
        self.trace_id = trace_id
        #: Root span for this query's phase breakdown (``None`` = untraced).
        self.trace = None
        #: ``Database.catalog_version`` as of the statement's execution; the
        #: runner fills it in, the wire server returns it in the result header.
        self.catalog_version: int | None = None

    @classmethod
    def resolve(cls, context: "QueryContext | None",
                timeout: float | None) -> "QueryContext | None":
        """Combine the two ways callers express a limit into one context."""
        if context is None:
            return cls(timeout=timeout) if timeout is not None else None
        if timeout is not None:
            deadline = time.monotonic() + max(0.0, float(timeout))
            if context.deadline is None or deadline < context.deadline:
                context.deadline = deadline
                context.timeout = float(timeout)
        return context

    # ------------------------------------------------------------------ #
    # cancellation
    # ------------------------------------------------------------------ #
    def cancel(self, reason: str | None = None) -> None:
        """Request cooperative abort; safe to call from any thread."""
        # the reason is published before the flag so check() never reads a
        # set flag with a missing message
        self._reason = reason
        self._cancelled.set()

    @property
    def cancelled(self) -> bool:
        return self._cancelled.is_set()

    # ------------------------------------------------------------------ #
    # deadline
    # ------------------------------------------------------------------ #
    def remaining(self) -> float | None:
        """Seconds until the deadline; ``None`` when there is no deadline."""
        if self.deadline is None:
            return None
        return self.deadline - time.monotonic()

    @property
    def expired(self) -> bool:
        return self.deadline is not None and time.monotonic() >= self.deadline

    # ------------------------------------------------------------------ #
    # the morsel-boundary checkpoint
    # ------------------------------------------------------------------ #
    def check(self) -> None:
        """Raise if the statement should stop; called at morsel boundaries."""
        if self._cancelled.is_set():
            raise QueryCancelledError(self._reason or "query cancelled")
        if self.expired:
            if self.timeout is not None:
                raise QueryTimeoutError(
                    f"statement timed out after {self.timeout:g}s")
            raise QueryTimeoutError("statement deadline exceeded")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "running"
        return (f"QueryContext(timeout={self.timeout}, "
                f"remaining={self.remaining()}, {state})")
