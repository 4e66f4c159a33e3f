"""Morsel-driven parallel execution: row-range splitting and the worker pool.

The physical operator pipeline (:mod:`repro.sqldb.plan`) executes a query as
a sequence of *morsels* — row-range slices of the input flowing through the
fused per-morsel stage chain.  This module owns the two policy decisions:

* **how to split**: :meth:`MorselScheduler.split` turns a row count into
  ``(start, stop)`` ranges of ``morsel_rows`` rows (fewer when the caller
  caps a morsel at ``max_rows``).  The rule looks at nothing else — not at
  ``workers``, not at whether the statement is cancellable — so for a given
  ``morsel_rows`` every configuration computes over the same ranges and
  gives byte-identical results.
* **where to run**: :meth:`MorselScheduler.imap` evaluates one function per
  morsel, on a shared ``ThreadPoolExecutor`` when ``workers > 1`` and there
  is more than one morsel, inline otherwise.  Results always come back in
  morsel order, which is what keeps parallel output row order identical to
  inline execution.  Threads suit this engine because the hot kernels are
  numpy reductions/gathers over large arrays, which release the GIL.

The scheduler is owned by the :class:`~repro.sqldb.database.Database` and
shared by every query; the pool is created lazily on first parallel use.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Callable, Iterator, Sequence, TypeVar

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .context import QueryContext

T = TypeVar("T")
R = TypeVar("R")

#: Default rows per morsel — matches the wire protocol's default chunk size,
#: so one pipeline morsel maps onto one ``result_chunk`` frame.
DEFAULT_MORSEL_ROWS = 65_536


class MorselScheduler:
    """Splits work into row-range morsels and runs them on a worker pool."""

    def __init__(self, workers: int = 1, *,
                 morsel_rows: int = DEFAULT_MORSEL_ROWS) -> None:
        self.workers = max(1, int(workers))
        self.morsel_rows = max(1, int(morsel_rows))
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        # observability counters, bound by the owning Database (optional)
        self._c_morsels = None
        self._c_pooled = None

    def bind_metrics(self, registry) -> None:  # type: ignore[no-untyped-def]
        """Register scheduler counters on the engine's metrics registry."""
        self._c_morsels = registry.counter("db.morsels_executed")
        self._c_pooled = registry.counter("db.morsels_pooled")

    # ------------------------------------------------------------------ #
    # splitting policy
    # ------------------------------------------------------------------ #
    def split(self, row_count: int,
              max_rows: int | None = None) -> list[tuple[int, int]]:
        """Row ranges covering ``[0, row_count)``; ``[(0, n)]`` if unsplit.

        The one splitting rule: ranges of ``min(max_rows, morsel_rows)`` rows
        whenever the input is longer than that.  An empty input is still one
        (empty) morsel, so every plan produces at least one piece.
        """
        row_count = max(0, int(row_count))
        step = self.morsel_rows
        if max_rows is not None:
            step = max(1, min(int(max_rows), step))
        if row_count <= step:
            return [(0, row_count)]
        return [(start, min(start + step, row_count))
                for start in range(0, row_count, step)]

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="morsel-worker")
            return self._pool

    @staticmethod
    def _checked(fn: Callable[[T], R],
                 context: "QueryContext | None") -> Callable[[T], R]:
        """Wrap ``fn`` with a cancellation checkpoint at morsel entry.

        Pool-queued morsels that start *after* a cancel or an expired
        deadline abort immediately instead of doing a full morsel's work —
        this is what bounds abort latency to ~one in-flight morsel.
        """
        if context is None:
            return fn

        def checked(item: T) -> R:
            context.check()
            return fn(item)

        return checked

    def imap(self, fn: Callable[[T], R], items: Sequence[T], *,
             context: "QueryContext | None" = None) -> Iterator[R]:
        """Evaluate ``fn`` over ``items``, yielding results in input order.

        Runs inline unless ``workers > 1`` and there are at least two items.
        With a pool, all morsels are submitted up front and results stream
        out as each completes — the consumer (e.g. the server's chunked wire
        encoder) can ship morsel *i* while *i + 1* is still executing.  If
        the consumer abandons the iterator, unfinished futures are
        cancelled where possible.  ``context`` adds a cancellation
        checkpoint before every morsel, so a cancel or timeout surfaces at
        the next morsel boundary even mid-stream.
        """
        items = list(items)
        fn = self._checked(fn, context)
        if self._c_morsels is not None:
            self._c_morsels.inc(len(items))
        if self.workers == 1 or len(items) < 2:
            for item in items:
                yield fn(item)
            return
        if self._c_pooled is not None:
            self._c_pooled.inc(len(items))
        pool = self._ensure_pool()
        futures = [pool.submit(fn, item) for item in items]
        try:
            for future in futures:
                yield future.result()
        finally:
            for future in futures:
                future.cancel()

    def shutdown(self) -> None:
        """Tear down the worker pool (idempotent; a later query recreates it)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MorselScheduler(workers={self.workers}, "
                f"morsel_rows={self.morsel_rows})")
