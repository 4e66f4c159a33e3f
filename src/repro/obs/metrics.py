"""Thread-safe metrics: counters, gauges and log-bucketed latency histograms.

Design notes
------------

* **Names are the namespace.**  A metric's full dotted name (for example
  ``db.query_us`` or ``persist.wal_fsync_us``) is chosen by the caller, so a
  registry snapshot is a flat ``{name: int}`` dict that merges directly into
  ``Database.stats_snapshot()`` (and from there into ``SHOW STATS`` and the
  wire ``stats`` message) without any renaming layer.
* **Gauges read what their owner keeps.**  A gauge is a zero-argument
  reader called at snapshot time (a cache's hit count, the open
  connections), so an owner that already keeps a plain attribute reports it
  without a second counter on its hot path.
* **Histograms are log-bucketed.**  Observations are recorded in
  microseconds into geometric buckets (factor ``sqrt(2)``, ~41 % worst-case
  bucket width) covering 1 µs .. ~18 minutes; quantiles interpolate linearly
  inside the winning bucket.  That bounds relative quantile error to about
  half a bucket while keeping ``observe`` O(log n_buckets) and allocation
  free.
* **One lock per metric.**  Observations from the server's statement pool
  and its selector loop race against snapshot readers; each metric guards
  its own few fields with a private lock, so uncontended updates stay cheap
  and a snapshot never blocks the whole registry.
* **Always on, and counted.**  What keeps the cost down is where updates
  sit: a statement makes a fixed number of ``inc``/``observe`` calls plus
  one per morsel and one per wire frame, never one per row or per batch
  (``tests/obs/test_update_count.py``).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Callable, TypeVar

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def snapshot(self) -> dict[str, int]:
        return {self.name: self.value}


class Gauge:
    """A value read from its owner when a snapshot is taken."""

    __slots__ = ("name", "read")

    def __init__(self, name: str, read: Callable[[], int]) -> None:
        self.name = name
        self.read = read

    def snapshot(self) -> dict[str, int]:
        return {self.name: int(self.read())}


def _geometric_bounds() -> tuple[float, ...]:
    """Bucket upper bounds in µs: 1 µs · sqrt(2)^i up to ~2^30 µs (~18 min)."""
    bounds: list[float] = []
    value = 1.0
    factor = 2.0 ** 0.5
    while value <= 2.0 ** 30:
        bounds.append(value)
        value *= factor
    return tuple(bounds)


_BUCKET_BOUNDS = _geometric_bounds()
_OVERFLOW = len(_BUCKET_BOUNDS)  # index of the catch-all top bucket


class Histogram:
    """Log-bucketed latency histogram; observations are in **seconds**,
    exported quantiles in integer **microseconds**."""

    __slots__ = ("name", "_lock", "_counts", "_count", "_sum_us", "_max_us")

    #: Quantiles exported by :meth:`snapshot`, as (suffix, fraction).
    QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._counts = [0] * (_OVERFLOW + 1)
        self._count = 0
        self._sum_us = 0.0
        self._max_us = 0.0

    def observe(self, seconds: float) -> None:
        us = seconds * 1e6
        if us < 0.0:
            us = 0.0
        index = bisect_left(_BUCKET_BOUNDS, us)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum_us += us
            if us > self._max_us:
                self._max_us = us

    @staticmethod
    def _quantile_locked(q: float, counts: list[int], total: int,
                         max_us: float) -> float:
        if total <= 0:
            return 0.0
        q = min(1.0, max(0.0, q))
        target = q * total
        cumulative = 0
        for index, bucket_count in enumerate(counts):
            if bucket_count == 0:
                continue
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= target:
                lower = _BUCKET_BOUNDS[index - 1] if index > 0 else 0.0
                if index >= _OVERFLOW:
                    upper = max(max_us, _BUCKET_BOUNDS[-1])
                else:
                    upper = _BUCKET_BOUNDS[index]
                within = (target - previous) / bucket_count
                return lower + (upper - lower) * within
        return max_us  # pragma: no cover - unreachable (cumulative == total)

    def snapshot(self) -> dict[str, int]:
        """``{name_count, name_sum_us, name_p50, name_p95, name_p99}``."""
        with self._lock:
            counts = list(self._counts)
            total = self._count
            sum_us = self._sum_us
            max_us = self._max_us
        out = {
            f"{self.name}_count": total,
            f"{self.name}_sum_us": int(sum_us),
        }
        for suffix, q in self.QUANTILES:
            out[f"{self.name}_{suffix}"] = int(
                self._quantile_locked(q, counts, total, max_us))
        return out


_Metric = TypeVar("_Metric", Counter, Gauge, Histogram)


class MetricsRegistry:
    """Named metrics with get-or-create semantics and a flat int snapshot."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get_or_create(self, name: str, cls):  # type: ignore[no-untyped-def]
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {cls.__name__}")
            return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    def register(self, metric: _Metric) -> _Metric:
        """Add ``metric`` under its name, replacing what was there: a new
        owner of a name (a server built over a database another server
        served) reports from its own start."""
        with self._lock:
            self._metrics[metric.name] = metric
        return metric

    def gauge(self, name: str, read: Callable[[], int]) -> Gauge:
        return self.register(Gauge(name, read))

    def snapshot(self) -> dict[str, int]:
        """Flat ``{name: int}`` over every registered metric (stable names)."""
        with self._lock:
            metrics = list(self._metrics.values())
        out: dict[str, int] = {}
        for metric in metrics:
            out.update(metric.snapshot())
        return out
