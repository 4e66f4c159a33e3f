"""Unit tests for the zero-dependency observability kit (`repro.obs`)."""

import threading

import pytest

from repro.obs import (
    Counter,
    Histogram,
    MetricsRegistry,
    TraceSpan,
    new_trace_id,
)


# --------------------------------------------------------------------------- #
# counters
# --------------------------------------------------------------------------- #
class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests")
        assert counter.value == 0
        counter.inc()
        counter.inc(5)
        assert counter.value == 6
        assert registry.snapshot()["requests"] == 6

    def test_same_name_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_type_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.histogram("x")

    def test_concurrent_increments_lose_nothing(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")
        threads = [
            threading.Thread(
                target=lambda: [counter.inc() for _ in range(10_000)])
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 80_000


# --------------------------------------------------------------------------- #
# histogram quantile math
# --------------------------------------------------------------------------- #
class TestHistogram:
    def test_empty_histogram_quantiles_are_zero(self):
        histogram = MetricsRegistry().histogram("lat")
        snapshot = histogram.snapshot()
        assert snapshot["lat_count"] == 0
        assert snapshot["lat_p50"] == 0

    def test_single_observation_every_quantile(self):
        histogram = MetricsRegistry().histogram("lat")
        histogram.observe(0.001)  # 1000 us
        # log-bucketed: the estimate must land inside the 1000us bucket,
        # whose bounds are within a factor of sqrt(2) of the true value
        snapshot = histogram.snapshot()
        for suffix in ("p50", "p95", "p99"):
            assert 1000 / 1.5 <= snapshot[f"lat_{suffix}"] <= 1000 * 1.5

    def test_quantiles_are_monotonic_and_ordered(self):
        histogram = MetricsRegistry().histogram("lat")
        for us in range(1, 2000):
            histogram.observe(us / 1e6)
        snapshot = histogram.snapshot()
        p50, p95, p99 = snapshot["lat_p50"], snapshot["lat_p95"], snapshot["lat_p99"]
        assert p50 <= p95 <= p99
        # uniform 1..1999us: estimates within one bucket factor of truth
        assert 1000 / 1.5 <= p50 <= 1000 * 1.5
        assert 1900 / 1.5 <= p95 <= 1900 * 1.5

    def test_bimodal_distribution(self):
        histogram = MetricsRegistry().histogram("lat")
        for _ in range(90):
            histogram.observe(100 / 1e6)      # 90% fast: 100us
        for _ in range(10):
            histogram.observe(100_000 / 1e6)  # 10% slow: 100ms
        snapshot = histogram.snapshot()
        assert snapshot["lat_p50"] < 1000
        assert snapshot["lat_p95"] > 50_000

    def test_count_and_sum_exact(self):
        histogram = MetricsRegistry().histogram("lat")
        histogram.observe(0.000_100)
        histogram.observe(0.000_300)
        snapshot = histogram.snapshot()
        assert snapshot["lat_count"] == 2
        assert snapshot["lat_sum_us"] == 400

    def test_overflow_bucket_bounded_by_max(self):
        histogram = MetricsRegistry().histogram("lat")
        histogram.observe(5000.0)  # 5000 s: beyond the last bucket bound
        assert histogram.snapshot()["lat_p99"] <= 5000.0 * 1e6

    def test_snapshot_values_are_integers(self):
        histogram = MetricsRegistry().histogram("lat")
        histogram.observe(0.123_456)
        for value in histogram.snapshot().values():
            assert isinstance(value, int)

    def test_concurrent_observations_keep_exact_count(self):
        histogram = MetricsRegistry().histogram("lat")

        def worker():
            for i in range(5_000):
                histogram.observe((i % 100 + 1) / 1e6)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert histogram.snapshot()["lat_count"] == 20_000


# --------------------------------------------------------------------------- #
# trace spans
# --------------------------------------------------------------------------- #
class TestTraceSpan:
    def test_add_premeasured_child(self):
        root = TraceSpan("query", start=10.0)
        root.add("plan", 10.5, 11.0)
        root.add("respond", 11.0, 11.25)
        root.end = 12.0
        assert root.breakdown() == [
            {"span": "query", "depth": 0, "us": 2_000_000},
            {"span": "plan", "depth": 1, "us": 500_000},
            {"span": "respond", "depth": 1, "us": 250_000}]

    def test_trace_ids_are_unique_hex(self):
        ids = {new_trace_id() for _ in range(100)}
        assert len(ids) == 100
        for trace_id in ids:
            int(trace_id, 16)
            assert len(trace_id) == 16


# --------------------------------------------------------------------------- #
# registry surface
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_snapshot_merges_all_metric_kinds(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(3)
        registry.histogram("c").observe(0.001)
        snapshot = registry.snapshot()
        assert snapshot["a"] == 3
        assert snapshot["c_count"] == 1

    def test_exports_expected_symbols(self):
        assert Counter is not None
        assert Histogram is not None
