"""Metrics registry: instruments, snapshots, disabled-mode no-ops."""

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    NULL_COUNTER,
    NULL_HISTOGRAM,
)


class TestInstruments:
    def test_counter(self):
        reg = MetricsRegistry()
        c = reg.counter("kernel.switches")
        c.inc()
        c.inc(3)
        assert c.value == 4
        assert reg.counter("kernel.switches") is c  # idempotent

    def test_histogram_buckets(self):
        h = Histogram("lag", buckets=(10.0, 100.0))
        for v in (5.0, 50.0, 500.0, 7.0):
            h.observe(v)
        assert h.count == 4
        assert h.counts == [2, 1, 1]  # le_10, le_100, inf
        assert h.min == 5.0 and h.max == 500.0
        assert h.mean == pytest.approx(140.5)
        d = h.to_dict()
        assert d["buckets"] == {"le_10": 2, "le_100": 1, "inf": 1}

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("bad", buckets=(100.0, 10.0))

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.histogram("x")

    def test_snapshot_is_json_safe(self):
        import json

        reg = MetricsRegistry()
        reg.counter("a").inc(2)
        reg.histogram("c", buckets=DEFAULT_BUCKETS).observe(1234.0)
        snap = reg.snapshot()
        json.dumps(snap)  # must not raise
        assert snap["a"] == 2
        assert snap["c"]["count"] == 1

    def test_render_and_reset(self):
        reg = MetricsRegistry()
        assert "no metrics" in reg.render()
        reg.counter("kernel.switches").inc(1234)
        assert "1,234" in reg.render()
        reg.reset()
        assert reg.names() == []


class TestDisabled:
    def test_returns_shared_null_instruments(self):
        reg = MetricsRegistry(enabled=False)
        assert reg.counter("a") is NULL_COUNTER
        assert reg.histogram("c") is NULL_HISTOGRAM

    def test_null_calls_are_noops_and_register_nothing(self):
        reg = MetricsRegistry(enabled=False)
        reg.counter("a").inc()
        reg.histogram("c").observe(2.0)
        assert reg.snapshot() == {}
        assert reg.names() == []
