"""The metrics registry: families, exposition, threading through the stack."""

import json
import math
import urllib.request

import numpy as np
import pytest

from repro.core.device import AmbitDevice
from repro.core.driver import AmbitDriver
from repro.core.microprograms import BulkOp
from repro.dram.geometry import small_test_geometry
from repro.errors import ConfigError
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_NS,
    Histogram,
    MetricsRegistry,
    MetricsServer,
    format_top,
)

GEO = small_test_geometry(rows=32, row_bytes=64, banks=2, subarrays_per_bank=2)
WORDS = GEO.subarray.words_per_row


def _run_ops(device, op=BulkOp.AND, count=3):
    rng = np.random.default_rng(3)
    from repro.dram.chip import RowLocation

    for i in range(count):
        dst = RowLocation(i % GEO.banks, 0, 0)
        a = RowLocation(i % GEO.banks, 0, 1)
        b = RowLocation(i % GEO.banks, 0, 2)
        device.write_row(a, rng.integers(0, 2**63, size=WORDS, dtype=np.uint64))
        device.write_row(b, rng.integers(0, 2**63, size=WORDS, dtype=np.uint64))
        device.bbop_row(op, dst, a, b if op.arity >= 2 else None)


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------
def test_counter_gauge_basics():
    registry = MetricsRegistry()
    c = registry.counter("c_total", "a counter")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ConfigError):
        c.inc(-1)
    g = registry.gauge("g", "a gauge")
    g.set(7)
    g.dec(3)
    assert g.value == 4.0


def test_labeled_family_children_and_type_conflicts():
    registry = MetricsRegistry()
    fam = registry.counter("jobs_total", "per-queue jobs", labels=("queue",))
    fam.labels(queue="a").inc()
    fam.labels(queue="a").inc()
    fam.labels(queue="b").inc(5)
    assert fam.children[("a",)].value == 2
    assert fam.children[("b",)].value == 5
    with pytest.raises(ConfigError):
        fam.inc()  # labeled family has no scalar proxy
    with pytest.raises(ConfigError):
        fam.labels(wrong="x")
    # Same name, same shape -> the same family object.
    assert registry.counter("jobs_total", labels=("queue",)) is fam
    with pytest.raises(ConfigError):
        registry.gauge("jobs_total")  # type conflict


def test_histogram_quantiles_and_reset():
    h = Histogram(bounds=(10.0, 100.0, 1000.0))
    for v in (5, 5, 50, 50, 50, 500):
        h.observe(v)
    assert h.count == 6 and h.sum == 660
    assert 0 < h.quantile(0.5) <= 100.0
    # All mass below 10 -> p99 interpolates inside the first bucket.
    h2 = Histogram(bounds=(10.0, 100.0))
    assert math.isnan(h2.quantile(0.5))
    h2.observe(4.0)
    assert h2.quantile(0.99) <= 10.0
    # Overflow bucket reports its lower bound.
    h3 = Histogram(bounds=(10.0,))
    h3.observe(99.0)
    assert h3.quantile(0.99) == 10.0
    with pytest.raises(ConfigError):
        Histogram(bounds=(5.0, 5.0))
    with pytest.raises(ConfigError):
        h.quantile(0.0)


def test_registry_reset_preserves_registrations():
    registry = MetricsRegistry()
    c = registry.counter("x_total")
    hist = registry.histogram("h_ns")
    c.inc(4)
    hist.observe(123.0)
    registry.reset()
    assert c.value == 0
    only = registry.get("h_ns").children[()]
    assert only.count == 0 and only.sum == 0.0
    assert only.bucket_counts == [0] * (len(DEFAULT_LATENCY_BUCKETS_NS) + 1)


def test_collectors_refresh_on_exposition():
    registry = MetricsRegistry()
    g = registry.gauge("sampled")
    state = {"v": 1}
    registry.register_collector(lambda: g.set(state["v"]))
    state["v"] = 42
    assert "sampled 42" in registry.render_prometheus()


# ----------------------------------------------------------------------
# Exposition formats
# ----------------------------------------------------------------------
def test_prometheus_rendering_shape():
    registry = MetricsRegistry()
    registry.counter("ops_total", "ops done", labels=("op",)).labels(
        op="and"
    ).inc(3)
    h = registry.histogram("lat_ns", "latency", buckets=(10.0, 100.0))
    h.observe(50.0)
    text = registry.render_prometheus()
    assert "# TYPE ops_total counter" in text
    assert 'ops_total{op="and"} 3' in text
    assert 'lat_ns_bucket{le="10"} 0' in text
    assert 'lat_ns_bucket{le="100"} 1' in text
    assert 'lat_ns_bucket{le="+Inf"} 1' in text
    assert "lat_ns_sum 50" in text
    assert "lat_ns_count 1" in text


def test_snapshot_and_jsonl(tmp_path):
    registry = MetricsRegistry()
    registry.counter("a_total").inc(2)
    registry.histogram("h_ns", buckets=(10.0,)).observe(3.0)
    snap = registry.snapshot()
    assert snap["a_total"]["samples"][0]["value"] == 2
    assert snap["h_ns"]["samples"][0]["count"] == 1
    assert snap["h_ns"]["samples"][0]["p50"] <= 10.0
    path = tmp_path / "metrics.jsonl"
    lines = registry.write_jsonl(str(path))
    records = [json.loads(l) for l in path.read_text().splitlines()]
    assert len(records) == lines == 2
    assert {r["metric"] for r in records} == {"a_total", "h_ns"}


def test_metrics_server_serves_live_values():
    registry = MetricsRegistry()
    c = registry.counter("live_total")
    with MetricsServer(registry, port=0) as server:
        c.inc(1)
        body = urllib.request.urlopen(server.url).read().decode()
        assert "live_total 1" in body
        c.inc(1)
        body = urllib.request.urlopen(server.url).read().decode()
        assert "live_total 2" in body
        js = urllib.request.urlopen(
            server.url.replace("/metrics", "/metrics.json")
        ).read()
        assert json.loads(js)["live_total"]["samples"][0]["value"] == 2


def test_metrics_server_negotiates_openmetrics_exemplars():
    """Exemplar syntax is only legal in OpenMetrics: a classic
    text-format scrape carrying a trailing '# {...}' would be rejected
    by Prometheus wholesale.  The server must keep exemplars out of the
    default exposition and serve them only to scrapers that ask for
    application/openmetrics-text."""
    registry = MetricsRegistry()
    registry.histogram("neg_lat_ns", buckets=(10.0,)).observe(
        5.0, exemplar="t-negotiated"
    )
    with MetricsServer(registry, port=0) as server:
        plain = urllib.request.urlopen(server.url)
        assert plain.headers["Content-Type"].startswith("text/plain")
        body = plain.read().decode()
        assert "neg_lat_ns_bucket" in body
        assert "trace_id" not in body
        assert "# EOF" not in body

        request = urllib.request.Request(
            server.url,
            headers={"Accept": "application/openmetrics-text; version=1.0.0"},
        )
        om = urllib.request.urlopen(request)
        assert om.headers["Content-Type"].startswith(
            "application/openmetrics-text"
        )
        om_body = om.read().decode()
        assert 'trace_id="t-negotiated"' in om_body
        assert om_body.endswith("# EOF\n")


# ----------------------------------------------------------------------
# Threading through the execution stack
# ----------------------------------------------------------------------
def test_device_threads_metrics_through_controller_and_cache():
    device = AmbitDevice(geometry=GEO)
    _run_ops(device, BulkOp.AND, count=4)
    registry = device.metrics
    registry.collect()
    ops = registry.get("ambit_ops_total")
    assert ops.children[("and",)].value == 4
    latency = registry.get("ambit_op_latency_ns")
    child = latency.children[("and",)]
    assert child.count == 4 and child.sum > 0
    hits = registry.get("ambit_plan_cache_hits_total")
    misses = registry.get("ambit_plan_cache_misses_total")
    assert misses.value >= 1 and hits.value + misses.value == 4
    assert registry.get("ambit_plan_cache_plans").value >= 1
    assert registry.get("ambit_busy_ns_total").value == device.busy_ns


def test_batch_engine_and_allocator_metrics():
    device = AmbitDevice(geometry=GEO)
    driver = AmbitDriver(device)
    handles = [driver.allocate(device.row_bits) for _ in range(3)]
    from repro.dram.chip import RowLocation

    dst = [RowLocation(0, 0, 0), RowLocation(1, 0, 0)]
    src1 = [RowLocation(0, 0, 1), RowLocation(1, 0, 1)]
    src2 = [RowLocation(0, 0, 2), RowLocation(1, 0, 2)]
    rng = np.random.default_rng(5)
    for loc in src1 + src2:
        device.write_row(
            loc, rng.integers(0, 2**63, size=WORDS, dtype=np.uint64)
        )
    device.engine.run_rows(BulkOp.XOR, dst, src1, src2)
    registry = device.metrics
    registry.collect()
    assert registry.get("ambit_batches_total").value == 1
    rows = registry.get("ambit_batch_rows_total")
    assert sum(c.value for c in rows.children.values()) == 2
    assert registry.get("ambit_allocator_rows_in_use").value == 3
    assert registry.get("ambit_allocator_high_water_rows").value == 3
    for handle in handles:
        driver.free(handle)
    registry.collect()
    assert registry.get("ambit_allocator_rows_in_use").value == 0
    assert registry.get("ambit_allocator_high_water_rows").value == 3


def test_busy_metric_is_the_device_busy_time():
    """``ambit_busy_ns_total`` reads the device's busy time, RowClone-PSM
    copies included: 876 ns here, the AND's 196 plus the copy's 680."""
    from repro.dram.chip import RowLocation

    device = AmbitDevice()
    device.bbop_row(
        BulkOp.AND, RowLocation(0, 0, 3), RowLocation(0, 0, 0),
        RowLocation(0, 0, 1),
    )
    device.psm_copy(RowLocation(0, 0, 3), RowLocation(1, 0, 3))
    device.metrics.collect()
    busy = device.metrics.get("ambit_busy_ns_total").value
    assert busy == device.busy_ns == 876.0
    # The copy is no bulk operation: only the AND is counted.
    ops = device.metrics.get("ambit_ops_total").children
    assert {labels: child.value for labels, child in ops.items()} == {
        ("and",): 1
    }


def test_concurrent_scrapes_do_not_double_count():
    """Scrapes assign the folded values: threads scraping while ops run
    (a serving loop and a metrics server) never read more work than was
    done, nor trip over the counts growing under them."""
    import sys
    import threading

    device = AmbitDevice(geometry=GEO)
    stats = device.controller.stats
    done = threading.Event()
    scrapes, overcounts, errors = [], [], []

    def scrape():
        try:
            while not done.is_set():
                samples = device.metrics.snapshot()["ambit_ops_total"]
                read = sum(s["value"] for s in samples["samples"])
                # Work only grows: what was done by now bounds the read.
                done_by_now = sum(stats.ops.values())
                scrapes.append(read)
                if read > done_by_now:
                    overcounts.append((read, done_by_now))
        except Exception as exc:  # reported by the test's own thread
            errors.append(exc)

    threads = [threading.Thread(target=scrape) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for op in (BulkOp.OR, BulkOp.AND, BulkOp.XOR):
            _run_ops(device, op, count=10)
    finally:
        done.set()
        for thread in threads:
            thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert scrapes and not overcounts, overcounts
    registry = device.metrics
    registry.collect()
    ops = registry.get("ambit_ops_total").children
    assert {op: child.value for (op,), child in ops.items()} == {
        "or": 10, "and": 10, "xor": 10
    }
    assert registry.get("ambit_busy_ns_total").value == device.busy_ns
    hits = registry.get("ambit_plan_cache_hits_total").value
    misses = registry.get("ambit_plan_cache_misses_total").value
    assert (hits, misses) == (27, 3)


def test_device_reset_stats_resets_metrics():
    device = AmbitDevice(geometry=GEO)
    _run_ops(device, BulkOp.OR, count=2)
    device.metrics.collect()
    assert device.metrics.get("ambit_ops_total").children[("or",)].value == 2
    device.reset_stats()
    device.metrics.collect()
    assert device.metrics.get("ambit_ops_total").children[("or",)].value == 0


def test_reads_run_the_collectors_once():
    """``get`` is a plain lookup; ``format_top`` and each exposition run
    the collectors once per read."""
    device = AmbitDevice(geometry=GEO)
    _run_ops(device, BulkOp.NOT, count=2)
    runs = []
    device.metrics.register_collector(lambda: runs.append(1))
    device.metrics.get("ambit_ops_total")
    device.metrics.get("no_such_family")
    assert len(runs) == 0
    format_top(device.metrics)
    assert len(runs) == 1
    device.metrics.snapshot()
    device.metrics.render_prometheus()
    assert len(runs) == 3


def test_format_top_renders_sections():
    device = AmbitDevice(geometry=GEO)
    _run_ops(device, BulkOp.NOT, count=2)
    text = format_top(device.metrics)
    assert "not" in text
    assert "plan cache:" in text
    empty = format_top(MetricsRegistry())
    assert "no metrics" in empty
