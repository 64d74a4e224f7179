"""Metric primitives: counters, gauges, streaming histograms, and the
registry's snapshot / drain / merge / reset protocol."""

import threading

import numpy as np
import pytest

from repro.exceptions import ObservabilityError
from repro.obs import (
    BUCKET_FACTOR,
    LATENCY_BUCKETS,
    MetricsRegistry,
    histogram_quantile,
)
from repro.obs.metrics import parse_key, render_key


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------
def test_render_parse_key_round_trip():
    key = render_key("worker.requests", {"worker": "3", "zone": "a"})
    assert key == 'worker.requests{worker="3",zone="a"}'
    name, labels = parse_key(key)
    assert name == "worker.requests"
    assert labels == {"worker": "3", "zone": "a"}
    assert parse_key("plain.counter") == ("plain.counter", {})
    # Venue names may hold the separators and quotes of the key
    # syntax itself; they are escaped the way Prometheus escapes them.
    for venue in (
        "mall, north",
        'the "annex"',
        "back\\slash",
        "two\nlines",
        'a=b,c="d"}',
    ):
        key = render_key(
            "serving.venue_queries", {"venue": venue, "worker": "0"}
        )
        assert parse_key(key) == (
            "serving.venue_queries", {"venue": venue, "worker": "0"}
        )
    # ...and so survive a fleet drain into a parent registry.
    worker = MetricsRegistry()
    worker.counter("serving.venue_queries", venue="mall, north").add(2)
    parent = MetricsRegistry()
    parent.merge(worker.drain())
    assert [
        (labels, metric.value)
        for labels, metric in parent.labelled("serving.venue_queries")
    ] == [({"venue": "mall, north"}, 2.0)]


def test_render_key_sorts_labels():
    a = render_key("m", {"b": "2", "a": "1"})
    b = render_key("m", {"a": "1", "b": "2"})
    assert a == b


# ----------------------------------------------------------------------
# Counter
# ----------------------------------------------------------------------
def test_counter_add_value_reset():
    m = MetricsRegistry()
    c = m.counter("requests")
    assert c.value == 0.0
    c.add()
    c.add(4.0)
    assert c.value == 5.0
    c.reset()
    assert c.value == 0.0
    # The handle survives the reset.
    c.add(2.0)
    assert c.value == 2.0


def test_counter_identity_and_labels():
    m = MetricsRegistry()
    assert m.counter("hits") is m.counter("hits")
    assert m.counter("hits", venue="a") is not m.counter(
        "hits", venue="b"
    )
    assert m.counter("hits", venue="a").value == 0.0


def test_counter_drain_is_delta():
    m = MetricsRegistry()
    c = m.counter("ticks")
    c.add(3)
    assert c.drain() == 3.0
    assert c.drain() == 0.0
    c.add(2)
    assert c.drain() == 2.0
    # drain() does not disturb the cumulative value.
    assert c.value == 5.0


# ----------------------------------------------------------------------
# Gauge
# ----------------------------------------------------------------------
def test_gauge_set_add_set_max():
    m = MetricsRegistry()
    g = m.gauge("resident_bytes")
    g.set(100.0)
    g.add(-40.0)
    assert g.value == 60.0
    g.set_max(50.0)
    assert g.value == 60.0
    g.set_max(75.0)
    assert g.value == 75.0
    g.reset()
    assert g.value == 0.0


# ----------------------------------------------------------------------
# Histogram
# ----------------------------------------------------------------------
def test_histogram_record_and_derived_count():
    m = MetricsRegistry()
    h = m.histogram("lat", bounds=[1.0, 2.0, 4.0])
    h.record(0.5)
    h.record(1.5)
    h.record(3.0)
    h.record(100.0)  # overflow bucket
    assert h.count == 4
    np.testing.assert_array_equal(h.counts, [1, 1, 1, 1])
    assert h.total == pytest.approx(105.0)


def test_histogram_edge_values_land_in_their_bucket():
    # side="left": a value equal to a bound lands in that bound's
    # bucket (bounds are upper edges).
    m = MetricsRegistry()
    h = m.histogram("edges", bounds=[1.0, 2.0])
    h.record(1.0)
    h.record(2.0)
    np.testing.assert_array_equal(h.counts, [1, 1, 0])


def test_histogram_record_n_and_record_many():
    m = MetricsRegistry()
    h = m.histogram("batch", bounds=[1.0, 2.0])
    h.record_n(0.5, 7)
    h.record_many(np.array([1.5, 1.5, 5.0]))
    h.record_many(np.array([]))
    np.testing.assert_array_equal(h.counts, [7, 2, 1])
    assert h.total == pytest.approx(7 * 0.5 + 2 * 1.5 + 5.0)


def test_histogram_invalid_bounds_raise():
    m = MetricsRegistry()
    with pytest.raises(ObservabilityError, match="increasing"):
        m.histogram("bad", bounds=[1.0, 1.0, 2.0])
    with pytest.raises(ObservabilityError, match="non-empty"):
        m.histogram("empty", bounds=[])


def test_histogram_reset_keeps_handle():
    m = MetricsRegistry()
    h = m.histogram("lat", bounds=[1.0, 2.0])
    h.record(0.5)
    h.reset()
    assert h.count == 0
    assert h.total == 0.0
    h.record(1.5)
    np.testing.assert_array_equal(h.counts, [0, 1, 0])


def test_histogram_drain_and_merge_counts():
    m = MetricsRegistry()
    h = m.histogram("lat", bounds=[1.0, 2.0])
    h.record(0.5)
    delta = h.drain()
    assert delta["counts"] == [1, 0, 0]
    assert h.drain() is None  # nothing new since the last drain
    other = MetricsRegistry().histogram("lat", bounds=[1.0, 2.0])
    other.merge_counts(
        np.asarray(delta["counts"]), float(delta["total"])
    )
    assert other.count == 1
    with pytest.raises(ObservabilityError, match="merge"):
        other.merge_counts(np.zeros(99, dtype=np.int64), 0.0)


def test_latency_buckets_layout():
    # 8 buckets per decade from 1 µs to 10 s.
    assert LATENCY_BUCKETS[0] == pytest.approx(1e-6)
    assert LATENCY_BUCKETS[-1] == pytest.approx(10.0)
    ratios = np.diff(np.log10(np.asarray(LATENCY_BUCKETS)))
    np.testing.assert_allclose(ratios, 1.0 / 8.0)
    assert BUCKET_FACTOR == pytest.approx(10 ** 0.125)


def test_histogram_quantile_semantics():
    bounds = np.array([1.0, 2.0, 4.0])
    assert histogram_quantile(bounds, np.zeros(4), 0.5) == 0.0
    counts = np.array([5, 0, 0, 0])
    assert histogram_quantile(bounds, counts, 0.99) == 1.0
    counts = np.array([1, 1, 1, 0])
    assert histogram_quantile(bounds, counts, 0.5) == 2.0
    # Overflow mass clamps to the top edge.
    counts = np.array([0, 0, 0, 9])
    assert histogram_quantile(bounds, counts, 0.5) == 4.0


def test_default_histogram_quantile_within_one_bucket():
    m = MetricsRegistry()
    h = m.histogram("lat")  # LATENCY_BUCKETS
    rng = np.random.default_rng(7)
    values = rng.lognormal(mean=-6.0, sigma=1.0, size=4096)
    h.record_many(values)
    for q in (0.5, 0.95, 0.99):
        exact = float(np.quantile(values, q))
        live = h.quantile(q)
        # The bucket's upper edge is within one multiplicative bucket
        # width above the exact order statistic.
        assert exact <= live <= exact * BUCKET_FACTOR * 1.0001


# ----------------------------------------------------------------------
# Registry protocol
# ----------------------------------------------------------------------
def test_registry_type_conflict_raises():
    m = MetricsRegistry()
    m.counter("x")
    with pytest.raises(ObservabilityError, match="already registered"):
        m.gauge("x")
    with pytest.raises(ObservabilityError, match="already registered"):
        m.histogram("x")


def test_registry_snapshot_shape():
    m = MetricsRegistry()
    m.counter("c", venue="a").add(2)
    m.gauge("g").set(7.0)
    m.histogram("h", bounds=[1.0]).record(0.5)
    snap = m.snapshot()
    assert snap["counters"] == {'c{venue="a"}': 2.0}
    assert snap["gauges"] == {"g": 7.0}
    assert snap["histograms"]["h"]["counts"] == [1, 0]


def test_registry_drain_merge_round_trip():
    worker = MetricsRegistry()
    worker.counter("worker.requests").add(5)
    worker.gauge("registry.resident_bytes").set(1000.0)
    worker.histogram("lat", bounds=[1.0, 2.0]).record(1.5)

    parent = MetricsRegistry()
    parent.merge(worker.drain(gauge_labels={"worker": "0"}))
    parent.merge(worker.drain(gauge_labels={"worker": "0"}))

    # Counters/histograms shipped deltas: merged once, not twice.
    assert parent.counter("worker.requests").value == 5.0
    assert parent.histogram("lat", bounds=[1.0, 2.0]).count == 1
    # Gauges shipped absolutes under per-source labels.
    assert (
        parent.gauge("registry.resident_bytes", worker="0").value
        == 1000.0
    )

    worker.counter("worker.requests").add(3)
    parent.merge(worker.drain(gauge_labels={"worker": "0"}))
    assert parent.counter("worker.requests").value == 8.0


def test_registry_gauge_relabel_keeps_sources_separate():
    parent = MetricsRegistry()
    for wid, resident in (("0", 100.0), ("1", 250.0)):
        worker = MetricsRegistry()
        worker.gauge("registry.resident_bytes").set(resident)
        parent.merge(worker.drain(gauge_labels={"worker": wid}))
    values = {
        labels["worker"]: metric.value
        for labels, metric in parent.labelled("registry.resident_bytes")
    }
    assert values == {"0": 100.0, "1": 250.0}


def test_registry_reset_zeros_everything_in_place():
    m = MetricsRegistry()
    c = m.counter("c")
    g = m.gauge("g")
    h = m.histogram("h", bounds=[1.0])
    c.add(3)
    g.set(5.0)
    h.record(0.5)
    m.reset()
    assert c.value == 0.0
    assert g.value == 0.0
    assert h.count == 0
    # Same handles keep working.
    c.add(1)
    assert m.counter("c").value == 1.0


# ----------------------------------------------------------------------
# Concurrency: the tear test
# ----------------------------------------------------------------------
def test_histogram_concurrent_writers_never_tear():
    """N writer threads hammer one histogram, each recording K values
    into its own designated bucket, while a reader snapshots
    concurrently.  Every snapshot must be internally consistent:
    per-bucket counts never exceed K, the derived count always equals
    the bucket sum (by construction), and the final counts are exact.
    """
    n_threads, k = 8, 5000
    m = MetricsRegistry()
    # Bucket upper edges 1..n_threads: thread i records value i+0.5
    # so it lands in bucket i exclusively; overflow stays empty.
    h = m.histogram(
        "tear", bounds=[float(i) for i in range(1, n_threads + 1)]
    )
    start = threading.Barrier(n_threads + 1)
    done = threading.Event()

    def writer(i):
        value = i + 0.5
        start.wait()
        for _ in range(k):
            h.record(value)

    torn = []

    def reader():
        start.wait()
        while not done.is_set():
            counts = h.counts
            if (counts > k).any() or counts[-1] != 0:
                torn.append(counts.copy())
            # count is derived from the same merged counts, so this
            # invariant cannot tear — assert it anyway.
            snap = h.snapshot_dict()
            if sum(snap["counts"]) != np.sum(snap["counts"]):
                torn.append(snap)

    threads = [
        threading.Thread(target=writer, args=(i,))
        for i in range(n_threads)
    ]
    rd = threading.Thread(target=reader)
    rd.start()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    done.set()
    rd.join()

    assert not torn
    counts = h.counts
    assert counts[-1] == 0
    np.testing.assert_array_equal(counts[:-1], k)
    assert h.count == n_threads * k


def test_counter_concurrent_adds_sum_exactly():
    m = MetricsRegistry()
    c = m.counter("adds")
    n_threads, k = 8, 10000
    start = threading.Barrier(n_threads)

    def writer():
        start.wait()
        for _ in range(k):
            c.add(1)

    threads = [
        threading.Thread(target=writer) for _ in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert c.value == n_threads * k
