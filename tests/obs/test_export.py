"""Exporters: JSON / Prometheus rendering and the CI-facing parser."""

import json

import pytest

from repro.exceptions import ObservabilityError
from repro.obs import (
    MetricsRegistry,
    Telemetry,
    parse_prometheus,
    render_json,
    render_prometheus,
)


@pytest.fixture()
def registry():
    m = MetricsRegistry()
    m.counter("serving.queries").add(42)
    m.counter("worker.requests", worker="3").add(7)
    m.gauge("registry.resident_bytes").set(4096.0)
    h = m.histogram("pipeline.request_seconds", bounds=[0.001, 0.01])
    h.record(0.0005)
    h.record(0.0005)
    h.record(0.5)  # overflow
    return m


def test_render_json_is_deterministic_and_loadable(registry):
    text = render_json(registry.snapshot())
    assert text == render_json(registry.snapshot())
    snap = json.loads(text)
    assert snap["counters"]["serving.queries"] == 42.0
    assert snap["histograms"]["pipeline.request_seconds"][
        "counts"
    ] == [2, 0, 1]


def test_render_prometheus_shapes(registry):
    text = render_prometheus(registry.snapshot())
    assert "# TYPE repro_serving_queries_total counter" in text
    assert "repro_serving_queries_total 42.0" in text
    assert 'repro_worker_requests_total{worker="3"} 7.0' in text
    assert "# TYPE repro_registry_resident_bytes gauge" in text
    # Cumulative buckets + +Inf + sum/count.
    assert (
        'repro_pipeline_request_seconds_bucket{le="0.001"} 2' in text
    )
    assert (
        'repro_pipeline_request_seconds_bucket{le="0.01"} 2' in text
    )
    assert (
        'repro_pipeline_request_seconds_bucket{le="+Inf"} 3' in text
    )
    assert "repro_pipeline_request_seconds_count 3" in text


def test_prometheus_round_trip_parses(registry):
    samples = parse_prometheus(render_prometheus(registry.snapshot()))
    by_name = {}
    for name, labels, value in samples:
        by_name.setdefault(name, []).append((labels, value))
    assert by_name["repro_serving_queries_total"] == [("", 42.0)]
    assert by_name["repro_worker_requests_total"] == [
        ('{worker="3"}', 7.0)
    ]
    infs = [
        v
        for labels, v in by_name[
            "repro_pipeline_request_seconds_bucket"
        ]
        if 'le="+Inf"' in labels
    ]
    assert infs == [3.0]


def test_render_prometheus_accepts_telemetry_bundle():
    tel = Telemetry(sample_every=1)
    tel.metrics.counter("serving.queries").add(1)
    with tel.tracer.trace("req"):
        pass
    text = render_prometheus(tel.snapshot())
    assert "repro_serving_queries_total 1.0" in text
    # Spans are JSON-exported, not Prometheus samples.
    assert "req" not in text
    snap = json.loads(render_json(tel.snapshot()))
    assert [s["name"] for s in snap["spans"]] == ["req"]


def test_parse_prometheus_rejects_malformed():
    with pytest.raises(ObservabilityError, match="line 2"):
        parse_prometheus("repro_ok_total 1\nthis is !! not a sample")
    with pytest.raises(ObservabilityError):
        parse_prometheus("repro_bad{unclosed 3")
    # Comments and blanks are fine.
    assert parse_prometheus("# HELP x\n\n# TYPE x counter\n") == []


def test_prometheus_one_type_line_per_family_and_escaped_labels():
    m = MetricsRegistry()
    m.counter("serving.venue_queries", venue="plain").add(1)
    m.counter("serving.venue_queries", venue='mall, "north"').add(2)
    m.gauge("registry.resident_bytes", worker="0").set(1.0)
    m.gauge("registry.resident_bytes", worker="1").set(2.0)
    text = render_prometheus(m.snapshot())
    assert text.count("# TYPE repro_serving_venue_queries_total") == 1
    assert text.count("# TYPE repro_registry_resident_bytes") == 1
    assert (
        'repro_serving_venue_queries_total{venue="mall, \\"north\\""} '
        "2.0" in text
    )
    samples = parse_prometheus(text)
    assert len(samples) == 4


def test_parse_prometheus_rejects_duplicate_type_and_bare_quotes():
    with pytest.raises(ObservabilityError, match="TYPE"):
        parse_prometheus(
            "# TYPE repro_x_total counter\nrepro_x_total 1\n"
            "# TYPE repro_x_total counter\nrepro_x_total 2\n"
        )
    with pytest.raises(ObservabilityError, match="line 1"):
        parse_prometheus('repro_x_total{venue="a"b"} 1')
    assert parse_prometheus('repro_x_total{venue="a\\"b"} 1') == [
        ("repro_x_total", '{venue="a\\"b"}', 1.0)
    ]
