"""Telemetry through the serving stack: live histograms vs exact
percentiles, span coverage of the kernel stages, and the legacy stats
views staying bit-compatible with the registry."""

import numpy as np
import pytest

from repro.core import MAROnlyDifferentiator
from repro.obs import (
    BUCKET_FACTOR,
    Telemetry,
    histogram_percentiles_ms,
    percentiles_ms,
)
from repro.positioning import WKNNEstimator
from repro.serving import PositioningService, ServingPipeline


def scans(dataset, n, seed):
    rng = np.random.default_rng(seed)
    rps = dataset.venue.reference_points
    return np.stack(
        [
            dataset.channel.measure(rps[i % len(rps)], rng).rssi
            for i in range(n)
        ]
    )


@pytest.fixture
def telemetry():
    return Telemetry(sample_every=1)


@pytest.fixture
def service(kaide_smoke, telemetry):
    svc = PositioningService(cache_size=0, telemetry=telemetry)
    svc.deploy(
        "kaide",
        kaide_smoke.radio_map,
        MAROnlyDifferentiator(),
        # Force the spatial-index path so the kernel-stage spans
        # exist.
        estimator=WKNNEstimator(spatial_index="on"),
    )
    return svc


def test_live_pipeline_histogram_matches_exact_percentiles(
    service, telemetry, kaide_smoke
):
    """The acceptance bar: p50/p95/p99 read live off the
    ``pipeline.request_seconds`` histogram agree with the exact
    (loadgen-style) percentiles of the same requests to within one
    bucket width."""
    import time

    rows = scans(kaide_smoke, 64, seed=5)
    latencies = []
    with ServingPipeline(service, max_batch=8) as pipeline:
        for _ in range(4):  # several flushes, some queueing variety
            t0 = time.perf_counter()
            tickets = pipeline.submit_many("kaide", rows)
            for ticket in tickets:
                ticket.result(timeout=30.0)
            # Per-request client-side latency: submit stamp to the
            # flusher's resolution stamp, same bracket the pipeline's
            # own histogram records.
            for ticket in tickets:
                latencies.append(ticket.done_at - t0)

    hist = telemetry.metrics.histogram("pipeline.request_seconds")
    assert hist.count == 4 * len(rows)
    live = histogram_percentiles_ms(hist)
    exact = percentiles_ms(latencies)
    for key in ("p50_ms", "p95_ms", "p99_ms"):
        # The live value is a bucket upper edge; the exact client-side
        # measurement differs from the server-side recording by
        # microseconds, so allow the quantized value to sit within one
        # bucket either side of the exact percentile's bucket.
        assert (
            exact[key] / BUCKET_FACTOR
            <= live[key]
            <= exact[key] * BUCKET_FACTOR ** 2
        ), (key, exact[key], live[key])


def test_span_tree_covers_all_kernel_stages(
    service, telemetry, kaide_smoke
):
    service.query_batch(["kaide"] * 16, scans(kaide_smoke, 16, seed=9))
    stages = set()
    for root in telemetry.tracer.traces():
        stages |= root.stage_names()
    assert "service.query_batch" in stages
    for stage in (
        "kernel.probe",
        "kernel.select",
        "kernel.bound",
        "kernel.gemm",
        "kernel.finish",
    ):
        assert stage in stages, stages


def test_service_stats_view_reads_from_registry(
    service, telemetry, kaide_smoke
):
    service.query_batch(["kaide"] * 8, scans(kaide_smoke, 8, seed=1))
    stats = service.stats
    assert stats.queries == 8
    assert (
        telemetry.metrics.counter("serving.queries").value == 8.0
    )
    # Registry reset flows through to the view (shared handles).
    telemetry.metrics.reset()
    assert service.stats.queries == 0


def test_kernel_spans_belong_to_their_own_batch(service, kaide_smoke):
    """Two threads serve traced batches through one indexed shard at
    once, each under its own telemetry: every ``estimate`` span gets
    exactly its own batch's five kernel stages, never the other
    thread's."""
    import threading

    shard = service.shard("kaide")
    k = shard.estimator.k
    telemetries = [Telemetry(sample_every=1) for _ in range(2)]
    services = []
    for tel in telemetries:
        svc = PositioningService(cache_size=0, telemetry=tel)
        svc.register(shard)
        services.append(svc)
    batches = [scans(kaide_smoke, n, seed=n) for n in (12, 20)]
    start = threading.Barrier(2)
    errors = []

    def serve(svc, rows):
        try:
            start.wait()
            for _ in range(8):
                svc.query_batch(["kaide"] * len(rows), rows)
        except Exception as exc:  # surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=serve, args=(svc, rows))
        for svc, rows in zip(services, batches)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors

    kernel = {
        "kernel.probe",
        "kernel.select",
        "kernel.bound",
        "kernel.gemm",
        "kernel.finish",
    }
    for tel, rows in zip(telemetries, batches):
        roots = tel.tracer.traces()
        assert len(roots) == 8
        for root in roots:
            (shard_span,) = root.children
            assert shard_span.meta["rows"] == len(rows)
            (estimate,) = [
                c for c in shard_span.children if c.name == "estimate"
            ]
            stages = estimate.children
            assert sorted(c.name for c in stages) == sorted(kernel)
            assert sum(c.duration for c in stages) <= estimate.duration
            candidates = sum(
                (c.meta or {}).get("candidates", 0) for c in stages
            )
            assert candidates >= k * len(rows)
