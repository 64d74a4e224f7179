"""Bench: serving throughput — batched query path vs per-query loop,
and cold-start (train + deploy) vs warm-start (load artifact)."""

from conftest import emit, emit_json

from repro.serving import bench as serve_bench


def test_serving_throughput(benchmark, bench_config, results_dir):
    result = benchmark.pedantic(
        lambda: serve_bench.run(bench_config, telemetry=True),
        rounds=1,
        iterations=1,
    )
    emit(results_dir, "Serving bench", result.rendered)
    payload = {"preset": bench_config.name, **result.data}
    # Keep the committed results file lean: record the overhead number
    # and the covered stages, not the full export blob.
    tel = payload.pop("telemetry", None)
    if tel is not None:
        payload["telemetry_span_stages"] = tel["span_stages"]
    emit_json(results_dir, "serving", payload)
    # The batched estimator path must dominate the per-query loop at
    # the largest batch size (acceptance: >= 5x at 256).
    assert result.data["estimator_speedup"][256] >= 5.0
    # Batching the service beats calling it one query at a time.
    assert result.data["service_speedup"][256] > 1.0
    # Warm-starting from the shard artifact beats rebuilding the shard
    # from the raw radio map, and serves identical locations.
    assert (
        result.data["warm_start_seconds"]
        < result.data["cold_start_seconds"]
    )
    assert result.data["warm_start_parity"] <= 1e-8
    # The spatial index must beat the brute-force scan at fleet scale
    # while answering bit-identically (both paths are exact and share
    # one finish).
    assert result.data["fleet_speedup"] >= 1.5
    assert result.data["fleet_parity"] == 0.0
    # Stage attribution for the indexed kernel landed in the data.
    stages = result.data["kernel_stages"]
    for field in (
        "probe_ms",
        "select_ms",
        "bound_ms",
        "gemm_ms",
        "finish_ms",
        "busy_ms",
        "candidates",
        "gemm_rows",
    ):
        assert field in stages
    assert stages["busy_ms"] > 0.0
    # Build-time imputation precompute: serving a BiSIM venue no
    # longer runs the encoder per batch (acceptance: >= 4x the PR-5
    # serve path).
    assert result.data["precompute_speedup"] >= 4.0
    # Telemetry: the instrumented serve path (registry counters +
    # sampled spans) stays within 3% of the uninstrumented one, and
    # the sampled span tree covers every kernel stage.
    overhead = result.data["telemetry_overhead_pct"]
    assert overhead is not None
    assert overhead <= 3.0
    assert {
        "kernel.probe",
        "kernel.select",
        "kernel.bound",
        "kernel.gemm",
        "kernel.finish",
    } <= set(result.data["telemetry"]["span_stages"])
