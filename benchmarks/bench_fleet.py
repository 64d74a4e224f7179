"""Bench: city-scale shard fleet — multi-process serving with lazy
mmap loading and memory-budgeted LRU eviction vs one process.

Acceptance bars (asserted below, persisted to BENCH_fleet.json):

* 4-worker fleet >= 2.5x single-process throughput on a 500-venue
  Zipf-skewed stream;
* the memory budget holds under half the pool resident, so the lazy
  load / fast reload / eviction counters are all exercised (nonzero)
  on both sides;
* every fleet answer is bit-identical to the single-process answer,
  with zero routing errors;
* a 2-worker fleet also beats the baseline (scaling sanity check).
"""

from conftest import emit, emit_json

from repro.serving import fleetbench

N_VENUES = 500


def _summary(data):
    return {
        "workers": data["workers"],
        "speedup": data["speedup"],
        "throughput": data["fleet"]["throughput"],
        "parity_exact": data["parity_exact"],
        "errors": data["errors"],
    }


def test_fleet_throughput(benchmark, bench_config, results_dir):
    result = benchmark.pedantic(
        lambda: fleetbench.run(
            bench_config, n_venues=N_VENUES, workers=4
        ),
        rounds=1,
        iterations=1,
    )
    data = result.data
    # Same pool, same stream, same budget — half the workers.
    two = fleetbench.run(
        bench_config,
        n_venues=N_VENUES,
        workers=2,
        memory_budget_mb=data["memory_budget_mb"],
    ).data

    emit(results_dir, "Fleet bench", result.rendered)
    emit_json(
        results_dir,
        "fleet",
        {
            "preset": bench_config.name,
            **data,
            "scaling": [_summary(two), _summary(data)],
        },
    )

    # Throughput: the 4-worker fleet must dominate one process on the
    # 500-venue Zipf stream, and 2 workers must already beat it.
    assert data["speedup"] >= 2.5
    assert two["speedup"] > 1.0

    # Correctness: batched multi-process serving is bit-identical to
    # the per-request single-process path, with no routing errors.
    assert data["parity_exact"] is True
    assert data["errors"] == 0
    assert two["parity_exact"] is True
    assert two["errors"] == 0

    # Memory budget: under half the pool resident on either side, so
    # the stream exercises lazy loads, mmap fast reloads and LRU
    # evictions rather than degenerating into an everything-fits run.
    for side in (data["baseline"], data["fleet"]):
        assert side["resident_venues"] < N_VENUES / 2
        assert side["lazy_loads"] > 0
        assert side["fast_reloads"] > 0
        assert side["evictions"] > 0

    # Every worker took part (hash partitioning spread the pool).
    assert all(
        w["requests"] > 0 for w in data["fleet"]["per_worker"]
    )
    assert data["fleet"]["respawns"] == 0
