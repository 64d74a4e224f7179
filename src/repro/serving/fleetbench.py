"""Fleet benchmark: multi-process shard fleet vs one-process service.

``python -m repro serve-bench --workers 4 --memory-budget-mb auto``
(and ``benchmarks/bench_fleet.py``) run this head-to-head:

* **baseline** — the existing single-process stack serving a
  city-scale venue pool the only way it can: a
  :class:`~repro.serving.ShardRegistry` lazily loading/evicting
  shards into a :class:`~repro.serving.PositioningService` under the
  memory budget, answering one request at a time (closed loop, the
  per-device gateway pattern).
* **fleet** — the same store, mapping and budget behind a
  :class:`~repro.serving.ShardFleet`: venues hash-partitioned across
  worker processes, requests bundled over pipes and served batched
  per venue per tick.

Both sides replay the *same* pre-generated Zipf-skewed request
stream (:func:`~repro.serving.loadgen.fleet_schedule`) from cold —
every lazy load, fast reload and eviction is paid inside the timed
window on both sides — and the per-request answers are compared
**bit-for-bit** (the pool's estimators use the batch-shape-invariant
exact-distance kernel, so batching must not change a single float).

The venues are deliberately small (default 96 records × 24 APs):
city fleets are many small maps, and small maps are the worst case
for per-request overhead — exactly what per-tick batching amortises.
"""

from __future__ import annotations

import tempfile
import time
from typing import Dict, List, Optional

import numpy as np

from ..artifacts import ArtifactStore
from ..experiments.base import ExperimentResult
from ..experiments.config import ExperimentConfig
from ..obs import histogram_percentiles_ms, percentiles_ms
from .fleet import ShardFleet, ShardRegistry
from .loadgen import fleet_schedule, synthetic_venue_pool
from .service import PositioningService


def _auto_budget_mb(
    store: ArtifactStore,
    mapping: Dict[str, str],
    *,
    fraction: float,
) -> float:
    """Budget sized to keep ~``fraction`` of the pool resident.

    Probes two venues (the pool alternates completion strategies, so
    adjacent venues bracket the footprint range) and scales their mean
    total footprint — resident plus mapped, the same sum the registry
    enforces — by the pool size.
    """
    probe = ShardRegistry(store, mapping)
    venues = sorted(mapping)
    samples = []
    for venue in venues[: min(2, len(venues))]:
        resident, mapped = probe.get(venue).footprint()
        samples.append(resident + mapped)
    probe.evict_all()
    per_shard = float(np.mean(samples))
    return fraction * len(mapping) * per_shard / (1 << 20)


def run(
    config: Optional[ExperimentConfig] = None,
    *,
    n_venues: int = 500,
    workers: int = 4,
    memory_budget_mb: Optional[float] = None,
    requests: Optional[int] = None,
    zipf_exponent: float = 1.1,
    bundle_size: int = 4096,
    window: int = 16384,
    resident_fraction: float = 0.4,
    seed: Optional[int] = None,
    store_root: Optional[str] = None,
) -> ExperimentResult:
    """Replay one Zipf stream against the fleet and the baseline.

    ``memory_budget_mb=None`` sizes the budget to hold roughly
    ``resident_fraction`` of the pool (default 40% — under half, so
    the Zipf tail keeps the eviction machinery honest on both sides).
    ``window`` is the fleet's open-loop backpressure limit: submission
    pauses while more than this many requests are in flight, which
    also bounds how much queueing delay the fleet's latency
    percentiles absorb.  The defaults run the fleet open-loop with
    large bundles — throughput mode: big ticks coalesce many requests
    per venue into one batched ``locate``, which is where the speedup
    comes from (fleet p50 latency is then dominated by queueing; drop
    ``bundle_size``/``window`` for a latency-oriented operating
    point).  ``seed`` fixes the venue pool and the request stream, so
    runs replay identically.

    The returned data carries everything the acceptance bars assert
    on: ``speedup``, both sides' lazy-load / fast-reload / eviction
    counters, per-worker utilization, and ``parity_exact`` — whether
    every fleet answer matched the baseline bit-for-bit.
    """
    if config is not None and seed is None:
        seed = config.dataset_seed
    base_seed = 0 if seed is None else int(seed)
    if requests is None:
        # Enough traffic that each open-loop tick revisits most of a
        # worker's venue partition — that coalescing is the fleet's
        # whole advantage, so undersized streams understate it.
        requests = max(2048, 32 * n_venues)

    rng = np.random.default_rng(base_seed)
    shards, pools = synthetic_venue_pool(n_venues, rng)
    schedule = fleet_schedule(
        pools,
        requests,
        np.random.default_rng(base_seed + 1),
        zipf_exponent=zipf_exponent,
    )

    tmp = None
    if store_root is None:
        tmp = tempfile.TemporaryDirectory(prefix="fleet-bench-")
        store_root = tmp.name
    try:
        store = ArtifactStore(store_root)
        mapping = {}
        t0 = time.perf_counter()
        for venue, shard in shards.items():
            shard.save(store.path_for(venue))
            mapping[venue] = venue
        build_s = time.perf_counter() - t0
        del shards  # both sides must serve from the store, not RAM

        if memory_budget_mb is None:
            memory_budget_mb = _auto_budget_mb(
                store, mapping, fraction=resident_fraction
            )

        # -- baseline: single process, one request at a time ---------
        # Both sides replay the stream twice: an untimed cold pass
        # (first-touch loads, spec caching, page cache, hot code
        # paths), then the timed steady-state pass — the same
        # methodology the load-test harness uses.  The reported
        # registry counters span both passes, so the cold lazy loads
        # are visible alongside the steady-state reload/evict churn.
        service = PositioningService(cache_size=0)
        registry = ShardRegistry(
            store,
            mapping,
            memory_budget_mb=memory_budget_mb,
            service=service,
        )
        for venue, row in schedule:  # untimed warm-up
            registry.get(venue)
            service.query(venue, row)
        base_lat: List[float] = []
        base_out = np.empty((len(schedule), 2))
        t0 = time.perf_counter()
        for i, (venue, row) in enumerate(schedule):
            t_req = time.perf_counter()
            registry.get(venue)
            base_out[i] = service.query(venue, row)
            base_lat.append(time.perf_counter() - t_req)
        base_elapsed = time.perf_counter() - t0
        base_stats = registry.stats

        # -- fleet: same store, same stream, same budget -------------
        fleet_lat: List[float] = []
        chunk = max(1, min(bundle_size, window // 2))
        with ShardFleet(
            store,
            mapping,
            workers=workers,
            memory_budget_mb=memory_budget_mb,
            bundle_size=bundle_size,
        ) as fleet:
            for start in range(0, len(schedule), chunk):  # warm-up
                fleet.submit_many(schedule[start : start + chunk])
                if fleet.outstanding > window:
                    fleet.wait_outstanding(window // 2, timeout=60.0)
            fleet.flush()
            fleet.wait_outstanding(0, timeout=120.0)
            # Re-baseline the live latency histogram so it spans
            # exactly the timed pass — the same requests the
            # ticket-derived percentiles below are computed from.
            fleet.telemetry.metrics.histogram(
                "fleet.request_seconds"
            ).reset()
            tickets = []
            submit_at = np.empty(len(schedule))
            t0 = time.perf_counter()
            for start in range(0, len(schedule), chunk):
                piece = schedule[start : start + chunk]
                submit_at[start : start + len(piece)] = (
                    time.perf_counter()
                )
                tickets.extend(fleet.submit_many(piece))
                if fleet.outstanding > window:
                    fleet.wait_outstanding(window // 2, timeout=60.0)
            fleet.flush()
            fleet.wait_outstanding(0, timeout=120.0)
            fleet_elapsed = time.perf_counter() - t0
            fleet_stats = fleet.stats()
            # Live percentiles straight off the server-side histogram
            # (submit → resolution, both passes) — the fleet's own
            # view of the latency distribution, no loadgen needed.
            live_pct = histogram_percentiles_ms(
                fleet.telemetry.metrics.histogram(
                    "fleet.request_seconds"
                )
            )

        parity_exact = True
        errors = 0
        for i, ticket in enumerate(tickets):
            if ticket.error is not None or ticket.value is None:
                errors += 1
                parity_exact = False
                continue
            fleet_lat.append(ticket.done_at - submit_at[i])
            if not np.array_equal(ticket.value, base_out[i]):
                parity_exact = False
    finally:
        if tmp is not None:
            tmp.cleanup()

    base_tput = len(schedule) / base_elapsed
    fleet_tput = len(schedule) / fleet_elapsed
    speedup = fleet_tput / base_tput if base_tput > 0 else 0.0
    base_pct = percentiles_ms(base_lat)
    fleet_pct = percentiles_ms(fleet_lat)
    per_worker = [
        {
            "worker": w.worker,
            "requests": w.requests,
            "utilization": w.utilization,
            "mean_tick": w.mean_tick,
            "lazy_loads": w.registry.lazy_loads,
            "fast_reloads": w.registry.fast_reloads,
            "evictions": w.registry.evictions,
            "resident_venues": w.registry.resident_venues,
        }
        for w in fleet_stats.workers
    ]

    lines = [
        f"{n_venues} venues (zipf s={zipf_exponent}), "
        f"{len(schedule)} requests, budget "
        f"{memory_budget_mb:.1f}MB, seed {base_seed} "
        f"(pool built+saved in {build_s:.1f}s)",
        f"baseline 1-proc: {base_tput:>7.0f}/s "
        f"p50={base_pct['p50_ms']:.2f}ms "
        f"p95={base_pct['p95_ms']:.2f}ms "
        f"p99={base_pct['p99_ms']:.2f}ms | {base_stats.render()}",
        f"fleet {workers}-proc:  {fleet_tput:>7.0f}/s "
        f"p50={fleet_pct['p50_ms']:.2f}ms "
        f"p95={fleet_pct['p95_ms']:.2f}ms "
        f"p99={fleet_pct['p99_ms']:.2f}ms "
        f"(live hist p50={live_pct['p50_ms']:.2f}ms "
        f"p95={live_pct['p95_ms']:.2f}ms "
        f"p99={live_pct['p99_ms']:.2f}ms)",
        fleet_stats.render(),
        f"speedup {speedup:.2f}x | parity "
        f"{'bit-exact' if parity_exact else 'MISMATCH'} | "
        f"errors {errors}",
    ]

    return ExperimentResult(
        experiment_id="Shard fleet bench",
        rendered="\n".join(lines),
        data={
            "n_venues": n_venues,
            "workers": workers,
            "requests": len(schedule),
            "zipf_exponent": zipf_exponent,
            "memory_budget_mb": float(memory_budget_mb),
            "seed": base_seed,
            "speedup": speedup,
            "parity_exact": parity_exact,
            "errors": errors,
            "baseline": {
                "throughput": base_tput,
                **base_pct,
                "lazy_loads": base_stats.lazy_loads,
                "fast_reloads": base_stats.fast_reloads,
                "evictions": base_stats.evictions,
                "resident_venues": base_stats.resident_venues,
                "resident_bytes": base_stats.resident_bytes,
                "mapped_bytes": base_stats.mapped_bytes,
            },
            "fleet": {
                "throughput": fleet_tput,
                **fleet_pct,
                "lazy_loads": fleet_stats.lazy_loads,
                "fast_reloads": fleet_stats.fast_reloads,
                "evictions": fleet_stats.evictions,
                "resident_venues": fleet_stats.resident_venues,
                "resident_bytes": fleet_stats.resident_bytes,
                "mapped_bytes": fleet_stats.mapped_bytes,
                "respawns": fleet_stats.respawns,
                "per_worker": per_worker,
                "live_histogram": live_pct,
            },
        },
    )
