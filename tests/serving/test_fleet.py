"""Shard fleet: lazy mmap loading, memory-budgeted LRU eviction,
hash-partitioned multi-process routing, and crash recovery."""

import os
import signal
import time

import numpy as np
import pytest

from repro.artifacts import ArtifactStore
from repro.exceptions import ServingError
from repro.obs import BUCKET_FACTOR, Telemetry
from repro.serving import (
    PositioningService,
    ShardFleet,
    ShardKey,
    ShardRegistry,
    partition_venue,
)
from repro.serving.loadgen import fleet_schedule, synthetic_venue_pool


N_VENUES = 12


@pytest.fixture(scope="module")
def city(tmp_path_factory):
    """A small saved city pool: (store, mapping, scan pools)."""
    rng = np.random.default_rng(11)
    shards, pools = synthetic_venue_pool(
        N_VENUES, rng, n_records=48, n_aps=12, scans_per_venue=8
    )
    root = tmp_path_factory.mktemp("fleet-store")
    store = ArtifactStore(root)
    mapping = {}
    for venue, shard in shards.items():
        shard.save(store.path_for(venue))
        mapping[venue] = venue
    return store, mapping, pools, shards


def baseline_answers(shards, schedule):
    return np.stack(
        [shards[venue].locate(row[None])[0] for venue, row in schedule]
    )


# ----------------------------------------------------------------------
# ShardRegistry: lazy loading and eviction
# ----------------------------------------------------------------------
def test_registry_loads_lazily_on_first_query(city):
    store, mapping, pools, _ = city
    registry = ShardRegistry(store, mapping)
    assert registry.stats.lazy_loads == 0
    assert registry.resident == ()

    venue = sorted(mapping)[0]
    shard = registry.get(venue)
    out = shard.locate(pools[venue][:1])
    assert out.shape == (1, 2)
    assert registry.stats.lazy_loads == 1
    assert registry.resident == (venue,)
    # Only the touched venue is resident; byte accounting is live.
    assert registry.stats.resident_venues == 1
    assert registry.stats.total_bytes > 0

    # Second touch is a pure hit: no loads, LRU position refreshed.
    assert registry.get(venue) is shard
    assert registry.stats.lazy_loads == 1
    assert registry.stats.hits == 1


def test_registry_unknown_venue_raises(city):
    store, mapping, _, _ = city
    registry = ShardRegistry(store, mapping)
    with pytest.raises(ServingError, match="unknown venue"):
        registry.get("venue-none")


def test_registry_evicts_in_lru_order(city):
    store, mapping, _, _ = city
    venues = sorted(mapping)[:4]
    registry = ShardRegistry(store, mapping)
    for venue in venues:
        registry.get(venue)
    footprints = {
        v: registry._entries[v].resident + registry._entries[v].mapped
        for v in venues
    }
    # Touch venue 0 so venue 1 becomes the LRU candidate.
    registry.get(venues[0])
    assert registry.resident == (
        venues[1],
        venues[2],
        venues[3],
        venues[0],
    )

    # Shrink the budget to exactly two shards: the two least recently
    # used (1 then 2) must go, in that order, immediately.
    keep = footprints[venues[3]] + footprints[venues[0]]
    registry.memory_budget_bytes = keep
    assert registry.resident == (venues[3], venues[0])
    assert registry.stats.evictions == 2
    assert registry.stats.resident_venues == 2
    assert registry.stats.total_bytes <= keep

    # A reload after eviction is served by the mmap fast path and is
    # bit-identical to the originally loaded shard.
    again = registry.get(venues[1])
    assert registry.stats.fast_reloads >= 1
    first = ShardRegistry(store, mapping).get(venues[1])
    probe = np.linspace(-90.0, -30.0, first.n_aps)[None]
    np.testing.assert_array_equal(
        again.locate(probe), first.locate(probe)
    )


def test_registry_never_evicts_the_venue_just_loaded(city):
    store, mapping, _, _ = city
    # A budget below a single shard still serves: the MRU survives.
    registry = ShardRegistry(store, mapping, memory_budget_mb=1e-6)
    a, b = sorted(mapping)[:2]
    registry.get(a)
    assert registry.resident == (a,)
    registry.get(b)
    assert registry.resident == (b,)
    assert registry.stats.evictions == 1


def test_registry_syncs_attached_service(city):
    store, mapping, pools, _ = city
    service = PositioningService(cache_size=0)
    registry = ShardRegistry(
        store, mapping, memory_budget_mb=1e-6, service=service
    )
    a, b = sorted(mapping)[:2]
    registry.get(a)
    assert service.venues == (a,)
    registry.get(b)  # evicts a, registers b
    assert service.venues == (b,)
    out = service.query(b, pools[b][0])
    assert out.shape == (2,)


# ----------------------------------------------------------------------
# Fleet: routing, parity, crash recovery
# ----------------------------------------------------------------------
def test_partitioning_is_stable_and_total():
    venues = [f"venue-{i:04d}" for i in range(100)]
    owners = {v: partition_venue(v, 4) for v in venues}
    # Deterministic across calls (and processes — crc32, not hash()).
    assert owners == {v: partition_venue(v, 4) for v in venues}
    assert set(owners.values()) <= set(range(4))
    assert len(set(owners.values())) == 4  # all workers get venues


def test_fleet_routes_each_venue_to_exactly_one_worker(city):
    store, mapping, pools, _ = city
    with ShardFleet(store, mapping, workers=3) as fleet:
        owned = [0, 0, 0]
        for venue in sorted(mapping):
            owned[fleet.partition(venue)] += 1
            fleet.locate(venue, pools[venue][0])
            fleet.locate(venue, pools[venue][1])  # revisit: no reload
        stats = fleet.stats()
    # Each worker lazily loaded exactly the venues it owns — once —
    # so every venue was served by exactly one worker, and revisits
    # hit that worker's resident shard.
    for w, expected in zip(stats.workers, owned):
        assert w.registry.lazy_loads == expected
        assert w.venues_served == expected
    assert sum(owned) == len(mapping)
    assert stats.requests == 2 * len(mapping)
    assert stats.errors == 0


def test_fleet_matches_single_process_bit_for_bit(city):
    store, mapping, pools, shards = city
    schedule = fleet_schedule(
        pools, 200, np.random.default_rng(5), zipf_exponent=1.1
    )
    expected = baseline_answers(shards, schedule)
    with ShardFleet(
        store, mapping, workers=2, bundle_size=32
    ) as fleet:
        tickets = fleet.submit_many(schedule)
        fleet.flush()
        got = np.stack([t.result(timeout=60.0) for t in tickets])
    np.testing.assert_array_equal(got, expected)


def test_fleet_wrong_width_scan_fails_alone(city):
    store, mapping, pools, shards = city
    venue = sorted(mapping)[0]
    good = [(venue, row) for row in pools[venue][:4]]
    expected = baseline_answers(shards, good)
    # One huge bundle: the bad scan and its venue-mates share a tick.
    with ShardFleet(
        store, mapping, workers=2, bundle_size=10_000
    ) as fleet:
        tickets = fleet.submit_many(
            good[:2] + [(venue, np.zeros(11))] + good[2:]
        )
        fleet.flush()
        bad = tickets.pop(2)
        got = np.stack([t.result(timeout=60.0) for t in tickets])
        with pytest.raises(ServingError, match="expects"):
            bad.result(timeout=60.0)
        stats = fleet.stats()
    np.testing.assert_array_equal(got, expected)
    assert stats.errors == 1
    assert stats.requests == 5


def test_fleet_unknown_venue_fails_in_caller(city):
    store, mapping, pools, _ = city
    with ShardFleet(store, mapping, workers=2) as fleet:
        with pytest.raises(ServingError, match="unknown venue"):
            fleet.submit("venue-none", np.zeros(12))


def test_fleet_accepts_shard_key_venues(city):
    """A ``ShardKey`` and its rendered string name one venue, both in
    the mapping and at submit, and get bit-identical answers."""
    store, mapping, pools, _ = city
    venues = sorted(mapping)[:4]
    # Half the mapping keyed by string, half by ShardKey.
    floored = {
        (f"{v}/f1" if i % 2 else ShardKey(v, "f1")): mapping[v]
        for i, v in enumerate(venues)
    }
    items = [(v, row) for v in venues for row in pools[v][:3]]
    with ShardFleet(store, floored, workers=2) as fleet:
        assert fleet.venues == tuple(f"{v}/f1" for v in venues)
        by_string = [fleet.submit(f"{v}/f1", row) for v, row in items]
        by_key = [
            fleet.submit(ShardKey(v, "f1"), row) for v, row in items
        ]
        by_many = fleet.submit_many(
            [(ShardKey(v, "f1"), row) for v, row in items]
        )
        fleet.flush()
        want = np.stack([t.result(timeout=60.0) for t in by_string])
        for tickets in (by_key, by_many):
            got = np.stack([t.result(timeout=60.0) for t in tickets])
            np.testing.assert_array_equal(got, want)


def test_fleet_respawns_crashed_worker_bit_identical(city):
    store, mapping, pools, shards = city
    venue = sorted(mapping)[0]
    row = pools[venue][0]
    expected = shards[venue].locate(row[None])[0]
    with ShardFleet(store, mapping, workers=2) as fleet:
        first = fleet.locate(venue, row)
        victim = fleet.partition(venue)
        pid = fleet._workers[victim].proc.pid
        os.kill(pid, signal.SIGKILL)
        # The dead worker is detected, respawned, and the venue
        # re-loaded from the store on the next query for it.
        deadline = time.monotonic() + 30.0
        # ``proc`` is None while the respawn starts the new process.
        while getattr(fleet._workers[victim].proc, "pid", pid) == pid:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        second = fleet.locate(venue, row, timeout=60.0)
        stats = fleet.stats()
    np.testing.assert_array_equal(first, expected)
    np.testing.assert_array_equal(second, expected)
    assert stats.respawns == 1


def test_fleet_resubmits_inflight_requests_after_crash(city):
    store, mapping, pools, shards = city
    schedule = fleet_schedule(
        pools, 64, np.random.default_rng(9), zipf_exponent=1.1
    )
    expected = baseline_answers(shards, schedule)
    # Huge bundle: everything sits buffered/in-flight when the worker
    # owning venue 0 dies; the fleet must resubmit, not drop.
    with ShardFleet(
        store, mapping, workers=2, bundle_size=10_000
    ) as fleet:
        victim = fleet.partition(sorted(mapping)[0])
        tickets = fleet.submit_many(schedule)
        os.kill(fleet._workers[victim].proc.pid, signal.SIGKILL)
        fleet.flush()
        got = np.stack([t.result(timeout=60.0) for t in tickets])
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("late_bundle", [False, True])
def test_fleet_resubmits_each_buffered_row_once_after_crash(
    city, late_bundle
):
    """Rows still buffered when their worker dies are in flight too:
    the replacement worker serves each of them exactly once — also
    when a flush took them from the buffer before the crash and sends
    them after the respawn (``late_bundle``)."""
    store, mapping, pools, shards = city
    venue = sorted(mapping)[0]
    schedule = [(venue, row) for row in pools[venue]]
    expected = baseline_answers(shards, schedule)
    # No background flush: the rows stay buffered until we say so.
    with ShardFleet(
        store,
        mapping,
        workers=2,
        bundle_size=10_000,
        flush_interval_ms=60_000.0,
    ) as fleet:
        victim = fleet.partition(venue)
        worker = fleet._workers[victim]
        tickets = fleet.submit_many(schedule)
        if late_bundle:
            with fleet._mu:  # what flush() does before it sends
                bundle, generation = worker.buffer, worker.generation
                worker.buffer = []
        pid = worker.proc.pid
        os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 30.0
        # ``proc`` is None while the respawn starts the new process.
        while getattr(worker.proc, "pid", pid) == pid:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        if late_bundle:
            fleet._send(worker, ("batch", bundle), generation)
        fleet.flush()
        got = np.stack([t.result(timeout=60.0) for t in tickets])
        stats = fleet.stats()
    np.testing.assert_array_equal(got, expected)
    assert stats.respawns == 1
    assert stats.workers[victim].requests == len(schedule) == 8


def test_fleet_stats_after_close_returns_final_stats_at_once(city):
    store, mapping, pools, _ = city
    schedule = fleet_schedule(
        pools, 40, np.random.default_rng(3), zipf_exponent=1.1
    )
    fleet = ShardFleet(store, mapping, workers=2).start()
    tickets = fleet.submit_many(schedule)
    fleet.flush()
    for ticket in tickets:
        ticket.result(timeout=60.0)
    fleet.close()
    t0 = time.monotonic()
    stats = fleet.stats()
    assert time.monotonic() - t0 < 1.0
    owned = [0, 0]
    for venue, _ in schedule:
        owned[fleet.partition(venue)] += 1
    assert [w.requests for w in stats.workers] == owned
    assert stats.requests == len(schedule)


def test_fleet_unloadable_venue_fails_only_its_rows(city, tmp_path):
    """A venue whose artifact turns to garbage after the mapping was
    built fails its own rows with the load error; the venues sharing
    its tick answer as if it were not there."""
    _, mapping, pools, shards = city
    store = ArtifactStore(tmp_path)
    for venue, shard in shards.items():
        shard.save(store.path_for(venue))
    broken = sorted(mapping)[0]
    schedule = fleet_schedule(
        pools, 64, np.random.default_rng(13), zipf_exponent=1.1
    )
    bad = [i for i, (venue, _) in enumerate(schedule) if venue == broken]
    assert 0 < len(bad) < len(schedule)
    expected = baseline_answers(shards, schedule)
    with ShardFleet(
        store, mapping, workers=2, bundle_size=10_000
    ) as fleet:
        store.path_for(broken).write_bytes(b"not an artifact" * 64)
        tickets = fleet.submit_many(schedule)
        fleet.flush()
        for i, ticket in enumerate(tickets):
            if i in bad:
                with pytest.raises(ServingError, match="ArtifactError"):
                    ticket.result(timeout=60.0)
            else:
                np.testing.assert_array_equal(
                    ticket.result(timeout=60.0), expected[i]
                )
        stats = fleet.stats()
    assert stats.errors == len(bad)


def test_fleet_budget_below_one_shard_serves_multi_venue_ticks(city):
    """Every load in a tick evicts the venue grouped before it; the
    groups keep the shards they resolved, so the tick still answers
    bit-identically."""
    store, mapping, pools, shards = city
    schedule = fleet_schedule(
        pools, 64, np.random.default_rng(17), zipf_exponent=1.1
    )
    expected = baseline_answers(shards, schedule)
    with ShardFleet(
        store,
        mapping,
        workers=2,
        bundle_size=10_000,
        memory_budget_mb=1e-6,
    ) as fleet:
        tickets = fleet.submit_many(schedule)
        fleet.flush()
        got = np.stack([t.result(timeout=60.0) for t in tickets])
        stats = fleet.stats()
    np.testing.assert_array_equal(got, expected)
    assert stats.evictions > 0
    assert stats.errors == 0


def test_fleet_close_fails_leftover_tickets(city):
    store, mapping, pools, _ = city
    fleet = ShardFleet(store, mapping, workers=2, bundle_size=10_000)
    fleet.start()
    venue = sorted(mapping)[0]
    ticket = fleet.submit(venue, pools[venue][0])
    fleet.flush()
    fleet.wait_outstanding(0, timeout=60.0)
    assert ticket.error is None
    fleet.close()
    # After close, new work is refused.
    with pytest.raises(ServingError):
        fleet.submit(venue, pools[venue][0])


# ----------------------------------------------------------------------
# Telemetry: worker deltas merge into one fleet view
# ----------------------------------------------------------------------
def test_fleet_merges_worker_telemetry(city):
    store, mapping, pools, _ = city
    telemetry = Telemetry(sample_every=1, slow_ms=0.0)
    schedule = fleet_schedule(
        pools, 200, np.random.default_rng(21), zipf_exponent=1.1
    )
    with ShardFleet(
        store, mapping, workers=2, bundle_size=32, telemetry=telemetry
    ) as fleet:
        fleet.submit_many(schedule)
        fleet.flush()
        fleet.wait_outstanding(0, timeout=60.0)
        stats = fleet.stats()
    # close() joined the collectors, so every shipped delta is merged.
    m = telemetry.metrics
    # Parent-side counters + the end-to-end latency histogram.
    assert m.counter("fleet.requests").value == len(schedule)
    assert m.counter("fleet.resolved").value == len(schedule)
    assert m.counter("fleet.errors").value == 0
    assert m.histogram("fleet.request_seconds").count == len(schedule)
    # Worker deltas shipped over the pipes sum to the fleet totals.
    assert m.counter("worker.requests").value == len(schedule)
    assert (
        m.counter("registry.lazy_loads").value == stats.lazy_loads
    )
    # Each lazy load is one observation of the load-time histogram,
    # and each worker's load_seconds is its histogram's sum.
    loads = m.histogram("registry.load_seconds")
    assert loads.count == stats.lazy_loads > 0
    assert loads.total == pytest.approx(
        sum(w.registry.load_seconds for w in stats.workers)
    )
    # Gauges arrive relabelled per worker so sources never clobber.
    workers_seen = {
        labels.get("worker")
        for labels, _ in m.labelled("registry.resident_bytes")
        if labels
    }
    assert workers_seen == {"0", "1"}
    # Sampled worker serve spans were ingested into the fleet view.
    # A sampled tick is one worker.serve root with a shard:<key>
    # span per venue it served.
    spans = telemetry.spans()
    roots = [s for s in spans if s["name"] == "worker.serve"]
    assert roots
    assert all(
        child["name"].startswith("shard:")
        for root in roots
        for child in root["children"]
    )
    assert any(root["children"] for root in roots)
    # The FleetStats view stayed faithful to the same registry.
    assert stats.requests == len(schedule)
    assert stats.errors == 0


def test_fleet_internal_telemetry_still_aggregates(city):
    """Without an explicit telemetry bundle the fleet builds its own:
    metric aggregation works (stats views), tracing stays disarmed."""
    store, mapping, pools, _ = city
    venue = sorted(mapping)[0]
    with ShardFleet(store, mapping, workers=2) as fleet:
        fleet.locate(venue, pools[venue][0])
        stats = fleet.stats()
        m = fleet.telemetry.metrics
        assert m.counter("fleet.requests").value == 1
        assert fleet._worker_sample_every == 0
    assert stats.requests == 1
    assert fleet.telemetry.spans() == []


# ----------------------------------------------------------------------
# Slow smoke: small city, 2 workers, throughput sanity
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_fleet_smoke_two_workers_beats_baseline():
    from repro.serving import fleetbench

    result = fleetbench.run(
        n_venues=32,
        workers=2,
        requests=4096,
        seed=2,
    )
    data = result.data
    assert data["errors"] == 0
    assert data["parity_exact"] is True
    assert data["fleet"]["lazy_loads"] > 0
    assert (
        data["fleet"]["throughput"] >= data["baseline"]["throughput"]
    )
    # Acceptance: live percentiles off the fleet's own histogram
    # track the ticket-derived (loadgen-style) percentiles of the
    # same timed pass to within one bucket width.
    live = data["fleet"]["live_histogram"]
    for key in ("p50_ms", "p95_ms", "p99_ms"):
        exact = data["fleet"][key]
        assert (
            exact / BUCKET_FACTOR
            <= live[key]
            <= exact * BUCKET_FACTOR ** 2
        ), (key, exact, live[key])
