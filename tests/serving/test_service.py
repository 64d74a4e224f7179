"""PositioningService: sharding, routing, caching, stats,
duplicate coalescing, and thread safety under query/reload races."""

import threading

import numpy as np
import pytest

from repro.bisim import BiSIMConfig
from repro.core import MAROnlyDifferentiator, TopoACDifferentiator
from repro.exceptions import ServingError
from repro.positioning import KNNEstimator, WKNNEstimator
from repro.serving import (
    PositioningService,
    ServingPipeline,
    ShardKey,
    VenueShard,
)


@pytest.fixture(scope="module")
def service(kaide_smoke, longhu_smoke):
    """Two venues deployed on the instant (mean-fill) path."""
    svc = PositioningService(cache_size=64)
    for name, ds in (("kaide", kaide_smoke), ("longhu", longhu_smoke)):
        svc.deploy(
            name,
            ds.radio_map,
            TopoACDifferentiator(entities=ds.venue.plan.entities),
            estimator=WKNNEstimator(),
        )
    return svc


def scans(dataset, n, seed):
    rng = np.random.default_rng(seed)
    rps = dataset.venue.reference_points
    return np.stack(
        [
            dataset.channel.measure(rps[i % len(rps)], rng).rssi
            for i in range(n)
        ]
    )


class TestRouting:
    def test_venues_registered(self, service):
        assert service.venues == ("kaide", "longhu")

    def test_unknown_venue_rejected(self, service, kaide_smoke):
        with pytest.raises(ServingError, match="unknown venue"):
            service.query("mall99", scans(kaide_smoke, 1, 0)[0])

    def test_mixed_venue_batch_matches_per_venue(
        self, service, kaide_smoke, longhu_smoke
    ):
        """Interleaved venues route to the right shard, rows aligned."""
        ka = scans(kaide_smoke, 3, 1)
        lo = scans(longhu_smoke, 3, 2)
        venues = ["kaide", "longhu", "kaide", "longhu", "kaide", "longhu"]
        fps = [ka[0], lo[0], ka[1], lo[1], ka[2], lo[2]]
        mixed = service.query_batch(venues, fps)
        direct_ka = service.shard("kaide").locate(ka)
        direct_lo = service.shard("longhu").locate(lo)
        np.testing.assert_allclose(mixed[0::2], direct_ka)
        np.testing.assert_allclose(mixed[1::2], direct_lo)

    def test_single_query_shape(self, service, kaide_smoke):
        out = service.query("kaide", scans(kaide_smoke, 1, 3)[0])
        assert out.shape == (2,)

    def test_length_mismatch_rejected(self, service, kaide_smoke):
        with pytest.raises(ServingError, match="length mismatch"):
            service.query_batch(["kaide"], scans(kaide_smoke, 2, 4))

    def test_duplicate_registration_rejected(self, service, kaide_smoke):
        shard = service.shard("kaide")
        with pytest.raises(ServingError, match="already registered"):
            service.register(shard)


class TestMixedArrayBatch:
    """Mixed-venue (n, D) ndarray batches: the group-by-venue path."""

    @pytest.fixture(scope="class")
    def twin_service(self, kaide_smoke):
        """Two same-width venues, caching off: the grouped path."""
        svc = PositioningService(cache_size=0)
        for name in ("north", "south"):
            svc.deploy(
                name,
                kaide_smoke.radio_map,
                TopoACDifferentiator(
                    entities=kaide_smoke.venue.plan.entities
                ),
                estimator=WKNNEstimator(),
            )
        return svc

    def test_array_matches_row_sequence(self, twin_service, kaide_smoke):
        batch = scans(kaide_smoke, 8, 60)
        venues = ["north", "south"] * 4
        via_array = twin_service.query_batch(venues, batch)
        via_rows = twin_service.query_batch(venues, list(batch))
        np.testing.assert_array_equal(via_array, via_rows)

    def test_rows_route_to_their_venue(self, twin_service, kaide_smoke):
        batch = scans(kaide_smoke, 6, 61)
        venues = ["south", "north", "north", "south", "north", "south"]
        out = twin_service.query_batch(venues, batch)
        for venue in ("north", "south"):
            rows = [i for i, v in enumerate(venues) if v == venue]
            direct = twin_service.shard(venue).locate(batch[rows])
            np.testing.assert_array_equal(out[rows], direct)

    def test_wrong_width_rejected(self, twin_service, kaide_smoke):
        batch = scans(kaide_smoke, 4, 62)[:, :-1]
        with pytest.raises(ServingError, match="expects"):
            twin_service.query_batch(
                ["north", "south", "north", "south"], batch
            )

    def test_stats_count_rows_per_venue(self, kaide_smoke):
        svc = PositioningService(cache_size=0)
        for name in ("north", "south"):
            svc.deploy(
                name,
                kaide_smoke.radio_map,
                TopoACDifferentiator(
                    entities=kaide_smoke.venue.plan.entities
                ),
                estimator=WKNNEstimator(),
            )
        batch = scans(kaide_smoke, 5, 63)
        svc.query_batch(
            ["north", "south", "north", "north", "south"], batch
        )
        stats = svc.stats
        assert stats.per_venue == {"north": 3, "south": 2}
        assert stats.queries == 5
        assert stats.batches == 1
        # Cache disabled: the grouped path never touched key
        # machinery, so no hit/miss counters moved.
        assert stats.cache_hits == 0
        assert stats.cache_misses == 0

    def test_mixed_array_with_cache_coalesces(self, kaide_smoke):
        svc = PositioningService(cache_size=64)
        for name in ("north", "south"):
            svc.deploy(
                name,
                kaide_smoke.radio_map,
                TopoACDifferentiator(
                    entities=kaide_smoke.venue.plan.entities
                ),
                estimator=WKNNEstimator(),
            )
        base = scans(kaide_smoke, 2, 64)
        batch = np.vstack([base, base])  # every row repeats once
        venues = ["north", "south", "north", "south"]
        out = svc.query_batch(venues, batch)
        np.testing.assert_array_equal(out[:2], out[2:])
        assert svc.stats.cache_hits == 2  # in-batch repeats fan out
        assert svc.stats.cache_misses == 2
    def test_repeat_query_hits_cache(self, kaide_smoke):
        svc = PositioningService(cache_size=16)
        svc.deploy(
            "kaide",
            kaide_smoke.radio_map,
            MAROnlyDifferentiator(),
            estimator=KNNEstimator(),
        )
        fp = scans(kaide_smoke, 1, 5)[0]
        first = svc.query("kaide", fp)
        assert svc.stats.cache_hits == 0
        second = svc.query("kaide", fp)
        assert svc.stats.cache_hits == 1
        np.testing.assert_allclose(first, second)

    def test_lru_eviction_bound(self, kaide_smoke):
        svc = PositioningService(cache_size=4)
        svc.deploy(
            "kaide",
            kaide_smoke.radio_map,
            MAROnlyDifferentiator(),
            estimator=KNNEstimator(),
        )
        batch = scans(kaide_smoke, 10, 6)
        svc.query_batch(["kaide"] * 10, batch)
        assert len(svc._cache) <= 4

    def test_cache_disabled(self, kaide_smoke):
        svc = PositioningService(cache_size=0)
        svc.deploy(
            "kaide",
            kaide_smoke.radio_map,
            MAROnlyDifferentiator(),
            estimator=KNNEstimator(),
        )
        fp = scans(kaide_smoke, 1, 7)[0]
        svc.query("kaide", fp)
        svc.query("kaide", fp)
        assert svc.stats.cache_hits == 0
        assert len(svc._cache) == 0


class TestDuplicateCoalescing:
    """Identical (venue, cache key) rows inside one batch: compute
    once, fan the answer out, count the repeats as hits."""

    def make_service(self, kaide_smoke, cache_size=64):
        svc = PositioningService(cache_size=cache_size)
        svc.deploy(
            "kaide",
            kaide_smoke.radio_map,
            MAROnlyDifferentiator(),
            estimator=KNNEstimator(),
        )
        return svc

    def test_repeats_counted_as_hits_not_misses(self, kaide_smoke):
        svc = self.make_service(kaide_smoke)
        fp = scans(kaide_smoke, 1, 20)[0]
        batch = np.stack([fp, fp, fp, fp])
        out = svc.query_batch(["kaide"] * 4, batch)
        assert svc.stats.cache_misses == 1
        assert svc.stats.cache_hits == 3
        np.testing.assert_allclose(out, np.tile(out[0], (4, 1)))

    def test_shard_sees_each_distinct_row_once(self, kaide_smoke):
        svc = self.make_service(kaide_smoke)
        shard = svc.shard("kaide")
        served_rows = []
        original = shard.locate

        def counting_locate(queries):
            served_rows.append(len(queries))
            return original(queries)

        shard.locate = counting_locate
        a, b = scans(kaide_smoke, 2, 21)
        svc.query_batch(
            ["kaide"] * 6, np.stack([a, b, a, b, a, a])
        )
        shard.locate = original
        assert served_rows == [2]  # two distinct rows, one shard call

    def test_fanned_out_rows_match_direct_compute(self, kaide_smoke):
        svc = self.make_service(kaide_smoke)
        a, b = scans(kaide_smoke, 2, 22)
        direct = svc.shard("kaide").locate(np.stack([a, b]))
        out = svc.query_batch(["kaide"] * 4, np.stack([a, b, b, a]))
        np.testing.assert_allclose(out[0], direct[0])
        np.testing.assert_allclose(out[3], direct[0])
        np.testing.assert_allclose(out[1], direct[1])
        np.testing.assert_allclose(out[2], direct[1])

    def test_no_dedup_when_cache_disabled(self, kaide_smoke):
        """cache_size=0 turns off the quantized-key layer entirely —
        duplicates recompute, and no hit/miss is counted."""
        svc = self.make_service(kaide_smoke, cache_size=0)
        fp = scans(kaide_smoke, 1, 23)[0]
        svc.query_batch(["kaide"] * 3, np.stack([fp, fp, fp]))
        assert svc.stats.cache_hits == 0
        assert svc.stats.cache_misses == 0


class TestShardValidation:
    def test_impute_rejects_wrong_width(self, service):
        """The public impute names the venue contract instead of
        surfacing a deep imputation/broadcast error."""
        shard = service.shard("kaide")
        with pytest.raises(ServingError, match="kaide"):
            shard.impute(np.zeros((2, shard.n_aps + 3)))

    def test_impute_rejects_wrong_ndim(self, service):
        shard = service.shard("kaide")
        with pytest.raises(ServingError, match="expects"):
            shard.impute(np.zeros(shard.n_aps))

    def test_locate_rejects_wrong_width(self, service):
        shard = service.shard("kaide")
        with pytest.raises(ServingError, match="expects"):
            shard.locate(np.zeros((2, shard.n_aps + 1)))


class TestCacheInterleaving:
    """Eviction order, per-venue invalidation, and torn-state races."""

    def test_lru_eviction_order_at_boundary(self, kaide_smoke):
        """At capacity, the least-recently-USED entry goes first: a
        re-touched old entry survives, the untouched one is evicted."""
        svc = PositioningService(cache_size=3)
        svc.deploy(
            "kaide",
            kaide_smoke.radio_map,
            MAROnlyDifferentiator(),
            estimator=KNNEstimator(),
        )
        a, b, c, d = scans(kaide_smoke, 4, 24)
        for fp in (a, b, c):
            svc.query("kaide", fp)  # cache = [a, b, c]
        svc.query("kaide", a)  # touch a -> LRU order [b, c, a]
        assert svc.stats.cache_hits == 1
        svc.query("kaide", d)  # evicts b -> [c, a, d]
        hits_before = svc.stats.cache_hits
        svc.query("kaide", a)
        svc.query("kaide", c)
        svc.query("kaide", d)
        assert svc.stats.cache_hits == hits_before + 3
        misses_before = svc.stats.cache_misses
        svc.query("kaide", b)  # evicted: must miss
        assert svc.stats.cache_misses == misses_before + 1

    def test_reload_invalidates_only_reloaded_venue(
        self, kaide_smoke, longhu_smoke, tmp_path
    ):
        svc = PositioningService(cache_size=64)
        for name, ds in (
            ("kaide", kaide_smoke),
            ("longhu", longhu_smoke),
        ):
            svc.deploy(
                name,
                ds.radio_map,
                MAROnlyDifferentiator(),
                estimator=KNNEstimator(),
            )
        ka = scans(kaide_smoke, 2, 25)
        lo = scans(longhu_smoke, 2, 26)
        svc.query_batch(["kaide"] * 2, ka)
        svc.query_batch(["longhu"] * 2, lo)
        cached_venues = [k[0] for k in svc._cache]
        assert cached_venues.count("kaide") == 2
        assert cached_venues.count("longhu") == 2

        path = tmp_path / "kaide.npz"
        svc.shard("kaide").save(path)
        svc.reload("kaide", path)
        cached_venues = [k[0] for k in svc._cache]
        assert cached_venues.count("kaide") == 0  # invalidated
        assert cached_venues.count("longhu") == 2  # untouched
        hits = svc.stats.cache_hits
        svc.query_batch(["longhu"] * 2, lo)
        assert svc.stats.cache_hits == hits + 2

    def test_reload_bumps_epoch_and_keeps_results_fresh(
        self, kaide_smoke, tmp_path
    ):
        svc = PositioningService(cache_size=64)
        shard = svc.deploy(
            "kaide",
            kaide_smoke.radio_map,
            MAROnlyDifferentiator(),
            estimator=KNNEstimator(),
        )
        path = tmp_path / "kaide.npz"
        shard.save(path)
        epoch = shard.epoch
        svc.reload("kaide", path)
        assert shard.epoch == epoch + 1

    def test_stale_epoch_result_not_cached(self, kaide_smoke, tmp_path):
        """A batch computed against a pipeline that was reloaded
        mid-flight must not repopulate the invalidated cache."""
        svc = PositioningService(cache_size=64)
        shard = svc.deploy(
            "kaide",
            kaide_smoke.radio_map,
            MAROnlyDifferentiator(),
            estimator=KNNEstimator(),
        )
        path = tmp_path / "kaide.npz"
        shard.save(path)
        fp = scans(kaide_smoke, 1, 27)[0]

        original = shard.locate

        def racing_locate(queries):
            out = original(queries)
            svc.reload("kaide", path)  # reload lands mid-query
            return out

        shard.locate = racing_locate
        svc.query("kaide", fp)
        shard.locate = original
        assert len(svc._cache) == 0  # stale insert was dropped

    @pytest.mark.parametrize("cache_size", [0, 64])
    @pytest.mark.parametrize("form", ["ndarray", "list"])
    def test_batch_survives_unregister_mid_flight(
        self, kaide_smoke, form, cache_size
    ):
        """An unregister landing between the probe and the publish:
        the batch returns what the shard it resolved computed, and
        caches none of it for a later re-registration to serve."""
        svc = PositioningService(cache_size=cache_size)
        shard = svc.deploy(
            "kaide",
            kaide_smoke.radio_map,
            MAROnlyDifferentiator(),
            estimator=KNNEstimator(),
        )
        batch = scans(kaide_smoke, 4, 29)
        expected = shard.locate(batch)
        original = shard.locate

        def racing_locate(queries):
            out = original(queries)
            svc.unregister("kaide")  # eviction lands mid-batch
            return out

        shard.locate = racing_locate
        fingerprints = batch if form == "ndarray" else list(batch)
        out = svc.query_batch(["kaide"] * 4, fingerprints)
        shard.locate = original
        np.testing.assert_array_equal(out, expected)
        assert not [k for k in svc._cache if k[0] == "kaide"]
        assert svc.venues == ()

    def test_concurrent_queries_consistent(self, kaide_smoke):
        """Many threads, shared service: every answer matches the
        single-threaded reference and every query is counted."""
        svc = PositioningService(cache_size=256)
        svc.deploy(
            "kaide",
            kaide_smoke.radio_map,
            MAROnlyDifferentiator(),
            estimator=KNNEstimator(),
        )
        batch = scans(kaide_smoke, 16, 28)
        expected = svc.shard("kaide").locate(batch)
        n_threads, rounds = 4, 10
        failures = []

        def worker():
            for _ in range(rounds):
                out = svc.query_batch(["kaide"] * len(batch), batch)
                if not np.allclose(out, expected, atol=1e-8):
                    failures.append(out)

        threads = [
            threading.Thread(target=worker) for _ in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures
        assert (
            svc.stats.queries == n_threads * rounds * len(batch)
        )
        assert (
            svc.stats.cache_hits + svc.stats.cache_misses
            == svc.stats.queries
        )

    def test_query_reload_stress_no_torn_results(
        self, kaide_smoke, tmp_path
    ):
        """Readers hammer query_batch while a writer hot-swaps the
        shard between two different pipelines: every observed answer
        must exactly match one whole pipeline (A or B) — a mixture
        would be a torn read — and no stale cache entry survives."""
        svc = PositioningService(cache_size=128)
        shard = svc.deploy(
            "kaide",
            kaide_smoke.radio_map,
            MAROnlyDifferentiator(),
            estimator=KNNEstimator(k=1),
        )
        path_a = tmp_path / "a.npz"
        shard.save(path_a)
        # Pipeline B: same venue, different estimator -> different
        # answers for the same probes.
        shard_b = PositioningService(cache_size=0).deploy(
            "kaide",
            kaide_smoke.radio_map,
            MAROnlyDifferentiator(),
            estimator=WKNNEstimator(k=5),
        )
        path_b = tmp_path / "b.npz"
        shard_b.save(path_b)

        probes = scans(kaide_smoke, 8, 29)
        out_a = shard.locate(probes)
        out_b = shard_b.locate(probes)
        assert not np.allclose(out_a, out_b)  # distinguishable

        stop = threading.Event()
        bad = []

        def reader():
            keys = ["kaide"] * len(probes)
            while not stop.is_set():
                got = svc.query_batch(keys, probes)
                for row in range(len(probes)):
                    ok_a = np.allclose(got[row], out_a[row], atol=1e-8)
                    ok_b = np.allclose(got[row], out_b[row], atol=1e-8)
                    if not (ok_a or ok_b):
                        bad.append(got[row])

        def writer():
            for i in range(20):
                svc.reload(
                    "kaide", path_b if i % 2 == 0 else path_a
                )

        readers = [threading.Thread(target=reader) for _ in range(3)]
        for t in readers:
            t.start()
        w = threading.Thread(target=writer)
        w.start()
        w.join()
        stop.set()
        for t in readers:
            t.join()
        assert not bad, f"torn/stale results observed: {bad[:3]}"
        # Final state is pipeline A (last reload): a fresh query must
        # serve A's answers, not anything cached from B.
        final = svc.query_batch(["kaide"] * len(probes), probes)
        np.testing.assert_allclose(final, out_a, atol=1e-8)


class TestStats:
    def test_counters_accumulate(self, kaide_smoke):
        svc = PositioningService()
        svc.deploy(
            "kaide",
            kaide_smoke.radio_map,
            MAROnlyDifferentiator(),
            estimator=KNNEstimator(),
        )
        batch = scans(kaide_smoke, 5, 8)
        svc.query_batch(["kaide"] * 5, batch)
        assert svc.stats.queries == 5
        assert svc.stats.batches == 1
        assert svc.stats.per_venue == {"kaide": 5}
        assert svc.stats.seconds > 0
        assert svc.stats.throughput > 0
        assert "kaide" in svc.stats.render()
        svc.reset_stats()
        assert svc.stats.queries == 0

    def test_stats_is_a_detached_snapshot(self, kaide_smoke):
        svc = PositioningService()
        svc.deploy(
            "kaide",
            kaide_smoke.radio_map,
            MAROnlyDifferentiator(),
            estimator=KNNEstimator(),
        )
        batch = scans(kaide_smoke, 3, 28)
        before = svc.stats
        svc.query_batch(["kaide"] * 3, batch)
        after = svc.stats
        # Old snapshots never move, and mutating a snapshot (incl.
        # its per_venue dict) cannot corrupt the live counters.
        assert before.queries == 0
        after.queries = 999
        after.per_venue["kaide"] = 999
        assert svc.stats.queries == 3
        assert svc.stats.per_venue == {"kaide": 3}

    def test_stats_snapshot_atomic_under_concurrent_traffic(
        self, kaide_smoke
    ):
        """A reader hammering ``stats`` during multi-threaded traffic
        must only ever see consistent snapshots — with caching on,
        ``queries == cache_hits + cache_misses`` and the per-venue
        counts summing to ``queries`` — never a torn mix of a batch's
        hits without its queries."""
        svc = PositioningService(cache_size=256)
        svc.deploy(
            "kaide",
            kaide_smoke.radio_map,
            MAROnlyDifferentiator(),
            estimator=KNNEstimator(),
        )
        pool = np.round(scans(kaide_smoke, 16, 29))
        stop = threading.Event()
        torn: list = []

        def reader():
            while not stop.is_set():
                snap = svc.stats
                if snap.queries != snap.cache_hits + snap.cache_misses:
                    torn.append(
                        (
                            snap.queries,
                            snap.cache_hits,
                            snap.cache_misses,
                        )
                    )
                if sum(snap.per_venue.values()) != snap.queries:
                    torn.append(("per_venue", dict(snap.per_venue)))

        def writer(seed):
            rng = np.random.default_rng(seed)
            for _ in range(40):
                picks = rng.integers(0, len(pool), size=8)
                svc.query_batch(["kaide"] * 8, pool[picks])

        readers = [
            threading.Thread(target=reader) for _ in range(2)
        ]
        writers = [
            threading.Thread(target=writer, args=(s,))
            for s in range(4)
        ]
        for t in readers + writers:
            t.start()
        for t in writers:
            t.join()
        stop.set()
        for t in readers:
            t.join()
        assert not torn, torn[:5]
        final = svc.stats
        assert final.queries == 4 * 40 * 8
        assert final.queries == final.cache_hits + final.cache_misses


@pytest.fixture(scope="module")
def core_shards(kaide_smoke, longhu_smoke):
    """Two same-width venues over one map plus a wider one."""
    return {
        name: VenueShard.build(
            name,
            ds.radio_map,
            MAROnlyDifferentiator(),
            estimator=WKNNEstimator(),
        )
        for name, ds in (
            ("north", kaide_smoke),
            ("south", kaide_smoke),
            ("longhu", longhu_smoke),
        )
    }


class TestServeCore:
    """Every entry shape goes through the one group → cache filter →
    locate → publish core and gets the same answers and counters."""

    @staticmethod
    def make_batch(shape, kaide_smoke, longhu_smoke):
        """``(venues, rows)`` with in-batch duplicate rows."""
        a, b, c = scans(kaide_smoke, 3, 70)
        x, y = scans(longhu_smoke, 2, 71)
        if shape == "single":
            return ["north"] * 6, np.stack([a, b, a, c, b, a])
        if shape == "mixed":
            venues = ["north", "south", "north", "south", "north"]
            return venues, np.stack([a, a, b, a, a])
        venues = ["north", "longhu", "north", "longhu", "north"]
        return venues, [a, x, b, x, a]

    @pytest.mark.parametrize("cache_size", [0, 64])
    @pytest.mark.parametrize(
        "shape", ["single", "mixed", "ragged", "pipeline"]
    )
    def test_parity_matrix(
        self, core_shards, kaide_smoke, longhu_smoke, shape, cache_size
    ):
        svc = PositioningService(cache_size=cache_size)
        for shard in core_shards.values():
            svc.register(shard)
        venues, rows = self.make_batch(
            "ragged" if shape == "pipeline" else shape,
            kaide_smoke,
            longhu_smoke,
        )
        expected = np.empty((len(venues), 2))
        for venue in set(venues):
            idx = [i for i, v in enumerate(venues) if v == venue]
            expected[idx] = core_shards[venue].locate(
                np.stack([rows[i] for i in idx])
            )
        if shape == "pipeline":
            with ServingPipeline(
                svc, max_batch=len(venues), max_delay_ms=5000.0
            ) as pipeline:
                tickets = [
                    pipeline.submit(v, fp) for v, fp in zip(venues, rows)
                ]
                out = np.stack([t.result(timeout=10.0) for t in tickets])
            assert pipeline.stats.batches == 1
        else:
            out = svc.query_batch(venues, rows)
        np.testing.assert_array_equal(out, expected)
        stats = svc.stats
        assert stats.queries == len(venues)
        assert stats.batches == 1
        assert sum(stats.per_venue.values()) == stats.queries
        if cache_size:
            assert stats.queries == stats.cache_hits + stats.cache_misses
            assert stats.cache_hits > 0  # the duplicates coalesced
        else:
            assert stats.cache_hits == stats.cache_misses == 0
            assert not svc._cache

    def test_cache_off_single_venue_batch_is_not_copied(
        self, core_shards, kaide_smoke
    ):
        svc = PositioningService(cache_size=0)
        shard = svc.register(core_shards["north"])
        batch = scans(kaide_smoke, 8, 72)
        seen = []
        original = shard.locate

        def spying_locate(queries):
            seen.append(queries)
            return original(queries)

        shard.locate = spying_locate
        try:
            svc.query_batch(["north"] * 8, batch)
        finally:
            del shard.locate
        assert len(seen) == 1
        assert np.shares_memory(seen[0], batch)

    def test_wrong_width_row_rejected_before_any_side_effect(
        self, core_shards, kaide_smoke
    ):
        svc = PositioningService(cache_size=64)
        svc.register(core_shards["north"])
        a, b = scans(kaide_smoke, 2, 74)
        with pytest.raises(ServingError, match="'north' expects"):
            svc.query_batch(["north"] * 3, [a, b[:-1], b])
        assert svc.stats.queries == svc.stats.batches == 0
        assert not svc._cache

    def test_locate_failure_reraised_after_other_venues_served(
        self, core_shards, kaide_smoke
    ):
        """The healthy venue of a batch is served, cached and counted;
        then the failing venue's error reaches the caller."""
        svc = PositioningService(cache_size=64)
        svc.register(core_shards["north"])
        broken = VenueShard.build(
            "south", kaide_smoke.radio_map, MAROnlyDifferentiator()
        )

        def failing_locate(queries, tracer=None):
            raise RuntimeError("locate failed")

        broken.locate = failing_locate
        svc.register(broken)
        a, b = scans(kaide_smoke, 2, 75)
        with pytest.raises(RuntimeError, match="locate failed"):
            svc.query_batch(["south", "north"], np.stack([a, b]))
        stats = svc.stats
        assert stats.per_venue == {"north": 1}
        assert stats.queries == stats.cache_misses == 1
        np.testing.assert_array_equal(
            svc.query("north", b), core_shards["north"].locate(b[None])[0]
        )
        assert svc.stats.cache_hits == 1

    @pytest.mark.parametrize("form", ["ndarray", "list"])
    def test_shard_key_rows_share_the_venue(self, kaide_smoke, form):
        svc = PositioningService(cache_size=64)
        svc.deploy(
            "kaide",
            kaide_smoke.radio_map,
            MAROnlyDifferentiator(),
            estimator=KNNEstimator(),
        )
        batch = scans(kaide_smoke, 4, 73)
        expected = svc.shard("kaide").locate(batch)
        venues = ["kaide", ShardKey("kaide"), ShardKey("kaide"), "kaide"]
        fingerprints = batch if form == "ndarray" else list(batch)
        out = svc.query_batch(venues, fingerprints)
        np.testing.assert_array_equal(out, expected)
        assert svc.stats.per_venue == {"kaide": 4}
        assert svc.stats.cache_misses == 4
        again = svc.query_batch(venues, fingerprints)
        np.testing.assert_array_equal(again, expected)
        assert svc.stats.cache_hits == 4
        assert svc.stats.per_venue == {"kaide": 8}
        assert {k[0] for k in svc._cache} == {"kaide"}


@pytest.mark.slow
class TestBiSIMServing:
    """Full pipeline (differentiate → BiSIM impute → estimate) end to end."""

    def test_bisim_shard_serves_batches(self, kaide_smoke):
        svc = PositioningService()
        svc.deploy(
            "kaide",
            kaide_smoke.radio_map,
            TopoACDifferentiator(
                entities=kaide_smoke.venue.plan.entities
            ),
            estimator=WKNNEstimator(),
            bisim_config=BiSIMConfig(hidden_size=12, epochs=3),
        )
        shard = svc.shard("kaide")
        assert shard.online_imputer is not None
        batch = scans(kaide_smoke, 8, 9)
        out = svc.query_batch(["kaide"] * 8, batch)
        assert out.shape == (8, 2)
        assert np.isfinite(out).all()
        # Batched service answers == per-query shard answers.
        singles = np.stack(
            [svc.shard("kaide").locate(fp[None, :])[0] for fp in batch]
        )
        np.testing.assert_allclose(out, singles, atol=1e-8)
