"""ServingPipeline: micro-batching, coalescing, fast path, lifecycle."""

import threading
import time

import numpy as np
import pytest

from repro.core import MAROnlyDifferentiator
from repro.exceptions import ServingError
from repro.positioning import KNNEstimator, WKNNEstimator
from repro.serving import PositioningService, ServingPipeline, ShardKey


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
def service(kaide_smoke, longhu_smoke):
    svc = PositioningService(cache_size=256)
    for name, ds in (("kaide", kaide_smoke), ("longhu", longhu_smoke)):
        svc.deploy(
            name,
            ds.radio_map,
            MAROnlyDifferentiator(),
            estimator=WKNNEstimator(),
        )
    return svc


class TestLifecycle:
    def test_context_manager_starts_and_stops(self, service):
        with ServingPipeline(service) as pipeline:
            assert pipeline.running
        assert not pipeline.running

    def test_double_start_rejected(self, service):
        with ServingPipeline(service) as pipeline:
            with pytest.raises(ServingError, match="already started"):
                pipeline.start()

    def test_submit_before_start_rejected(self, service, kaide_smoke):
        pipeline = ServingPipeline(service)
        with pytest.raises(ServingError, match="not running"):
            pipeline.submit("kaide", scans(kaide_smoke, 1, 0)[0])

    def test_submit_after_stop_rejected(self, service, kaide_smoke):
        pipeline = ServingPipeline(service)
        with pipeline:
            pass
        with pytest.raises(ServingError, match="not running"):
            pipeline.submit("kaide", scans(kaide_smoke, 1, 0)[0])

    def test_stop_drains_pending(self, service, kaide_smoke):
        """Tickets queued at stop() time still resolve."""
        batch = scans(kaide_smoke, 8, 1)
        pipeline = ServingPipeline(service, max_delay_ms=50.0)
        pipeline.start()
        tickets = pipeline.submit_many("kaide", batch)
        pipeline.stop()
        out = np.stack([t.result(timeout=1.0) for t in tickets])
        assert out.shape == (8, 2)
        assert np.isfinite(out).all()

    def test_invalid_config_rejected(self, service):
        with pytest.raises(ServingError, match="max_batch"):
            ServingPipeline(service, max_batch=0)
        with pytest.raises(ServingError, match="max_delay_ms"):
            ServingPipeline(service, max_delay_ms=-1.0)


class TestCorrectness:
    def test_results_match_direct_query_batch(
        self, service, kaide_smoke
    ):
        batch = scans(kaide_smoke, 16, 2)
        direct = service.shard("kaide").locate(batch)
        with ServingPipeline(service, max_delay_ms=1.0) as pipeline:
            tickets = pipeline.submit_many("kaide", batch)
            out = np.stack([t.result(timeout=5.0) for t in tickets])
        np.testing.assert_allclose(out, direct, atol=1e-8)

    def test_mixed_venues_route_correctly(
        self, service, kaide_smoke, longhu_smoke
    ):
        ka = scans(kaide_smoke, 4, 3)
        lo = scans(longhu_smoke, 4, 4)
        direct_ka = service.shard("kaide").locate(ka)
        direct_lo = service.shard("longhu").locate(lo)
        with ServingPipeline(service, max_delay_ms=1.0) as pipeline:
            tk = pipeline.submit_many("kaide", ka)
            tl = pipeline.submit_many("longhu", lo)
            out_ka = np.stack([t.result(timeout=5.0) for t in tk])
            out_lo = np.stack([t.result(timeout=5.0) for t in tl])
        np.testing.assert_allclose(out_ka, direct_ka, atol=1e-8)
        np.testing.assert_allclose(out_lo, direct_lo, atol=1e-8)

    def test_locate_single_blocking(self, service, kaide_smoke):
        fp = scans(kaide_smoke, 1, 5)[0]
        direct = service.shard("kaide").locate(fp[None, :])[0]
        with ServingPipeline(service, max_delay_ms=1.0) as pipeline:
            out = pipeline.locate("kaide", fp, timeout=5.0)
        np.testing.assert_allclose(out, direct, atol=1e-8)

    def test_concurrent_submitters_all_answered(
        self, service, kaide_smoke
    ):
        """Many threads x many requests: every ticket resolves with a
        finite location and the stats account for every request."""
        n_threads, per_thread = 6, 20
        batch = scans(kaide_smoke, per_thread, 6)
        results = [None] * n_threads

        with ServingPipeline(service, max_delay_ms=0.5) as pipeline:

            def worker(wid):
                tickets = [
                    pipeline.submit("kaide", row) for row in batch
                ]
                results[wid] = np.stack(
                    [t.result(timeout=10.0) for t in tickets]
                )

            threads = [
                threading.Thread(target=worker, args=(w,))
                for w in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        expected = service.shard("kaide").locate(batch)
        for got in results:
            np.testing.assert_allclose(got, expected, atol=1e-8)
        assert pipeline.stats.submitted == n_threads * per_thread
        assert (
            pipeline.stats.fast_path_hits + pipeline.stats.flushed
            == pipeline.stats.submitted
        )


class TestCoalescing:
    def test_queued_requests_coalesce_into_one_batch(
        self, kaide_smoke
    ):
        """Requests submitted while the flusher is blocked flush as
        one micro-batch, not one service batch per request."""
        svc = PositioningService(cache_size=0)
        svc.deploy(
            "kaide",
            kaide_smoke.radio_map,
            MAROnlyDifferentiator(),
            estimator=KNNEstimator(),
        )
        batch = scans(kaide_smoke, 12, 7)
        pipeline = ServingPipeline(svc, max_delay_ms=500.0)
        tickets = []
        # Queue everything before the flusher exists, then start it:
        # the deadline window is wide, so all rows flush together.
        with pipeline._mu:
            pipeline._started = True
        tickets = pipeline.submit_many("kaide", batch)
        pipeline._thread = threading.Thread(
            target=pipeline._run, daemon=True
        )
        pipeline._thread.start()
        out = np.stack([t.result(timeout=5.0) for t in tickets])
        pipeline.stop()
        assert out.shape == (12, 2)
        assert pipeline.stats.batches == 1
        assert pipeline.stats.largest_batch == 12
        assert svc.stats.batches == 1

    def test_max_batch_splits_flushes(self, kaide_smoke):
        svc = PositioningService(cache_size=0)
        svc.deploy(
            "kaide",
            kaide_smoke.radio_map,
            MAROnlyDifferentiator(),
            estimator=KNNEstimator(),
        )
        batch = scans(kaide_smoke, 10, 8)
        with ServingPipeline(
            svc, max_batch=4, max_delay_ms=200.0
        ) as pipeline:
            tickets = pipeline.submit_many("kaide", batch)
            for t in tickets:
                t.result(timeout=5.0)
        assert pipeline.stats.batches >= 3  # 10 rows / max_batch 4
        assert pipeline.stats.largest_batch <= 4

    def test_deadline_flush_serves_lone_request(
        self, service, kaide_smoke
    ):
        fp = scans(kaide_smoke, 1, 9)[0]
        with ServingPipeline(service, max_delay_ms=5.0) as pipeline:
            start = time.perf_counter()
            out = pipeline.locate("kaide", fp, timeout=5.0)
            elapsed = time.perf_counter() - start
        assert np.isfinite(out).all()
        assert elapsed < 2.0  # deadline fired, not stuck forever


def queued_pipeline(svc):
    """A pipeline that queues submits until :func:`start_flusher`, so
    they all land in one flush."""
    pipeline = ServingPipeline(svc, max_delay_ms=500.0)
    with pipeline._mu:
        pipeline._started = True
    return pipeline


def start_flusher(pipeline):
    pipeline._thread = threading.Thread(target=pipeline._run, daemon=True)
    pipeline._thread.start()


class BrokenCompletion:
    def complete(self, queries):
        raise RuntimeError("completion failed")


class TestFailureContainment:
    """A venue that fails inside a flush fails only its own tickets."""

    @pytest.fixture
    def twin(self, kaide_smoke):
        def make(cache_size):
            svc = PositioningService(cache_size=cache_size)
            for name in ("good", "bad"):
                svc.deploy(
                    name,
                    kaide_smoke.radio_map,
                    MAROnlyDifferentiator(),
                    estimator=WKNNEstimator(),
                )
            return svc

        return make

    @pytest.mark.parametrize("cache_size", [0, 64])
    def test_unregister_mid_queue_fails_only_that_venue(
        self, twin, kaide_smoke, cache_size
    ):
        svc = twin(cache_size)
        good, bad = scans(kaide_smoke, 2, 40)
        alone = svc.shard("good").locate(good[None])[0]
        pipeline = queued_pipeline(svc)
        t_good = pipeline.submit("good", good)
        t_bad = pipeline.submit("bad", bad)
        svc.unregister("bad")
        start_flusher(pipeline)
        np.testing.assert_array_equal(t_good.result(timeout=5.0), alone)
        with pytest.raises(ServingError, match="unknown venue 'bad'"):
            t_bad.result(timeout=5.0)
        pipeline.stop()
        assert pipeline.stats.batches == 1
        assert (pipeline.stats.flushed, pipeline.stats.failed) == (1, 1)
        assert svc.stats.queries == 1
        assert svc.stats.per_venue == {"good": 1}

    def test_raising_completion_fails_only_its_venue(
        self, twin, kaide_smoke
    ):
        svc = twin(64)
        shard = svc.shard("bad")
        shard._pipeline = shard._pipeline[:3] + (BrokenCompletion(),)
        rows = scans(kaide_smoke, 4, 41)
        # good rows 0, 1 and a repeat of 0 (an in-batch hit).
        items = [
            ("good", rows[0]), ("bad", rows[2]), ("good", rows[1]),
            ("bad", rows[3]), ("good", rows[0]),
        ]
        expected = svc.shard("good").locate(rows[[0, 1, 0]])
        pipeline = queued_pipeline(svc)
        tickets = [pipeline.submit(venue, row) for venue, row in items]
        start_flusher(pipeline)
        got = [tickets[i].result(timeout=5.0) for i in (0, 2, 4)]
        np.testing.assert_array_equal(np.stack(got), expected)
        for i in (1, 3):
            with pytest.raises(RuntimeError, match="completion failed"):
                tickets[i].result(timeout=5.0)
        pipeline.stop()
        assert pipeline.stats.failed == 2
        stats = svc.stats
        assert stats.queries == stats.cache_hits + stats.cache_misses
        assert sum(stats.per_venue.values()) == stats.queries
        assert stats.per_venue == {"good": 3}
        assert (stats.cache_hits, stats.cache_misses) == (1, 2)
        # Only the healthy venue's answers were cached.
        assert {k[0] for k in svc._cache} == {"good"}


class TestFastPath:
    def test_cache_hit_resolves_at_submit(self, service, kaide_smoke):
        fp = scans(kaide_smoke, 1, 10)[0]
        with ServingPipeline(service, max_delay_ms=1.0) as pipeline:
            first = pipeline.locate("kaide", fp, timeout=5.0)
            ticket = pipeline.submit("kaide", fp)
            # Resolved synchronously from the cache: done before wait.
            assert ticket.done
            np.testing.assert_allclose(
                ticket.result(), first, atol=1e-8
            )
        assert pipeline.stats.fast_path_hits >= 1

    def test_fast_path_disabled_without_cache(self, kaide_smoke):
        svc = PositioningService(cache_size=0)
        svc.deploy(
            "kaide",
            kaide_smoke.radio_map,
            MAROnlyDifferentiator(),
            estimator=KNNEstimator(),
        )
        fp = scans(kaide_smoke, 1, 11)[0]
        with ServingPipeline(svc, max_delay_ms=1.0) as pipeline:
            pipeline.locate("kaide", fp, timeout=5.0)
            pipeline.locate("kaide", fp, timeout=5.0)
        assert pipeline.stats.fast_path_hits == 0
        assert pipeline.stats.flushed == 2


class TestShardKeys:
    def test_shard_key_submits_share_the_venue(
        self, service, kaide_smoke
    ):
        """ShardKey and string submits land on one canonical venue:
        same answers, one per-venue count, shared cache entries."""
        batch = scans(kaide_smoke, 2, 14)
        expected = service.shard("kaide").locate(batch)
        venues = [ShardKey("kaide"), "kaide"]
        with ServingPipeline(
            service, max_batch=2, max_delay_ms=5000.0
        ) as pipeline:
            tickets = [
                pipeline.submit(v, fp) for v, fp in zip(venues, batch)
            ]
            out = np.stack([t.result(timeout=5.0) for t in tickets])
            np.testing.assert_array_equal(out, expected)
            again = pipeline.submit(ShardKey("kaide"), batch[0])
            np.testing.assert_array_equal(
                again.result(timeout=5.0), expected[0]
            )
        assert pipeline.stats.fast_path_hits == 1
        assert service.stats.per_venue == {"kaide": 3}
        assert {k[0] for k in service._cache} == {"kaide"}


class TestValidation:
    def test_unknown_venue_fails_at_submit(self, service, kaide_smoke):
        with ServingPipeline(service) as pipeline:
            with pytest.raises(ServingError, match="unknown venue"):
                pipeline.submit("mall99", scans(kaide_smoke, 1, 12)[0])

    def test_wrong_width_fails_at_submit(self, service):
        with ServingPipeline(service) as pipeline:
            with pytest.raises(ServingError, match="expects"):
                pipeline.submit("kaide", np.zeros(3))

    def test_bad_request_cannot_poison_batch(
        self, service, kaide_smoke
    ):
        """A rejected submit leaves queued good requests unharmed."""
        good = scans(kaide_smoke, 2, 13)
        with ServingPipeline(service, max_delay_ms=2.0) as pipeline:
            t1 = pipeline.submit("kaide", good[0])
            with pytest.raises(ServingError):
                pipeline.submit("kaide", np.zeros(2))
            t2 = pipeline.submit("kaide", good[1])
            assert np.isfinite(t1.result(timeout=5.0)).all()
            assert np.isfinite(t2.result(timeout=5.0)).all()

    def test_result_timeout(self, service):
        """A ticket that can never resolve times out, not deadlocks."""
        from repro.serving import Ticket

        pipeline = ServingPipeline(service, max_delay_ms=1.0)
        ticket = Ticket(pipeline._done_cv)
        with pytest.raises(ServingError, match="timed out"):
            ticket.result(timeout=0.05)
