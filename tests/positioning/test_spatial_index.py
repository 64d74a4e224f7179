"""Spatial-index exactness: bit parity with the brute exact path."""

import numpy as np
import pytest

from repro.exceptions import PositioningError
from repro.positioning import (
    INDEX_MIN_RECORDS,
    KNNEstimator,
    SpatialIndex,
    WKNNEstimator,
    canonical_k_smallest,
    load_estimator,
    pairwise_sq_dists,
)


def synthetic_map(n, d=24, seed=0):
    """Log-distance RSSI radio map: realistic magnitudes (~-90 dBm)."""
    rng = np.random.default_rng(seed)
    aps = rng.uniform(0.0, 120.0, size=(d, 2))
    rps = rng.uniform(0.0, 120.0, size=(n, 2))
    dist = np.linalg.norm(rps[:, None, :] - aps[None, :, :], axis=2)
    rssi = -30.0 - 30.0 * np.log10(np.maximum(dist, 1.0))
    rssi += rng.normal(0.0, 3.0, size=rssi.shape)
    return np.clip(rssi, -95.0, -20.0), rps


def queries_near(fp, n, seed=1):
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, fp.shape[0], size=n)
    return fp[picks] + rng.normal(0.0, 2.5, size=(n, fp.shape[1]))


def brute_exact(queries, refs, k):
    """The parity reference: exact distances + canonical selection."""
    return canonical_k_smallest(
        pairwise_sq_dists(queries, refs), k
    )


class TestCanonicalKSmallest:
    def test_sorted_by_value_then_id(self):
        d2 = np.array([[3.0, 1.0, 2.0, 1.0]])
        vals, ids = canonical_k_smallest(d2, 3)
        np.testing.assert_array_equal(vals, [[1.0, 1.0, 2.0]])
        np.testing.assert_array_equal(ids, [[1, 3, 2]])

    def test_boundary_ties_go_to_smaller_ids(self):
        # Three columns tie at the k-th value; only the smallest ids
        # may be selected, whichever side argpartition left them on.
        d2 = np.array([[5.0, 5.0, 0.0, 5.0, 9.0]])
        vals, ids = canonical_k_smallest(d2, 2)
        np.testing.assert_array_equal(vals, [[0.0, 5.0]])
        np.testing.assert_array_equal(ids, [[2, 0]])

    def test_id_mapping_with_inf_padding(self):
        d2 = np.array([[np.inf, 2.0, 1.0]])
        ids = np.array([[-1, 7, 4]])
        vals, out = canonical_k_smallest(d2, 2, ids)
        np.testing.assert_array_equal(vals, [[1.0, 2.0]])
        np.testing.assert_array_equal(out, [[4, 7]])

    def test_k_equals_width(self):
        d2 = np.array([[2.0, 1.0], [1.0, 1.0]])
        vals, ids = canonical_k_smallest(d2, 2)
        np.testing.assert_array_equal(vals, [[1.0, 2.0], [1.0, 1.0]])
        np.testing.assert_array_equal(ids, [[1, 0], [0, 1]])

    @pytest.mark.parametrize("k", [0, 3])
    def test_k_out_of_range_rejected(self, k):
        with pytest.raises(PositioningError, match="out of range"):
            canonical_k_smallest(np.ones((2, 2)), k)


class TestExactDistances:
    def test_exact_matches_per_pair_reference(self):
        fp, _ = synthetic_map(67, d=9, seed=3)
        q = queries_near(fp, 13, seed=4)
        d2 = pairwise_sq_dists(q, fp)
        for i in range(q.shape[0]):
            for j in (0, 31, 66):
                diff = q[i] - fp[j]
                assert d2[i, j] == (diff * diff).sum()

    def test_exact_beats_expansion_cancellation(self):
        # Rows around -90 dBm differing in the 7th decimal: the
        # expansion loses the difference to cancellation, the exact
        # path keeps full precision.
        base = np.full((1, 16), -90.0)
        near = base + 1e-7
        exact = pairwise_sq_dists(near, base)[0, 0]
        truth = 16 * 1e-14
        assert abs(exact - truth) < 1e-16
        assert exact > 0.0

    def test_chunking_does_not_change_results(self):
        fp, _ = synthetic_map(50, d=8, seed=5)
        q = queries_near(fp, 20, seed=6)
        whole = pairwise_sq_dists(q, fp)
        chunked = pairwise_sq_dists(q, fp, chunk_elems=64)
        np.testing.assert_array_equal(whole, chunked)


class TestIndexParity:
    @pytest.mark.parametrize("k", [1, 3, 17])
    def test_bit_identical_to_brute_exact(self, k):
        fp, _ = synthetic_map(3000, d=24, seed=7)
        index = SpatialIndex.build(fp)
        q = queries_near(fp, 64, seed=8)
        d2, ids = index.query(q, k)
        ed2, eids = brute_exact(q, fp, k)
        np.testing.assert_array_equal(ids, eids)
        np.testing.assert_array_equal(d2, ed2)

    def test_duplicate_rows_tie_break_parity(self):
        base, _ = synthetic_map(400, d=12, seed=9)
        fp = np.repeat(base, 3, axis=0)  # every distance ties 3-way
        index = SpatialIndex.build(fp)
        q = queries_near(base, 32, seed=10)
        d2, ids = index.query(q, 5)
        ed2, eids = brute_exact(q, fp, 5)
        np.testing.assert_array_equal(ids, eids)
        np.testing.assert_array_equal(d2, ed2)

    def test_queries_on_reference_rows(self):
        fp, _ = synthetic_map(1500, d=16, seed=11)
        d2, ids = SpatialIndex.build(fp).query(fp[:40], 1)
        np.testing.assert_array_equal(d2, np.zeros((40, 1)))
        # Exact self-match: distance 0 at the row's own index (no
        # duplicates in this map).
        np.testing.assert_array_equal(ids[:, 0], np.arange(40))

    def test_one_dimensional_map(self):
        rng = np.random.default_rng(12)
        fp = rng.uniform(-95.0, -20.0, size=(600, 1))
        q = rng.uniform(-95.0, -20.0, size=(25, 1))
        d2, ids = SpatialIndex.build(fp).query(q, 4)
        ed2, eids = brute_exact(q, fp, 4)
        np.testing.assert_array_equal(ids, eids)
        np.testing.assert_array_equal(d2, ed2)

    def test_persistence_round_trip_parity(self):
        fp, _ = synthetic_map(2000, d=20, seed=13)
        index = SpatialIndex.build(fp)
        clone = SpatialIndex.from_arrays(index.to_arrays(), fp)
        q = queries_near(fp, 48, seed=14)
        for a, b in zip(index.query(q, 6), clone.query(q, 6)):
            np.testing.assert_array_equal(a, b)

    def test_refreshed_stays_exact(self):
        fp, _ = synthetic_map(2400, d=18, seed=15)
        index = SpatialIndex.build(fp)
        rng = np.random.default_rng(16)
        new_fp = fp.copy()
        dirty = rng.choice(2400, size=120, replace=False)
        new_fp[dirty] += rng.normal(0.0, 5.0, size=(120, 18))
        appended, _ = synthetic_map(60, d=18, seed=17)
        new_fp = np.vstack([new_fp, appended])
        keep = np.setdiff1d(np.arange(2400), dirty)
        refreshed = index.refreshed(new_fp, keep, keep)
        q = queries_near(new_fp, 48, seed=18)
        d2, ids = refreshed.query(q, 7)
        ed2, eids = brute_exact(q, new_fp, 7)
        np.testing.assert_array_equal(ids, eids)
        np.testing.assert_array_equal(d2, ed2)

    def test_refreshed_mostly_dirty_falls_back_to_build(self):
        fp, _ = synthetic_map(1200, d=10, seed=19)
        index = SpatialIndex.build(fp)
        new_fp, _ = synthetic_map(1200, d=10, seed=20)
        keep = np.arange(100)  # < half kept -> from-scratch rebuild
        refreshed = index.refreshed(new_fp, keep, keep)
        q = queries_near(new_fp, 24, seed=21)
        d2, ids = refreshed.query(q, 3)
        ed2, eids = brute_exact(q, new_fp, 3)
        np.testing.assert_array_equal(ids, eids)
        np.testing.assert_array_equal(d2, ed2)


class TestKernelParity:
    """Adversarial bucket shapes, bit parity with the brute oracle.

    The index finishes through the exact f64 selection, so every case
    asserts full bit equality against the brute exact reference.
    """

    @staticmethod
    def kernel_matches_brute(fp, q, k):
        d2, ids = SpatialIndex.build(fp).query(q, k)
        ed2, eids = brute_exact(q, fp, k)
        np.testing.assert_array_equal(ids, eids)
        np.testing.assert_array_equal(d2, ed2)

    def test_giant_bucket_plus_singletons(self):
        # One dense blob collapses into a single huge bucket while the
        # far-flung rest scatter into singleton buckets (and leave
        # most grid cells empty in between).
        rng = np.random.default_rng(40)
        blob = -60.0 + rng.normal(0.0, 0.05, size=(4000, 12))
        lone = rng.uniform(-95.0, -20.0, size=(40, 12))
        fp = np.vstack([blob, lone])
        q = np.vstack(
            [
                blob[:20] + rng.normal(0.0, 0.02, size=(20, 12)),
                lone[:10] + rng.normal(0.0, 2.0, size=(10, 12)),
            ]
        )
        self.kernel_matches_brute(fp, q, 5)

    def test_empty_buckets_interleaved(self):
        # Two tight clusters at opposite corners: the grid between
        # them is entirely empty buckets.
        rng = np.random.default_rng(41)
        a = -90.0 + rng.normal(0.0, 0.5, size=(900, 8))
        c = -25.0 + rng.normal(0.0, 0.5, size=(900, 8))
        fp = np.vstack([a, c])
        q = np.vstack([a[:15], c[:15]]) + rng.normal(
            0.0, 0.3, size=(30, 8)
        )
        self.kernel_matches_brute(fp, q, 4)

    def test_duplicate_fingerprints_mass_ties(self):
        # Heavy duplication: k spans several duplicate groups, so the
        # canonical (value, id) tie-break decides every slot.
        base, _ = synthetic_map(150, d=10, seed=42)
        fp = np.repeat(base, 8, axis=0)
        q = queries_near(base, 40, seed=43)
        self.kernel_matches_brute(fp, q, 11)

    def test_k_exceeds_every_bucket_population(self):
        # k far above the mean bucket size forces multi-bucket probes
        # for every query.
        fp, _ = synthetic_map(2000, d=16, seed=44)
        q = queries_near(fp, 24, seed=45)
        self.kernel_matches_brute(fp, q, 40)

    def test_refreshed_index_grouped_kernel(self):
        fp, _ = synthetic_map(2400, d=14, seed=46)
        index = SpatialIndex.build(fp)
        rng = np.random.default_rng(47)
        new_fp = fp.copy()
        dirty = rng.choice(2400, size=150, replace=False)
        new_fp[dirty] += rng.normal(0.0, 5.0, size=(150, 14))
        keep = np.setdiff1d(np.arange(2400), dirty)
        refreshed = index.refreshed(new_fp, keep, keep)
        q = queries_near(new_fp, 32, seed=48)
        d2, ids = refreshed.query(q, 6)
        ed2, eids = brute_exact(q, new_fp, 6)
        np.testing.assert_array_equal(ids, eids)
        np.testing.assert_array_equal(d2, ed2)


class TestSelectionMemory:
    """The dense (b, width) scatter must refuse pathological pools."""

    def test_pooled_kth_fallback_matches_dense(self):
        rng = np.random.default_rng(50)
        b = 64
        qi = np.repeat(np.arange(b), rng.integers(3, 30, size=b))
        v = rng.uniform(0.0, 9.0, size=qi.size).astype(np.float32)
        dense = SpatialIndex._pooled_kth(qi, v, b, 3)
        # Same pool through the lexsort fallback (cap forced to 0 by
        # inflating b so b*width overflows the dense budget).
        wide = 1 << 22
        padded = SpatialIndex._pooled_kth(qi, v, wide, 3)[:b]
        np.testing.assert_array_equal(dense, padded)

    def test_one_fat_query_stays_o_candidates(self):
        # One query pools half a million candidates among 2048 total
        # queries: the old dense scatter would materialise a
        # (2048, 500k) float32 — ~4 GB.  The segment fallback keeps
        # peak allocation proportional to the candidates themselves.
        import tracemalloc

        rng = np.random.default_rng(51)
        b = 2048
        fat = rng.uniform(0.0, 9.0, size=500_000)
        thin = rng.uniform(0.0, 9.0, size=b - 1)
        qi = np.concatenate(
            [np.zeros(fat.size, np.int64), np.arange(1, b)]
        )
        v = np.concatenate([fat, thin]).astype(np.float32)
        tracemalloc.start()
        kth = SpatialIndex._pooled_kth(qi, v, b, 3)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 100 * 1024 * 1024
        assert kth[0] == np.partition(fat, 2)[2].astype(np.float32)
        assert np.isinf(kth[5])  # single-candidate query, k=3


class TestEstimatorIntegration:
    def test_auto_mode_thresholds_on_map_size(self):
        small, small_loc = synthetic_map(200, d=6, seed=22)
        est = KNNEstimator().fit(small, small_loc)
        assert est.index is None
        big, big_loc = synthetic_map(INDEX_MIN_RECORDS, d=6, seed=23)
        est = KNNEstimator().fit(big, big_loc)
        assert est.index is not None

    def test_forced_modes(self):
        fp, loc = synthetic_map(300, d=6, seed=24)
        assert KNNEstimator(spatial_index="on").fit(fp, loc).index
        assert (
            WKNNEstimator(spatial_index="off").fit(fp, loc).index
            is None
        )

    def test_invalid_mode_rejected(self):
        fp, loc = synthetic_map(50, d=4, seed=25)
        with pytest.raises(PositioningError, match="spatial_index"):
            KNNEstimator(spatial_index="fast").fit(fp, loc)

    @pytest.mark.parametrize("cls", [KNNEstimator, WKNNEstimator])
    def test_predictions_bit_identical_to_exact_brute(self, cls):
        fp, loc = synthetic_map(2500, d=24, seed=26)
        # 80 rows: the brute search takes its ``a @ Wᵀ`` GEMM.
        q = queries_near(fp, 80, seed=27)
        indexed = cls(k=4, spatial_index="on").fit(fp, loc)
        brute = cls(k=4, spatial_index="off").fit(fp, loc)
        np.testing.assert_array_equal(
            indexed.predict(q, squeeze=False),
            brute.predict(q, squeeze=False),
        )

    def test_k_not_smaller_than_map_uses_brute(self):
        fp, loc = synthetic_map(5, d=4, seed=28)
        est = WKNNEstimator(k=8, spatial_index="on").fit(fp, loc)
        ref = WKNNEstimator(k=8, spatial_index="off").fit(fp, loc)
        q = queries_near(fp, 6, seed=29)
        np.testing.assert_array_equal(
            est.predict(q, squeeze=False), ref.predict(q, squeeze=False)
        )

    def test_save_load_preserves_index_and_predictions(self, tmp_path):
        fp, loc = synthetic_map(2200, d=16, seed=30)
        est = WKNNEstimator(k=5, spatial_index="on").fit(fp, loc)
        q = queries_near(fp, 30, seed=31)
        expected = est.predict(q, squeeze=False)
        est.save(tmp_path / "wknn.npz")
        loaded = load_estimator(tmp_path / "wknn.npz")
        assert loaded.index is not None
        assert loaded.index.n_records == fp.shape[0]
        np.testing.assert_array_equal(
            loaded.index.assign, est.index.assign
        )
        np.testing.assert_array_equal(
            loaded.predict(q, squeeze=False), expected
        )

    def test_load_without_index_arrays_honours_mode(self, tmp_path):
        fp, loc = synthetic_map(700, d=8, seed=32)
        off = KNNEstimator(k=3, spatial_index="off").fit(fp, loc)
        off.save(tmp_path / "off.npz")
        loaded = load_estimator(tmp_path / "off.npz")
        assert loaded.index is None
        q = queries_near(fp, 12, seed=33)
        np.testing.assert_array_equal(
            loaded.predict(q, squeeze=False),
            off.predict(q, squeeze=False),
        )

    def test_fit_incremental_matches_fresh_fit(self):
        fp, loc = synthetic_map(2600, d=14, seed=34)
        est = WKNNEstimator(k=4, spatial_index="on").fit(fp, loc)
        rng = np.random.default_rng(35)
        new_fp = fp.copy()
        dirty = rng.choice(2600, size=90, replace=False)
        new_fp[dirty] += rng.normal(0.0, 4.0, size=(90, 14))
        keep = np.setdiff1d(np.arange(2600), dirty)
        est.fit_incremental(new_fp, loc, keep, keep)
        fresh = WKNNEstimator(k=4, spatial_index="on").fit(new_fp, loc)
        q = queries_near(new_fp, 40, seed=36)
        np.testing.assert_array_equal(
            est.predict(q, squeeze=False),
            fresh.predict(q, squeeze=False),
        )
