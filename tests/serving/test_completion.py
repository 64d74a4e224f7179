"""Map completion: exact masked KNN with the canonical tie-break.

A completed row depends only on the scan and the map.  Its missing APs
take the mean (in record order) of the k records nearest over the
*observed* APs, where nearness is the exact masked distance and ties
go to the smaller record id, the same finish the estimator uses.  The
oracle below computes that from its definition; every row must match
it bit for bit, alone or in any batch, in memory or memory-mapped,
whether its batch took the small-batch exact scan, the float32 bound
over the whole map, or the bound over the buckets of a partition.
"""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.artifacts import backed_by_memmap
from repro.bisim import BiSIMConfig
from repro.core import MNAROnlyDifferentiator
from repro.datasets import make_dataset
from repro.exceptions import ServingError
from repro.ingest import StreamIngestor, simulate_new_survey
from repro.obs import Tracer
from repro.positioning import (
    SpatialIndex,
    WKNNEstimator,
    canonical_k_smallest,
    pairwise_sq_dists,
)
from repro.positioning import index as index_module
from repro.positioning.io import estimator_payload
from repro.radiomap import RadioMapBuilder
from repro.serving import MapCompletion, VenueShard, scan_pool

PATHS = ("scan", "bound", "buckets")


def forced(path):
    """Send every batch down one path: the exact scan or the bound
    (over the whole map or, given a partition, its buckets).  The
    cutoff is patched where the search kernel reads it."""
    limit = 1 << 62 if path == "scan" else 0
    return mock.patch.object(index_module, "_SCAN_ELEMS", limit)


@pytest.fixture(params=PATHS)
def path(request):
    with forced(request.param):
        yield request.param


def completer(fp, fill, path, k=3, assign=None):
    """A completion for ``path``; ``"buckets"`` partitions the map
    (by ``assign``, or into a few random buckets)."""
    completion = MapCompletion(fp, fill, k=k)
    if path == "buckets":
        if assign is None:
            rng = np.random.default_rng(len(fp))
            assign = rng.integers(0, 7, len(fp))
        completion._search.partition(assign)
    return completion


def oracle(fp, queries, k, fill):
    """Completion from its definition, one row at a time."""
    out = np.array(queries, dtype=float)
    for i, q in enumerate(out):
        mask = np.isfinite(q)
        if mask.all():
            continue
        if not mask.any():
            out[i] = fill
            continue
        qz = np.where(mask, q, 0.0)
        with np.errstate(over="ignore"):
            d2 = pairwise_sq_dists(qz[None, :], fp * mask)
        _, ids = canonical_k_smallest(d2, min(k, len(fp)))
        out[i, ~mask] = fp[np.sort(ids[0])].mean(axis=0)[~mask]
    return out


def mapped_copy(fp, directory):
    path = Path(directory) / "tensor.npy"
    np.save(path, fp)
    return np.load(path, mmap_mode="r")


class TestCanonicalTies:
    def test_masked_tie_goes_to_smaller_record_id(self, path):
        fp = np.array(
            [
                [-56, -57, -60],
                [-53, -60, -53],
                [-59, -54, -57],
                [-58, -51, -56],
                [-52, -59, -56],
                [-57, -56, -60],
            ],
            dtype=float,
        )
        query = np.array([[-54.0, -57.0, np.nan]])
        # Masked distances: record 0 → 4, record 4 → 8, and records 1
        # and 5 tie at 10 for the third slot.  Record 1 wins, so the
        # fill is the mean of records 0, 1 and 4.
        out = completer(fp, fp.mean(axis=0), path).complete(query)
        assert out[0, 2] == np.mean([-60.0, -53.0, -56.0])
        np.testing.assert_array_equal(
            out, oracle(fp, query, 3, fp.mean(axis=0))
        )

    def test_large_integer_map_matches_oracle(self, path):
        rng = np.random.default_rng(11)
        fp = rng.integers(-95, -40, size=(3000, 8)).astype(float)
        # 96 rows: the whole-map bound takes its ``a @ Wᵀ`` GEMM.
        queries = fp[rng.integers(0, 3000, 96)]
        queries += rng.integers(-3, 4, size=queries.shape)
        queries[rng.random(queries.shape) < 0.4] = np.nan
        completion = completer(fp, fp.mean(axis=0), path, k=4)
        np.testing.assert_array_equal(
            completion.complete(queries),
            oracle(fp, queries, 4, fp.mean(axis=0)),
        )


class TestHugeReadings:
    def test_huge_heard_reading_takes_the_exact_scan(self, path):
        """A 1e300 reading overflows every distance to inf.  All
        records then tie, so the canonical fill is the mean of records
        0..k-1; no ordering of equal (or NaN) values may decide it."""
        rng = np.random.default_rng(3)
        fp = rng.integers(-90, -30, size=(2000, 6)).astype(float)
        query = fp[5].copy()
        query[1] = np.nan
        query[0] = 1e300
        completion = completer(fp, fp.mean(axis=0), path)
        with np.errstate(over="ignore"):
            out = completion.complete(query[None, :])
        assert out[0, 1] == fp[:3, 1].mean()
        np.testing.assert_array_equal(
            out, oracle(fp, query[None, :], 3, fp.mean(axis=0))
        )

    def test_hostile_row_leaves_batch_mates_alone(self, path):
        rng = np.random.default_rng(4)
        fp = rng.uniform(-95.0, -20.0, size=(500, 10))
        batch = fp[rng.integers(0, 500, 6)] + rng.normal(0, 2, (6, 10))
        batch[rng.random(batch.shape) < 0.3] = np.nan
        batch[:, 0] = -60.0
        batch[2, 0] = -1e300
        completion = completer(fp, fp.mean(axis=0), path)
        with np.errstate(over="ignore"):
            out = completion.complete(batch)
            expected = oracle(fp, batch, 3, fp.mean(axis=0))
        np.testing.assert_array_equal(out, expected)
        for i in (0, 1, 3, 4, 5):
            np.testing.assert_array_equal(
                completion.complete(batch[i : i + 1])[0], out[i]
            )

    def test_hostile_rows_on_index_buckets(self):
        """±1e300 readings beside ordinary rows, on the buckets of a
        real spatial index: each row matches the oracle and its own
        single-row answer."""
        rng = np.random.default_rng(8)
        fp = rng.uniform(-95.0, -20.0, size=(1200, 10))
        batch = fp[rng.integers(0, 1200, 6)] + rng.normal(0, 2, (6, 10))
        batch[rng.random(batch.shape) < 0.3] = np.nan
        batch[:, 0] = -60.0
        batch[1, 3] = 1e300
        batch[4, 0] = -1e300
        assign = SpatialIndex.build(fp).assign
        assert np.unique(assign).size > 1
        with forced("buckets"), np.errstate(over="ignore"):
            completion = completer(
                fp, fp.mean(axis=0), "buckets", assign=assign
            )
            out = completion.complete(batch)
            np.testing.assert_array_equal(
                out, oracle(fp, batch, 3, fp.mean(axis=0))
            )
            for i in range(len(batch)):
                np.testing.assert_array_equal(
                    completion.complete(batch[i : i + 1])[0], out[i]
                )


class TestContract:
    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_is_rejected(self, k):
        fp = np.zeros((4, 2))
        with pytest.raises(ServingError, match="k >= 1"):
            MapCompletion(fp, fp.mean(axis=0), k=k)

    def test_traced_batch_records_completion_stages(self):
        rng = np.random.default_rng(6)
        fp = rng.uniform(-95.0, -20.0, size=(800, 8))
        scans = fp[:3] + rng.normal(0.0, 2.0, size=(3, 8))
        scans[:, 1] = np.nan
        completion = completer(
            fp, fp.mean(axis=0), "buckets",
            assign=SpatialIndex.build(fp).assign,
        )
        tracer = Tracer(sample_every=1)
        root = tracer.start("batch")
        with forced("buckets"), tracer.activate(root):
            completion.complete(scans)
        stages = {c.name: c for c in root.children}
        assert list(stages) == [
            "completion.bound", "completion.gemm", "completion.finish"
        ]
        assert 3 <= stages["completion.gemm"].meta["rows_read"] <= 800
        assert stages["completion.finish"].meta["candidates"] >= 9
        # Untraced, nothing is timed.
        with forced("buckets"):
            completion.complete(scans)
        assert len(root.children) == 3

    @pytest.mark.parametrize("path", PATHS)
    def test_forcing_reaches_the_kernel(self, path):
        """A one-row batch on a small map takes the bound only when
        forced to: the patched cutoff must be the one the kernel
        reads, or every path above would test the scan."""
        fp = np.arange(40.0).reshape(10, 4)
        scan = fp[3:4] + 0.5
        scan[0, 2] = np.nan
        tracer = Tracer(sample_every=1)
        root = tracer.start("batch")
        with forced(path), tracer.activate(root):
            completer(fp, fp.mean(axis=0), path).complete(scan)
        names = [c.name for c in root.children]
        assert ("completion.gemm" in names) == (path != "scan"), names


def partition(draw, rng, n):
    """Any partition keeps the fills exact: random ids with empty
    buckets between them, one bucket, or a bucket per record."""
    kind = draw(st.sampled_from(("random", "one", "singletons")))
    if kind == "one":
        return np.zeros(n, dtype=np.int64)
    if kind == "singletons":
        return rng.permutation(n)
    return 2 * rng.integers(0, draw(st.integers(1, n + 2)), n)


@st.composite
def completion_cases(draw):
    """A map with duplicates, k possibly > n, a mixed batch of scans
    and a partition of the map.

    Integer-dBm maps and scans produce masked-distance ties; rows may
    hear one AP, every AP or none, and one may hear a ±1e300 reading.
    """
    d = draw(st.integers(1, 8))
    n_unique = draw(st.integers(1, 24))
    n = draw(st.integers(n_unique, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    integer = draw(st.booleans())
    if integer:
        unique = rng.integers(-95, -20, size=(n_unique, d)).astype(float)
    else:
        unique = rng.uniform(-95.0, -20.0, size=(n_unique, d))
    picks = np.concatenate(
        [np.arange(n_unique), rng.integers(0, n_unique, n - n_unique)]
    )
    fp = unique[rng.permutation(picks)]
    k = draw(st.integers(1, n + 3))
    b = draw(st.integers(1, 8))
    queries = fp[rng.integers(0, n, b)]
    if integer:
        queries = queries + rng.integers(-3, 4, size=(b, d))
    else:
        queries = queries + rng.normal(0.0, 3.0, size=(b, d))
    for i, kind in enumerate(rng.integers(0, 4, size=b)):
        if kind == 0:  # random missing APs
            queries[i, rng.random(d) < 0.5] = np.nan
        elif kind == 1:  # one heard AP
            heard = rng.integers(0, d)
            queries[i, np.arange(d) != heard] = np.nan
        elif kind == 2:  # nothing heard
            queries[i] = np.nan
        # kind 3: every AP heard
    if draw(st.booleans()):
        queries[rng.integers(0, b), rng.integers(0, d)] = draw(
            st.sampled_from((1e300, -1e300))
        )
    return fp, k, queries, draw(st.booleans()), partition(draw, rng, n)


@settings(max_examples=120, deadline=None)
@given(completion_cases())
def test_rows_match_oracle_alone_and_in_batch(case):
    fp, k, queries, mapped, assign = case
    fill = fp.mean(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = oracle(fp, queries, k, fill)
    with tempfile.TemporaryDirectory() as tmp, np.errstate(
        over="ignore", invalid="ignore"
    ):
        tensor = mapped_copy(fp, tmp) if mapped else fp
        for path in PATHS:
            with forced(path):
                completion = completer(tensor, fill, path, k, assign)
                out = completion.complete(queries)
                np.testing.assert_array_equal(out, expected, err_msg=path)
                for i in range(len(queries)):
                    np.testing.assert_array_equal(
                        completion.complete(queries[i : i + 1])[0], out[i]
                    )
                assert backed_by_memmap(completion.precomputed) == mapped
        del completion, tensor


def bound_nbytes(search):
    """Bytes of the bound state ``search`` has built."""
    return sum(
        int(a.nbytes) for a in search._bound if isinstance(a, np.ndarray)
    )


class TestMemoryAccounting:
    """A registry charges a shard's footprint once, at load, so the
    footprint counts the lazily built bound state of both searches
    (completion's and the brute estimator's) from the start."""

    def test_footprint_counts_the_bound_and_keeps_the_map_mapped(self):
        n, d = 600, 12
        rng = np.random.default_rng(5)
        fp = rng.uniform(-95.0, -20.0, size=(n, d))
        locations = rng.uniform(0.0, 50.0, size=(n, 2))
        fill = fp.mean(axis=0)
        estimator = WKNNEstimator().fit(fp, locations)
        assert estimator.index is None
        with tempfile.TemporaryDirectory() as tmp, forced("bound"):
            completion = MapCompletion(mapped_copy(fp, tmp), fill)
            shard = VenueShard("mall", d, estimator, None, fill, completion)
            resident, mapped = shard.footprint()
            assert mapped == fp.nbytes

            scans = fp[:4] + rng.normal(0.0, 2.0, size=(4, d))
            scans[rng.random(scans.shape) < 0.3] = np.nan
            scans[:, 0] = -50.0
            shard.locate(scans)

            # The batch built both bound states, float32 [C∘C | C] and
            # the per-AP centre, and the footprint already held them.
            # The map stays served in place.
            for search in (completion._search, estimator._search):
                assert bound_nbytes(search) == search.nbytes()
                assert search.nbytes() == n * 2 * d * 4 + d * 8
            assert shard.footprint() == (resident, mapped)
            assert backed_by_memmap(completion.precomputed)
            del shard, completion

    def test_footprint_counts_the_buckets_of_an_index_backed_shard(self):
        n, d = 600, 12
        rng = np.random.default_rng(5)
        fp = rng.uniform(-95.0, -20.0, size=(n, d))
        locations = rng.uniform(0.0, 50.0, size=(n, 2))
        fill = fp.mean(axis=0)
        estimator = WKNNEstimator(spatial_index="on").fit(fp, locations)
        buckets = np.unique(estimator.index.assign).size
        assert buckets > 1
        with tempfile.TemporaryDirectory() as tmp, forced("bound"):
            completion = MapCompletion(mapped_copy(fp, tmp), fill)
            shard = VenueShard("mall", d, estimator, None, fill, completion)
            resident, mapped = shard.footprint()
            assert mapped == fp.nbytes
            # The index's share is its float32 extended block; the
            # brute search an indexed estimator never runs is not
            # charged.
            est_arrays = estimator_payload(estimator)[2].values()
            index_share = (
                resident
                - completion.resident_nbytes()
                - fill.nbytes
                - sum(a.nbytes for a in est_arrays)
            )
            assert index_share == estimator.index._ext32.nbytes

            scans = fp[:4] + rng.normal(0.0, 2.0, size=(4, d))
            scans[rng.random(scans.shape) < 0.3] = np.nan
            scans[:, 0] = -50.0
            shard.locate(scans)

            # W and the centre, the bucket-order permutation, the
            # bucket row offsets and each bucket's box (centre and
            # half-width per AP), all charged before the batch.
            search = completion._search
            assert bound_nbytes(search) == search.nbytes() == (
                n * 2 * d * 4 + d * 8 + n * 8 + (buckets + 1) * 8
                + 2 * buckets * d * 8
            )
            assert shard.footprint() == (resident, mapped)
            del shard, completion


def full_sweep(completion, scans):
    """What ``completion`` answers without a partition."""
    return MapCompletion(
        completion.precomputed, completion.fill_values, k=completion.k
    ).complete(scans)


class TestIndexBackedShard:
    """A shard with a spatial index completes through the index's
    buckets and answers bit-identically to the full sweep: fresh,
    after a delta refreshes the assignment, and after a round trip
    through a shard artifact."""

    @pytest.fixture(scope="class")
    def survey(self):
        # Enough passes for a few hundred records, so the index grid
        # has more than one bucket.
        dataset = make_dataset("kaide", scale=0.28, seed=5, n_passes=18)
        tables = sorted(dataset.survey_tables, key=lambda t: t.path_id)
        builder = RadioMapBuilder(tables[0].n_aps)
        for table in tables:
            builder.add_table(table)
        ingestor = StreamIngestor(tables[0].n_aps)
        for table in simulate_new_survey(dataset, n_passes=1, seed=77):
            ingestor.ingest_table(table)
        return dataset, builder.snapshot(), ingestor.drain()

    @staticmethod
    def check(shard, scans):
        completion = shard.completion
        index = shard.estimator.index
        assert np.unique(index.assign).size > 1
        assert completion._search.assign is index.assign
        expected = full_sweep(completion, scans)
        np.testing.assert_array_equal(completion.complete(scans), expected)
        for i in range(len(scans)):
            np.testing.assert_array_equal(
                completion.complete(scans[i : i + 1])[0], expected[i]
            )
        np.testing.assert_array_equal(
            shard.locate(scans),
            shard.estimator.predict(expected, squeeze=False),
        )

    def test_fresh_delta_and_reloaded_shards_match_the_full_sweep(
        self, survey, tmp_path
    ):
        dataset, base_map, delta = survey
        scans = scan_pool(dataset, 24, np.random.default_rng(3))
        assert (~np.isfinite(scans)).any(axis=1).all()
        shard = VenueShard.build(
            "kaide",
            base_map,
            MNAROnlyDifferentiator(),
            estimator=WKNNEstimator(spatial_index="on"),
            bisim_config=BiSIMConfig(hidden_size=10, epochs=2),
        )
        self.check(shard, scans)

        old_assign = shard.estimator.index.assign
        shard.apply_delta(delta)
        assert shard.estimator.index.assign is not old_assign
        self.check(shard, scans)

        path = tmp_path / "shard.npz"
        shard.save(path)
        loaded = VenueShard.load(path)
        assert backed_by_memmap(loaded.completion.precomputed)
        self.check(loaded, scans)
        np.testing.assert_array_equal(
            loaded.locate(scans), shard.locate(scans)
        )


@pytest.mark.slow
def test_fleet_scale_map_reads_a_minority_of_buckets(fleet_scale_map):
    """On a 32768 × 96 map, single-row completions through the
    index's buckets equal the full sweep and read a median of at most
    60% of the map's rows."""
    fp = fleet_scale_map
    fill = fp.mean(axis=0)
    rng = np.random.default_rng(22)
    scans = fp[rng.integers(0, len(fp), 64)]
    scans = scans + rng.normal(0.0, 2.5, size=scans.shape)
    scans[rng.random(scans.shape) < 0.3] = np.nan
    full = MapCompletion(fp, fill)
    buckets = completer(
        fp, fill, "buckets", assign=SpatialIndex.build(fp).assign
    )
    tracer = Tracer(sample_every=1)
    shares = []
    for scan in scans:
        root = tracer.start("row")
        with tracer.activate(root):
            out = buckets.complete(scan[None, :])
        np.testing.assert_array_equal(out, full.complete(scan[None, :]))
        (gemm,) = [c for c in root.children if c.name == "completion.gemm"]
        shares.append(gemm.meta["rows_read"] / len(fp))
    assert np.median(shares) <= 0.6, np.median(shares)
