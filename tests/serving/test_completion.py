"""Map completion: exact masked KNN with the canonical tie-break.

A completed row depends only on the scan and the map.  Its missing APs
take the mean (in record order) of the k records nearest over the
*observed* APs, where nearness is the exact masked distance and ties
go to the smaller record id, the same finish the estimator uses.  The
oracle below computes that from its definition; every row must match
it bit for bit, alone or in any batch, in memory or memory-mapped,
whether its batch took the small-batch exact scan or the float32 bound.
"""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.artifacts import backed_by_memmap
from repro.positioning import (
    WKNNEstimator,
    canonical_k_smallest,
    pairwise_sq_dists,
)
from repro.serving import MapCompletion, VenueShard
from repro.serving import completion as completion_module

PATHS = ("scan", "bound")


def forced(path):
    """Send every batch down one path: the exact scan or the bound."""
    limit = 1 << 62 if path == "scan" else 0
    return mock.patch.object(completion_module, "_SCAN_ELEMS", limit)


@pytest.fixture(params=PATHS)
def path(request):
    with forced(request.param):
        yield request.param


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
        out = MapCompletion(fp, fp.mean(axis=0), k=3).complete(query)
        assert out[0, 2] == np.mean([-60.0, -53.0, -56.0])
        np.testing.assert_array_equal(
            out, oracle(fp, query, 3, fp.mean(axis=0))
        )

    def test_large_integer_map_matches_oracle(self, path):
        rng = np.random.default_rng(11)
        fp = rng.integers(-95, -40, size=(3000, 8)).astype(float)
        queries = fp[rng.integers(0, 3000, 32)]
        queries += rng.integers(-3, 4, size=queries.shape)
        queries[rng.random(queries.shape) < 0.4] = np.nan
        completion = MapCompletion(fp, fp.mean(axis=0), k=4)
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
        completion = MapCompletion(fp, fp.mean(axis=0), k=3)
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
        completion = MapCompletion(fp, fp.mean(axis=0))
        with np.errstate(over="ignore"):
            out = completion.complete(batch)
            expected = oracle(fp, batch, 3, fp.mean(axis=0))
        np.testing.assert_array_equal(out, expected)
        for i in (0, 1, 3, 4, 5):
            np.testing.assert_array_equal(
                completion.complete(batch[i : i + 1])[0], out[i]
            )


@st.composite
def completion_cases(draw):
    """A map with duplicates, k possibly > n, a mixed batch of scans.

    Integer-dBm maps and scans produce masked-distance ties; rows may
    hear one AP, every AP or none.
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
    return fp, k, queries, draw(st.booleans())


@settings(max_examples=120, deadline=None)
@given(completion_cases())
def test_rows_match_oracle_alone_and_in_batch(case):
    fp, k, queries, mapped = case
    fill = fp.mean(axis=0)
    expected = oracle(fp, queries, k, fill)
    with tempfile.TemporaryDirectory() as tmp:
        tensor = mapped_copy(fp, tmp) if mapped else fp
        for path in PATHS:
            with forced(path):
                completion = MapCompletion(tensor, fill, k=k)
                out = completion.complete(queries)
                np.testing.assert_array_equal(out, expected, err_msg=path)
                for i in range(len(queries)):
                    np.testing.assert_array_equal(
                        completion.complete(queries[i : i + 1])[0], out[i]
                    )
                assert backed_by_memmap(completion.precomputed) == mapped
        del completion, tensor


class TestMemoryAccounting:
    def test_footprint_counts_the_bound_and_keeps_the_map_mapped(self):
        n, d = 600, 12
        rng = np.random.default_rng(5)
        fp = rng.uniform(-95.0, -20.0, size=(n, d))
        locations = rng.uniform(0.0, 50.0, size=(n, 2))
        fill = fp.mean(axis=0)
        with tempfile.TemporaryDirectory() as tmp, forced("bound"):
            completion = MapCompletion(mapped_copy(fp, tmp), fill)
            shard = VenueShard(
                "mall",
                d,
                WKNNEstimator().fit(fp, locations),
                None,
                fill,
                completion,
            )
            resident, mapped = shard.footprint()
            assert mapped == fp.nbytes

            scans = fp[:4] + rng.normal(0.0, 2.0, size=(4, d))
            scans[rng.random(scans.shape) < 0.3] = np.nan
            scans[:, 0] = -50.0
            shard.locate(scans)

            resident_after, mapped_after = shard.footprint()
            # The map stays served in place; the only new anonymous
            # state is the float32 bound matrix [C∘C | C] and the
            # per-AP centre.
            assert mapped_after == mapped
            assert backed_by_memmap(completion.precomputed)
            assert resident_after - resident == n * 2 * d * 4 + d * 8
            del shard, completion
