"""Property tests for the one exact neighbour contract.

A row's neighbours depend only on the row and the map: the brute and
indexed paths agree bit for bit with the exact oracle, a row answers
the same alone or inside any batch, and a hostile row neither raises
nor disturbs its batch-mates.
"""

from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Tracer
from repro.positioning import (
    WKNNEstimator,
    canonical_k_smallest,
    pairwise_sq_dists,
)
from repro.positioning import index as index_module

#: ``spatial_index`` values, and brute search forced to one regime:
#: ``:scan`` scans every record exactly, ``:bound`` takes the float32
#: bound GEMM (the drawn maps sit below the scan cutoff).
MODES = ("off", "on", "off:scan", "off:bound")


@st.composite
def map_and_queries(draw):
    """A small RSSI map with duplicate rows, k in [1, n], a batch."""
    d = draw(st.integers(1, 8))
    n_unique = draw(st.integers(1, 24))
    n = draw(st.integers(n_unique, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    unique = rng.uniform(-95.0, -20.0, size=(n_unique, d))
    # Every unique row appears at least once; the rest duplicate.
    picks = np.concatenate(
        [np.arange(n_unique), rng.integers(0, n_unique, n - n_unique)]
    )
    fp = unique[rng.permutation(picks)]
    k = draw(st.integers(1, n))
    b = draw(st.integers(1, 8))
    # Queries on map rows (exact ties) and noisy ones.
    queries = fp[rng.integers(0, n, b)]
    noisy = rng.random(b) < 0.5
    queries[noisy] += rng.normal(0.0, 3.0, size=(int(noisy.sum()), d))
    return fp, k, queries


def fit(fp, k, mode):
    # Locations (id, 0) make the returned neighbour locations the ids.
    locations = np.column_stack([np.arange(fp.shape[0]), np.zeros(len(fp))])
    return WKNNEstimator(k=k, spatial_index=mode.split(":")[0]).fit(
        fp, locations
    )


def regime(mode):
    """Patch the scan cutoff where the brute search reads it."""
    forced = mode.partition(":")[2]
    if not forced:
        return nullcontext()
    limit = 1 << 62 if forced == "scan" else 0
    return mock.patch.object(index_module, "_SCAN_ELEMS", limit)


def neighbours(est, queries):
    """``(distances, ids)`` of the estimator's k nearest records."""
    dists, locs = est._neighbours(queries)
    return dists, locs[..., 0].astype(np.int64)


@settings(max_examples=80, deadline=None)
@given(map_and_queries())
def test_brute_and_index_match_the_exact_oracle(case):
    fp, k, queries = case
    d2, ids = canonical_k_smallest(pairwise_sq_dists(queries, fp), k)
    for mode in MODES:
        with regime(mode):
            dists, got = neighbours(fit(fp, k, mode), queries)
        np.testing.assert_array_equal(got, ids, err_msg=mode)
        np.testing.assert_array_equal(dists, np.sqrt(d2), err_msg=mode)


@settings(max_examples=80, deadline=None)
@given(map_and_queries(), st.randoms(use_true_random=False))
def test_row_alone_equals_row_in_any_batch(case, shuffle):
    fp, k, queries = case
    order = list(range(len(queries)))
    shuffle.shuffle(order)
    for mode in MODES:
        est = fit(fp, k, mode)
        with regime(mode):
            dists, ids = neighbours(est, queries[order])
        for pos, i in enumerate(order):
            with regime(mode):
                alone_d, alone_ids = neighbours(est, queries[i : i + 1])
            np.testing.assert_array_equal(alone_ids[0], ids[pos])
            np.testing.assert_array_equal(alone_d[0], dists[pos])


@settings(max_examples=60, deadline=None)
@given(
    map_and_queries(),
    st.sampled_from([np.nan, np.inf, -np.inf, 1e300, -1e300]),
    st.data(),
)
def test_hostile_row_is_contained(case, bad, data):
    fp, k, queries = case
    row = data.draw(st.integers(0, len(queries)), label="row")
    col = data.draw(st.integers(0, fp.shape[1] - 1), label="col")
    hostile = fp[:1].copy()
    hostile[0, col] = bad
    mixed = np.insert(queries, row, hostile[0], axis=0)
    for mode in MODES:
        est = fit(fp, k, mode)
        with regime(mode):
            clean = est.predict(queries, squeeze=False)
            with np.errstate(all="ignore"):
                out = est.predict(mixed, squeeze=False)
        assert np.isnan(out[row]).all(), (mode, out[row])
        np.testing.assert_array_equal(
            np.delete(out, row, axis=0), clean, err_msg=mode
        )


@pytest.mark.slow
def test_fleet_scale_brute_rows_match_the_oracle(fleet_scale_map):
    """On a 32768 × 96 map, 64 single unmasked rows through the brute
    search take the float32 bound over the whole map and return the
    oracle's neighbours bit for bit."""
    fp = fleet_scale_map
    rng = np.random.default_rng(23)
    scans = fp[rng.integers(0, len(fp), 64)]
    scans = scans + rng.normal(0.0, 2.5, size=scans.shape)
    est = fit(fp, 3, "off")
    tracer = Tracer(sample_every=1)
    for scan in scans:
        root = tracer.start("row")
        with tracer.activate(root):
            dists, ids = neighbours(est, scan[None, :])
        assert "brute.gemm" in [c.name for c in root.children]
        d2, want = canonical_k_smallest(
            pairwise_sq_dists(scan[None, :], fp), 3
        )
        np.testing.assert_array_equal(ids, want)
        np.testing.assert_array_equal(dists, np.sqrt(d2))
