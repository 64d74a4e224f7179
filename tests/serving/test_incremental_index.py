"""Incremental spatial-index rebuild under hot delta application.

``apply_delta`` refits a clone of the estimator via
``fit_incremental``: clean-path rows keep their bucket assignment and
only dirty-path rows are re-placed.  The index is exact under any
assignment, so an incrementally refreshed shard must answer
bit-identically to one refit from scratch on the merged map.
"""

import numpy as np
import pytest

from repro.bisim import BiSIMConfig, OnlineImputer
from repro.core import MNAROnlyDifferentiator
from repro.imputers import fill_mnars
from repro.ingest import StreamIngestor, simulate_new_survey
from repro.positioning import SpatialIndex, WKNNEstimator
from repro.radiomap import RadioMapBuilder, apply_radio_map_delta
from repro.serving import VenueShard, scan_pool


@pytest.fixture(scope="module")
def base(kaide_smoke):
    tables = sorted(
        kaide_smoke.survey_tables, key=lambda t: t.path_id
    )
    builder = RadioMapBuilder(tables[0].n_aps)
    for t in tables:
        builder.add_table(t)
    base_map = builder.snapshot()
    ingestor = StreamIngestor(base_map.n_aps)
    for t in simulate_new_survey(kaide_smoke, n_passes=1, seed=77):
        ingestor.ingest_table(t)
    return kaide_smoke, base_map, ingestor.drain()


@pytest.fixture(scope="module")
def indexed_shard(base):
    """A BiSIM shard whose estimator always carries a spatial index."""
    _, base_map, _ = base
    return VenueShard.build(
        "kaide",
        base_map,
        MNAROnlyDifferentiator(),
        estimator=WKNNEstimator(spatial_index="on"),
        bisim_config=BiSIMConfig(hidden_size=10, epochs=2),
    )


def pool(dataset, n, seed):
    return scan_pool(dataset, n, np.random.default_rng(seed))


class TestIncrementalIndexRebuild:
    def test_apply_delta_matches_from_scratch_refit(
        self, base, indexed_shard
    ):
        dataset, base_map, delta = base
        shard = indexed_shard
        trainer = shard.online_imputer.trainer
        old_index = shard.estimator.index
        assert old_index is not None
        shard.apply_delta(delta)
        assert shard.estimator.index is not None
        assert shard.estimator.index is not old_index
        # The refreshed map's one search sweeps the refreshed buckets.
        search = shard.completion._search
        assert search is shard.estimator._search
        assert search.assign is shard.estimator.index.assign

        # From-scratch reference with the same trained imputer.
        merged = apply_radio_map_delta(base_map, delta)
        mask = MNAROnlyDifferentiator().differentiate(merged)
        filled, amended = fill_mnars(merged, mask)
        online = OnlineImputer(trainer)
        online.index(filled, amended)
        fp_c, rps_c = trainer.impute(filled, amended)
        fresh = WKNNEstimator(spatial_index="on").fit(fp_c, rps_c)

        queries = fp_c[::3]
        np.testing.assert_array_equal(
            shard.estimator.predict(queries, squeeze=False),
            fresh.predict(queries, squeeze=False),
        )

    def test_dirty_path_only_refresh_keeps_clean_buckets(
        self, base, indexed_shard
    ):
        """Rows of paths untouched by the delta keep their bucket;
        the rotation/grid is frozen across the refresh."""
        _, base_map, delta = base
        shard = indexed_shard
        old_index = shard.estimator.index
        old_rows = {
            int(p): np.where(base_map.path_ids == p)[0]
            for p in np.unique(base_map.path_ids)
        }
        shard.apply_delta(delta)
        new_index = shard.estimator.index
        np.testing.assert_array_equal(new_index.mu, old_index.mu)
        np.testing.assert_array_equal(new_index.basis, old_index.basis)

        merged = shard.radio_map
        dirty = {int(p) for p in delta.path_ids}
        for pid in np.unique(merged.path_ids):
            pid = int(pid)
            if pid in dirty or pid not in old_rows:
                continue
            rows = np.where(merged.path_ids == pid)[0]
            np.testing.assert_array_equal(
                new_index.assign[rows],
                old_index.assign[old_rows[pid]],
            )

    def test_identity_refresh_is_a_noop(self):
        rng = np.random.default_rng(41)
        fp = rng.uniform(-95.0, -20.0, size=(1500, 12))
        index = SpatialIndex.build(fp)
        same = index.refreshed(
            fp, np.arange(1500), np.arange(1500)
        )
        np.testing.assert_array_equal(same.assign, index.assign)
        np.testing.assert_array_equal(same.mu, index.mu)
        np.testing.assert_array_equal(same.basis, index.basis)

    def test_redelivered_path_keeps_answers(self, base):
        """A delta re-delivering one path unchanged leaves the served
        locations unchanged up to the re-imputation's reduction-order
        noise (the redelivered path runs through the trainer as a
        sub-map, so BLAS may re-associate sums at the last ulp)."""
        dataset, base_map, _ = base
        shard = VenueShard.build(
            "kaide",
            base_map,
            MNAROnlyDifferentiator(),
            estimator=WKNNEstimator(spatial_index="on"),
            bisim_config=BiSIMConfig(hidden_size=10, epochs=2),
        )
        queries = pool(dataset, 32, seed=42)
        before = shard.locate(queries)
        tables = sorted(
            dataset.survey_tables, key=lambda t: t.path_id
        )
        redelivery = RadioMapBuilder(base_map.n_aps)
        redelivery.add_table(tables[0])
        shard.apply_delta(redelivery.drain_delta())
        assert shard.epoch == 1
        np.testing.assert_allclose(
            shard.locate(queries), before, rtol=0.0, atol=1e-12
        )
