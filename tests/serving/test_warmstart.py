"""Warm-start serving: shard artifacts, reload, and the CLI round trip.

The acceptance contract: a model trained via ``python -m repro train``
must be loadable by :class:`PositioningService` in a fresh process and
produce positioning estimates bit-identical (to 1e-8) to the
in-process pipeline; corrupted or version-mismatched artifacts raise a
typed error.
"""

import json

import numpy as np
import pytest

from repro.artifacts import (
    ArtifactStore,
    backed_by_memmap,
    load_artifact,
    save_artifact,
)
from repro.bisim import BiSIMConfig
from repro.cli import build_shard, main
from repro.core import TopoACDifferentiator
from repro.exceptions import ArtifactError, ServingError
from repro.experiments import PRESETS
from repro.positioning import KNNEstimator, WKNNEstimator
from repro.serving import (
    MapCompletion,
    PositioningService,
    ShardRegistry,
    VenueShard,
)


def scans(dataset, n, seed):
    rng = np.random.default_rng(seed)
    rps = dataset.venue.reference_points
    return np.stack(
        [
            dataset.channel.measure(rps[i % len(rps)], rng).rssi
            for i in range(n)
        ]
    )


@pytest.fixture(scope="module")
def mean_fill_shard(kaide_smoke):
    return VenueShard.build(
        "kaide",
        kaide_smoke.radio_map,
        TopoACDifferentiator(entities=kaide_smoke.venue.plan.entities),
        estimator=WKNNEstimator(),
    )


class TestShardRoundTrip:
    def test_mean_fill_shard_exact(
        self, mean_fill_shard, kaide_smoke, tmp_path
    ):
        queries = scans(kaide_smoke, 8, 0)
        expected = mean_fill_shard.locate(queries)
        path = tmp_path / "shard.npz"
        mean_fill_shard.save(path)
        loaded = VenueShard.load(path)
        assert loaded.key == "kaide"
        assert loaded.n_aps == mean_fill_shard.n_aps
        np.testing.assert_array_equal(loaded.locate(queries), expected)

    def test_bisim_shard_exact(self, kaide_smoke, tmp_path):
        shard = VenueShard.build(
            "kaide",
            kaide_smoke.radio_map,
            TopoACDifferentiator(
                entities=kaide_smoke.venue.plan.entities
            ),
            estimator=WKNNEstimator(),
            bisim_config=BiSIMConfig(hidden_size=8, epochs=2),
        )
        queries = scans(kaide_smoke, 6, 1)
        expected = shard.locate(queries)
        path = tmp_path / "shard.npz"
        shard.save(path)
        loaded = VenueShard.load(path)
        assert loaded.online_imputer is not None
        np.testing.assert_array_equal(loaded.locate(queries), expected)

    def test_key_override(self, mean_fill_shard, tmp_path):
        path = tmp_path / "shard.npz"
        mean_fill_shard.save(path)
        loaded = VenueShard.load(path, key="kaide/f2")
        assert loaded.key == "kaide/f2"

    def test_service_deploy_from_artifact(
        self, mean_fill_shard, kaide_smoke, tmp_path
    ):
        path = tmp_path / "shard.npz"
        mean_fill_shard.save(path)
        service = PositioningService()
        service.deploy_from_artifact(path)
        queries = scans(kaide_smoke, 5, 2)
        np.testing.assert_array_equal(
            service.query_batch(["kaide"] * 5, queries),
            mean_fill_shard.locate(queries),
        )


class TestReload:
    def test_hot_swap_and_cache_invalidation(
        self, kaide_smoke, tmp_path
    ):
        diff = TopoACDifferentiator(
            entities=kaide_smoke.venue.plan.entities
        )
        wknn = VenueShard.build(
            "kaide",
            kaide_smoke.radio_map,
            diff,
            estimator=WKNNEstimator(),
        )
        knn = VenueShard.build(
            "kaide",
            kaide_smoke.radio_map,
            diff,
            estimator=KNNEstimator(k=1),
        )
        knn_path = tmp_path / "knn.npz"
        knn.save(knn_path)

        service = PositioningService(cache_size=64)
        service.register(wknn)
        fp = scans(kaide_smoke, 1, 3)[0]
        service.query("kaide", fp)  # populate the cache
        assert any(k[0] == "kaide" for k in service._cache)

        reloaded = service.reload("kaide", knn_path)
        assert reloaded is service.shard("kaide")
        assert not any(k[0] == "kaide" for k in service._cache)
        np.testing.assert_array_equal(
            service.query("kaide", fp), knn.locate(fp[None, :])[0]
        )

    def test_reload_ap_mismatch_rejected(
        self, mean_fill_shard, longhu_smoke, tmp_path
    ):
        other = VenueShard.build(
            "longhu",
            longhu_smoke.radio_map,
            TopoACDifferentiator(
                entities=longhu_smoke.venue.plan.entities
            ),
            estimator=WKNNEstimator(),
        )
        path = tmp_path / "longhu.npz"
        other.save(path)
        assert other.n_aps != mean_fill_shard.n_aps
        with pytest.raises(ServingError, match="cannot reload"):
            mean_fill_shard.reload(path)

    def test_reload_unknown_venue_rejected(self, tmp_path):
        service = PositioningService()
        with pytest.raises(ServingError, match="unknown venue"):
            service.reload("nowhere", tmp_path / "x.npz")


class TestArtifactSafety:
    def test_corrupted_artifact_rejected(
        self, mean_fill_shard, tmp_path
    ):
        path = tmp_path / "shard.npz"
        mean_fill_shard.save(path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF  # flip one byte mid-archive
        path.write_bytes(bytes(raw))
        with pytest.raises(ArtifactError):
            PositioningService().deploy_from_artifact(path)

    def test_version_mismatch_rejected(self, mean_fill_shard, tmp_path):
        path = tmp_path / "shard.npz"
        mean_fill_shard.save(path)
        with np.load(path, allow_pickle=True) as data:
            arrays = {
                n: data[n] for n in data.files if n != "__manifest__"
            }
            manifest = json.loads(str(data["__manifest__"][0]))
        manifest["schema_version"] = 99
        np.savez_compressed(
            path,
            **{
                "__manifest__": np.array(
                    [json.dumps(manifest)]
                )
            },
            **arrays,
        )
        with pytest.raises(ArtifactError, match="schema version"):
            VenueShard.load(path)

    def test_wrong_kind_rejected(self, tmp_path):
        from repro.artifacts import Artifact, save_artifact

        path = tmp_path / "not-a-shard.npz"
        save_artifact(
            Artifact(kind="bisim.trainer", arrays={"x": np.ones(1)}),
            path,
        )
        with pytest.raises(ArtifactError, match="kind mismatch"):
            VenueShard.load(path)


class TestPrecomputeFallback:
    """Shard artifacts carry the build-time imputed tensor; a shard
    that cannot validate it serves through the encoder instead of
    refusing to boot, and the service counts the degradation."""

    @pytest.fixture(scope="class")
    def bisim_artifact(self, kaide_smoke, tmp_path_factory):
        shard = VenueShard.build(
            "kaide",
            kaide_smoke.radio_map,
            TopoACDifferentiator(
                entities=kaide_smoke.venue.plan.entities
            ),
            estimator=WKNNEstimator(),
            bisim_config=BiSIMConfig(hidden_size=8, epochs=2),
        )
        path = tmp_path_factory.mktemp("shards") / "bisim.npz"
        shard.save(path)
        return shard, path

    @staticmethod
    def resave(path, out, *, drop=(), config_update=None):
        from repro.artifacts import load_artifact, save_artifact

        artifact = load_artifact(path)
        for name in drop:
            artifact.arrays.pop(name, None)
            artifact.config.pop(name, None)
        if config_update:
            artifact.config["precomputed"].update(config_update)
        save_artifact(artifact, out)
        return out

    def test_valid_artifact_uses_precomputed_tensor(
        self, bisim_artifact
    ):
        from repro.serving import MapCompletion

        shard, path = bisim_artifact
        loaded = VenueShard.load(path)
        assert isinstance(loaded.completion, MapCompletion)
        assert not loaded.precompute_fallback
        service = PositioningService()
        service.register(loaded)
        assert service.stats.precompute_fallbacks == 0

    def test_hash_mismatch_falls_back_to_encoder(
        self, bisim_artifact, kaide_smoke, tmp_path
    ):
        from repro.serving import EncoderCompletion

        shard, path = bisim_artifact
        bad = self.resave(
            path,
            tmp_path / "bad-hash.npz",
            config_update={"sha256": "0" * 64},
        )
        service = PositioningService()
        loaded = service.deploy_from_artifact(bad)
        assert loaded.precompute_fallback
        assert isinstance(loaded.completion, EncoderCompletion)
        assert loaded.completion.fallback
        assert service.stats.precompute_fallbacks == 1
        # Degraded but serving: the encoder path is the PR-5 pipeline.
        queries = scans(kaide_smoke, 5, 7)
        out = service.query_batch(["kaide"] * 5, queries)
        assert np.isfinite(out).all()

    @pytest.mark.parametrize("k", [0, -2])
    def test_manifest_k_below_one_falls_back(
        self, bisim_artifact, kaide_smoke, tmp_path, k
    ):
        """A manifest asking for fewer than one neighbour cannot fill
        anything; the shard degrades instead of serving NaN fills."""
        from repro.serving import EncoderCompletion

        shard, path = bisim_artifact
        bad = self.resave(
            path, tmp_path / "bad-k.npz", config_update={"k": k}
        )
        service = PositioningService()
        loaded = service.deploy_from_artifact(bad)
        assert loaded.precompute_fallback
        assert isinstance(loaded.completion, EncoderCompletion)
        assert service.stats.precompute_fallbacks == 1
        queries = scans(kaide_smoke, 5, 7)
        out = service.query_batch(["kaide"] * 5, queries)
        assert np.isfinite(out).all()

    def test_shape_mismatch_falls_back(self, bisim_artifact, tmp_path):
        shard, path = bisim_artifact
        bad = self.resave(
            path,
            tmp_path / "bad-shape.npz",
            config_update={"shape": [1, 1]},
        )
        loaded = VenueShard.load(bad)
        assert loaded.precompute_fallback

    def test_legacy_bisim_artifact_counts_as_fallback(
        self, bisim_artifact, tmp_path
    ):
        shard, path = bisim_artifact
        legacy = self.resave(
            path, tmp_path / "legacy.npz", drop=("precomputed",)
        )
        service = PositioningService()
        loaded = service.deploy_from_artifact(legacy)
        assert loaded.precompute_fallback
        assert service.stats.precompute_fallbacks == 1

    def test_mean_fill_artifact_is_not_a_fallback(
        self, mean_fill_shard, tmp_path
    ):
        path = tmp_path / "mean.npz"
        mean_fill_shard.save(path)
        service = PositioningService()
        loaded = service.deploy_from_artifact(path)
        assert not loaded.precompute_fallback
        assert service.stats.precompute_fallbacks == 0

    def test_reload_counts_fallback(
        self, bisim_artifact, mean_fill_shard, tmp_path
    ):
        shard, path = bisim_artifact
        bad = self.resave(
            path,
            tmp_path / "bad-reload.npz",
            config_update={"sha256": "f" * 64},
        )
        service = PositioningService()
        service.register(mean_fill_shard)
        assert service.stats.precompute_fallbacks == 0
        service.reload("kaide", bad)
        assert service.stats.precompute_fallbacks == 1
        assert "precompute fallbacks" in service.stats.render()


class TestArtifactLayouts:
    """``save`` writes a shard's one map once, as the estimator's
    fingerprints.  A shard loaded from that layout, from the older
    layout that also stored the map as ``precomputed``, or through a
    registry's fast re-attach of either, answers bit-identically to
    the in-process shard, through one search."""

    @pytest.fixture(scope="class", params=["off", "on"])
    def shard(self, request):
        rng = np.random.default_rng(31)
        n, d = 300, 24
        aps = rng.uniform(0.0, 80.0, size=(d, 2))
        rps = rng.uniform(0.0, 80.0, size=(n, 2))
        dist = np.linalg.norm(rps[:, None, :] - aps[None, :, :], axis=2)
        fp = -30.0 - 30.0 * np.log10(np.maximum(dist, 1.0))
        fp += rng.normal(0.0, 3.0, size=fp.shape)
        estimator = WKNNEstimator(spatial_index=request.param)
        estimator.fit(fp, rps)
        fill = fp.mean(axis=0)
        return VenueShard(
            "venue", d, estimator, None, fill, MapCompletion(fp, fill)
        )

    @staticmethod
    def two_copy_layout(path, out):
        """Re-save ``path`` with the map written a second time."""
        artifact = load_artifact(path)
        assert "precomputed" not in artifact.arrays
        artifact.arrays["precomputed"] = np.array(
            artifact.arrays["estimator.fingerprints"]
        )
        save_artifact(artifact, out, compress=False)
        return out

    @staticmethod
    def one_search(shard):
        search = shard.completion._search
        assert search is shard.estimator._search
        assert np.shares_memory(search.refs, shard.completion.precomputed)
        assert backed_by_memmap(shard.completion.precomputed)
        assert not shard.precompute_fallback

    def test_every_layout_and_load_path_answers_alike(
        self, shard, tmp_path
    ):
        rng = np.random.default_rng(32)
        scans = shard.estimator._fp[rng.integers(0, 300, 40)]
        scans = scans + rng.normal(0.0, 2.5, size=scans.shape)
        scans[rng.random(scans.shape) < 0.3] = np.nan
        expected = shard.locate(scans)
        single = tmp_path / "single.npz"
        shard.save(single)
        two_copy = self.two_copy_layout(single, tmp_path / "two_copy.npz")
        assert single.stat().st_size < two_copy.stat().st_size

        store = ArtifactStore(tmp_path / "store")
        names = ("single", "two_copy")
        for name in names:
            path = tmp_path / f"{name}.npz"
            store.path_for(name).write_bytes(path.read_bytes())
            loaded = VenueShard.load(path)
            self.one_search(loaded)
            np.testing.assert_array_equal(loaded.locate(scans), expected)
            for row, want in zip(scans, expected):
                np.testing.assert_array_equal(
                    loaded.locate(row[None, :])[0], want
                )

        registry = ShardRegistry(store, {name: name for name in names})
        for venue in names:
            for _ in range(2):
                reattached = registry.get(venue)
                self.one_search(reattached)
                np.testing.assert_array_equal(
                    reattached.locate(scans), expected
                )
                registry.evict(venue)
        assert registry.stats.fast_reloads == 2


class TestCliTrainRoundTrip:
    """The acceptance path: CLI-trained artifact == in-process pipeline."""

    def test_train_serve_parity(self, tmp_path, capsys):
        path = tmp_path / "kaide-shard.npz"
        assert (
            main(
                [
                    "train",
                    "--venue",
                    "kaide",
                    "--preset",
                    "smoke",
                    "--out",
                    str(path),
                    "--epochs",
                    "2",
                    "--hidden-size",
                    "8",
                ]
            )
            == 0
        )
        assert "trained kaide" in capsys.readouterr().out
        assert path.exists()

        # In-process reference: the same deterministic offline pipeline.
        config = PRESETS["smoke"]
        reference = build_shard(
            "kaide",
            config,
            estimator_name="wknn",
            bisim_config=BiSIMConfig(
                hidden_size=8, epochs=2, batch_size=config.batch_size
            ),
        )

        # "Fresh process" consumer: a service booted from the artifact.
        service = PositioningService()
        service.deploy_from_artifact(path)

        from repro.experiments import get_dataset

        dataset = get_dataset("kaide", config)
        queries = scans(dataset, 10, 4)
        warm = service.query_batch(["kaide"] * 10, queries)
        cold = reference.locate(queries)
        np.testing.assert_allclose(warm, cold, atol=1e-8)

    def test_train_requires_out(self):
        with pytest.raises(SystemExit):
            main(["train", "--venue", "kaide"])

    def test_impute_writes_complete_map(self, tmp_path, capsys):
        shard_path = tmp_path / "shard.npz"
        map_path = tmp_path / "imputed.npz"
        main(
            [
                "train",
                "--venue",
                "kaide",
                "--preset",
                "smoke",
                "--out",
                str(shard_path),
                "--epochs",
                "1",
                "--hidden-size",
                "8",
            ]
        )
        assert (
            main(
                [
                    "impute",
                    "--venue",
                    "kaide",
                    "--preset",
                    "smoke",
                    "--model",
                    str(shard_path),
                    "--out",
                    str(map_path),
                ]
            )
            == 0
        )
        assert "imputed kaide" in capsys.readouterr().out
        from repro.radiomap import load_radio_map

        imputed = load_radio_map(map_path)
        assert np.isfinite(imputed.fingerprints).all()
        assert np.isfinite(imputed.rps).all()

        # Venue mismatch: longhu has a different AP count, so reusing
        # the kaide artifact must fail with a one-line typed error,
        # not a numpy broadcast crash.
        assert (
            main(
                [
                    "impute",
                    "--venue",
                    "longhu",
                    "--preset",
                    "smoke",
                    "--model",
                    str(shard_path),
                    "--out",
                    str(tmp_path / "wrong.npz"),
                ]
            )
            == 1
        )
        assert "APs" in capsys.readouterr().err

    def test_impute_rejects_mean_fill_artifact(self, tmp_path, capsys):
        shard_path = tmp_path / "meanfill.npz"
        main(
            [
                "train",
                "--venue",
                "kaide",
                "--preset",
                "smoke",
                "--mean-fill",
                "--out",
                str(shard_path),
            ]
        )
        assert (
            main(
                [
                    "impute",
                    "--venue",
                    "kaide",
                    "--preset",
                    "smoke",
                    "--model",
                    str(shard_path),
                    "--out",
                    str(tmp_path / "m.npz"),
                ]
            )
            == 1
        )
        assert "mean-fill" in capsys.readouterr().err
