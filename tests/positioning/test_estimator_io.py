"""Fitted-estimator persistence: exact predict parity after reload."""

import numpy as np
import pytest

from repro.exceptions import ArtifactError, PositioningError
from repro.positioning import (
    KNNEstimator,
    RandomForestEstimator,
    RegressionTree,
    WKNNEstimator,
    load_estimator,
    save_estimator,
)


@pytest.fixture
def training_data():
    rng = np.random.default_rng(11)
    fp = rng.uniform(-95, -40, size=(50, 9))
    loc = rng.uniform(0, 25, size=(50, 2))
    queries = rng.uniform(-95, -40, size=(12, 9))
    return fp, loc, queries


@pytest.mark.parametrize(
    "estimator",
    [
        KNNEstimator(k=4),
        WKNNEstimator(k=5, eps=1e-5),
        RandomForestEstimator(n_trees=6, max_depth=5, seed=2),
    ],
    ids=["knn", "wknn", "rf"],
)
def test_round_trip_exact(estimator, training_data, tmp_path):
    fp, loc, queries = training_data
    estimator.fit(fp, loc)
    expected = estimator.predict(queries, squeeze=False)
    path = tmp_path / "est.npz"
    estimator.save(path)
    loaded = load_estimator(path)
    assert type(loaded) is type(estimator)
    assert loaded.fitted
    np.testing.assert_array_equal(
        loaded.predict(queries, squeeze=False), expected
    )


def test_hyperparameters_survive(training_data, tmp_path):
    fp, loc, _ = training_data
    est = WKNNEstimator(k=7, eps=1e-4).fit(fp, loc)
    est.save(tmp_path / "w.npz")
    loaded = load_estimator(tmp_path / "w.npz")
    assert loaded.k == 7 and loaded.eps == 1e-4


def test_unfitted_save_rejected(tmp_path):
    with pytest.raises(PositioningError, match="not fitted"):
        save_estimator(KNNEstimator(), tmp_path / "e.npz")


@pytest.mark.parametrize("mode", ["off", "on"])
def test_retired_config_keys_still_load(mode, training_data, tmp_path):
    """Artifacts saved with the retired ``spatial_kernel`` /
    ``exact_distances`` options load and answer like a fresh fit."""
    from repro.artifacts import Artifact, save_artifact
    from repro.positioning.io import estimator_payload

    fp, loc, queries = training_data
    fresh = WKNNEstimator(k=4, spatial_index=mode).fit(fp, loc)
    kind, config, arrays = estimator_payload(fresh)
    config.update(spatial_kernel="bucket", exact_distances=True)
    save_artifact(
        Artifact(kind=kind, arrays=arrays, config=config),
        tmp_path / "old.npz",
    )
    loaded = load_estimator(tmp_path / "old.npz")
    assert (loaded.index is None) == (mode == "off")
    np.testing.assert_array_equal(
        loaded.predict(queries, squeeze=False),
        fresh.predict(queries, squeeze=False),
    )


def test_unknown_config_key_still_rejected(training_data, tmp_path):
    from repro.artifacts import Artifact, save_artifact
    from repro.positioning.io import estimator_payload

    fp, loc, _ = training_data
    kind, config, arrays = estimator_payload(
        KNNEstimator().fit(fp, loc)
    )
    config["kernel_mode"] = "fast"
    save_artifact(
        Artifact(kind=kind, arrays=arrays, config=config),
        tmp_path / "bad.npz",
    )
    with pytest.raises(ArtifactError, match="does not match"):
        load_estimator(tmp_path / "bad.npz")


def test_unknown_kind_rejected(tmp_path):
    from repro.artifacts import Artifact, save_artifact

    path = tmp_path / "weird.npz"
    save_artifact(
        Artifact(kind="positioning.svm", arrays={"w": np.ones(2)}),
        path,
    )
    with pytest.raises(ArtifactError, match="unknown estimator"):
        load_estimator(path)


class TestTreeArrays:
    def test_round_trip(self, training_data):
        fp, loc, queries = training_data
        tree = RegressionTree(
            max_depth=5, rng=np.random.default_rng(3)
        ).fit(fp, loc)
        rebuilt = RegressionTree.from_arrays(tree.to_arrays())
        np.testing.assert_array_equal(
            rebuilt.predict(queries), tree.predict(queries)
        )

    def test_unfitted_rejected(self):
        with pytest.raises(PositioningError, match="not fitted"):
            RegressionTree().to_arrays()

    def test_cyclic_arrays_rejected(self):
        """Crafted self-referencing node data must not hang loading."""
        cyclic = {
            "feature": np.array([0]),
            "threshold": np.array([0.5]),
            "left": np.array([0]),  # points back at itself
            "right": np.array([0]),
            "value": np.full((1, 2), np.nan),
        }
        with pytest.raises(PositioningError, match="revisit"):
            RegressionTree.from_arrays(cyclic)

    def test_single_leaf_tree(self):
        # Constant targets collapse to a single leaf node.
        x = np.ones((5, 3))
        y = np.tile([2.0, 3.0], (5, 1))
        tree = RegressionTree().fit(x, y)
        rebuilt = RegressionTree.from_arrays(tree.to_arrays())
        np.testing.assert_allclose(
            rebuilt.predict(np.zeros((2, 3))), [[2.0, 3.0]] * 2
        )
