"""Shared fixtures: small deterministic datasets and radio maps."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import make_dataset, make_multifloor_dataset
from repro.radiomap import RadioMap


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def kaide_smoke():
    """A small but fully realistic kaide dataset (built once)."""
    return make_dataset("kaide", scale=0.28, seed=5, n_passes=2)


@pytest.fixture(scope="session")
def longhu_smoke():
    """Bluetooth venue dataset for generalisability tests."""
    return make_dataset("longhu", scale=0.28, seed=5, n_passes=2)


@pytest.fixture(scope="session")
def multifloor_smoke():
    """A small two-floor kaide tower (built once)."""
    return make_multifloor_dataset(
        "kaide", n_floors=2, scale=0.28, seed=5, n_passes=2
    )


@pytest.fixture(scope="session")
def fleet_scale_map() -> np.ndarray:
    """A 32768 × 96 log-distance path-loss map over a 200 m square."""
    rng = np.random.default_rng(21)
    aps = rng.uniform(0.0, 200.0, size=(96, 2))
    rps = rng.uniform(0.0, 200.0, size=(32768, 2))
    dist = np.linalg.norm(rps[:, None, :] - aps[None, :, :], axis=2)
    rssi = -30.0 - 30.0 * np.log10(np.maximum(dist, 1.0))
    rssi += rng.normal(0.0, 3.0, size=rssi.shape)
    return np.clip(rssi, -95.0, -20.0)


@pytest.fixture
def tiny_radio_map() -> RadioMap:
    """The paper's Table III radio map (5 records, 5 APs, one path).

    Fingerprints/RPs/timestamps transcribed verbatim from the paper.
    """
    nan = np.nan
    fingerprints = np.array(
        [
            [-70.0, -83.0, -76.0, nan, nan],
            [-71.0, nan, -78.0, nan, nan],
            [nan, nan, -80.0, -68.0, nan],
            [-74.0, -77.0, nan, nan, -81.0],
            [nan, nan, nan, nan, nan],
        ]
    )
    rps = np.array(
        [
            [1.0, 1.0],
            [nan, nan],
            [5.0, 5.0],
            [nan, nan],
            [8.0, 8.0],
        ]
    )
    times = np.array([1.0, 3.0, 8.0, 12.0, 16.0])
    return RadioMap(
        fingerprints=fingerprints,
        rps=rps,
        times=times,
        path_ids=np.zeros(5, dtype=int),
    )
