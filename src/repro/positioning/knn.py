"""KNN and WKNN location estimation [57], [19].

Both estimators compare an online fingerprint against the radio map in
signal space; KNN averages the K nearest records' RPs, WKNN weights
them inversely to fingerprint distance.

Serving API: ``predict`` is fully vectorized over the query batch;
the neighbour search comes from
:class:`~repro.positioning.base.NearestNeighbourEstimator` — on small
maps the exact k-nearest kernel map completion also runs
(:class:`~repro.positioning.index.MapSearch`), on large ones a spatial
index (the ``spatial_index`` field selects the backend; the
neighbours are exact and bit-identical either way).
See :mod:`repro.positioning.base` for the shared return-shape
contract (``(n, D)`` → ``(n, 2)``; ``(D,)`` → ``(2,)``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import (
    LocationEstimator,
    NearestNeighbourEstimator,
    _validate_training,
)

__all__ = [
    "KNNEstimator",
    "LocationEstimator",
    "WKNNEstimator",
    "_validate_training",
]


@dataclass
class KNNEstimator(NearestNeighbourEstimator):
    """Unweighted K-nearest-neighbour positioning."""

    artifact_kind = "positioning.knn"

    k: int = 3
    name: str = "KNN"
    spatial_index: str = "auto"

    def _combine(self, dists: np.ndarray, locs: np.ndarray) -> np.ndarray:
        return locs.mean(axis=1)


@dataclass
class WKNNEstimator(NearestNeighbourEstimator):
    """Weighted KNN: weights ∝ 1 / (fingerprint distance + eps)."""

    artifact_kind = "positioning.wknn"

    k: int = 3
    eps: float = 1e-6
    name: str = "WKNN"
    spatial_index: str = "auto"

    def _combine(self, dists: np.ndarray, locs: np.ndarray) -> np.ndarray:
        w = 1.0 / (dists + self.eps)
        return (w[:, :, None] * locs).sum(axis=1) / w.sum(
            axis=1, keepdims=True
        )
