"""Location estimation (KNN, WKNN, random forest) and the paper's
evaluation-control protocol.

Serving API: every estimator shares the batch-first
:meth:`~repro.positioning.base.LocationEstimator.predict` contract —
``(n, D)`` queries in, ``(n, 2)`` locations out (a single ``(D,)``
query returns ``(2,)``) — with the vectorized nearest-neighbour search
living in :mod:`repro.positioning.base`.
"""

from .base import (
    LocationEstimator,
    NearestNeighbourEstimator,
    pairwise_sq_dists,
)
from .index import (
    INDEX_MIN_RECORDS,
    SpatialIndex,
    canonical_k_smallest,
)
from .evaluate import (
    PipelineOutcome,
    evaluate_pipeline,
    imputed_test_fingerprints,
)
from .forest import RandomForestEstimator
from .io import ESTIMATOR_KINDS, load_estimator, save_estimator
from .knn import KNNEstimator, WKNNEstimator
from .tree import RegressionTree

__all__ = [
    "ESTIMATOR_KINDS",
    "INDEX_MIN_RECORDS",
    "KNNEstimator",
    "SpatialIndex",
    "canonical_k_smallest",
    "LocationEstimator",
    "NearestNeighbourEstimator",
    "PipelineOutcome",
    "RandomForestEstimator",
    "RegressionTree",
    "WKNNEstimator",
    "evaluate_pipeline",
    "imputed_test_fingerprints",
    "load_estimator",
    "pairwise_sq_dists",
    "save_estimator",
]
