"""Fitted-estimator persistence (KNN / WKNN / random forest).

Each estimator saves its full fitted state — radio-map fingerprints
and locations, hyperparameters, and (for the forest) the flattened
trees — as one artifact whose kind identifies the concrete class, so
:func:`load_estimator` can reconstruct a serving-ready estimator
without refitting::

    estimator.save("wknn.npz")
    estimator = load_estimator("wknn.npz")   # predicts identically
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import Any, Dict, Tuple

import numpy as np

from ..artifacts import Artifact, load_artifact, save_artifact
from ..exceptions import ArtifactError, PositioningError
from .base import LocationEstimator
from .forest import RandomForestEstimator
from .knn import KNNEstimator, WKNNEstimator

#: kind tag → estimator class, for reconstruction on load.
ESTIMATOR_KINDS = {
    cls.artifact_kind: cls
    for cls in (KNNEstimator, WKNNEstimator, RandomForestEstimator)
}

Payload = Tuple[str, Dict[str, Any], Dict[str, np.ndarray]]

#: Estimator options that no longer exist.  Artifacts saved before
#: their removal still carry them; every estimator now runs the one
#: exact search they used to choose between, so loading drops them.
_RETIRED_CONFIG_KEYS = ("spatial_kernel", "exact_distances")


def estimator_payload(estimator: LocationEstimator) -> Payload:
    """``(kind, config, arrays)`` of a fitted estimator.

    Exposed separately from :func:`save_estimator` so composite
    artifacts (serving shards) can embed an estimator under a name
    prefix.
    """
    kind = estimator.artifact_kind
    if kind not in ESTIMATOR_KINDS:
        raise PositioningError(
            f"{type(estimator).__name__} does not support artifact "
            "persistence"
        )
    if not estimator.fitted:
        raise PositioningError("estimator not fitted")
    config = {
        f.name: getattr(estimator, f.name)
        for f in fields(estimator)
        if not f.name.startswith("_")
    }
    arrays: Dict[str, np.ndarray] = {
        "fingerprints": estimator._fp,
        "locations": estimator._loc,
    }
    arrays.update(estimator._extra_state_arrays())
    return kind, config, arrays


def estimator_from_payload(
    kind: str, config: Dict[str, Any], arrays: Dict[str, np.ndarray]
) -> LocationEstimator:
    """Inverse of :func:`estimator_payload`."""
    cls = ESTIMATOR_KINDS.get(kind)
    if cls is None:
        raise ArtifactError(f"unknown estimator artifact kind {kind!r}")
    if not is_dataclass(cls):  # pragma: no cover - all kinds are
        raise ArtifactError(f"estimator kind {kind!r} not loadable")
    config = {
        name: value
        for name, value in config.items()
        if name not in _RETIRED_CONFIG_KEYS
    }
    try:
        estimator = cls(**config)
    except TypeError as exc:
        raise ArtifactError(
            f"estimator checkpoint config does not match "
            f"{cls.__name__}: {exc}"
        ) from exc
    estimator._fp = np.asarray(arrays["fingerprints"], dtype=float)
    estimator._loc = np.asarray(arrays["locations"], dtype=float)
    estimator._restore_extra_state(arrays)
    return estimator


def save_estimator(estimator: LocationEstimator, path) -> None:
    kind, config, arrays = estimator_payload(estimator)
    save_artifact(
        Artifact(
            kind=kind,
            arrays=arrays,
            config=config,
            metrics={"n_records": int(arrays["fingerprints"].shape[0])},
        ),
        path,
    )


def load_estimator(path) -> LocationEstimator:
    artifact = load_artifact(path)
    return estimator_from_payload(
        artifact.kind, artifact.config, artifact.arrays
    )
