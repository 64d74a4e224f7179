"""Shared location-estimator machinery (the batched query path).

Serving API
-----------
Every estimator follows one contract, enforced here so KNN, WKNN and
the random forest cannot drift apart:

* :meth:`LocationEstimator.fit` validates and stores the radio map and
  then calls the subclass hook :meth:`LocationEstimator._fit`;
* :meth:`LocationEstimator.predict` is *batch-first*: it accepts
  ``(n, D)`` queries (or a single ``(D,)`` query), raises
  :class:`~repro.exceptions.PositioningError` with ``"estimator not
  fitted"`` before :meth:`fit`, validates the AP dimensionality, and
  delegates to the vectorized subclass hook
  :meth:`LocationEstimator._predict_batch`.

Return-shape contract: ``(n, D)`` in → ``(n, 2)`` out; a ``(D,)``
query returns ``(2,)`` by default, or ``(1, 2)`` with
``squeeze=False``.  An empty ``(0, D)`` batch returns ``(0, 2)``.

:class:`NearestNeighbourEstimator` adds the shared vectorized
neighbour search both KNN variants build on.  It has one semantic at
every map size: exact float64 per-pair distances, selected by
``(distance, record index)`` as
:func:`~repro.positioning.index.select_k_nearest` selects them.  Two
kernels find them:

* **brute force** (maps below ``INDEX_MIN_RECORDS`` under ``"auto"``,
  or ``spatial_index="off"``) — a
  :class:`~repro.positioning.index.MapSearch` over the radio map with
  every AP heard: the kernel map completion runs with a scan's heard
  APs, an exact scan for small batches and a float32 bound GEMM with
  a proven margin otherwise (the proof lives with the kernel);
* **spatial index** — a :class:`~repro.positioning.index.SpatialIndex`
  over the radio map, used when the ``spatial_index`` mode requests it
  (``"auto"`` builds one at ``INDEX_MIN_RECORDS`` and above).

So a row's neighbours are bit-identical whichever path serves it and
whatever batch it arrives in; :func:`pairwise_sq_dists` with
:func:`~repro.positioning.index.canonical_k_smallest` is the test
oracle both are pinned against.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Tuple

import numpy as np

from ..exceptions import PositioningError
from .index import INDEX_MIN_RECORDS, MapSearch, SpatialIndex

#: Valid values of the ``spatial_index`` estimator field.
INDEX_MODES = ("auto", "on", "off")


def _validate_training(fingerprints: np.ndarray, locations: np.ndarray):
    fp = np.asarray(fingerprints, dtype=float)
    loc = np.asarray(locations, dtype=float)
    if fp.ndim != 2 or loc.shape != (fp.shape[0], 2):
        raise PositioningError("fingerprints (n,D) / locations (n,2) required")
    if fp.shape[0] == 0:
        raise PositioningError("empty radio map")
    if not np.isfinite(fp).all() or not np.isfinite(loc).all():
        raise PositioningError("radio map must be fully imputed first")
    return fp, loc


def pairwise_sq_dists(
    queries: np.ndarray, refs: np.ndarray, *, chunk_elems: int = 1 << 23
) -> np.ndarray:
    """``(n, m)`` exact squared Euclidean distances (the test oracle).

    Computes ``((a−b)²).sum`` over a materialised difference, chunked
    over query rows so at most ``chunk_elems`` difference elements are
    alive at a time.  It reduces over the contiguous trailing axis
    like :func:`~repro.positioning.index.pair_exact_sq_dists`, so
    equal pairs produce bit-equal distances; with
    :func:`~repro.positioning.index.canonical_k_smallest` it is the
    reference every serving path is tested against.
    """
    queries = np.asarray(queries, dtype=float)
    refs = np.asarray(refs, dtype=float)
    n, d = queries.shape
    m = refs.shape[0]
    out = np.empty((n, m))
    rows = max(1, chunk_elems // max(1, m * d))
    for s in range(0, n, rows):
        e = min(s + rows, n)
        diff = queries[s:e, None, :] - refs[None, :, :]
        out[s:e] = (diff * diff).sum(axis=-1)
    return out


class LocationEstimator(ABC):
    """fit(radio map) → predict(online fingerprints), batch-first."""

    name: str = "estimator"

    #: Artifact kind tag for :meth:`save`; set by persistable subclasses.
    artifact_kind = ""

    @property
    def fitted(self) -> bool:
        return hasattr(self, "_fp")

    def fit(
        self, fingerprints: np.ndarray, locations: np.ndarray
    ) -> "LocationEstimator":
        """Store/learn from a complete radio map."""
        self._fp, self._loc = _validate_training(fingerprints, locations)
        self._fit(self._fp, self._loc)
        return self

    def _fit(self, fingerprints: np.ndarray, locations: np.ndarray) -> None:
        """Subclass hook; the validated arrays are already stored."""

    def predict(
        self, fingerprints: np.ndarray, *, squeeze: bool = True
    ) -> np.ndarray:
        """Estimate locations for a batch of online fingerprints.

        Parameters
        ----------
        fingerprints:
            ``(n, D)`` query batch or a single ``(D,)`` query.
        squeeze:
            When True (default) a ``(D,)`` query returns ``(2,)``;
            with ``squeeze=False`` the output is always ``(n, 2)``.
        """
        if not hasattr(self, "_fp"):
            raise PositioningError("estimator not fitted")
        queries = np.asarray(fingerprints, dtype=float)
        single = queries.ndim == 1
        if single:
            queries = queries[None, :]
        if queries.ndim != 2 or queries.shape[1] != self._fp.shape[1]:
            raise PositioningError(
                f"queries must be (n, {self._fp.shape[1]})"
            )
        if queries.shape[0] == 0:
            return np.empty((0, 2))
        out = self._predict_batch(queries)
        return out[0] if single and squeeze else out

    @abstractmethod
    def _predict_batch(self, queries: np.ndarray) -> np.ndarray:
        """Vectorized ``(n, D)`` → ``(n, 2)`` prediction."""

    # ------------------------------------------------------------------
    # Serialisation (see :mod:`repro.positioning.io`)
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Checkpoint the fitted estimator as an artifact file."""
        from .io import save_estimator

        save_estimator(self, path)

    def _extra_state_arrays(self):
        """Subclass hook: fitted state beyond ``_fp``/``_loc``."""
        return {}

    def _restore_extra_state(self, arrays) -> None:
        """Subclass hook: inverse of :meth:`_extra_state_arrays`."""


class NearestNeighbourEstimator(LocationEstimator):
    """Base for estimators that aggregate the k nearest radio-map records.

    Subclasses set ``k`` (a dataclass field) and implement
    :meth:`_combine`, which turns the selected neighbours' distances
    and locations into position estimates.  The optional
    ``spatial_index`` field picks how candidates are found —
    ``"auto"`` (default; index maps with at least
    ``INDEX_MIN_RECORDS`` records), ``"on"`` (always index) or
    ``"off"`` (always brute force); the neighbours are exact and
    bit-identical in every mode.
    """

    k: int = 3
    spatial_index: str = "auto"

    @property
    def index(self) -> "SpatialIndex | None":
        """The fitted spatial index, if one is in use."""
        return getattr(self, "_index", None)

    def _fit(self, fingerprints: np.ndarray, locations: np.ndarray) -> None:
        self._set_search(
            SpatialIndex.build(fingerprints)
            if self._wants_index(fingerprints.shape[0])
            else None
        )

    def _set_search(self, index: "SpatialIndex | None") -> None:
        """Install the search state for the current ``_fp``: the
        index (or None) and the brute path's search."""
        self._index = index
        self._search = MapSearch(self._fp, stage="brute")

    def _wants_index(self, n_records: int) -> bool:
        mode = self.spatial_index
        if mode not in INDEX_MODES:
            raise PositioningError(
                f"spatial_index must be one of {INDEX_MODES}, got {mode!r}"
            )
        return mode == "on" or (
            mode == "auto" and n_records >= INDEX_MIN_RECORDS
        )

    def fit_incremental(
        self,
        fingerprints: np.ndarray,
        locations: np.ndarray,
        keep_old: np.ndarray,
        keep_new: np.ndarray,
    ) -> "NearestNeighbourEstimator":
        """Refit after an ingestion delta, refreshing the index in place.

        ``keep_old[i]``/``keep_new[i]`` pair up radio-map rows that
        survived the delta unchanged (old row index → new row index);
        the spatial index keeps its learned structure and only
        reassigns the remaining rows.  Equivalent to :meth:`fit` in
        results — the index stays exact under any bucket assignment —
        just cheaper.
        """
        index = self.index
        self._fp, self._loc = _validate_training(fingerprints, locations)
        if index is not None and index.n_dims == self._fp.shape[1]:
            self._set_search(index.refreshed(self._fp, keep_old, keep_new))
        else:
            self._fit(self._fp, self._loc)
        return self

    def _neighbours(
        self, queries: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(dists, locs)`` of the k nearest records per query.

        ``dists`` is ``(n, k)`` Euclidean distances, ``locs`` is
        ``(n, k, 2)``; both are canonically ordered by ``(distance,
        record index)`` over exact per-pair distances, so the index
        and the brute search select identical neighbours with
        identical distances.
        """
        n = self._fp.shape[0]
        k = min(self.k, n)
        index = self.index
        if index is not None and k < n:
            d2k, idx = index.query(queries, k)
        else:
            d2k, idx = self._search.query(queries, k)
        return np.sqrt(d2k), self._loc[idx]

    def _predict_batch(self, queries: np.ndarray) -> np.ndarray:
        return self._combine(*self._neighbours(queries))

    def _extra_state_arrays(self):
        index = self.index
        if index is None:
            return {}
        return {
            f"index.{name}": arr
            for name, arr in index.to_arrays().items()
        }

    def _restore_extra_state(self, arrays) -> None:
        if "index.assign" in arrays:
            self._set_search(
                SpatialIndex.from_arrays(
                    {
                        name.split(".", 1)[1]: arr
                        for name, arr in arrays.items()
                        if name.startswith("index.")
                    },
                    self._fp,
                )
            )
        else:
            # Artifact predates the index (or was built with it off):
            # honour this estimator's mode at load time.
            self._fit(self._fp, self._loc)

    @abstractmethod
    def _combine(
        self, dists: np.ndarray, locs: np.ndarray
    ) -> np.ndarray:
        """Aggregate ``(n, k)`` distances / ``(n, k, 2)`` RPs."""
