"""Query completion strategies (filling a fingerprint's unheard APs).

Every query reaching an estimator must be fully finite.  How the NaNs
get filled is the *completion* step of a shard's pipeline, and it is
where the PR-5 serving path spent most of its time on BiSIM venues:
:meth:`~repro.bisim.OnlineImputer.impute_batch` ran the trained
encoder over every batch.  The completers here make that a build-time
decision instead:

* :class:`MapCompletion` — the serving default for BiSIM shards.  The
  fully-imputed radio-map tensor is precomputed once at artifact-build
  time; at serve time a query's missing APs are filled from its
  nearest map records *measured over the observed APs only*, found
  by the same exact search kernel the brute-force estimator runs
  (:class:`~repro.positioning.index.MapSearch`, given the scan's
  heard APs; no encoder).  Fully-missing queries fall back to the
  per-AP fill values.
* :class:`MeanFillCompletion` — per-AP mean fill, the instant-deploy
  path for venues without a trained BiSIM.
* :class:`EncoderCompletion` — the PR-5 behaviour, kept for
  ingest-time refresh and as the degraded fallback when a shard
  artifact's precomputed tensor fails validation (``fallback=True``
  marks that case so the service can count it).

All completers are immutable after construction and safe to share
across threads; ``complete`` never mutates its input.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..bisim import OnlineImputer
from ..exceptions import ServingError
from ..positioning.index import MapSearch

__all__ = [
    "EncoderCompletion",
    "MapCompletion",
    "MeanFillCompletion",
    "completion_from",
]

class MeanFillCompletion:
    """Fill missing APs with the per-AP mean of the filled radio map."""

    def __init__(self, fill_values: np.ndarray):
        self.fill_values = np.asarray(fill_values, dtype=float)

    def complete(self, queries: np.ndarray) -> np.ndarray:
        return np.where(
            np.isfinite(queries), queries, self.fill_values[None, :]
        )


class EncoderCompletion:
    """Run the trained BiSIM encoder over the batch (PR-5 semantics)."""

    def __init__(self, online: OnlineImputer, *, fallback: bool = False):
        self.online = online
        #: True when this completer stands in for a precomputed tensor
        #: that failed validation — the service counts these.
        self.fallback = fallback

    def complete(self, queries: np.ndarray) -> np.ndarray:
        return self.online.impute_batch(queries, squeeze=False)


class MapCompletion:
    """Masked-KNN completion against the precomputed imputed map.

    ``precomputed`` is the fully-imputed ``(n_records, n_aps)``
    radio-map tensor written at artifact-build time (it may be a
    read-only memory map, served in place).  A fully observed row
    passes through, a fully missing one takes ``fill_values``, and a
    partial row's missing APs take the mean, in record order, of its
    ``k`` (at least 1) nearest records over its *observed* APs.  The
    brute-force estimator's kernel finds them
    (:class:`~repro.positioning.index.MapSearch`, masked; its
    docstring holds the bound's proof), so a fill depends only on the
    scan and the map.

    A shard's builders pass the estimator's map here, and the shard
    then hands this completion the estimator's search: one map, one
    bound for both users, partitioned by the index's buckets when the
    estimator has an index (see :class:`~repro.serving.VenueShard`).
    """

    def __init__(
        self,
        precomputed: np.ndarray,
        fill_values: Optional[np.ndarray],
        *,
        k: int = 3,
    ):
        if int(k) < 1:
            raise ServingError(f"completion needs k >= 1, got {k}")
        if not isinstance(precomputed, np.ndarray):
            precomputed = np.asarray(precomputed)
        if precomputed.ndim != 2 or precomputed.shape[0] == 0:
            raise ServingError(
                "precomputed completion tensor must be (n, D)"
            )
        if not np.isfinite(precomputed).all():
            raise ServingError(
                "precomputed completion tensor must be fully imputed"
            )
        if precomputed.dtype != np.float64:
            # One resident copy beats a per-batch upcast; shard
            # artifacts store float64, so this is the exotic case.
            precomputed = np.ascontiguousarray(precomputed, dtype=float)
        self.precomputed = precomputed
        self.fill_values = (
            None
            if fill_values is None
            else np.asarray(fill_values, dtype=float)
        )
        self.k = int(k)
        #: A shard whose estimator holds this same map replaces this
        #: with the estimator's search, so one bound serves both.
        self._search = MapSearch(precomputed)

    def complete(self, queries: np.ndarray) -> np.ndarray:
        q = np.asarray(queries, dtype=float)
        observed = np.isfinite(q)
        if observed.all():
            return q
        out = q.copy()
        any_obs = observed.any(axis=1)
        if not any_obs.all():
            fill = self.fill_values
            if fill is None:
                raise ServingError(
                    "fully-missing query and no fill values to complete it"
                )
            out[~any_obs] = fill
        partial = np.nonzero(any_obs & ~observed.all(axis=1))[0]
        if partial.size:
            mask = observed[partial]
            # The gathered block doubles as the zero-filled query
            # matrix: fancy indexing already copied it out of ``out``.
            qz = out[partial]
            qz[~mask] = 0.0
            ids = self._search.nearest(qz, self.k, mask, stage="completion")
            fills = self.precomputed[ids].mean(axis=1)
            # Observed slots still hold the query values — only the
            # zeroed missing slots take the KNN fills.
            np.copyto(qz, fills, where=~mask)
            out[partial] = qz
        return out


def completion_from(
    online: Optional[OnlineImputer],
    fill_values: Optional[np.ndarray],
):
    """The legacy completer for a pipeline without a precomputed map.

    Mirrors the PR-5 dispatch: a trained online imputer runs the
    encoder, otherwise per-AP mean fill; ``None`` when the pipeline
    has neither (such a shard cannot complete queries).
    """
    if online is not None:
        return EncoderCompletion(online)
    if fill_values is not None:
        return MeanFillCompletion(fill_values)
    return None
