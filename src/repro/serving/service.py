"""The positioning service: batched, cached, multi-venue serving.

Serving API
-----------
A deployment is a registry of :class:`VenueShard` objects, one per
venue/floor radio map.  Each shard owns the full online pipeline for
its map — differentiate (offline, at build time) → impute (online,
batched) → estimate (online, batched) — so routing a request is a
dictionary lookup and everything after it is vectorized.

:class:`PositioningService` accepts batches of *raw* online
fingerprints (NaN = unheard AP) tagged with venue keys, groups them by
shard, answers repeats from an LRU cache keyed on quantized
fingerprints, and keeps latency/throughput counters::

    service = PositioningService()
    service.deploy("kaide/f1", radio_map, differentiator)
    locations = service.query_batch(keys, fingerprints)  # (n, 2)
    print(service.stats.render())

Every batch — a direct :meth:`PositioningService.query_batch`, a
:class:`~repro.serving.pipeline.ServingPipeline` micro-batch or a
:class:`~repro.serving.fleet.ShardFleet` worker tick — goes through
one serve core in four steps:

1. **group**: resolve each distinct venue once to its shard and
   canonical key (``ShardKey("kaide")`` and ``"kaide"`` are one
   venue), check each row's width, and stack each venue's rows into
   one contiguous array (a single-venue ``(n, D)`` ndarray is served
   as the caller's array, no copy).  A row that cannot be placed
   (unknown venue, failed shard load, wrong width) fails alone;
2. **cache filter** (skipped when ``cache_size == 0``): quantize the
   stacks into cache keys, answer hits under the lock, and coalesce
   repeats of an in-batch miss onto one leader row;
3. **locate**: one batched :meth:`VenueShard.locate` per venue over
   its miss rows.  A venue whose ``locate`` raises fails its own rows
   only: it caches nothing and publishes nothing;
4. **fan out and publish**: scatter answers back to batch order,
   insert fresh answers into the cache and publish the counters in
   one critical section.

Front ends differ only in how they report the failures:
:meth:`~PositioningService.query_batch` raises the first grouping
failure before the cache or the counters are touched, and the first
``locate`` failure after the other venues are served; the pipeline and
the fleet settle each request with its own row's outcome.

The serve path never runs the BiSIM encoder.  Shards built with a
:class:`~repro.bisim.BiSIMConfig` precompute the fully-imputed
radio-map tensor at build time and complete queries against it with
:class:`~repro.serving.completion.MapCompletion` (masked KNN over the
observed APs); the trained :class:`~repro.bisim.OnlineImputer` is
retained only for ingest-time refresh in
:meth:`VenueShard.prepare_delta` — and as a degraded serve fallback
when a warm-start artifact's precomputed tensor fails validation
(counted in ``ServiceStats.precompute_fallbacks``).  Shards built
without a BiSIM config use per-AP mean imputation, which keeps
deployment instant for venues that cannot afford training.

Thread safety
-------------
:class:`PositioningService` may be called from many threads at once
(the regime :class:`~repro.serving.pipeline.ServingPipeline` creates):

* the LRU cache and :class:`ServiceStats` counters are guarded by one
  internal lock; shard compute (impute → estimate) runs outside it so
  concurrent batches only serialize on the cheap bookkeeping;
* a shard's pipeline (estimator, online imputer, fill values,
  completion) lives in a single tuple that :meth:`VenueShard.reload`
  swaps with one reference assignment — an in-flight batch reads the
  tuple once and can never observe a torn half-old/half-new pipeline;
* :meth:`PositioningService.reload` swaps the shard and invalidates
  the venue's cache entries under the same lock that cache reads take,
  and every shard carries an ``epoch`` counter;
* an in-flight batch keeps the shards it resolved in step 1.  When a
  reload, a delta apply or an :meth:`~PositioningService.unregister`
  lands mid-batch, the batch still returns the answers those shards
  computed (its requests arrived first) but does not cache them:
  step 4 inserts only while the venue still maps to the same shard at
  the same epoch.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, is_dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..artifacts import (
    Artifact,
    backed_by_memmap,
    load_artifact,
    merge_prefixed,
    save_artifact,
    split_prefixed,
)
from ..bisim import BiSIMConfig, OnlineImputer
from ..bisim.checkpoint import online_from_payload, online_payload
from ..constants import MNAR_FILL
from ..core import Differentiator
from ..exceptions import ReproError, ServingError
from ..imputers import fill_mnars
from ..obs import MetricsRegistry, Telemetry
from ..positioning import LocationEstimator, WKNNEstimator
from ..positioning.base import NearestNeighbourEstimator
from ..positioning.io import estimator_from_payload, estimator_payload
from ..radiomap import RadioMap, RadioMapDelta
from .completion import (
    EncoderCompletion,
    MapCompletion,
    MeanFillCompletion,
    completion_from,
)
from .keys import ShardKey, coerce_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .floors import FloorRouter

#: Artifact kind of a full warm-start shard bundle.
SHARD_KIND = "serving.shard"

#: Cache key: (venue, quantized-fingerprint bytes).
CacheKey = Tuple[str, bytes]

#: A shard's atomically-swappable pipeline: (estimator, online
#: imputer, fill values, completion).  The online imputer no longer
#: serves queries — it is retained for ingest-time refresh only; the
#: completion object owns the serve-path NaN filling.
Pipeline = Tuple[
    LocationEstimator,
    Optional[OnlineImputer],
    Optional[np.ndarray],
    Any,
]


#: Shard artifact members served as read-only memory maps: the one
#: imputed map, and its second copy in the older two-copy layout.
MAPPED_ARRAYS = ("estimator.fingerprints", "precomputed")


def _buffer(a: np.ndarray) -> Tuple[int, Tuple[int, ...], Tuple[int, ...]]:
    """Where an array's bytes start and how they are laid out: equal
    for two views of one buffer, such as a memory map and the plain
    array ``np.asarray`` makes of it."""
    return a.__array_interface__["data"][0], a.shape, a.strides


def _one_search(pipeline: Pipeline) -> Pipeline:
    """``pipeline`` with one search per imputed map.

    When the completion's map is the estimator's map, as every shard
    builder and :meth:`VenueShard.load` pass it, the completion runs
    the estimator's :class:`~repro.positioning.index.MapSearch`, so
    its bound is built and charged once.  When the estimator's index
    covers as many records as the completion map, that search sweeps
    the index's buckets; any partition keeps the answers exact, so a
    map the index was not built on only prunes less.
    """
    estimator, _, _, completion = pipeline
    if isinstance(completion, MapCompletion) and isinstance(
        estimator, NearestNeighbourEstimator
    ):
        if estimator.fitted and _buffer(estimator._fp) == _buffer(
            completion.precomputed
        ):
            completion._search = estimator._search
        index = estimator.index
        if (
            index is not None
            and index.n_records == completion.precomputed.shape[0]
        ):
            completion._search.partition(index.assign)
    return pipeline


@dataclass
class ServiceStats:
    """Latency/throughput counters of one :class:`PositioningService`.

    ``seconds`` accumulates wall-clock time spent inside
    :meth:`PositioningService.query_batch` (and, when a
    :class:`~repro.serving.pipeline.ServingPipeline` fronts the
    service, its submit-time cache probes); ``per_venue`` counts
    queries routed to each shard.  A query is a hit when it is
    answered from the LRU cache *or* when it repeats an identical
    ``(venue, cache key)`` row earlier in the same batch — either way
    the shard computed it once and the repeat was free.

    Since the unified telemetry layer landed this dataclass is a
    *view*: the service keeps its counters in a
    :class:`~repro.obs.MetricsRegistry` (names ``serving.*``) and
    :attr:`PositioningService.stats` materialises this snapshot from
    the registry under the service lock — same fields, same atomic
    invariants, one metrics substrate.
    """

    queries: int = 0
    batches: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    seconds: float = 0.0
    deltas_applied: int = 0
    delta_rows: int = 0
    keys_invalidated: int = 0
    keys_kept: int = 0
    #: Shards serving through a degraded completion because their
    #: artifact's precomputed tensor failed validation (old artifact,
    #: manifest drift) — each one pays encoder/mean-fill costs the
    #: precompute was supposed to remove, so alert on this going up.
    precompute_fallbacks: int = 0
    #: Queries that arrived addressed to a bare stacked venue and were
    #: rewritten to a per-floor shard key by its floor classifier.
    floor_routed: int = 0
    per_venue: Dict[str, int] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Served queries per second of service time."""
        return self.queries / self.seconds if self.seconds > 0 else 0.0

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def render(self) -> str:
        lines = [
            f"queries={self.queries} batches={self.batches} "
            f"throughput={self.throughput:.0f}/s "
            f"cache hit rate={100 * self.hit_rate:.0f}%",
        ]
        if self.deltas_applied:
            lines.append(
                f"  deltas applied={self.deltas_applied} "
                f"({self.delta_rows} rows); cache keys "
                f"invalidated={self.keys_invalidated} "
                f"kept={self.keys_kept}"
            )
        if self.precompute_fallbacks:
            lines.append(
                f"  precompute fallbacks={self.precompute_fallbacks} "
                "(shards serving without their precomputed tensor)"
            )
        if self.floor_routed:
            lines.append(
                f"  floor routed={self.floor_routed} "
                "(bare-venue queries classified onto a floor shard)"
            )
        for venue in sorted(self.per_venue):
            lines.append(f"  {venue}: {self.per_venue[venue]} queries")
        return "\n".join(lines)


@dataclass
class _ShardSource:
    """Build inputs a shard retains to support incremental deltas.

    ``mask`` caches the differentiator's output over ``radio_map`` and
    ``imputed_fp`` / ``imputed_rps`` the trainer-imputed training set
    (BiSIM shards only), so :meth:`VenueShard.prepare_delta` only
    recomputes the rows of dirty paths and stitches the rest.
    """

    radio_map: RadioMap
    differentiator: Differentiator
    mask: np.ndarray
    imputed_fp: Optional[np.ndarray] = None
    imputed_rps: Optional[np.ndarray] = None


@dataclass
class _PreparedUpdate:
    """A fully-built delta update, ready for one atomic install."""

    pipeline: Pipeline
    source: _ShardSource
    rows: int
    paths: int


@dataclass
class _Group:
    """One venue's rows inside the serve core: batch positions
    ``rows`` (ascending), their ``(m, D)`` ``stack`` and
    ``(m, 2)`` answers ``out``, or the ``error`` its ``locate`` raised.
    Cache-on only: ``missed`` positions, the first miss per key
    (``leaders``, computed by the shard), each miss's leader when keys
    repeat (``fan``) and the probed ``epoch``."""

    key: str
    shard: "VenueShard"
    rows: Optional[np.ndarray]
    stack: np.ndarray
    out: Optional[np.ndarray] = None
    error: Optional[Exception] = None
    keys: Sequence[CacheKey] = ()
    missed: Sequence[int] = ()
    leaders: Sequence[int] = ()
    fan: Sequence[int] = ()
    epoch: int = 0


@dataclass
class DeltaApplyReport:
    """What one :meth:`PositioningService.apply_delta` did."""

    venue: str
    epoch: int
    rows: int
    paths: int
    invalidated: int
    kept: int
    seconds: float

    def describe(self) -> str:
        return (
            f"applied delta to {self.venue!r}: {self.rows} rows over "
            f"{self.paths} paths in {1e3 * self.seconds:.1f}ms "
            f"(epoch {self.epoch}; cache: {self.invalidated} "
            f"invalidated, {self.kept} kept)"
        )


def _clone_unfitted(
    estimator: LocationEstimator,
) -> LocationEstimator:
    """A fresh estimator with the same hyperparameters, not yet fitted.

    Delta application must never refit the live estimator in place —
    the new one is fitted off to the side and swapped in atomically.
    """
    if not is_dataclass(estimator):
        raise ServingError(
            f"{type(estimator).__name__} cannot be cloned for delta "
            "application"
        )
    config = {
        f.name: getattr(estimator, f.name)
        for f in fields(estimator)
        if not f.name.startswith("_")
    }
    return type(estimator)(**config)


def _rows_by_path(path_ids: np.ndarray) -> Dict[int, np.ndarray]:
    return {
        int(pid): np.where(path_ids == pid)[0]
        for pid in np.unique(path_ids)
    }


class VenueShard:
    """One venue's deployed pipeline: imputer + fitted estimator.

    The pipeline components live in one ``(estimator, online_imputer,
    fill_values)`` tuple so a :meth:`reload` replaces all three with a
    single reference assignment — concurrent :meth:`locate` calls read
    the tuple once and always see a consistent pipeline.  ``epoch``
    increments on every swap; the service uses it to drop cache
    insertions computed against a pipeline that has since been
    replaced.

    Shards built from a radio map (:meth:`build`) additionally retain
    their build inputs, which enables **incremental hot updates**:
    :meth:`apply_delta` folds a
    :class:`~repro.radiomap.RadioMapDelta` in by recomputing only the
    dirty paths' differentiation/imputation and refitting the
    estimator, then swaps the pipeline under the same epoch machinery
    a reload uses.  Warm-started shards opt in via
    :meth:`attach_source`.
    """

    def __init__(
        self,
        key: str,
        n_aps: int,
        estimator: LocationEstimator,
        online_imputer: Optional[OnlineImputer] = None,
        fill_values: Optional[np.ndarray] = None,
        completion: Any = None,
    ):
        self.key = key
        self.n_aps = int(n_aps)
        if completion is None:
            completion = completion_from(online_imputer, fill_values)
        self._pipeline: Pipeline = _one_search(
            (estimator, online_imputer, fill_values, completion)
        )
        self._source: Optional[_ShardSource] = None
        #: True when a warm start could not validate its precomputed
        #: tensor and serves through a degraded completion instead.
        self.precompute_fallback = False
        self.epoch = 0

    @property
    def estimator(self) -> LocationEstimator:
        return self._pipeline[0]

    @property
    def online_imputer(self) -> Optional[OnlineImputer]:
        return self._pipeline[1]

    @property
    def fill_values(self) -> Optional[np.ndarray]:
        return self._pipeline[2]

    @property
    def completion(self) -> Any:
        """The serve-path NaN-filling strategy (see
        :mod:`repro.serving.completion`)."""
        return self._pipeline[3]

    @classmethod
    def build(
        cls,
        key: str,
        radio_map: RadioMap,
        differentiator: Differentiator,
        *,
        estimator: Optional[LocationEstimator] = None,
        bisim_config: Optional[BiSIMConfig] = None,
    ) -> "VenueShard":
        """Run the offline half of the pipeline and fit the estimator.

        Differentiates the radio map, MNAR-fills it, then either trains
        a BiSIM (``bisim_config`` given) — whose encoder imputes the
        map once, at build time; the resulting precomputed tensor both
        trains the estimator and completes online queries — or falls
        back to per-AP mean imputation for instant deploys.
        """
        estimator = estimator or WKNNEstimator()
        mask = differentiator.differentiate(radio_map)
        filled, amended = fill_mnars(radio_map, mask)
        fill_values = cls._fill_values_from(filled.fingerprints)

        if bisim_config is not None:
            online = OnlineImputer.fit(filled, amended, bisim_config)
            fp_complete, rps_complete = online.trainer.impute(
                filled, amended
            )
            estimator.fit(fp_complete, rps_complete)
            shard = cls(
                key,
                radio_map.n_aps,
                estimator,
                online,
                fill_values,
                MapCompletion(fp_complete, fill_values),
            )
            shard._source = _ShardSource(
                radio_map,
                differentiator,
                mask,
                fp_complete,
                rps_complete,
            )
            return shard

        cls._mean_fill_fit(key, estimator, radio_map, filled, fill_values)
        shard = cls(key, radio_map.n_aps, estimator, None, fill_values)
        shard._source = _ShardSource(radio_map, differentiator, mask)
        return shard

    @staticmethod
    def _fill_values_from(filled_fp: np.ndarray) -> np.ndarray:
        """Per-AP mean fill values over a MNAR-filled map."""
        observed = np.isfinite(filled_fp)
        counts = observed.sum(axis=0)
        sums = np.where(observed, filled_fp, 0.0).sum(axis=0)
        means = sums / np.maximum(counts, 1)
        return np.where(counts > 0, means, MNAR_FILL)

    @staticmethod
    def _mean_fill_fit(
        key: str,
        estimator: LocationEstimator,
        radio_map: RadioMap,
        filled: RadioMap,
        fill_values: np.ndarray,
    ) -> None:
        """Fit an estimator on the mean-filled labelled records."""
        observed = np.isfinite(filled.fingerprints)
        train_fp = np.where(
            observed, filled.fingerprints, fill_values[None, :]
        )
        labelled = radio_map.rp_observed_mask
        if not labelled.any():
            raise ServingError(f"venue {key!r} has no labelled records")
        estimator.fit(train_fp[labelled], radio_map.rps[labelled])

    # ------------------------------------------------------------------
    # Warm start: the whole shard as one artifact file
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Persist the deployed shard as one warm-start artifact.

        The bundle (kind ``"serving.shard"``) embeds the fitted
        estimator, the trained online imputer (when present) and the
        per-AP fill values, so :meth:`load` boots an identical shard
        in a fresh process without touching the radio map or
        training.  The imputed map is written once, as
        ``estimator.fingerprints``; a shard completing against it
        records the map's shape, SHA-256 and ``k`` under
        ``precomputed`` in the manifest.  Only a completion over a
        different map also stores that map as a ``precomputed``
        array.  Shard artifacts are written uncompressed so the map
        can be memory-mapped straight out of the file at load time.
        """
        estimator, online_imputer, fill_values, completion = (
            self._pipeline
        )
        est_kind, est_config, est_arrays = estimator_payload(estimator)
        arrays: Dict[str, np.ndarray] = {}
        merge_prefixed(arrays, "estimator.", est_arrays)
        config: Dict[str, Any] = {
            "key": self.key,
            "n_aps": self.n_aps,
            "estimator": {"kind": est_kind, "config": est_config},
            "imputer": None,
        }
        metrics: Dict[str, float] = {}
        if online_imputer is not None:
            imp_config, imp_arrays, imp_metrics = online_payload(
                online_imputer
            )
            merge_prefixed(arrays, "imputer.", imp_arrays)
            config["imputer"] = imp_config
            metrics.update(imp_metrics)
        if fill_values is not None:
            arrays["fill_values"] = np.asarray(fill_values, dtype=float)
        if isinstance(completion, MapCompletion):
            tensor = np.ascontiguousarray(
                completion.precomputed, dtype=float
            )
            if completion._search is not getattr(estimator, "_search", None):
                arrays["precomputed"] = tensor
            config["precomputed"] = {
                "shape": list(tensor.shape),
                "sha256": hashlib.sha256(tensor.tobytes()).hexdigest(),
                "k": completion.k,
            }
        save_artifact(
            Artifact(
                kind=SHARD_KIND,
                arrays=arrays,
                config=config,
                metrics=metrics,
            ),
            path,
            compress=False,
        )

    @classmethod
    def load(cls, path, *, key: Optional[str] = None) -> "VenueShard":
        """Rebuild a serving-ready shard from a :meth:`save` artifact.

        ``key`` overrides the venue key stored in the artifact, so one
        trained bundle can be deployed under several venue names.

        The imputed map is memory-mapped rather than copied, and one
        map serves the estimator and the completion through one search
        once it validates against the manifest's recorded shape and
        SHA-256.  An artifact in the older layout, which also stores
        the map as ``precomputed``, folds onto that one map when the
        two copies are equal.  A misshapen or hash-mismatched tensor
        does **not** fail the load: the shard falls back to on-the-fly
        completion (encoder or mean fill, whatever the bundle carries)
        with :attr:`precompute_fallback` set, so old artifacts stay
        servable and the service can count the degradation.
        """
        artifact = load_artifact(
            path, expected_kind=SHARD_KIND, mmap_arrays=MAPPED_ARRAYS
        )
        return cls.from_artifact(artifact, key=key)

    @classmethod
    def from_artifact(
        cls,
        artifact: Artifact,
        *,
        key: Optional[str] = None,
        verify_precompute: bool = True,
    ) -> "VenueShard":
        """Build a shard from an already-loaded shard :class:`Artifact`.

        The back half of :meth:`load`, split out so callers that manage
        artifact bytes themselves (the shard-fleet registry re-attaching
        an evicted venue from cached member offsets) can skip the file
        walk.  ``verify_precompute=False`` trusts the precomputed
        tensor's bytes and checks only its declared shape — correct
        exactly when the same file already passed a fully-verified load
        and is known unchanged (the registry pins mtime+size); anything
        less re-verifies.
        """
        config = artifact.config
        est_spec = config["estimator"]
        estimator = estimator_from_payload(
            est_spec["kind"],
            est_spec["config"],
            split_prefixed(artifact.arrays, "estimator."),
        )
        online = None
        if config.get("imputer") is not None:
            online = online_from_payload(
                config["imputer"],
                split_prefixed(artifact.arrays, "imputer."),
            )
        fill_values = artifact.arrays.get("fill_values")
        completion, fallback = cls._completion_from_artifact(
            artifact, online, fill_values, verify=verify_precompute
        )
        shard = cls(
            key or config["key"],
            int(config["n_aps"]),
            estimator,
            online,
            fill_values,
            completion,
        )
        shard.precompute_fallback = fallback
        return shard

    @staticmethod
    def _completion_from_artifact(
        artifact: Artifact,
        online: Optional[OnlineImputer],
        fill_values: Optional[np.ndarray],
        *,
        verify: bool = True,
    ) -> Tuple[Any, bool]:
        """``(completion, is_fallback)`` for a loaded shard artifact.

        The tensor is the estimator's map unless the artifact stores a
        different ``precomputed`` map.  It is validated against the
        manifest's declared shape and (with ``verify``) SHA-256, and
        the manifest's ``k`` (at least 1); any mismatch degrades to
        the legacy on-the-fly completion instead of raising.
        """
        spec = artifact.config.get("precomputed")
        if spec is None:
            # Pre-precompute artifact (or a mean-fill shard, which
            # never carries a tensor): legacy completion, and only a
            # *fallback* when an encoder is being pressed into the
            # serve path the precompute was meant to retire.
            return completion_from(online, fill_values), online is not None
        fingerprints = artifact.arrays["estimator.fingerprints"]
        tensor = artifact.arrays.get("precomputed", fingerprints)
        if tensor is not fingerprints and np.array_equal(
            tensor, fingerprints
        ):
            # The older two-copy layout: one map, written twice.
            tensor = fingerprints
        k = int(spec.get("k", 3))
        valid = k >= 1 and list(tensor.shape) == list(
            spec.get("shape", [])
        )
        if valid and verify:
            valid = (
                hashlib.sha256(
                    np.ascontiguousarray(tensor, dtype=float).tobytes()
                ).hexdigest()
                == spec.get("sha256")
            )
        if not valid:
            fallback = completion_from(online, fill_values)
            if isinstance(fallback, EncoderCompletion):
                fallback.fallback = True
            return fallback, True
        return MapCompletion(tensor, fill_values, k=k), False

    def reload(self, path) -> None:
        """Hot-swap this shard's pipeline from a shard artifact.

        The venue key is kept; estimator, online imputer and fill
        values are replaced atomically (the new shard is fully loaded
        and validated before anything is swapped, and the swap is a
        single reference assignment, so a concurrent :meth:`locate`
        sees either the whole old or the whole new pipeline).  The AP
        dimensionality must match — a reload cannot silently change
        the query contract.
        """
        self._install(VenueShard.load(path, key=self.key))

    def _install(self, fresh: "VenueShard") -> None:
        """Swap in a fully-built shard's pipeline and bump the epoch."""
        if fresh.n_aps != self.n_aps:
            raise ServingError(
                f"cannot reload venue {self.key!r}: artifact has "
                f"{fresh.n_aps} APs, shard expects {self.n_aps}"
            )
        self._pipeline = fresh._pipeline
        # The old source described the replaced pipeline's radio map;
        # a reloaded artifact carries none, so deltas need a fresh
        # attach_source() after a reload.
        self._source = fresh._source
        self.precompute_fallback = fresh.precompute_fallback
        self.epoch += 1

    # ------------------------------------------------------------------
    # Incremental hot updates (streaming ingestion deltas)
    # ------------------------------------------------------------------
    @property
    def supports_deltas(self) -> bool:
        """Whether this shard retains the state deltas fold into."""
        return self._source is not None

    @property
    def radio_map(self) -> Optional[RadioMap]:
        """The retained source radio map (``None`` after warm start)."""
        return None if self._source is None else self._source.radio_map

    def attach_source(
        self, radio_map: RadioMap, differentiator: Differentiator
    ) -> None:
        """Enable delta application on a warm-started shard.

        Recomputes the cached differentiation mask (and, for BiSIM
        shards, the imputed training set) the incremental update path
        stitches against — a one-time cost that makes every later
        :meth:`apply_delta` touch only dirty paths.
        """
        if radio_map.n_aps != self.n_aps:
            raise ServingError(
                f"venue {self.key!r} serves {self.n_aps} APs, source "
                f"map has {radio_map.n_aps}"
            )
        mask = differentiator.differentiate(radio_map)
        filled, amended = fill_mnars(radio_map, mask)
        online = self._pipeline[1]
        imputed_fp = imputed_rps = None
        if online is not None:
            imputed_fp, imputed_rps = online.trainer.impute(
                filled, amended
            )
        self._source = _ShardSource(
            radio_map, differentiator, mask, imputed_fp, imputed_rps
        )

    def detach_source(self) -> None:
        """Drop the retained build inputs (frees memory, no deltas)."""
        self._source = None

    def prepare_delta(
        self, delta: RadioMapDelta, *, refresh_mask: str = "dirty"
    ) -> _PreparedUpdate:
        """Build the post-delta pipeline without installing it.

        All the heavy work happens here, off the serving path: merge
        the delta into the retained radio map, re-differentiate the
        *dirty* paths (``refresh_mask="dirty"``, the default — exact
        for row-local differentiators like MAR/MNAR-only and a
        documented per-path approximation for clustering ones;
        ``"full"`` re-runs the differentiator over the whole merged
        map for exact parity with a cold build), refresh the online
        imputer's context index for the dirty paths, and refit a
        *clone* of the estimator.  The result installs atomically via
        :meth:`apply_delta` / the service's epoch machinery.
        """
        if refresh_mask not in ("dirty", "full"):
            raise ServingError("refresh_mask must be 'dirty' or 'full'")
        src = self._source
        if src is None:
            raise ServingError(
                f"venue {self.key!r} cannot apply deltas: the shard "
                "was warm-started without its radio map; call "
                "attach_source() first"
            )
        if delta.records.n_aps != self.n_aps:
            raise ServingError(
                f"delta carries {delta.records.n_aps} APs, venue "
                f"{self.key!r} serves {self.n_aps}"
            )
        merged = delta.apply_to(src.radio_map)
        dirty = {int(p) for p in delta.path_ids}
        new_rows = _rows_by_path(merged.path_ids)
        old_rows = _rows_by_path(src.radio_map.path_ids)
        dirty_idx = np.where(
            np.isin(merged.path_ids, np.asarray(sorted(dirty), dtype=int))
        )[0]

        # Differentiation: stitch cached clean-path rows with a pass
        # over the dirty sub-map, falling back to a full pass when the
        # differentiator cannot handle the sub-map alone.
        stitched = False
        mask: Optional[np.ndarray] = None
        if refresh_mask == "dirty":
            mask = np.empty(merged.fingerprints.shape, dtype=src.mask.dtype)
            for pid, rows in new_rows.items():
                if pid not in dirty:
                    mask[rows] = src.mask[old_rows[pid]]
            if dirty_idx.size:
                try:
                    sub_mask = src.differentiator.differentiate(
                        merged.subset(dirty_idx)
                    )
                except ReproError:
                    mask = None
                else:
                    mask[dirty_idx] = sub_mask
            stitched = mask is not None
        if mask is None:
            mask = src.differentiator.differentiate(merged)
        filled, amended = fill_mnars(merged, mask)
        fill_values = self._fill_values_from(filled.fingerprints)

        estimator_old, online_old = self._pipeline[0], self._pipeline[1]
        estimator = _clone_unfitted(estimator_old)
        if online_old is not None:
            refresh_ids = (
                delta.path_ids
                if stitched
                else np.unique(merged.path_ids)
            )
            online = online_old.refreshed(filled, amended, refresh_ids)
            n = merged.n_records
            if stitched and src.imputed_fp is not None:
                # Patch the precomputed tensor in place of a full
                # re-imputation: clean paths keep their rows, only the
                # dirty paths go back through the trainer.
                fp_c = np.empty((n, self.n_aps))
                rps_c = np.empty((n, 2))
                for pid, rows in new_rows.items():
                    if pid not in dirty:
                        fp_c[rows] = src.imputed_fp[old_rows[pid]]
                        rps_c[rows] = src.imputed_rps[old_rows[pid]]
                if dirty_idx.size:
                    sub_fp, sub_rps = online.trainer.impute(
                        filled.subset(dirty_idx), amended[dirty_idx]
                    )
                    fp_c[dirty_idx] = sub_fp
                    rps_c[dirty_idx] = sub_rps
            else:
                fp_c, rps_c = online.trainer.impute(filled, amended)
            self._refit(
                estimator, estimator_old, fp_c, rps_c,
                dirty, new_rows, old_rows,
            )
            return _PreparedUpdate(
                pipeline=_one_search(
                    (
                        estimator,
                        online,
                        fill_values,
                        MapCompletion(fp_c, fill_values),
                    )
                ),
                source=_ShardSource(
                    merged, src.differentiator, mask, fp_c, rps_c
                ),
                rows=delta.n_rows,
                paths=delta.n_paths,
            )

        self._mean_fill_fit(
            self.key, estimator, merged, filled, fill_values
        )
        return _PreparedUpdate(
            pipeline=(
                estimator,
                None,
                fill_values,
                MeanFillCompletion(fill_values),
            ),
            source=_ShardSource(merged, src.differentiator, mask),
            rows=delta.n_rows,
            paths=delta.n_paths,
        )

    @staticmethod
    def _refit(
        estimator: LocationEstimator,
        estimator_old: LocationEstimator,
        fingerprints: np.ndarray,
        locations: np.ndarray,
        dirty: set,
        new_rows: Dict[int, np.ndarray],
        old_rows: Dict[int, np.ndarray],
    ) -> None:
        """Fit the cloned estimator, reusing the old spatial index.

        When the outgoing estimator carries a spatial index, the rows
        of clean (non-dirty) paths keep their bucket assignment and
        only dirty-path rows are re-placed
        (:meth:`~repro.positioning.base.NearestNeighbourEstimator.fit_incremental`);
        otherwise this is a plain :meth:`fit`.  Results are identical
        either way — the index is exact under any bucket assignment.
        """
        old_index = (
            estimator_old.index
            if isinstance(estimator_old, NearestNeighbourEstimator)
            and estimator_old.fitted
            else None
        )
        if old_index is None or not isinstance(
            estimator, NearestNeighbourEstimator
        ):
            estimator.fit(fingerprints, locations)
            return
        clean = [
            pid
            for pid in new_rows
            if pid not in dirty and pid in old_rows
        ]
        if clean:
            keep_old = np.concatenate([old_rows[p] for p in clean])
            keep_new = np.concatenate([new_rows[p] for p in clean])
        else:
            keep_old = keep_new = np.empty(0, dtype=np.int64)
        estimator._index = old_index
        estimator.fit_incremental(
            fingerprints, locations, keep_old, keep_new
        )

    def _install_update(self, prepared: _PreparedUpdate) -> None:
        """Swap in a prepared delta update and bump the epoch."""
        self._pipeline = prepared.pipeline
        self._source = prepared.source
        self.epoch += 1

    def apply_delta(
        self, delta: RadioMapDelta, *, refresh_mask: str = "dirty"
    ) -> DeltaApplyReport:
        """Fold a delta into this shard in place (atomic swap).

        Standalone-shard variant; a shard registered in a
        :class:`PositioningService` should go through
        :meth:`PositioningService.apply_delta`, which also invalidates
        the venue's affected cache entries.
        """
        start = time.perf_counter()
        prepared = self.prepare_delta(delta, refresh_mask=refresh_mask)
        self._install_update(prepared)
        return DeltaApplyReport(
            venue=self.key,
            epoch=self.epoch,
            rows=prepared.rows,
            paths=prepared.paths,
            invalidated=0,
            kept=0,
            seconds=time.perf_counter() - start,
        )

    def _validate(self, queries: np.ndarray) -> np.ndarray:
        queries = np.asarray(queries, dtype=float)
        if queries.ndim != 2 or queries.shape[1] != self.n_aps:
            raise ServingError(
                f"venue {self.key!r} expects (n, {self.n_aps}) "
                f"queries, got {queries.shape}"
            )
        return queries

    def impute(self, queries: np.ndarray) -> np.ndarray:
        """Complete a ``(n, D)`` query batch (NaN = missing).

        Runs the pipeline's completion strategy — masked KNN against
        the precomputed tensor, mean fill, or (fallback only) the
        BiSIM encoder.  Wrong-width batches fail with a
        :class:`ServingError` naming the venue contract, the same
        check :meth:`locate` performs — not a deep imputer/broadcast
        error.
        """
        queries = self._validate(queries)
        completion = self._pipeline[3]
        if completion is None:
            raise ServingError(
                f"venue {self.key!r} has no completion strategy"
            )
        return completion.complete(queries)

    @staticmethod
    def _locate_with(
        pipeline: Pipeline, queries: np.ndarray
    ) -> np.ndarray:
        """Complete → estimate through an explicit pipeline tuple.

        Lets the delta-apply path evaluate cached queries against both
        the outgoing and the incoming pipeline for targeted cache
        invalidation.
        """
        estimator, _, _, completion = pipeline
        if completion is not None:
            queries = completion.complete(queries)
        return estimator.predict(queries, squeeze=False)

    def locate(
        self, queries: np.ndarray, *, tracer=None
    ) -> np.ndarray:
        """Full online path: complete, then batched estimation → (n, 2).

        ``tracer`` (a :class:`~repro.obs.Tracer` with an active span)
        opt-ins stage spans: a ``shard:<key>`` span with ``complete``
        and ``estimate`` children; a spatial-index estimate attaches
        its own ``kernel.*`` stage children to the ``estimate`` span.
        """
        queries = self._validate(queries)
        # One tuple read = one consistent pipeline, even mid-reload.
        if tracer is None or tracer.current() is None:
            return self._locate_with(self._pipeline, queries)
        return self._locate_traced(self._pipeline, queries, tracer)

    def _locate_traced(
        self, pipeline: Pipeline, queries: np.ndarray, tracer
    ) -> np.ndarray:
        """:meth:`_locate_with`, with stage spans under ``tracer``."""
        estimator, _, _, completion = pipeline
        with tracer.span(
            f"shard:{self.key}",
            meta={"rows": int(queries.shape[0]), "epoch": self.epoch},
        ):
            if completion is not None:
                with tracer.span("complete"):
                    queries = completion.complete(queries)
            with tracer.span("estimate"):
                return estimator.predict(queries, squeeze=False)

    def footprint(self) -> Tuple[int, int]:
        """``(resident_bytes, mapped_bytes)`` of this shard's pipeline.

        Best-effort accounting for memory-budgeted registries:
        estimator state (a spatial index's derived bucket block), fill
        values, the completion's map, the bound state of each search
        that can run (built or not) and — when the shard retains a
        trained online imputer — the imputer's checkpoint payload.
        Each distinct buffer counts once, however many components
        hold it, and so does each distinct search.  Memory-mapped
        arrays count as *mapped* (they release to the page cache on
        eviction) and everything else as *resident*.
        """
        estimator, online, fill_values, completion = self._pipeline
        arrays = [fill_values, getattr(completion, "fill_values", None)]
        searches = []
        try:
            arrays += estimator_payload(estimator)[2].values()
        except (ReproError, TypeError, AttributeError):
            pass
        if isinstance(estimator, NearestNeighbourEstimator):
            if estimator.index is not None:
                # The persisted arrays above miss the derived
                # bucket-contiguous block, which dominates the index.
                arrays.append(estimator.index._ext32)
            elif estimator.fitted:
                searches.append(estimator._search)
        if isinstance(completion, MapCompletion):
            arrays.append(completion.precomputed)
            searches.append(completion._search)
        if online is not None:
            try:
                arrays += online_payload(online)[1].values()
            except (ReproError, TypeError, AttributeError):
                pass
        resident = sum({id(s): s.nbytes() for s in searches}.values())
        mapped = 0
        for a in {_buffer(a): a for a in arrays if a is not None}.values():
            if backed_by_memmap(a):
                mapped += int(a.nbytes)
            else:
                resident += int(a.nbytes)
        return resident, mapped


class PositioningService:
    """Routes mixed-venue fingerprint batches through venue shards.

    Safe to call from many threads at once: cache and stats mutations
    take an internal lock, shard compute does not (see the module
    docstring for the full guarantees).

    Parameters
    ----------
    cache_size:
        Maximum number of cached (venue, quantized fingerprint) →
        location entries; 0 disables caching (and with it the
        duplicate-row coalescing inside a batch, which is keyed on the
        quantized fingerprints).
    cache_quantum:
        RSSI quantization step (dBm) for cache keys — readings within
        the same quantum map to the same entry, which turns device
        re-scans into cache hits without measurably moving the
        estimate.
    """

    def __init__(
        self,
        *,
        cache_size: int = 4096,
        cache_quantum: float = 1.0,
        telemetry: Optional[Telemetry] = None,
    ):
        if cache_quantum <= 0:
            raise ServingError("cache_quantum must be positive")
        self._shards: Dict[str, VenueShard] = {}
        self._floor_routers: Dict[str, "FloorRouter"] = {}
        self._cache: "OrderedDict[CacheKey, np.ndarray]" = OrderedDict()
        self._lock = threading.RLock()
        self.cache_size = int(cache_size)
        self.cache_quantum = float(cache_quantum)
        #: The unified telemetry registry backing :attr:`stats`.  A
        #: service without an attached :class:`~repro.obs.Telemetry`
        #: still gets a private registry (the counters must live
        #: somewhere); attaching one additionally enables sampled
        #: request tracing via its tracer.
        self.telemetry = telemetry
        self.metrics: MetricsRegistry = (
            telemetry.metrics if telemetry is not None
            else MetricsRegistry()
        )
        self.tracer = telemetry.tracer if telemetry is not None else None
        m = self.metrics
        self._c_queries = m.counter("serving.queries")
        self._c_batches = m.counter("serving.batches")
        self._c_hits = m.counter("serving.cache_hits")
        self._c_misses = m.counter("serving.cache_misses")
        self._c_seconds = m.counter("serving.seconds")
        self._c_deltas = m.counter("serving.deltas_applied")
        self._c_delta_rows = m.counter("serving.delta_rows")
        self._c_invalidated = m.counter("serving.keys_invalidated")
        self._c_kept = m.counter("serving.keys_kept")
        self._c_fallbacks = m.counter("serving.precompute_fallbacks")
        self._c_floor_routed = m.counter("serving.floor_routed")
        #: Per-request serve latency (batch wall-clock attributed to
        #: every request in the batch) — the live p50/p95/p99 source.
        self._h_latency = m.histogram("serving.request_seconds")
        self._venue_counters: Dict[str, Any] = {}

    def _venue_counter(self, venue: str):
        # Caller holds self._lock (the dict doubles as the per-venue
        # label cache, so lookups on the publish path stay O(1)).
        counter = self._venue_counters.get(venue)
        if counter is None:
            counter = self.metrics.counter(
                "serving.venue_queries", venue=venue
            )
            self._venue_counters[venue] = counter
        return counter

    @property
    def stats(self) -> ServiceStats:
        """A consistent point-in-time snapshot of the counters.

        Every internal counter mutation publishes its related fields
        in one critical section (a batch's hits, misses, queries and
        per-venue counts land together), and this property builds the
        :class:`ServiceStats` view from the registry under the same
        lock — so a reader under concurrent traffic always sees an
        atomic snapshot satisfying the service's invariants (with
        caching enabled, ``queries == cache_hits + cache_misses`` and
        ``sum(per_venue) == queries``), never a torn mix of old and
        new counters.  The returned object (including ``per_venue``)
        is detached: mutating it cannot corrupt the live registry.
        """
        with self._lock:
            per_venue: Dict[str, int] = {}
            for venue, counter in self._venue_counters.items():
                count = int(counter.value)
                if count:
                    per_venue[venue] = count
            return ServiceStats(
                queries=int(self._c_queries.value),
                batches=int(self._c_batches.value),
                cache_hits=int(self._c_hits.value),
                cache_misses=int(self._c_misses.value),
                seconds=self._c_seconds.value,
                deltas_applied=int(self._c_deltas.value),
                delta_rows=int(self._c_delta_rows.value),
                keys_invalidated=int(self._c_invalidated.value),
                keys_kept=int(self._c_kept.value),
                precompute_fallbacks=int(self._c_fallbacks.value),
                floor_routed=int(self._c_floor_routed.value),
                per_venue=per_venue,
            )

    # ------------------------------------------------------------------
    # Registry (sharding by venue/floor key)
    # ------------------------------------------------------------------
    @property
    def venues(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._shards))

    def register(self, shard: VenueShard) -> VenueShard:
        with self._lock:
            if shard.key in self._shards:
                raise ServingError(
                    f"venue {shard.key!r} already registered"
                )
            self._shards[shard.key] = shard
            if shard.precompute_fallback:
                self._c_fallbacks.add(1)
        return shard

    def unregister(
        self, key: Union[str, ShardKey]
    ) -> Optional[VenueShard]:
        """Remove a venue and drop its cached answers (LRU eviction
        hook for memory-budgeted registries).

        Returns the removed shard, or ``None`` when the venue was not
        registered — eviction races with nothing.  In-flight
        :meth:`query_batch` calls that already resolved the shard
        finish against it without caching their answers; new queries
        for the venue fail with the usual unknown-venue
        :class:`ServingError` until it is registered again.
        """
        key = coerce_key(key)
        with self._lock:
            shard = self._shards.pop(key, None)
            if shard is not None:
                for cache_key in [
                    k for k in self._cache if k[0] == key
                ]:
                    del self._cache[cache_key]
        return shard

    # ------------------------------------------------------------------
    # Floor routing (stacked venues)
    # ------------------------------------------------------------------
    def attach_floor_router(
        self, venue: str, router: "FloorRouter"
    ) -> "FloorRouter":
        """Route bare-``venue`` queries onto its per-floor shards.

        Once attached, a :meth:`query_batch` row addressed to the bare
        venue name is classified by the router and rewritten to the
        winning ``"venue/floor"`` shard key before serving — stacked
        venues never register a shard under the bare name, so without
        a router those rows would be rejected as unknown.  Venues with
        no router attached are untouched: the single-floor path stays
        bit-identical.
        """
        with self._lock:
            self._floor_routers[venue] = router
        return router

    def detach_floor_router(self, venue: str) -> Optional["FloorRouter"]:
        """Remove a venue's floor router (floor shards stay)."""
        with self._lock:
            return self._floor_routers.pop(venue, None)

    def floor_router(self, venue: str) -> Optional["FloorRouter"]:
        """The router attached for ``venue``, or ``None``."""
        return self._floor_routers.get(venue)

    def _route_floors(
        self,
        venues: Sequence[str],
        fingerprints: Sequence[np.ndarray],
    ) -> Sequence[str]:
        """Rewrite bare stacked-venue rows to their floor shard keys.

        Rows naming a venue with an attached router are grouped,
        batch-classified, and re-addressed; all other rows (including
        explicit ``"venue/floor"`` keys) pass through untouched.
        """
        routers = self._floor_routers
        by_venue: Dict[str, List[int]] = {}
        for i, venue in enumerate(venues):
            if venue in routers:
                by_venue.setdefault(venue, []).append(i)
        if not by_venue:
            return venues
        routed = list(venues)
        n_routed = 0
        for venue, rows in by_venue.items():
            batch = np.stack(
                [
                    np.asarray(fingerprints[i], dtype=float)
                    for i in rows
                ]
            )
            for i, key in zip(rows, routers[venue].route(batch)):
                routed[i] = key
            n_routed += len(rows)
        with self._lock:
            self._c_floor_routed.add(n_routed)
        return routed

    def deploy(
        self,
        key: Union[str, ShardKey],
        radio_map: RadioMap,
        differentiator: Differentiator,
        *,
        estimator: Optional[LocationEstimator] = None,
        bisim_config: Optional[BiSIMConfig] = None,
    ) -> VenueShard:
        """Build a shard from a raw radio map and register it."""
        return self.register(
            VenueShard.build(
                coerce_key(key),
                radio_map,
                differentiator,
                estimator=estimator,
                bisim_config=bisim_config,
            )
        )

    def deploy_from_artifact(
        self, path, *, key: Optional[str] = None
    ) -> VenueShard:
        """Warm-start a venue from a shard artifact and register it.

        No training, no radio map: the shard boots straight from the
        bundle written by :meth:`VenueShard.save` (or by
        ``python -m repro train``).
        """
        return self.register(VenueShard.load(path, key=key))

    def reload(self, key: Union[str, ShardKey], path) -> VenueShard:
        """Hot-swap a deployed venue's pipeline from a shard artifact.

        The shard object (and thus any reference held by callers)
        survives; its estimator/imputer are replaced and every cached
        answer for the venue is invalidated so stale locations cannot
        be served.  Atomic with respect to in-flight
        :meth:`query_batch` calls: the artifact is loaded and
        validated outside the lock, then the swap and the cache
        invalidation happen under the same lock cache reads take, and
        the shard's epoch bump stops batches computed against the old
        pipeline from re-caching stale answers afterwards.
        """
        key = coerce_key(key)
        shard = self.shard(key)
        fresh = VenueShard.load(path, key=key)
        with self._lock:
            shard._install(fresh)
            if fresh.precompute_fallback:
                self._c_fallbacks.add(1)
            for cache_key in [k for k in self._cache if k[0] == key]:
                del self._cache[cache_key]
        return shard

    def apply_delta(
        self,
        key: str,
        delta: RadioMapDelta,
        *,
        invalidate: str = "targeted",
        refresh_mask: str = "dirty",
    ) -> DeltaApplyReport:
        """Hot-apply an ingestion delta to a deployed venue.

        The post-delta pipeline is built entirely off the serving path
        (:meth:`VenueShard.prepare_delta`), then installed under the
        same lock cache reads take; the shard's epoch bump stops
        batches computed against the outgoing pipeline from re-caching
        stale answers, exactly as :meth:`reload` does.

        ``invalidate`` picks the cache policy:

        * ``"targeted"`` (default) — reconstruct each cached key's
          quantized fingerprint and evaluate it through the outgoing
          *and* incoming pipelines; only keys whose answer moved are
          dropped.  Resolution matches the cache's own contract
          (fingerprints within one ``cache_quantum`` share an entry),
          so an unaffected hot venue keeps its hit rate through the
          update.  Entries inserted while the update was being built
          are dropped conservatively.
        * ``"venue"`` — drop every entry of the venue (cheaper than
          two evaluation passes when the shard runs a heavy BiSIM
          imputer over a large cache).

        Applies are optimistic about concurrency: if another reload
        or apply swaps the venue's pipeline while this delta's update
        is being built, the install is aborted with a
        :class:`ServingError` (installing would silently discard the
        winner's data) — serialize appliers, or catch and re-apply.
        """
        if invalidate not in ("targeted", "venue"):
            raise ServingError(
                "invalidate must be 'targeted' or 'venue'"
            )
        start = time.perf_counter()
        shard = self.shard(key)
        old_pipeline = shard._pipeline
        old_epoch = shard.epoch
        prepared = shard.prepare_delta(delta, refresh_mask=refresh_mask)

        fresh_keys: set = set()
        if invalidate == "targeted" and self.cache_size:
            with self._lock:
                snapshot = [k for k in self._cache if k[0] == key]
            if snapshot:
                fps = self._fingerprints_from_keys(
                    [k[1] for k in snapshot]
                )
                old_loc = VenueShard._locate_with(old_pipeline, fps)
                new_loc = VenueShard._locate_with(
                    prepared.pipeline, fps
                )
                same = np.all(
                    np.isclose(old_loc, new_loc, rtol=0.0, atol=1e-9),
                    axis=1,
                )
                fresh_keys = {
                    k for k, keep in zip(snapshot, same) if keep
                }

        invalidated = kept = 0
        with self._lock:
            if shard.epoch != old_epoch:
                # Someone swapped the pipeline while we were building
                # (a concurrent reload or apply won the race).  Our
                # prepared update was built from the replaced source —
                # installing it would silently discard the winner's
                # data, so surface the conflict instead; the caller
                # re-applies against the fresh state.
                raise ServingError(
                    f"venue {key!r} changed while the delta was "
                    f"being prepared (epoch {old_epoch} -> "
                    f"{shard.epoch}); re-apply against the current "
                    "state"
                )
            shard._install_update(prepared)
            for cache_key in [k for k in self._cache if k[0] == key]:
                if cache_key in fresh_keys:
                    kept += 1
                else:
                    del self._cache[cache_key]
                    invalidated += 1
            self._c_deltas.add(1)
            self._c_delta_rows.add(prepared.rows)
            self._c_invalidated.add(invalidated)
            self._c_kept.add(kept)
        return DeltaApplyReport(
            venue=key,
            epoch=shard.epoch,
            rows=prepared.rows,
            paths=prepared.paths,
            invalidated=invalidated,
            kept=kept,
            seconds=time.perf_counter() - start,
        )

    def shard(self, key: Union[str, ShardKey]) -> VenueShard:
        if not isinstance(key, str):
            # Hot path: plain-string keys skip parsing entirely;
            # ShardKey instances render to their canonical string.
            key = coerce_key(key)
        try:
            return self._shards[key]
        except KeyError:
            raise ServingError(
                f"unknown venue {key!r}; deployed: {list(self.venues)}"
            ) from None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, venue: str, fingerprint: np.ndarray) -> np.ndarray:
        """Locate one raw online fingerprint → ``(2,)``."""
        fp = np.asarray(fingerprint, dtype=float)
        return self.query_batch([venue], fp[None, :])[0]

    def query_batch(
        self,
        venues: Sequence[str],
        fingerprints: Sequence[np.ndarray],
    ) -> np.ndarray:
        """Locate a batch of raw fingerprints → ``(n, 2)``.

        ``venues[i]`` names the shard for ``fingerprints[i]``, as a
        string or a :class:`~repro.serving.keys.ShardKey`; rows may
        mix venues freely.  ``fingerprints`` is either an ``(n, D)``
        ndarray, as long as every named shard expects ``D`` APs, or a
        sequence of ``(D_venue,)`` vectors, which also lets rows
        differ in AP count.  Every row is validated before the cache
        or the counters are touched.  If a venue's ``locate`` raises,
        the other venues are still served, cached and counted, and
        then the error is re-raised.

        Rows are grouped into one contiguous stack per venue; an
        ndarray naming a single venue is served as is, without a
        copy.  Cache hits are answered immediately; rows repeating an
        identical (venue, cache key) within the batch are computed
        once and fanned out (the repeats count as hits); the
        remaining misses go through each shard's batched
        complete→estimate path in one call.  With caching disabled no
        cache key is computed at all.

        With a :class:`~repro.obs.Telemetry` attached, a sampled call
        opens a ``service.query_batch`` root span whose children
        cover the cache probe and each shard's complete→estimate
        stages (down to the spatial-index kernel stages on indexed
        shards); unsampled calls pay one counter read.
        """
        start = time.perf_counter()
        if len(venues) != len(fingerprints):
            raise ServingError("venues/fingerprints length mismatch")
        tracer = self.tracer
        with (
            tracer.trace("service.query_batch", meta={"rows": len(venues)})
            if tracer is not None
            and tracer.current() is None
            and tracer.sample()
            else nullcontext()
        ):
            if self._floor_routers and len(venues):
                # Stacked venues: classify bare-venue rows onto their
                # floor shards before any shard is resolved.  Guarded
                # so a service with no routers attached takes the
                # exact single-floor code path.
                venues = self._route_floors(venues, fingerprints)
            groups, failed = self._group(venues, fingerprints, self.shard)
            if failed:
                raise failed[0][1]
            out, failed = self._serve(groups, len(venues), start)
        if failed:
            raise failed[0][1]
        return out

    def _serve(
        self,
        groups: List[_Group],
        n: int,
        start: float,
        keys: Optional[Sequence[CacheKey]] = None,
    ) -> Tuple[np.ndarray, List[Tuple[int, Exception]]]:
        """Steps 2-4 of the serve core over :meth:`_group`'s groups of
        an ``n``-row batch → ``(out, failed)``.

        ``out`` holds the answers in batch order; ``failed`` lists
        ``(row, error)`` for every row of a group whose ``locate``
        raised (their ``out`` rows are undefined).  Such a group caches
        nothing and publishes nothing.  ``keys`` may carry the rows'
        cache keys when the caller already computed them (the
        pipeline's submit probe).
        """
        tracer = self.tracer
        if tracer is not None and tracer.current() is None:
            tracer = None
        if self.cache_size:
            for g in groups:
                if keys is None:
                    g.keys = self.cache_keys(g.key, g.stack)
                else:
                    g.keys = (
                        keys if len(g.rows) == n
                        else [keys[i] for i in g.rows]
                    )
            with (
                tracer.span("cache") if tracer is not None
                else nullcontext()
            ):
                with self._lock:
                    for g in groups:
                        g.out = np.empty((len(g.stack), 2))
                        g.missed = self._probe(g.keys, g.out)
                        g.epoch = g.shard.epoch
                for g in groups:
                    # A repeat of an in-batch miss is computed once by
                    # its leader and counted as a hit.
                    first: Dict[CacheKey, int] = {}
                    for i in g.missed:
                        first.setdefault(g.keys[i], i)
                    g.leaders = list(first.values())
                    if len(g.leaders) < len(g.missed):
                        g.fan = [first[g.keys[i]] for i in g.missed]

        for g in groups:
            if g.out is not None and not g.leaders:
                continue  # every row was a cache hit
            # Cache off, or every row a distinct miss: the whole stack.
            whole = g.out is None or len(g.leaders) == len(g.stack)
            batch = g.stack if whole else g.stack[g.leaders]
            try:
                located = (
                    g.shard.locate(batch) if tracer is None
                    else g.shard.locate(batch, tracer=tracer)
                )
            except Exception as exc:
                g.error = exc
                continue
            if whole:
                g.out = located
            else:
                g.out[g.leaders] = located
                if g.fan:
                    g.out[g.missed] = g.out[g.fan]

        served = [g for g in groups if g.error is None]
        if len(served) == 1 and len(served[0].rows) == n:
            out = served[0].out
        else:
            out = np.empty((n, 2))
            for g in served:
                out[g.rows] = g.out
        with self._lock:
            for g in served:
                # A reload, delta or unregister that landed mid-batch
                # leaves these answers right for their requests, which
                # arrived first, but they must not repopulate the
                # venue's invalidated cache.
                if (
                    g.leaders
                    and self._shards.get(g.key) is g.shard
                    and g.shard.epoch == g.epoch
                ):
                    for i in g.leaders:
                        self._cache_put(g.keys[i], g.out[i])
            if served or not groups:
                misses = sum(len(g.leaders) for g in served)
                queries = sum(len(g.stack) for g in served)
                self._publish(
                    start,
                    [(g.key, len(g.stack)) for g in served],
                    queries,
                    hits=queries - misses if self.cache_size else 0,
                    misses=misses,
                    batches=1,
                )
        failed = [
            (int(i), g.error)
            for g in groups
            if g.error is not None
            for i in g.rows
        ]
        return out, failed

    def _group(
        self,
        venues: Sequence[Union[str, ShardKey]],
        fingerprints: Sequence[np.ndarray],
        lookup: Callable[[Union[str, ShardKey]], VenueShard],
    ) -> Tuple[List[_Group], List[Tuple[int, Exception]]]:
        """Step 1 of the serve core → ``(groups, failed)``.

        ``lookup`` resolves each distinct venue spelling once
        (:meth:`shard`, or ``ShardRegistry.get`` in a fleet worker);
        spellings of one shard share its canonical key, and each group
        holds the shard it resolved, so an eviction later in the batch
        cannot strand it.  Rows that cannot be placed come back in
        ``failed`` as ``(row, error)`` instead of raising: the lookup's
        error for an unknown venue or a failed load, and a
        :class:`ServingError` for a wrong-width row, which fails alone.
        """
        positions: Dict[Any, List[int]] = {}
        for i, venue in enumerate(venues):
            positions.setdefault(venue, []).append(i)
        placed: Dict[Any, Tuple[Any, List[int]]] = {}
        for venue, at in positions.items():
            try:
                shard = lookup(venue)
                key = shard.key
            except Exception as exc:
                shard, key = exc, venue
            placed.setdefault(key, (shard, []))[1].extend(at)
        dense = (
            isinstance(fingerprints, np.ndarray)
            and fingerprints.ndim == 2
        )
        groups, failed = [], []
        for key, (shard, at) in placed.items():
            if isinstance(shard, Exception):
                failed.extend((i, shard) for i in at)
                continue
            if len(placed) == 1:  # one venue: the caller's rows
                rows, part = np.arange(len(venues)), fingerprints
            else:
                at.sort()  # spellings of one shard interleave
                rows = np.asarray(at)
                part = (
                    fingerprints[rows] if dense
                    else [fingerprints[i] for i in at]
                )
            if dense and part.shape[1] == shard.n_aps:
                stack = np.asarray(part, dtype=float)
                groups.append(_Group(key, shard, rows, stack))
                continue
            want = (shard.n_aps,)
            fits = [np.shape(row) == want for row in part]
            if not all(fits):
                error = ServingError(f"venue {key!r} expects {want} scans")
                failed.extend(
                    (int(i), error) for i, fit in zip(rows, fits) if not fit
                )
                rows = rows[np.asarray(fits, dtype=bool)]
                part = [row for row, fit in zip(part, fits) if fit]
            if len(rows):
                stack = np.asarray(np.stack(part), dtype=float)
                groups.append(_Group(key, shard, rows, stack))
        return groups, failed

    def _probe(
        self, keys: Sequence[CacheKey], out: np.ndarray
    ) -> List[int]:
        """Answer the cached ``keys`` into ``out`` → positions missed.

        Caller holds ``self._lock``.
        """
        cache = self._cache
        missed = []
        for i, key in enumerate(keys):
            cached = cache.get(key)
            if cached is None:
                missed.append(i)
            else:
                cache.move_to_end(key)
                out[i] = cached
        return missed

    def _publish(
        self,
        start: float,
        per_venue: Sequence[Tuple[str, int]],
        queries: int,
        *,
        hits: int = 0,
        misses: int = 0,
        batches: int = 0,
    ) -> None:
        """Publish one call's counters; caller holds ``self._lock``.

        One critical section per call, so a concurrent :attr:`stats`
        snapshot never sees a batch's hits without its queries.
        """
        for venue, count in per_venue:
            self._venue_counter(venue).add(count)
        elapsed = time.perf_counter() - start
        if hits:
            self._c_hits.add(hits)
        if misses:
            self._c_misses.add(misses)
        if batches:
            self._c_batches.add(batches)
        self._c_queries.add(queries)
        self._c_seconds.add(elapsed)
        self._h_latency.record_n(elapsed, queries)

    def try_cached(
        self, venue: str, batch: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, List[Optional[CacheKey]]]:
        """Answer whatever of a pre-validated ``(n, D)`` single-venue
        batch the cache already holds.

        Returns ``(locations, hit_mask, keys)``: rows with
        ``hit_mask[i]`` set were answered (and counted as hits /
        queries); the rest should be served through
        :meth:`query_batch` or the pipeline, reusing ``keys`` to skip
        re-quantization.  With caching disabled every row misses.
        This is the submit-time fast path of the micro-batching
        pipeline — hits never enqueue at all.
        """
        n = batch.shape[0]
        out = np.empty((n, 2))
        hit = np.zeros(n, dtype=bool)
        if not self.cache_size:
            return out, hit, [None] * n
        start = time.perf_counter()
        venue = self.shard(venue).key
        keys: List[Optional[CacheKey]] = self.cache_keys(venue, batch)
        with self._lock:
            missed = self._probe(keys, out)
            hits = n - len(missed)
            if hits:
                self._publish(start, [(venue, hits)], hits, hits=hits)
        if hits:
            hit[:] = True
            if missed:
                hit[missed] = False
        return out, hit, keys

    def reset_stats(self) -> None:
        """Zero every ``serving.*`` metric (and anything else living
        in this service's registry); counter handles stay valid."""
        with self._lock:
            self.metrics.reset()

    # ------------------------------------------------------------------
    # LRU cache on quantized fingerprints
    # ------------------------------------------------------------------
    def cache_keys(
        self, venue: str, batch: np.ndarray
    ) -> List[CacheKey]:
        """Cache keys for a ``(n, D)`` batch, quantized in one pass.

        Vectorizing the quantization over the batch is ~25x cheaper
        than keying row by row, which matters because every cached
        query pays this on the hot path.
        """
        quantized = np.round(batch / self.cache_quantum)
        # Missing readings get a sentinel far outside the RSSI range so
        # the observability pattern is part of the key; clipping keeps
        # tiny quanta from wrapping the integer cast into collisions.
        quantized = np.where(np.isfinite(quantized), quantized, 1e9)
        quantized = np.clip(quantized, -(2**31) + 1, 2**31 - 1)
        ints = quantized.astype(np.int32)
        return [(venue, ints[i].tobytes()) for i in range(len(ints))]

    def _fingerprints_from_keys(
        self, key_bytes: Sequence[bytes]
    ) -> np.ndarray:
        """Reconstruct quantized fingerprints from cache-key bytes.

        The inverse of :meth:`cache_keys` up to quantization: readings
        come back on the ``cache_quantum`` grid and the missing-AP
        sentinel maps back to NaN.  Good enough for delta-apply cache
        triage, because entries within one quantum already share a key
        (and an answer) by the cache's own design.
        """
        ints = np.stack(
            [np.frombuffer(b, dtype=np.int32) for b in key_bytes]
        )
        fps = ints.astype(float) * self.cache_quantum
        # The missing-reading sentinel (1e9, see cache_keys) sits far
        # outside any quantized RSSI, so it maps back unambiguously.
        fps[ints == 1_000_000_000] = np.nan
        return fps

    def _cache_put(
        self, key: Optional[CacheKey], location: np.ndarray
    ) -> None:
        # Caller holds self._lock.
        if not self.cache_size or key is None:
            return
        self._cache[key] = location.copy()
        self._cache.move_to_end(key)
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)
