"""City-scale shard fleet: lazy-loading registry + multi-process pool.

One :class:`~repro.serving.PositioningService` holds every shard it
serves in one process for the lifetime of the deployment.  That model
stops working at hundreds of venues: the shards no longer fit in
memory at once, traffic is Zipf-skewed so most of them are cold at any
instant, and a single GIL caps throughput.  This module adds the two
tiers that fix both, on top of the existing warm-start artifacts:

:class:`ShardRegistry`
    Maps venue → artifact key and loads shards **lazily on first
    query** from an :class:`~repro.artifacts.ArtifactStore`.  The
    first load is a fully-verified
    :func:`~repro.artifacts.load_artifact` (schema, kind, content
    hash) that memory-maps the precomputed completion tensor; the
    registry then caches the artifact's member byte offsets
    (:func:`~repro.artifacts.mappable_members`), so re-loading an
    evicted venue re-attaches every array as a read-only memory map in
    microseconds — no zip walk, no JSON, no re-hash — as long as the
    file's mtime+size still match the verified load.  Under a
    configurable memory budget the registry evicts the least recently
    used venues (per-shard resident-size accounting via
    :meth:`~repro.serving.VenueShard.footprint`); attach a
    ``service=`` to mirror load/evict into a
    :class:`~repro.serving.PositioningService` registry, which is how
    the single-process baseline serves the same 500-venue pool.

:class:`ShardFleet`
    A multi-process worker pool with **per-worker shard ownership**:
    venues are hash-partitioned (stable CRC-32, so a venue lives in
    exactly one worker across restarts *and* respawns), each worker
    owns a :class:`ShardRegistry` over its partition with its slice of
    the memory budget, and requests travel over pipes as bundles that
    each worker serves **batched per venue per tick** — one
    ``locate()`` call per venue per tick instead of one per request,
    which amortises per-request bookkeeping even on a single core.  A
    worker that dies (OOM killer, segfault, ``kill -9``) is detected
    by its broken pipe, respawned, and its in-flight requests are
    resubmitted; the respawned worker lazily re-loads its shards from
    the store, so the venue answers bit-identically after the crash.
    Per-tick venue batching keeps answers bit-identical to a
    per-request baseline too: the nearest-neighbour estimators' exact
    search does not depend on batch composition.

:class:`FleetStats` aggregates both tiers: lazy-load / fast-reload /
eviction counters, resident vs memory-mapped bytes against the
budget, per-worker utilization and tick sizes, respawns, and routing
errors.

The request protocol is deliberately tiny — tuples over
``multiprocessing.Pipe``: parent sends ``("batch", [(rid, venue,
row), ...])``, worker answers ``("done", rids, (n, 2) locations,
errors, telemetry)`` where ``telemetry`` is the worker's metric/span
delta since its last answer (:meth:`~repro.obs.MetricsRegistry.
drain`), folded by the parent into one fleet-wide
:class:`~repro.obs.Telemetry` view; ``("stats", token)`` /
``("stop",)`` round out the set.  Bundles keep the pickle overhead
per request to a few microseconds.
"""

from __future__ import annotations

import os
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..artifacts import (
    Artifact,
    ArtifactStore,
    MemberSpec,
    attach_members,
    load_artifact,
    mappable_members,
)
from ..exceptions import ArtifactError, ServingError
from ..obs import MetricsRegistry, Telemetry, Tracer
from .keys import ShardKey, coerce_key
from .pipeline import Ticket, settle
from .service import SHARD_KIND, PositioningService, VenueShard

__all__ = [
    "FleetStats",
    "RegistryStats",
    "ShardFleet",
    "ShardRegistry",
    "WorkerStats",
    "partition_venue",
]


def partition_venue(
    venue: Union[str, ShardKey], n_workers: int
) -> int:
    """Worker index owning ``venue`` (stable across processes/runs).

    CRC-32 rather than :func:`hash`, which Python salts per process —
    a respawned worker must claim exactly the venues its predecessor
    owned, and the parent must route to the same worker the shard
    lives in.

    Hashes the *venue component* of the key only: every floor of a
    stacked venue (``"kaide/f1"``, ``"kaide/f2"``) lands on the same
    worker, so a device hopping floors mid-walk keeps talking to one
    process.  Bare single-floor keys hash exactly as before.
    """
    if n_workers < 1:
        raise ServingError("need at least one worker")
    name = ShardKey.parse(venue).venue
    return zlib.crc32(name.encode("utf-8")) % n_workers


@dataclass
class RegistryStats:
    """Counters of one :class:`ShardRegistry`.

    ``lazy_loads`` counts every on-demand load (first touch *and*
    re-load after eviction); ``fast_reloads`` is the subset served
    from cached member offsets (memory-map re-attach instead of a full
    verified load).  ``resident_bytes`` / ``mapped_bytes`` split each
    shard's footprint into anonymous memory vs read-only maps —
    eviction returns both, but mapped pages were only ever page cache.
    ``peak_bytes`` tracks the high-water total against the budget.

    Since the telemetry layer landed this is a *view*: the registry
    keeps its counters in ``registry.*`` metrics on a
    :class:`~repro.obs.MetricsRegistry` and builds this dataclass on
    demand, so fleet workers can drain the same numbers over their
    pipes as metric deltas.
    """

    lazy_loads: int = 0
    fast_reloads: int = 0
    evictions: int = 0
    hits: int = 0
    load_seconds: float = 0.0
    resident_bytes: int = 0
    mapped_bytes: int = 0
    peak_bytes: int = 0
    resident_venues: int = 0
    known_venues: int = 0

    @property
    def total_bytes(self) -> int:
        return self.resident_bytes + self.mapped_bytes

    def render(self) -> str:
        return (
            f"venues={self.resident_venues}/{self.known_venues} "
            f"resident ({self.total_bytes / 1e6:.1f}MB, "
            f"peak {self.peak_bytes / 1e6:.1f}MB) "
            f"loads={self.lazy_loads} "
            f"(fast {self.fast_reloads}) evictions={self.evictions} "
            f"hits={self.hits} "
            f"load time={1e3 * self.load_seconds:.0f}ms"
        )


@dataclass
class _LoadSpec:
    """Everything needed to re-attach an evicted venue's artifact."""

    path: str
    mtime_ns: int
    size: int
    members: Dict[str, MemberSpec]
    config: Dict[str, Any]
    metrics: Dict[str, Any]
    #: (resident, mapped) footprint of a fast-reloaded shard; filled
    #: on the first fast reload, reused afterwards — the file is
    #: pinned by mtime+size, so the footprint cannot change.
    footprint: Optional[Tuple[int, int]] = None


@dataclass
class _Resident:
    """One loaded shard plus its footprint at load time."""

    shard: VenueShard
    resident: int
    mapped: int


class ShardRegistry:
    """Venue → shard mapping with lazy loads and LRU memory budget.

    Parameters
    ----------
    store:
        The :class:`~repro.artifacts.ArtifactStore` (or its root path)
        holding the shard artifacts.
    mapping:
        ``venue → artifact key`` for every venue this registry may
        serve.  Extend at runtime with :meth:`add`.
    memory_budget_mb:
        Evict least-recently-used venues once the summed shard
        footprints (resident + mapped, see
        :meth:`VenueShard.footprint`) exceed this many MiB.  ``None``
        means unbounded.  The most recently used shard is never
        evicted, so a single shard larger than the budget still
        serves.  Footprints are taken at load time — completion state
        derived lazily afterwards (a BiSIM shard's squared-map matrix)
        is not re-measured until the next load.
    service:
        Optional :class:`PositioningService` to mirror into: loads
        register the shard, evictions unregister it (dropping its
        cached answers).  This turns the existing single-process
        service into a lazy, memory-budgeted deployment — the fleet
        benchmark's baseline.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry` to bind the
        ``registry.*`` counters and byte gauges to (fleet workers
        pass their per-process registry so one pipe drain ships
        load/evict counters next to the serve counters).  A private
        registry is created when omitted.

    Thread-safe; loads serialize on the registry lock.
    """

    def __init__(
        self,
        store,
        mapping: Dict[str, str],
        *,
        memory_budget_mb: Optional[float] = None,
        service: Optional[PositioningService] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self._store = (
            store
            if isinstance(store, ArtifactStore)
            else ArtifactStore(store)
        )
        self._mapping = dict(mapping)
        if memory_budget_mb is not None and memory_budget_mb <= 0:
            raise ServingError("memory_budget_mb must be positive")
        self._budget = (
            None
            if memory_budget_mb is None
            else int(memory_budget_mb * (1 << 20))
        )
        self._service = service
        self._entries: "Dict[str, _Resident]" = {}
        self._order: List[str] = []  # LRU … MRU
        self._specs: Dict[str, _LoadSpec] = {}
        self._lock = threading.RLock()
        self.metrics = (
            metrics if metrics is not None else MetricsRegistry()
        )
        m = self.metrics
        self._c_lazy = m.counter("registry.lazy_loads")
        self._c_fast = m.counter("registry.fast_reloads")
        self._c_evict = m.counter("registry.evictions")
        self._c_hits = m.counter("registry.hits")
        self._c_load_s = m.counter("registry.load_seconds")
        self._g_resident = m.gauge("registry.resident_bytes")
        self._g_mapped = m.gauge("registry.mapped_bytes")
        self._g_peak = m.gauge("registry.peak_bytes")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def venues(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._mapping))

    @property
    def resident(self) -> Tuple[str, ...]:
        """Resident venues, least → most recently used."""
        with self._lock:
            return tuple(self._order)

    @property
    def memory_budget_bytes(self) -> Optional[int]:
        return self._budget

    @memory_budget_bytes.setter
    def memory_budget_bytes(self, value: Optional[int]) -> None:
        """Retune the budget live; shrinking evicts immediately."""
        with self._lock:
            self._budget = None if value is None else int(value)
            self._enforce_budget()

    @property
    def stats(self) -> RegistryStats:
        with self._lock:
            return RegistryStats(
                lazy_loads=int(self._c_lazy.value),
                fast_reloads=int(self._c_fast.value),
                evictions=int(self._c_evict.value),
                hits=int(self._c_hits.value),
                load_seconds=self._c_load_s.value,
                resident_bytes=int(self._g_resident.value),
                mapped_bytes=int(self._g_mapped.value),
                peak_bytes=int(self._g_peak.value),
                resident_venues=len(self._entries),
                known_venues=len(self._mapping),
            )

    def _total_bytes(self) -> int:
        return int(self._g_resident.value + self._g_mapped.value)

    def add(self, venue: Union[str, ShardKey], key: str) -> None:
        """Register (or re-point) a venue's artifact key."""
        venue = coerce_key(venue)
        with self._lock:
            self._mapping[venue] = key

    # ------------------------------------------------------------------
    # The hot path
    # ------------------------------------------------------------------
    def get(self, venue: Union[str, ShardKey]) -> VenueShard:
        """The venue's shard, loading it on first touch.

        A resident venue is a dict hit plus an LRU touch.  A miss
        loads from the store — fully verified the first time, a
        memory-map re-attach afterwards — then enforces the budget
        (evicting other venues, never the one just loaded).
        """
        if not isinstance(venue, str):
            venue = coerce_key(venue)
        with self._lock:
            entry = self._entries.get(venue)
            if entry is not None:
                # LRU touch: cheap for the list sizes a budget allows.
                if self._order[-1] != venue:
                    self._order.remove(venue)
                    self._order.append(venue)
                self._c_hits.add(1)
                return entry.shard
            key = self._mapping.get(venue)
            if key is None:
                raise ServingError(
                    f"unknown venue {venue!r}; registry knows "
                    f"{len(self._mapping)} venues"
                )
            t0 = time.perf_counter()
            shard, fast = self._load(venue, key)
            spec = self._specs.get(venue)
            if fast and spec is not None and spec.footprint is not None:
                resident, mapped = spec.footprint
            else:
                resident, mapped = shard.footprint()
                if fast and spec is not None:
                    # Footprints of fast reloads are identical run to
                    # run (same file, same attach path) — measure once.
                    spec.footprint = (resident, mapped)
            self._entries[venue] = _Resident(shard, resident, mapped)
            self._order.append(venue)
            self._c_lazy.add(1)
            self._c_load_s.add(time.perf_counter() - t0)
            self._g_resident.add(resident)
            self._g_mapped.add(mapped)
            if self._service is not None:
                self._service.register(shard)
            self._enforce_budget()
            self._g_peak.set_max(self._total_bytes())
            return shard

    def _load(self, venue: str, key: str) -> Tuple[VenueShard, bool]:
        """Load a shard; True in the pair means it was a fast reload."""
        path = self._store.path_for(key)
        spec = self._specs.get(venue)
        if spec is not None:
            shard = self._try_fast_load(venue, spec)
            if shard is not None:
                self._c_fast.add(1)
                return shard, True
            # Spec went stale (file replaced/retouched): fall through
            # to a full verified load, which refreshes it.
            del self._specs[venue]
        artifact = load_artifact(
            path,
            expected_kind=SHARD_KIND,
            mmap_arrays=("precomputed",),
        )
        shard = VenueShard.from_artifact(artifact, key=venue)
        members = mappable_members(path)
        if set(artifact.arrays) <= set(members):
            # Every tensor is re-attachable: remember where the bytes
            # live so the next load of this venue skips the archive
            # walk and the content re-hash.  mtime+size pin the spec
            # to the exact file that passed verification.
            st = os.stat(path)
            self._specs[venue] = _LoadSpec(
                path=str(path),
                mtime_ns=st.st_mtime_ns,
                size=st.st_size,
                members={
                    name: members[name] for name in artifact.arrays
                },
                config=artifact.config,
                metrics=artifact.metrics,
            )
        return shard, False

    def _try_fast_load(
        self, venue: str, spec: _LoadSpec
    ) -> Optional[VenueShard]:
        try:
            st = os.stat(spec.path)
            if (
                st.st_mtime_ns != spec.mtime_ns
                or st.st_size != spec.size
            ):
                return None
            arrays = attach_members(spec.path, spec.members)
            return VenueShard.from_artifact(
                Artifact(
                    kind=SHARD_KIND,
                    arrays=arrays,
                    config=spec.config,
                    metrics=spec.metrics,
                ),
                key=venue,
                verify_precompute=False,
            )
        except (OSError, ArtifactError, ServingError, ValueError):
            return None

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def _enforce_budget(self) -> None:
        # Caller holds the lock.  Never evict the MRU entry — the
        # caller is about to use it.
        if self._budget is None:
            return
        while (
            self._total_bytes() > self._budget
            and len(self._order) > 1
        ):
            self._evict_locked(self._order[0])

    def _evict_locked(self, venue: str) -> None:
        entry = self._entries.pop(venue)
        self._order.remove(venue)
        self._c_evict.add(1)
        self._g_resident.add(-entry.resident)
        self._g_mapped.add(-entry.mapped)
        if self._service is not None:
            self._service.unregister(venue)

    def evict(self, venue: str) -> bool:
        """Drop one venue now; returns whether it was resident."""
        with self._lock:
            if venue not in self._entries:
                return False
            self._evict_locked(venue)
            return True

    def evict_all(self) -> int:
        """Drop every resident venue; returns how many were evicted."""
        with self._lock:
            count = len(self._order)
            for venue in list(self._order):
                self._evict_locked(venue)
            return count


# ----------------------------------------------------------------------
# Fleet statistics
# ----------------------------------------------------------------------
@dataclass
class WorkerStats:
    """One worker process's counters (fetched over the pipe).

    ``busy_seconds`` is the worker's whole serve time per tick.  How
    that time splits across complete, estimate and the spatial-index
    kernel stages is not a counter here: it is in the span trees the
    worker samples when the fleet was given a telemetry bundle
    (``ShardFleet(telemetry=…)``), each batch carrying its own
    ``kernel.*`` stage children.
    """

    worker: int
    requests: int = 0
    ticks: int = 0
    batches: int = 0
    busy_seconds: float = 0.0
    wall_seconds: float = 0.0
    venues_served: int = 0
    registry: RegistryStats = field(default_factory=RegistryStats)

    @property
    def utilization(self) -> float:
        """Fraction of the worker's wall clock spent serving."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.busy_seconds / self.wall_seconds

    @property
    def mean_tick(self) -> float:
        """Mean requests served per tick (the batching win)."""
        return self.requests / self.ticks if self.ticks else 0.0

    def render(self) -> str:
        return (
            f"worker {self.worker}: {self.requests} req in "
            f"{self.ticks} ticks (mean {self.mean_tick:.1f}/tick, "
            f"{self.batches} venue batches, "
            f"{self.venues_served} venues) "
            f"util={100 * self.utilization:.0f}% | "
            f"{self.registry.render()}"
        )


@dataclass
class FleetStats:
    """Fleet-wide counters: routing tier + every worker's registry.

    ``requests`` counts accepted submissions; ``errors`` the subset
    whose ticket resolved with an error (worker-side routing or serve
    failures — zero in a healthy fleet); ``respawns`` how many worker
    crashes were detected and recovered.  The registry counters
    (``lazy_loads`` / ``fast_reloads`` / ``evictions`` and the byte
    gauges) are summed over the per-worker registries in ``workers``.
    """

    workers: List[WorkerStats] = field(default_factory=list)
    requests: int = 0
    resolved: int = 0
    errors: int = 0
    respawns: int = 0
    outstanding: int = 0

    def _sum(self, attr: str):
        return sum(getattr(w.registry, attr) for w in self.workers)

    @property
    def lazy_loads(self) -> int:
        return self._sum("lazy_loads")

    @property
    def fast_reloads(self) -> int:
        return self._sum("fast_reloads")

    @property
    def evictions(self) -> int:
        return self._sum("evictions")

    @property
    def resident_bytes(self) -> int:
        return self._sum("resident_bytes")

    @property
    def mapped_bytes(self) -> int:
        return self._sum("mapped_bytes")

    @property
    def peak_bytes(self) -> int:
        return self._sum("peak_bytes")

    @property
    def resident_venues(self) -> int:
        return self._sum("resident_venues")

    def render(self) -> str:
        lines = [
            f"fleet: {self.requests} requests "
            f"({self.errors} errors, {self.outstanding} in flight), "
            f"{len(self.workers)} workers, "
            f"{self.respawns} respawns | "
            f"loads={self.lazy_loads} (fast {self.fast_reloads}) "
            f"evictions={self.evictions} "
            f"resident={self.resident_venues} venues "
            f"{(self.resident_bytes + self.mapped_bytes) / 1e6:.1f}MB"
        ]
        for w in self.workers:
            lines.append("  " + w.render())
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _worker_main(
    conn,
    store_root: str,
    mapping: Dict[str, str],
    budget_mb: Optional[float],
    worker_id: int,
    trace_sample_every: int = 0,
    slow_ms: Optional[float] = None,
) -> None:
    """One fleet worker: drain the pipe, serve per-venue batches.

    Every iteration blocks on the first message, then drains whatever
    else is already queued — so under load a tick naturally coalesces
    many bundles, and each venue in the tick costs one ``locate()``
    regardless of how many requests it received.  Module-level (not a
    closure) so the ``spawn`` start method can import it.

    The worker keeps its counters in a per-process
    :class:`~repro.obs.MetricsRegistry` (shared with its shard
    registry) and ships the delta since its last answer inside every
    ``"done"`` message; when ``trace_sample_every`` is positive it
    also samples span trees per venue batch and ships those alongside.
    """
    metrics = MetricsRegistry()
    registry = ShardRegistry(
        ArtifactStore(store_root),
        mapping,
        memory_budget_mb=budget_mb,
        metrics=metrics,
    )
    tracer = (
        Tracer(sample_every=trace_sample_every, slow_ms=slow_ms)
        if trace_sample_every > 0
        else None
    )
    started = time.perf_counter()
    c_requests = metrics.counter("worker.requests")
    c_ticks = metrics.counter("worker.ticks")
    c_batches = metrics.counter("worker.batches")
    c_busy = metrics.counter("worker.busy_seconds")
    venues_served: set = set()

    def stats_payload() -> WorkerStats:
        return WorkerStats(
            worker=worker_id,
            requests=int(c_requests.value),
            ticks=int(c_ticks.value),
            batches=int(c_batches.value),
            busy_seconds=c_busy.value,
            wall_seconds=time.perf_counter() - started,
            venues_served=len(venues_served),
            registry=registry.stats,
        )

    def telemetry_payload() -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "metrics": metrics.drain(
                gauge_labels={"worker": str(worker_id)}
            )
        }
        if tracer is not None:
            payload.update(tracer.drain())
        return payload

    while True:
        try:
            messages = [conn.recv()]
            while conn.poll(0):
                messages.append(conn.recv())
        except (EOFError, OSError):
            return
        reqs: List[Tuple[int, str, np.ndarray]] = []
        stat_tokens: List[int] = []
        stop = False
        for msg in messages:
            kind = msg[0]
            if kind == "batch":
                reqs.extend(msg[1])
            elif kind == "stats":
                stat_tokens.append(msg[1])
            elif kind == "stop":
                stop = True
        try:
            if reqs:
                t0 = time.perf_counter()
                c_ticks.add(1)
                c_requests.add(len(reqs))
                groups: "Dict[str, List[Tuple[int, np.ndarray]]]" = {}
                for rid, venue, row in reqs:
                    groups.setdefault(venue, []).append((rid, row))
                done_rids: List[int] = []
                done_locs: List[np.ndarray] = []
                errors: List[Tuple[int, str]] = []
                for venue, items in groups.items():
                    try:
                        shard = registry.get(venue)
                    except Exception as exc:
                        reason = f"{type(exc).__name__}: {exc}"
                        errors.extend((rid, reason) for rid, _ in items)
                        continue
                    # A wrong-width scan fails alone, not its venue.
                    good = []
                    for rid, row in items:
                        if row.shape == (shard.n_aps,):
                            good.append((rid, row))
                        else:
                            errors.append((
                                rid,
                                f"ServingError: venue {venue!r} expects "
                                f"({shard.n_aps},) scans, got {row.shape}",
                            ))
                    if not good:
                        continue
                    rids = [rid for rid, _ in good]
                    try:
                        rows = np.stack([row for _, row in good])
                        if tracer is not None and tracer.sample():
                            with tracer.trace(
                                "worker.serve",
                                meta={
                                    "venue": venue,
                                    "rows": len(good),
                                    "worker": worker_id,
                                },
                            ):
                                located = shard.locate(
                                    rows, tracer=tracer
                                )
                        else:
                            located = shard.locate(rows)
                    except Exception as exc:
                        reason = f"{type(exc).__name__}: {exc}"
                        errors.extend((rid, reason) for rid in rids)
                    else:
                        c_batches.add(1)
                        venues_served.add(venue)
                        done_rids.extend(rids)
                        done_locs.append(located)
                locations = (
                    np.concatenate(done_locs)
                    if done_locs
                    else np.empty((0, 2))
                )
                c_busy.add(time.perf_counter() - t0)
                conn.send(
                    (
                        "done",
                        done_rids,
                        locations,
                        errors,
                        telemetry_payload(),
                    )
                )
            for token in stat_tokens:
                conn.send(("stats", token, stats_payload()))
            if stop:
                conn.send(("stopped", stats_payload()))
                conn.close()
                return
        except (BrokenPipeError, OSError):
            return


class _Worker:
    """Parent-side record of one worker process."""

    __slots__ = (
        "index",
        "mapping",
        "proc",
        "conn",
        "send_lock",
        "buffer",
        "generation",
        "final_stats",
    )

    def __init__(self, index: int, mapping: Dict[str, str]):
        self.index = index
        self.mapping = mapping
        self.proc = None
        self.conn = None
        self.send_lock = threading.Lock()
        self.buffer: List[Tuple[int, str, np.ndarray]] = []
        self.generation = 0
        self.final_stats: Optional[WorkerStats] = None


class ShardFleet:
    """Multi-process serving over hash-partitioned venue shards.

    Parameters
    ----------
    store:
        Artifact store (or root path) every worker loads shards from.
    mapping:
        ``venue → artifact key`` for the whole fleet; each worker
        receives the slice :func:`partition_venue` assigns it.
    workers:
        Process count.  Each venue is owned by exactly one worker.
    memory_budget_mb:
        Fleet-wide budget, split evenly across the workers' shard
        registries; ``None`` disables eviction.
    bundle_size:
        Requests buffered per worker before the submitting thread
        ships the bundle itself; a background flusher ships partial
        buffers every ``flush_interval_ms`` so a lone request is never
        stranded.
    start_method:
        ``multiprocessing`` start method; default ``"fork"`` where
        available (fast, inherits the warmed import state), else
        ``"spawn"``.
    telemetry:
        Optional :class:`~repro.obs.Telemetry` to aggregate into.
        The fleet always keeps an internal telemetry view (worker
        metric deltas merge into it every ``"done"`` message, and the
        parent records the end-to-end ``fleet.request_seconds``
        histogram there); passing one explicitly additionally turns
        on worker-side span sampling, configured by the telemetry
        tracer's ``sample_every`` / ``slow_ms``, with the sampled
        span trees shipped back and retained for
        :meth:`Telemetry.spans`.

    Use as a context manager (or :meth:`start` / :meth:`close`).
    Submission is thread-safe.
    """

    def __init__(
        self,
        store,
        mapping: Dict[str, str],
        *,
        workers: int = 4,
        memory_budget_mb: Optional[float] = None,
        bundle_size: int = 256,
        flush_interval_ms: float = 2.0,
        start_method: Optional[str] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        if workers < 1:
            raise ServingError("fleet needs at least one worker")
        if bundle_size < 1:
            raise ServingError("bundle_size must be >= 1")
        import multiprocessing as mp

        if start_method is None:
            start_method = (
                "fork"
                if "fork" in mp.get_all_start_methods()
                else "spawn"
            )
        self._ctx = mp.get_context(start_method)
        self._store_root = str(
            store.root if isinstance(store, ArtifactStore) else store
        )
        self._mapping = {
            venue if isinstance(venue, str) else coerce_key(venue): key
            for venue, key in mapping.items()
        }
        self.n_workers = int(workers)
        self._budget_mb = memory_budget_mb
        self._worker_budget_mb = (
            None
            if memory_budget_mb is None
            else memory_budget_mb / workers
        )
        self.bundle_size = int(bundle_size)
        self._flush_interval = float(flush_interval_ms) / 1e3
        self._workers = [
            _Worker(
                wid,
                {
                    venue: key
                    for venue, key in self._mapping.items()
                    if partition_venue(venue, workers) == wid
                },
            )
            for wid in range(workers)
        ]
        self.telemetry = (
            telemetry if telemetry is not None else Telemetry()
        )
        # Worker-side tracing costs a pipe payload per tick, so it is
        # armed only when the caller handed us a telemetry bundle.
        self._worker_sample_every = (
            self.telemetry.tracer.sample_every
            if telemetry is not None
            else 0
        )
        self._worker_slow_ms = (
            self.telemetry.tracer.slow_ms
            if telemetry is not None
            else None
        )
        m = self.telemetry.metrics
        self._c_requests = m.counter("fleet.requests")
        self._c_resolved = m.counter("fleet.resolved")
        self._c_errors = m.counter("fleet.errors")
        self._c_respawns = m.counter("fleet.respawns")
        self._h_latency = m.histogram("fleet.request_seconds")
        self._mu = threading.Lock()
        self._done_cv = threading.Condition()
        self._pending: Dict[
            int, Tuple[str, np.ndarray, Ticket, int, float]
        ] = {}
        self._next_rid = 0
        self._outstanding = 0
        self._stats_replies: Dict[int, WorkerStats] = {}
        self._stats_cv = threading.Condition()
        self._next_token = 0
        self._stop_event = threading.Event()
        self._flusher: Optional[threading.Thread] = None
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ShardFleet":
        if self._started:
            raise ServingError("fleet already started")
        self._started = True
        for worker in self._workers:
            self._spawn(worker)
        self._flusher = threading.Thread(
            target=self._flush_loop, name="fleet-flusher", daemon=True
        )
        self._flusher.start()
        return self

    def __enter__(self) -> "ShardFleet":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def _spawn(self, worker: _Worker) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                self._store_root,
                worker.mapping,
                self._worker_budget_mb,
                worker.index,
                self._worker_sample_every,
                self._worker_slow_ms,
            ),
            name=f"fleet-worker-{worker.index}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        worker.proc = proc
        worker.conn = parent_conn
        generation = worker.generation
        threading.Thread(
            target=self._collect,
            args=(worker, generation, parent_conn),
            name=f"fleet-collector-{worker.index}.{generation}",
            daemon=True,
        ).start()

    def close(self, timeout: float = 10.0) -> None:
        """Drain in-flight work, stop the workers, fail leftovers.

        Idempotent.  Requests still unresolved after the drain window
        resolve with a :class:`ServingError` rather than hanging their
        callers forever.
        """
        if not self._started or self._closed:
            return
        self._closed = True
        self.flush()
        try:
            self.wait_outstanding(0, timeout=timeout)
        except ServingError:
            pass
        self._stop_event.set()
        for worker in self._workers:
            self._send(worker, ("stop",), respawn=False)
        for worker in self._workers:
            if worker.proc is not None:
                worker.proc.join(timeout=2.0)
                if worker.proc.is_alive():
                    worker.proc.kill()
                    worker.proc.join(timeout=1.0)
            if worker.conn is not None:
                try:
                    worker.conn.close()
                except OSError:
                    pass
        with self._mu:
            leftovers = list(self._pending.values())
            self._pending.clear()
            self._outstanding = 0
        if leftovers:
            closed = [
                (entry[2], None, ServingError("fleet closed"))
                for entry in leftovers
            ]
            settle(self._done_cv, closed, time.perf_counter())
        if self._flusher is not None:
            self._flusher.join(timeout=2.0)

    # ------------------------------------------------------------------
    # Routing + submission
    # ------------------------------------------------------------------
    def partition(self, venue: str) -> int:
        """The worker index that owns ``venue``."""
        return partition_venue(venue, self.n_workers)

    @property
    def venues(self) -> Tuple[str, ...]:
        return tuple(sorted(self._mapping))

    @property
    def outstanding(self) -> int:
        return self._outstanding

    def submit(
        self, venue: Union[str, ShardKey], scan: np.ndarray
    ) -> Ticket:
        """Queue one raw scan for its owning worker; non-blocking.

        The bundle ships when it reaches ``bundle_size`` (in the
        submitting thread) or on the next flusher tick.  Unknown
        venues fail here, in the caller — they never cost a pipe
        round-trip.  A :class:`ShardKey` venue is served as its
        canonical string spelling.
        """
        if not self._started or self._closed:
            raise ServingError("fleet is not running")
        if not isinstance(venue, str):
            venue = coerce_key(venue)
        if venue not in self._mapping:
            raise ServingError(
                f"unknown venue {venue!r}; fleet serves "
                f"{len(self._mapping)} venues"
            )
        row = np.asarray(scan, dtype=float)
        if row.ndim != 1:
            raise ServingError("submit() takes a single (D,) scan")
        worker = self._workers[partition_venue(venue, self.n_workers)]
        ticket = Ticket(self._done_cv)
        bundle = None
        with self._mu:
            rid = self._next_rid
            self._next_rid += 1
            self._pending[rid] = (
                venue, row, ticket, worker.index, time.perf_counter()
            )
            self._outstanding += 1
            self._c_requests.add(1)
            worker.buffer.append((rid, venue, row))
            if len(worker.buffer) >= self.bundle_size:
                bundle = worker.buffer
                worker.buffer = []
        if bundle is not None:
            self._send(worker, ("batch", bundle))
        return ticket

    def submit_many(
        self, items: Sequence[Tuple[Union[str, ShardKey], np.ndarray]]
    ) -> List[Ticket]:
        """Queue many ``(venue, scan)`` pairs under one lock round.

        Semantics match a :meth:`submit` loop but the per-request
        bookkeeping (rid allocation, pending insert, buffer append)
        is amortised over the whole chunk — the open-loop driver's
        counterpart to the workers' per-tick batching.  The whole
        chunk is validated before any of it is queued, so a bad item
        rejects the batch without side effects.
        """
        if not self._started or self._closed:
            raise ServingError("fleet is not running")
        prepared: List[Tuple[str, np.ndarray, int]] = []
        for venue, scan in items:
            if not isinstance(venue, str):
                venue = coerce_key(venue)
            if venue not in self._mapping:
                raise ServingError(
                    f"unknown venue {venue!r}; fleet serves "
                    f"{len(self._mapping)} venues"
                )
            row = np.asarray(scan, dtype=float)
            if row.ndim != 1:
                raise ServingError(
                    "submit_many() takes (venue, (D,) scan) pairs"
                )
            prepared.append(
                (venue, row, partition_venue(venue, self.n_workers))
            )
        tickets: List[Ticket] = []
        bundles: List[Tuple[_Worker, list]] = []
        with self._mu:
            now = time.perf_counter()
            self._c_requests.add(len(prepared))
            for venue, row, wid in prepared:
                worker = self._workers[wid]
                ticket = Ticket(self._done_cv)
                rid = self._next_rid
                self._next_rid += 1
                self._pending[rid] = (venue, row, ticket, wid, now)
                self._outstanding += 1
                worker.buffer.append((rid, venue, row))
                if len(worker.buffer) >= self.bundle_size:
                    bundles.append((worker, worker.buffer))
                    worker.buffer = []
                tickets.append(ticket)
        for worker, bundle in bundles:
            self._send(worker, ("batch", bundle))
        return tickets

    def locate(
        self,
        venue: Union[str, ShardKey],
        scan: np.ndarray,
        timeout: Optional[float] = 30.0,
    ) -> np.ndarray:
        """Submit one scan, flush, and wait for its ``(2,)`` answer."""
        ticket = self.submit(venue, scan)
        self.flush()
        return ticket.result(timeout)

    def flush(self) -> None:
        """Ship every worker's partial buffer now."""
        for worker in self._workers:
            bundle = None
            with self._mu:
                if worker.buffer:
                    bundle = worker.buffer
                    worker.buffer = []
            if bundle is not None:
                self._send(worker, ("batch", bundle))

    def wait_outstanding(
        self, limit: int = 0, timeout: Optional[float] = None
    ) -> None:
        """Block until at most ``limit`` requests are in flight.

        The backpressure valve for open-loop load drivers: submit
        freely, then park here whenever the in-flight window is full.
        """
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        with self._done_cv:
            while self._outstanding > limit:
                remaining = (
                    None
                    if deadline is None
                    else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    raise ServingError(
                        f"still {self._outstanding} requests in "
                        f"flight after {timeout}s"
                    )
                self._done_cv.wait(remaining)

    # ------------------------------------------------------------------
    # Background machinery
    # ------------------------------------------------------------------
    def _flush_loop(self) -> None:
        while not self._stop_event.wait(self._flush_interval):
            self.flush()

    def _send(self, worker: _Worker, message, *, respawn=True) -> None:
        generation = worker.generation
        try:
            with worker.send_lock:
                conn = worker.conn
                if conn is None:
                    raise BrokenPipeError
                conn.send(message)
        except (BrokenPipeError, OSError, ValueError):
            # The worker died with this message in the pipe.  Any
            # "batch" payload is still tracked in _pending, so the
            # crash handler resubmits it to the replacement.
            if respawn and not self._closed:
                self._handle_crash(worker, generation)

    def _collect(self, worker: _Worker, generation: int, conn) -> None:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError, TypeError, ValueError):
                # TypeError/ValueError leak out of Connection.recv
                # when close() invalidates the handle mid-read — a
                # shutdown artifact, not a worker crash.
                if not self._closed and not self._stop_event.is_set():
                    self._handle_crash(worker, generation)
                return
            kind = msg[0]
            if kind == "done":
                self._resolve(msg[1], msg[2], msg[3])
                if len(msg) > 4 and msg[4]:
                    self.telemetry.ingest(msg[4])
            elif kind == "stats":
                with self._stats_cv:
                    self._stats_replies[msg[1]] = msg[2]
                    self._stats_cv.notify_all()
            elif kind == "stopped":
                worker.final_stats = msg[1]
                return

    def _resolve(
        self,
        rids: Sequence[int],
        locations: np.ndarray,
        errors: Sequence[Tuple[int, str]],
    ) -> None:
        now = time.perf_counter()
        settled: List[Tuple[Ticket, Optional[np.ndarray], Optional[BaseException]]] = []
        latencies: List[float] = []
        with self._mu:
            for i, rid in enumerate(rids):
                entry = self._pending.pop(rid, None)
                if entry is not None:
                    settled.append((entry[2], locations[i], None))
                    latencies.append(now - entry[4])
            for rid, reason in errors:
                entry = self._pending.pop(rid, None)
                if entry is not None:
                    settled.append(
                        (entry[2], None, ServingError(reason))
                    )
                    latencies.append(now - entry[4])
                    self._c_errors.add(1)
            self._outstanding -= len(settled)
            self._c_resolved.add(len(settled))
            if latencies:
                # End-to-end submit → resolution latency, including
                # the pipe hops — the live distribution the fleet
                # benchmark checks against loadgen's percentiles.
                self._h_latency.record_many(np.asarray(latencies))
        if settled:
            settle(self._done_cv, settled, now)

    def _handle_crash(self, worker: _Worker, generation: int) -> None:
        """Respawn a dead worker and resubmit its in-flight work.

        Guarded by the worker's generation counter so the collector
        (EOF) and a sender (broken pipe) noticing the same corpse
        respawn it once, not twice.
        """
        with self._mu:
            if worker.generation != generation or self._closed:
                return
            worker.generation += 1
            self._c_respawns.add(1)
            redo = [
                (rid, venue, row)
                for rid, (venue, row, _, wid, _)
                in self._pending.items()
                if wid == worker.index
            ]
            redo.extend(worker.buffer)
            worker.buffer = []
            old_conn, old_proc = worker.conn, worker.proc
            worker.conn = worker.proc = None
        if old_conn is not None:
            try:
                old_conn.close()
            except OSError:
                pass
        if old_proc is not None and old_proc.is_alive():
            old_proc.kill()
        self._spawn(worker)
        if redo:
            self._send(worker, ("batch", redo))

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def stats(self, timeout: float = 5.0) -> FleetStats:
        """Fleet-wide snapshot (one pipe round-trip per worker).

        A worker that cannot answer within ``timeout`` (crashed
        mid-snapshot) contributes its last known final stats, or
        nothing — the routing-tier counters are always exact.
        """
        tokens: Dict[int, _Worker] = {}
        with self._stats_cv:
            for worker in self._workers:
                token = self._next_token
                self._next_token += 1
                tokens[token] = worker
        for token, worker in tokens.items():
            self._send(worker, ("stats", token))
        deadline = time.monotonic() + timeout
        collected: List[WorkerStats] = []
        with self._stats_cv:
            while True:
                missing = [
                    t
                    for t in tokens
                    if t not in self._stats_replies
                ]
                if not missing:
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._stats_cv.wait(remaining)
            for token, worker in tokens.items():
                reply = self._stats_replies.pop(token, None)
                if reply is None:
                    reply = worker.final_stats
                if reply is not None:
                    collected.append(reply)
        collected.sort(key=lambda w: w.worker)
        with self._mu:
            return FleetStats(
                workers=collected,
                requests=int(self._c_requests.value),
                resolved=int(self._c_resolved.value),
                errors=int(self._c_errors.value),
                respawns=int(self._c_respawns.value),
                outstanding=self._outstanding,
            )
