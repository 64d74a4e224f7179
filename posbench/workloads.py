"""The benchmark's three workloads.

Each workload generates its inputs from the seed (outside every timed
window), builds the serving system in :meth:`Workload.setup` (timed as
``setup_s``), and then serves open-loop phases: :meth:`prepare`
pre-generates one phase's requests before its clock starts and
:meth:`submit` sends request ``i`` of that phase.

* ``mall-open`` — one 32768-record × 96-AP venue behind a
  :class:`~repro.serving.ServingPipeline`; completion against the
  precomputed map plus the spatial-index kernel do the work.
* ``city-fleet`` — 500 small venues saved to an
  :class:`~repro.artifacts.ArtifactStore` and served by a 2-worker
  :class:`~repro.serving.ShardFleet` under a memory budget that holds
  about 40% of the pool; venues are Zipf(1.1)-skewed.
* ``kaide-drift`` — the paper's kaide venue with TopoAC + BiSIM behind
  the pipeline with its cache on; 40% of the scans are exact device
  re-scans, and survey deltas hot-apply on a fixed schedule while
  reads run.

Every scan sent is contract-valid: readings are finite dBm values in
``[DBM_MIN, DBM_MAX]`` or NaN (unheard), with at least ``MIN_HEARD``
APs heard.
"""

from __future__ import annotations

import shutil
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from layers import LayerTimer

from repro.artifacts import ArtifactStore
from repro.bisim import BiSIMConfig, OnlineImputer
from repro.core import TopoACDifferentiator
from repro.experiments.config import PRESETS
from repro.experiments.runner import get_dataset
from repro.ingest import StreamIngestor, simulate_new_survey
from repro.obs import Telemetry
from repro.positioning import WKNNEstimator
from repro.positioning.index import SpatialIndex
from repro.positioning.io import estimator_payload
from repro.serving import (
    MapCompletion,
    PositioningService,
    ServingPipeline,
    ShardFleet,
    ShardRegistry,
    VenueShard,
)
from repro.serving.loadgen import fleet_schedule, synthetic_venue_pool

#: Seed of the venue data (maps, the city's venue pool, the survey
#: drops): a fixed deployment, so runs differ only in the requests
#: their ``--seed`` generates.
VENUE_SEED = 20231016
DBM_MIN, DBM_MAX = -120.0, 0.0
MIN_HEARD = 3
#: Name of the pipeline's flusher thread (layer spans filter on it).
FLUSHER = "serving-pipeline"


def contract_valid(scans: np.ndarray) -> np.ndarray:
    """Row mask of scans that meet the scan contract."""
    heard = np.isfinite(scans)
    in_range = np.where(
        heard, (scans >= DBM_MIN) & (scans <= DBM_MAX), True
    )
    no_inf = ~np.isinf(scans)
    return (
        (heard.sum(axis=1) >= MIN_HEARD)
        & in_range.all(axis=1)
        & no_inf.all(axis=1)
    )


def _drop_aps(
    scans: np.ndarray, rate: float, rng: np.random.Generator
) -> np.ndarray:
    """NaN out readings at ``rate``, redrawing rows left with too few."""
    out = scans.copy()
    mask = rng.random(out.shape) < rate
    bad = (~mask).sum(axis=1) < MIN_HEARD
    while bad.any():
        mask[bad] = rng.random((int(bad.sum()), out.shape[1])) < rate
        bad = (~mask).sum(axis=1) < MIN_HEARD
    out[mask] = np.nan
    return out


@dataclass
class Requests:
    """One phase's pre-generated requests and their ground truth."""

    scans: np.ndarray  # (n, D); NaN = AP not heard
    truth: np.ndarray  # (n, 2) reference-point locations
    venues: Optional[List[str]] = None  # per request; None = one venue


def _wait(tickets, timeout: float = 60.0) -> None:
    for ticket in tickets:
        ticket.result(timeout)


class Workload:
    """Base: one seeded workload with its serving system."""

    name = ""
    #: Fixed rates (requests/s) of the low and high phases.
    low_rate = 0.0
    high_rate = 0.0
    #: The capacity ladder: geometric rungs (low, high, step).
    ladder: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    #: Share of the run's seconds given to each untraced phase; the
    #: low and high shares are split over ``rounds`` alternating
    #: chunks.  ``ladder`` is the extra share ``--capacity`` takes.
    plan = {"warm": 0.04, "low": 0.48, "high": 0.48, "ladder": 0.35}
    rounds = 8
    setup_repeats = 3
    #: Sample size for the batch-of-1 parity check (0: not checked).
    parity_sample = 0
    #: Background writes that raised (kaide-drift's delta applies).
    failed_writes = 0

    def __init__(self, seed: int, work_dir: Path):
        self.seed = int(seed)
        self.rng = np.random.default_rng(self.seed)
        self.work_dir = work_dir
        #: The current phase's requests, set by :meth:`prepare`.
        self.req: Optional[Requests] = None
        #: Sub-timings of the latest setup (``setup.*`` metrics).
        self.setup_parts: Dict[str, float] = {}

    # -- lifecycle --------------------------------------------------
    def make_inputs(self) -> None:
        raise NotImplementedError

    def setup(self, traced: bool = False) -> float:
        """Build the serving system (replacing any previous one) and
        warm it up; returns the seconds taken.  ``traced`` also times
        the build calls into :attr:`setup_parts`."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    # -- phases -----------------------------------------------------
    def prepare(self, n: int, rng: np.random.Generator) -> Requests:
        """Generate the next phase's ``n`` requests and make them
        current; called before the phase's clock starts."""
        req = self._requests(n, rng)
        if not contract_valid(req.scans).all():
            raise ValueError(f"{self.name}: generated a scan outside the contract")
        self.req = req
        return req

    def _requests(self, n: int, rng: np.random.Generator) -> Requests:
        raise NotImplementedError

    def submit(self, i: int):
        raise NotImplementedError

    def begin_phase(self) -> None:
        """Start background work that runs beside the reads."""

    def end_phase(self) -> None:
        """Stop what :meth:`begin_phase` started."""

    # -- tracing ----------------------------------------------------
    def trace_on(self, timer: LayerTimer) -> None:
        raise NotImplementedError

    def trace_off(self, timer: LayerTimer) -> None:
        timer.restore()

    # -- correctness ------------------------------------------------
    def reference(self, req: Requests, rows: np.ndarray) -> np.ndarray:
        """Batch-of-1 answers to ``req``'s requests ``rows``."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# Pipeline-served workloads
# ----------------------------------------------------------------------
class _PipelineWorkload(Workload):
    venue = ""
    cache_size = 4096

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        self.service: Optional[PositioningService] = None
        self.pipeline: Optional[ServingPipeline] = None
        self.warm_scans = np.empty((0, 0))

    def close(self) -> None:
        if self.pipeline is not None:
            self.pipeline.stop()
        self.pipeline = None
        self.service = None

    def _serve(self, shard: VenueShard) -> None:
        """Register ``shard``, start the pipeline, warm it up."""
        self.service = PositioningService(cache_size=self.cache_size)
        self.service.register(shard)
        self.pipeline = ServingPipeline(self.service).start()
        _wait(
            [self.pipeline.submit(self.venue, row) for row in self.warm_scans]
        )

    def submit(self, i: int):
        return self.pipeline.submit(self.venue, self.req.scans[i])

    def trace_on(self, timer: LayerTimer) -> None:
        timer.patch(self.service, "try_cached", "service.try_cached", rows_arg=1)
        timer.patch(VenueShard, "locate", "shard.locate", thread=FLUSHER)
        timer.patch(
            MapCompletion,
            "complete",
            "completion",
            thread=FLUSHER,
            on_call=timer.note_completion_input,
        )
        timer.patch(WKNNEstimator, "predict", "estimate", thread=FLUSHER)
        timer.patch(SpatialIndex, "query", "index.query", thread=FLUSHER)

    def reference(self, req: Requests, rows: np.ndarray) -> np.ndarray:
        shard = self.service.shard(self.venue)
        return np.stack([shard.locate(req.scans[i : i + 1])[0] for i in rows])


class MallOpen(_PipelineWorkload):
    """One fleet-scale venue: completion + spatial-index kernel."""

    name = "mall-open"
    venue = "mall"
    n_records = 32768
    n_aps = 96
    missing_rate = 0.3
    # A lone row takes ~8 ms through the pipeline and each extra row in
    # a batch ~1.3 ms.  The busier the flusher, the more queueing
    # multiplies any change in machine speed, and this memory-bound
    # venue's speed drifts by up to 20% over minutes on a shared host.
    # Over ten runs the high p50 spread by a third at 300/s and by a
    # quarter at 100/s.  The flusher is busy ~20% of the time at 25/s
    # and ~40% at 50/s.
    low_rate = 25.0
    high_rate = 50.0
    ladder = (500.0, 2500.0, 1.1)
    plan = {"warm": 0.04, "low": 0.4, "high": 0.56, "ladder": 0.35}
    setup_repeats = 9
    parity_sample = 128

    def make_inputs(self) -> None:
        # Log-distance path loss over a 200 m square, the synthetic
        # fleet-scale map of ``repro.serving.bench``.
        rng = np.random.default_rng(VENUE_SEED)
        side = 200.0
        aps = rng.uniform(0.0, side, size=(self.n_aps, 2))
        rps = rng.uniform(0.0, side, size=(self.n_records, 2))
        dist = np.linalg.norm(rps[:, None, :] - aps[None, :, :], axis=2)
        rssi = -30.0 - 30.0 * np.log10(np.maximum(dist, 1.0))
        rssi += rng.normal(0.0, 3.0, size=rssi.shape)
        self.map_fp = np.clip(rssi, -95.0, -20.0)
        self.map_rps = rps
        self.warm_scans, _ = self._scans(64, self.rng)

    def _scans(self, n: int, rng: np.random.Generator):
        picks = rng.integers(0, self.n_records, size=n)
        noisy = self.map_fp[picks] + rng.normal(0.0, 2.5, size=(n, self.n_aps))
        scans = _drop_aps(np.clip(noisy, -110.0, -10.0), self.missing_rate, rng)
        return scans, self.map_rps[picks]

    def _requests(self, n: int, rng: np.random.Generator) -> Requests:
        return Requests(*self._scans(n, rng))

    def setup(self, traced: bool = False) -> float:
        self.close()
        start = time.perf_counter()
        estimator = WKNNEstimator(spatial_index="on")
        t0 = time.perf_counter()
        estimator.fit(self.map_fp, self.map_rps)
        fit_s = time.perf_counter() - t0
        fill = self.map_fp.mean(axis=0)
        shard = VenueShard(
            self.venue,
            self.n_aps,
            estimator,
            None,
            fill,
            MapCompletion(self.map_fp, fill),
        )
        self._serve(shard)
        self.setup_parts = {"estimator_fit_s": fit_s}
        return time.perf_counter() - start


class KaideDrift(_PipelineWorkload):
    """The paper's kaide venue under re-scans and live survey deltas."""

    name = "kaide-drift"
    venue = "kaide"
    low_rate = 1000.0
    high_rate = 4000.0
    ladder = (8000.0, 48000.0, 1.1)
    setup_repeats = 3
    base_scans = 320
    # A re-scan repeats the scan sent ``rescan_lag`` requests earlier
    # (drawn uniformly), so its first answer is normally back in the
    # cache: whether it hits does not hinge on that request still
    # being in flight.  40% rather than half keeps the read median
    # inside the misses instead of on the hit/miss boundary, where it
    # flipped between the two from run to run.
    rescan_rate = 0.4
    rescan_lag = (64, 256)
    jitter_dbm = 2.0
    n_deltas = 24
    delta_paths = 6
    # An apply takes 130-200 ms under read load and holds the GIL for
    # much of it, so reads beside it slow down.  Once a second, about
    # a sixth of the reads overlap one and the read median stays clear
    # of them; every 250 or 500 ms, the applies' own swings with
    # machine speed showed in the median.
    apply_interval_s = 1.0

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        #: ``(seconds, DeltaApplyReport)`` of every successful apply.
        self.applies: List[Tuple[float, object]] = []
        self._stop = threading.Event()
        self._writer: Optional[threading.Thread] = None
        self._next_delta = 0
        #: The latest requests generated, for re-scans across phases.
        self._recent: Optional[Requests] = None

    def make_inputs(self) -> None:
        # The pool is venue data: every seed draws its requests from
        # the same scans, so ``ape_m`` varies only with the draws.
        rng = np.random.default_rng([VENUE_SEED, 1])
        self.config = PRESETS["bench"]
        self.dataset = get_dataset("kaide", self.config)
        rps = self.dataset.venue.reference_points
        # channel.measure costs ~5 ms per scan, so the pool stays
        # small; fresh requests jitter pool scans instead.
        scans: List[np.ndarray] = []
        where: List[np.ndarray] = []
        while len(scans) < self.base_scans:
            rp = rps[int(rng.integers(0, len(rps)))]
            scan = self.dataset.channel.measure(rp, rng).rssi
            if contract_valid(scan[None, :])[0]:
                scans.append(scan)
                where.append(rp)
        self.pool = np.stack(scans)
        self.pool_truth = np.stack(where)
        self.warm_scans = self.pool[:32]
        self.deltas = self._make_deltas(np.random.default_rng(VENUE_SEED))

    def _make_deltas(self, rng: np.random.Generator) -> list:
        """Survey drops cycling over a few new path ids, so repeated
        applies replace paths instead of growing the map."""
        tables = []
        while len(tables) < self.n_deltas:
            tables.extend(
                simulate_new_survey(
                    self.dataset, n_passes=1, seed=int(rng.integers(1 << 30))
                )
            )
        first = int(self.dataset.radio_map.path_ids.max()) + 1
        deltas = []
        for i, table in enumerate(tables[: self.n_deltas]):
            table.path_id = first + i % self.delta_paths
            # One ingestor per drop: a shared one would keep every
            # earlier drop's records for a reused path id, and the map
            # would grow (and apply cost with it) over the cycle.
            ingestor = StreamIngestor(self.dataset.radio_map.n_aps)
            ingestor.ingest_table(table)
            deltas.append(ingestor.drain())
        return deltas

    def _requests(self, n: int, rng: np.random.Generator) -> Requests:
        picks = rng.integers(0, len(self.pool), size=n)
        base = self.pool[picks]
        noisy = np.round(base + rng.normal(0.0, self.jitter_dbm, size=base.shape))
        scans = np.clip(noisy, DBM_MIN, -1.0)  # NaN (unheard) stays NaN
        truth = self.pool_truth[picks]
        # Prepend the previous phase's tail, so early re-scans have
        # something to repeat; drive() waits for every answer, so it
        # was all served.
        lo, hi = self.rescan_lag
        recent = self._recent
        h = 0 if recent is None else len(recent.scans)
        if h:
            scans = np.concatenate([recent.scans, scans])
            truth = np.concatenate([recent.truth, truth])
        rescan = rng.random(n) < self.rescan_rate
        lags = rng.integers(lo, hi, size=n)
        for i in np.flatnonzero(rescan):
            src = h + i - lags[i]
            if src >= 0:
                scans[h + i] = scans[src]
                truth[h + i] = truth[src]
        self._recent = Requests(scans[-hi:].copy(), truth[-hi:].copy())
        return Requests(scans[h:], truth[h:])

    def setup(self, traced: bool = False) -> float:
        self.close()
        start = time.perf_counter()
        differentiator = TopoACDifferentiator(
            entities=self.dataset.venue.plan.entities
        )
        estimator = WKNNEstimator()
        local = LayerTimer()
        if traced:
            local.patch(differentiator, "differentiate", "differentiate")
            local.patch(OnlineImputer, "fit", "bisim_fit")
            local.patch(estimator, "fit", "estimator_fit")
        try:
            service_shard = VenueShard.build(
                self.venue,
                self.dataset.radio_map,
                differentiator,
                estimator=estimator,
                bisim_config=BiSIMConfig(
                    hidden_size=self.config.hidden_size,
                    epochs=self.config.epochs,
                ),
            )
        finally:
            local.restore()
        self._serve(service_shard)
        self.setup_parts = {
            "differentiate_s": local.total_s("differentiate"),
            "bisim_fit_s": local.total_s("bisim_fit"),
            "estimator_fit_s": local.total_s("estimator_fit"),
        }
        return time.perf_counter() - start

    # -- writes beside the reads --------------------------------------
    def begin_phase(self) -> None:
        self._stop.clear()
        self._writer = threading.Thread(
            target=self._write_loop, name="delta-writer", daemon=True
        )
        self._writer.start()

    def end_phase(self) -> None:
        self._stop.set()
        if self._writer is not None:
            self._writer.join(timeout=30.0)
        self._writer = None

    def _write_loop(self) -> None:
        next_at = time.perf_counter() + self.apply_interval_s
        while not self._stop.wait(max(0.0, next_at - time.perf_counter())):
            next_at += self.apply_interval_s
            delta = self.deltas[self._next_delta % len(self.deltas)]
            self._next_delta += 1
            t0 = time.perf_counter()
            try:
                report = self.service.apply_delta(self.venue, delta)
            except Exception:
                self.failed_writes += 1
                continue
            self.applies.append((time.perf_counter() - t0, report))


# ----------------------------------------------------------------------
# The shard fleet
# ----------------------------------------------------------------------
class CityFleet(Workload):
    """500 small venues behind a 2-worker memory-budgeted fleet."""

    name = "city-fleet"
    n_venues = 500
    scans_per_venue = 256
    missing_rate = 0.25
    zipf_exponent = 1.1
    workers = 2
    resident_fraction = 0.4
    #: Worker-side span sampling in the traced run: every venue batch
    #: would ship a span tree per tick and starve the generator.
    trace_sample_every = 16
    low_rate = 1000.0
    high_rate = 3000.0
    ladder = (5000.0, 40000.0, 1.1)
    setup_repeats = 9
    parity_sample = 2000

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        self.fleet: Optional[ShardFleet] = None
        self.store: Optional[ArtifactStore] = None
        self._generation = 0
        self.telemetry: Optional[Telemetry] = None

    def make_inputs(self) -> None:
        rng = self.rng
        self.shards, _ = synthetic_venue_pool(
            self.n_venues, np.random.default_rng(VENUE_SEED)
        )
        self.mapping = {venue: venue for venue in self.shards}
        # Scans are noisy map rows, so each has a ground-truth RP.
        self.pools: Dict[str, np.ndarray] = {}
        self.pool_truth: Dict[str, np.ndarray] = {}
        for venue, shard in self.shards.items():
            _, _, arrays = estimator_payload(shard.estimator)
            fp, rps = arrays["fingerprints"], arrays["locations"]
            picks = rng.integers(0, len(fp), size=self.scans_per_venue)
            noisy = np.clip(
                fp[picks] + rng.normal(0.0, 3.0, size=(len(picks), fp.shape[1])),
                -95.0,
                -20.0,
            )
            self.pools[venue] = _drop_aps(noisy, self.missing_rate, rng)
            self.pool_truth[venue] = rps[picks]
        self._index_pools = {
            venue: np.arange(self.scans_per_venue, dtype=float)[:, None]
            for venue in self.pools
        }

    def _requests(self, n: int, rng: np.random.Generator) -> Requests:
        schedule = fleet_schedule(
            self._index_pools, n, rng, zipf_exponent=self.zipf_exponent
        )
        venues = [venue for venue, _ in schedule]
        picks = [int(j[0]) for _, j in schedule]
        return Requests(
            np.stack([self.pools[v][j] for v, j in zip(venues, picks)]),
            np.stack([self.pool_truth[v][j] for v, j in zip(venues, picks)]),
            venues,
        )

    def submit(self, i: int):
        req = self.req
        return self.fleet.submit_many([(req.venues[i], req.scans[i])])[0]

    def _budget_mb(self, store: ArtifactStore) -> float:
        """A budget holding ~``resident_fraction`` of the pool, sized
        from two venues' footprints (odd and even venues use different
        completions)."""
        probe = ShardRegistry(store, self.mapping)
        sizes = [sum(probe.get(v).footprint()) for v in sorted(self.mapping)[:2]]
        probe.evict_all()
        return self.resident_fraction * len(self.mapping) * float(np.mean(sizes)) / (1 << 20)

    def _start_fleet(self, telemetry: Optional[Telemetry] = None) -> float:
        t0 = time.perf_counter()
        self.fleet = ShardFleet(
            self.store,
            self.mapping,
            workers=self.workers,
            memory_budget_mb=self.budget_mb,
            telemetry=telemetry,
        ).start()
        start_s = time.perf_counter() - t0
        # Warm-up: one request per venue, so every worker has verified
        # each artifact once and later loads are memory-map re-attaches.
        venues = sorted(self.mapping)
        _wait(self.fleet.submit_many([(v, self.pools[v][0]) for v in venues]))
        return start_s

    def setup(self, traced: bool = False) -> float:
        self.close()
        start = time.perf_counter()
        self._generation += 1
        self.store = ArtifactStore(self.work_dir / f"store-{self._generation}")
        t0 = time.perf_counter()
        for venue, shard in self.shards.items():
            shard.save(self.store.path_for(venue))
        write_s = time.perf_counter() - t0
        self.budget_mb = self._budget_mb(self.store)
        start_s = self._start_fleet()
        self.setup_parts = {"store_write_s": write_s, "fleet_start_s": start_s}
        return time.perf_counter() - start

    def close(self) -> None:
        if self.fleet is not None:
            self.fleet.close()
        self.fleet = None
        if self.store is not None:
            shutil.rmtree(self.store.root, ignore_errors=True)
        self.store = None

    def trace_on(self, timer: LayerTimer) -> None:
        # Worker processes are out of reach of the benchmark's
        # wrappers, so their layer spans come from the fleet's own
        # worker-side span sampling, shipped back over the pipes: the
        # fleet restarts (same store) with a telemetry bundle.
        self.telemetry = Telemetry(
            sample_every=self.trace_sample_every, keep_remote=1 << 20
        )
        self.fleet.close()
        self._start_fleet(self.telemetry)

    def reference(self, req: Requests, rows: np.ndarray) -> np.ndarray:
        return np.stack(
            [
                self.shards[req.venues[i]].locate(req.scans[i : i + 1])[0]
                for i in rows
            ]
        )


WORKLOADS = {w.name: w for w in (MallOpen, CityFleet, KaideDrift)}
