"""Concurrent-workload generator and latency harness
(``python -m repro load-test``).

Replays configurable scenario mixes against a deployed
:class:`~repro.serving.PositioningService` through the micro-batching
:class:`~repro.serving.ServingPipeline`, from many worker threads,
and reports per-request latency percentiles (p50/p95/p99) plus
aggregate throughput — the serving numbers that matter under real
traffic, which a single-caller benchmark cannot measure.

A :class:`Scenario` controls the traffic shape along the axes the
paper's serving regime cares about:

* **venue skew** — workers pick a venue per burst from a Zipf
  distribution over the deployed venues (``zipf_exponent=0`` is
  uniform), so hot venues dominate like real mall traffic;
* **device re-scans** — with probability ``duplicate_rate`` a worker
  repeats its previous scan exactly (phones re-scan several times per
  second while stationary), which the service should answer from its
  quantized-fingerprint cache;
* **arrival pattern** — ``"burst"`` workers submit ``burst_size``
  scans back to back then collect the results (a device gateway
  draining a scan buffer); ``"steady"`` workers wait for each answer
  before sending the next (closed-loop, one outstanding request).

Venues may differ in AP count — each worker burst targets one venue,
so mixed-AP-count deployments exercise the per-venue routing.

Every worker's whole request schedule (venues, scan indices,
duplicate flags) is pre-generated before the clock starts, so the
measured window contains only submit → serve → collect work.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import TopoACDifferentiator
from ..datasets import Dataset
from ..exceptions import ServingError
from ..experiments.base import ExperimentResult
from ..experiments.config import ExperimentConfig
from ..experiments.runner import get_dataset
from ..obs import Telemetry, histogram_percentiles_ms, percentiles_ms
from ..positioning import WKNNEstimator
from .completion import MapCompletion
from .pipeline import ServingPipeline, Ticket
from .service import PositioningService, VenueShard

#: Venues the CLI stage deploys (mixed AP counts: WiFi + Bluetooth).
LOAD_VENUES = ("kaide", "longhu")


@dataclass(frozen=True)
class Scenario:
    """One traffic shape for the load generator.

    ``drift_applies`` turns the scenario into a *drift* workload: that
    many ingestion deltas are hot-applied to a venue while the query
    traffic runs (see :func:`run_scenario`'s ``drift_fn``), exercising
    the epoch/atomic-swap machinery and targeted cache invalidation
    under fire.
    """

    name: str
    duplicate_rate: float = 0.0
    zipf_exponent: float = 0.0
    arrival: str = "burst"
    burst_size: int = 32
    drift_applies: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.duplicate_rate <= 1.0:
            raise ServingError("duplicate_rate must be in [0, 1]")
        if self.zipf_exponent < 0:
            raise ServingError("zipf_exponent must be >= 0")
        if self.arrival not in ("burst", "steady"):
            raise ServingError("arrival must be 'burst' or 'steady'")
        if self.burst_size < 1:
            raise ServingError("burst_size must be >= 1")
        if self.drift_applies < 0:
            raise ServingError("drift_applies must be >= 0")


#: The default scenario: skewed venues, device re-scans, gateway
#: bursts — the mix the acceptance throughput bar is measured on.
DEFAULT_SCENARIO = Scenario(
    "default",
    duplicate_rate=0.5,
    zipf_exponent=1.1,
    arrival="burst",
    burst_size=64,
)

#: Signal drift under traffic: crowdsourced survey deltas hot-apply
#: to a live venue while skewed re-scan-heavy queries keep coming.
#: Opt-in via ``load-test --drift`` (it mutates the deployed shards).
DRIFT_SCENARIO = Scenario(
    "drift",
    duplicate_rate=0.3,
    zipf_exponent=1.1,
    arrival="burst",
    burst_size=32,
    drift_applies=4,
)

#: The CLI's default scenario mix.
DEFAULT_MIX: Tuple[Scenario, ...] = (
    DEFAULT_SCENARIO,
    Scenario("steady-uniform", arrival="steady"),
    Scenario(
        "zipf-burst",
        zipf_exponent=1.4,
        arrival="burst",
        burst_size=32,
        duplicate_rate=0.2,
    ),
    Scenario(
        "rescan-heavy",
        duplicate_rate=0.8,
        arrival="burst",
        burst_size=32,
    ),
)


def zipf_weights(n: int, exponent: float) -> np.ndarray:
    """Normalised Zipf rank weights (exponent 0 → uniform)."""
    if n < 1:
        raise ServingError("need at least one venue")
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks ** -float(exponent)
    return weights / weights.sum()


def scan_pool(
    dataset: Dataset, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Simulate ``n`` raw device scans across the venue's RPs."""
    rps = dataset.venue.reference_points
    picks = rng.integers(0, len(rps), size=n)
    return np.stack(
        [dataset.channel.measure(rps[i], rng).rssi for i in picks]
    )


def synthetic_venue_pool(
    n_venues: int,
    rng: np.random.Generator,
    *,
    n_records: int = 96,
    n_aps: int = 24,
    scans_per_venue: int = 32,
    missing_rate: float = 0.25,
    floors_per_venue: int = 1,
) -> Tuple[Dict[str, VenueShard], Dict[str, np.ndarray]]:
    """A city-scale venue pool: ``n_venues`` small shards + scan pools.

    Each venue is an independent log-distance-path-loss radio map
    (its own AP layout), fitted with a
    :class:`~repro.positioning.WKNNEstimator`, whose exact neighbour
    search does not depend on batch composition, so a fleet worker
    answering a venue's requests as one per-tick batch returns
    **bit-identical** locations to a single-process service answering
    them one at a time.  Alternate venues complete queries against a
    precomputed :class:`~repro.serving.MapCompletion` tensor (the
    memory-mapped artifact path) vs plain per-AP mean fill, so a fleet
    over the pool exercises both completion strategies.

    Scan pools carry NaN holes at ``missing_rate`` to exercise the
    completion step.  Returns ``(shards, pools)`` keyed by venue name;
    save the shards into an :class:`~repro.artifacts.ArtifactStore`
    to serve them through a lazy
    :class:`~repro.serving.ShardRegistry`.

    ``floors_per_venue > 1`` turns every venue into a stack: keys
    become ``"venue-0000/f1"``, ``"venue-0000/f2"``, … with an
    independent shard per floor.  All floors of a venue hash to the
    same fleet worker (:func:`~repro.serving.partition_venue` hashes
    the venue component), so the fleet benchmarks can measure
    co-located stacked-venue traffic without any other change.
    """
    if n_venues < 1:
        raise ServingError("need at least one venue")
    if floors_per_venue < 1:
        raise ServingError("need at least one floor per venue")
    side = 150.0
    shards: Dict[str, VenueShard] = {}
    pools: Dict[str, np.ndarray] = {}
    for i in range(n_venues):
        for j in range(floors_per_venue):
            venue = f"venue-{i:04d}"
            if floors_per_venue > 1:
                venue = f"{venue}/f{j + 1}"
            aps = rng.uniform(0.0, side, size=(n_aps, 2))
            rps = rng.uniform(0.0, side, size=(n_records, 2))
            dist = np.linalg.norm(
                rps[:, None, :] - aps[None, :, :], axis=2
            )
            rssi = -30.0 - 30.0 * np.log10(np.maximum(dist, 1.0))
            rssi += rng.normal(0.0, 3.0, size=rssi.shape)
            fp = np.clip(rssi, -95.0, -20.0)
            estimator = WKNNEstimator().fit(fp, rps)
            fill_values = fp.mean(axis=0)
            completion = (
                MapCompletion(fp, fill_values) if i % 2 else None
            )
            shards[venue] = VenueShard(
                venue, n_aps, estimator, None, fill_values, completion
            )
            scan_rps = rps[
                rng.integers(0, n_records, size=scans_per_venue)
            ]
            sdist = np.linalg.norm(
                scan_rps[:, None, :] - aps[None, :, :], axis=2
            )
            scans = np.clip(
                -30.0
                - 30.0 * np.log10(np.maximum(sdist, 1.0))
                + rng.normal(0.0, 3.0, size=sdist.shape),
                -95.0,
                -20.0,
            )
            scans[rng.random(scans.shape) < missing_rate] = np.nan
            pools[venue] = scans
    return shards, pools


def fleet_schedule(
    pools: Dict[str, np.ndarray],
    requests: int,
    rng: np.random.Generator,
    *,
    zipf_exponent: float = 1.1,
) -> List[Tuple[str, np.ndarray]]:
    """A flat Zipf-skewed request stream over the whole venue pool.

    Unlike :func:`_make_schedule` (per-thread device bursts against a
    handful of venues), this draws the venue **per request** from a
    Zipf distribution over all of ``pools`` — hundreds of venues — so
    replaying it against a memory-budgeted fleet produces the real
    mix: a hot head that stays resident and batches well, and a long
    cold tail that forces lazy loads and evictions.  Pre-generated so
    the measured window is submit → serve → collect only.
    """
    if requests < 1:
        raise ServingError("need at least one request")
    venues = sorted(pools)
    weights = zipf_weights(len(venues), zipf_exponent)
    venue_picks = rng.choice(len(venues), size=requests, p=weights)
    schedule: List[Tuple[str, np.ndarray]] = []
    for vi in venue_picks:
        venue = venues[vi]
        pool = pools[venue]
        schedule.append(
            (venue, pool[int(rng.integers(0, len(pool)))])
        )
    return schedule


@dataclass
class LoadReport:
    """Latency/throughput summary of one scenario run."""

    scenario: Scenario
    threads: int
    requests: int
    errors: int
    elapsed: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_ms: float
    max_ms: float
    hit_rate: float
    per_venue: Dict[str, int] = field(default_factory=dict)
    applies: int = 0
    apply_mean_ms: float = 0.0

    @property
    def throughput(self) -> float:
        return self.requests / self.elapsed if self.elapsed > 0 else 0.0

    def render(self) -> str:
        venues = " ".join(
            f"{v}:{c}" for v, c in sorted(self.per_venue.items())
        )
        drift = (
            f" applies={self.applies}@{self.apply_mean_ms:.1f}ms"
            if self.applies
            else ""
        )
        return (
            f"{self.scenario.name:>14} {self.threads:>3}thr "
            f"{self.requests:>6}req "
            f"p50={1e3 * self.p50_ms:.0f}us "
            f"p95={1e3 * self.p95_ms:.0f}us "
            f"p99={1e3 * self.p99_ms:.0f}us "
            f"{self.throughput:>8.0f}/s "
            f"hits={100 * self.hit_rate:.0f}% "
            f"errors={self.errors}{drift} [{venues}]"
        )


def _make_schedule(
    pools: Dict[str, np.ndarray],
    scenario: Scenario,
    requests: int,
    rng: np.random.Generator,
) -> List[Tuple[str, np.ndarray]]:
    """Pre-generate one worker's bursts: ``[(venue, (B, D) scans)]``.

    Each burst models one device in one venue; rows repeat the
    previous scan with probability ``duplicate_rate`` (exact repeats,
    so they land on the same quantized cache key).
    """
    venues = sorted(pools)
    weights = zipf_weights(len(venues), scenario.zipf_exponent)
    burst = scenario.burst_size if scenario.arrival == "burst" else 1
    schedule: List[Tuple[str, np.ndarray]] = []
    remaining = requests
    while remaining > 0:
        size = min(burst, remaining)
        remaining -= size
        venue = venues[rng.choice(len(venues), p=weights)]
        pool = pools[venue]
        picks = rng.integers(0, len(pool), size=size)
        dup = rng.random(size) < scenario.duplicate_rate
        dup[0] = False
        for i in range(1, size):
            if dup[i]:
                picks[i] = picks[i - 1]
        schedule.append((venue, pool[picks]))
    return schedule


def run_scenario(
    pipeline: ServingPipeline,
    pools: Dict[str, np.ndarray],
    scenario: Scenario,
    *,
    threads: int = 8,
    requests_per_thread: int = 256,
    seed: int = 0,
    timeout: float = 60.0,
    drift_fn: Optional[Callable[[], object]] = None,
    drift_interval: float = 0.01,
) -> LoadReport:
    """Replay one scenario from ``threads`` workers; measure latency.

    Per-request latency is ``ticket.done_at - submit time`` (the
    flusher stamps completion), so collecting a burst's results in
    order does not inflate later rows' latencies.

    When the scenario carries ``drift_applies > 0`` and a ``drift_fn``
    is given, a driver thread invokes it that many times during the
    run (``drift_interval`` seconds apart) — each call is expected to
    hot-apply one ingestion delta — and the report records the
    successful apply count and mean apply latency; a call that raises
    counts into the report's ``errors`` instead of dying silently.
    """
    if threads < 1:
        raise ServingError("need at least one worker thread")
    schedules = [
        _make_schedule(
            pools,
            scenario,
            requests_per_thread,
            np.random.default_rng(seed * 7919 + wid),
        )
        for wid in range(threads)
    ]
    latencies: List[np.ndarray] = [np.empty(0)] * threads
    errors = [0] * threads
    start_gate = threading.Event()

    def worker(wid: int) -> None:
        lats: List[float] = []
        fails = 0
        start_gate.wait()
        for venue, scans in schedules[wid]:
            if scenario.arrival == "steady":
                for row in scans:
                    t0 = time.perf_counter()
                    try:
                        ticket = pipeline.submit(venue, row)
                        ticket.result(timeout)
                    except Exception:
                        fails += 1
                        continue
                    lats.append(ticket.done_at - t0)
            else:
                t0 = time.perf_counter()
                try:
                    tickets: List[Ticket] = pipeline.submit_many(
                        venue, scans
                    )
                except Exception:
                    fails += len(scans)
                    continue
                for ticket in tickets:
                    try:
                        ticket.result(timeout)
                    except Exception:
                        fails += 1
                        continue
                    lats.append(ticket.done_at - t0)
        latencies[wid] = np.asarray(lats)
        errors[wid] = fails

    apply_seconds: List[float] = []
    apply_errors = [0]

    def drift_driver() -> None:
        start_gate.wait()
        for _ in range(scenario.drift_applies):
            t0 = time.perf_counter()
            try:
                drift_fn()
            except Exception:
                # A failed apply must not kill the driver silently —
                # the remaining applies still run and the failure
                # shows up in the report's error count.
                apply_errors[0] += 1
            else:
                apply_seconds.append(time.perf_counter() - t0)
            time.sleep(drift_interval)

    pool_threads = [
        threading.Thread(target=worker, args=(wid,), daemon=True)
        for wid in range(threads)
    ]
    if scenario.drift_applies and drift_fn is not None:
        pool_threads.append(
            threading.Thread(target=drift_driver, daemon=True)
        )
    stats0 = pipeline.service.stats
    hits0 = stats0.cache_hits
    misses0 = stats0.cache_misses
    for t in pool_threads:
        t.start()
    t_start = time.perf_counter()
    start_gate.set()
    for t in pool_threads:
        t.join()
    elapsed = time.perf_counter() - t_start

    stats1 = pipeline.service.stats
    d_hits = stats1.cache_hits - hits0
    d_total = d_hits + stats1.cache_misses - misses0
    lat = (
        np.concatenate([l for l in latencies if len(l)])
        if any(len(l) for l in latencies)
        else np.zeros(1)
    )
    lat_ms = 1e3 * lat
    served = int(sum(len(l) for l in latencies))
    per_venue: Dict[str, int] = {}
    for schedule in schedules:
        for venue, scans in schedule:
            per_venue[venue] = per_venue.get(venue, 0) + len(scans)
    pct = percentiles_ms(lat)
    return LoadReport(
        scenario=scenario,
        threads=threads,
        requests=served,
        errors=int(sum(errors)) + apply_errors[0],
        elapsed=elapsed,
        p50_ms=pct["p50_ms"],
        p95_ms=pct["p95_ms"],
        p99_ms=pct["p99_ms"],
        mean_ms=float(lat_ms.mean()),
        max_ms=float(lat_ms.max()),
        hit_rate=d_hits / d_total if d_total else 0.0,
        per_venue=per_venue,
        applies=len(apply_seconds),
        apply_mean_ms=(
            1e3 * float(np.mean(apply_seconds)) if apply_seconds else 0.0
        ),
    )


def _baseline_throughput(
    shards, pool: np.ndarray, *, batch: int = 256, rounds: int = 3
) -> float:
    """Single-caller ``query_batch`` throughput at ``batch`` rows —
    the serve-bench number the pipeline is measured against (cache
    disabled, same shards)."""
    service = PositioningService(cache_size=0)
    for shard in shards:
        service.register(shard)
    venue = shards[0].key
    queries = pool[:batch]
    keys = [venue] * len(queries)
    best = np.inf
    for _ in range(rounds):
        t0 = time.perf_counter()
        service.query_batch(keys, queries)
        best = min(best, time.perf_counter() - t0)
    return len(queries) / best


def _make_drift_fn(
    service: PositioningService,
    venue: str,
    dataset: Dataset,
    applies: int,
    seed: int,
) -> Callable[[], object]:
    """Pre-build ``applies`` one-path ingestion deltas for a venue.

    All survey simulation happens here, before any clock starts; the
    returned closure pops the next delta and hot-applies it, so the
    measured drift window contains only apply work (and no-ops
    gracefully if called more often than deltas were prepared).
    """
    from ..ingest import StreamIngestor, simulate_new_survey

    tables = []
    round_ = 0
    while len(tables) < applies:
        tables.extend(
            simulate_new_survey(dataset, n_passes=1, seed=seed + round_)
        )
        round_ += 1
    next_id = int(dataset.radio_map.path_ids.max()) + 1
    deltas = []
    ingestor = StreamIngestor(dataset.radio_map.n_aps)
    for i, table in enumerate(tables[:applies]):
        table.path_id = next_id + i  # unique across rounds
        ingestor.ingest_table(table)
        deltas.append(ingestor.drain())
    lock = threading.Lock()

    def drift_fn():
        with lock:
            if not deltas:
                return None
            delta = deltas.pop(0)
        return service.apply_delta(venue, delta)

    return drift_fn


def run(
    config: ExperimentConfig,
    *,
    threads: int = 8,
    requests_per_thread: int = 1024,
    max_batch: int = 256,
    max_delay_ms: float = 0.0,
    duplicate_rate: Optional[float] = None,
    scenarios: Optional[Sequence[Scenario]] = None,
    venues: Sequence[str] = LOAD_VENUES,
    cache_size: int = 4096,
    pool_size: int = 512,
    warmup_per_thread: Optional[int] = None,
    seed: Optional[int] = None,
    include_drift: bool = False,
    telemetry: Optional[Telemetry] = None,
) -> ExperimentResult:
    """Deploy the preset's venues and replay a scenario mix.

    ``duplicate_rate`` overrides every scenario's re-scan rate (the
    acceptance check re-runs with 0.5 and expects cache hits); other
    knobs mirror the CLI flags.  Returns per-scenario latency
    percentiles and throughput, plus the single-caller batch-256
    baseline for comparison.

    ``seed`` drives *every* random choice downstream — scan pools,
    each worker's schedule (venue picks, scan indices, duplicate
    flags, burst arrivals), and the drift deltas — so two runs with
    the same seed replay identical request streams
    (``--seed`` on the CLI; defaults to the preset's dataset seed).

    ``include_drift`` appends the :data:`DRIFT_SCENARIO`: ingestion
    deltas hot-apply to the first venue while its query traffic runs.

    ``telemetry`` attaches an :class:`~repro.obs.Telemetry` bundle to
    the deployed service: request spans sample through the pipeline,
    and the returned data gains ``live_histogram`` — p50/p95/p99 read
    from the server-side ``pipeline.request_seconds`` histogram over
    the whole run, the live counterpart of the loadgen-computed
    percentiles (the two agree within one histogram bucket width).

    Each scenario is preceded by an untimed warm-up slice
    (``warmup_per_thread`` requests per worker, default half the
    timed count) so the timed window measures steady-state serving —
    warm cache, hot code paths — the same way the single-caller
    baseline takes the best of several rounds over one batch.
    """
    if len(venues) < 2:
        raise ServingError("load-test needs >= 2 venues")
    base_seed = config.dataset_seed if seed is None else int(seed)
    service = PositioningService(
        cache_size=cache_size, telemetry=telemetry
    )
    pools: Dict[str, np.ndarray] = {}
    rng = np.random.default_rng(base_seed)
    for venue in venues:
        dataset = get_dataset(venue, config)
        service.deploy(
            venue,
            dataset.radio_map,
            TopoACDifferentiator(entities=dataset.venue.plan.entities),
            estimator=WKNNEstimator(),
        )
        pools[venue] = scan_pool(dataset, pool_size, rng)

    baseline = _baseline_throughput(
        [service.shard(v) for v in venues], pools[venues[0]]
    )

    mix = list(scenarios if scenarios is not None else DEFAULT_MIX)
    if include_drift:
        mix.append(DRIFT_SCENARIO)
    if duplicate_rate is not None:
        mix = [replace(s, duplicate_rate=duplicate_rate) for s in mix]

    total_applies = sum(s.drift_applies for s in mix)
    drift_fn = None
    if total_applies:
        drift_fn = _make_drift_fn(
            service,
            venues[0],
            get_dataset(venues[0], config),
            total_applies,
            base_seed + 9000,
        )

    reports: List[LoadReport] = []
    lines: List[str] = [
        f"venues: {', '.join(sorted(pools))} | {threads} threads x "
        f"{requests_per_thread} requests | micro-batch <= {max_batch} "
        f"rows, flush after {max_delay_ms}ms | seed {base_seed}"
    ]
    if warmup_per_thread is None:
        warmup_per_thread = max(1, requests_per_thread // 2)
    with ServingPipeline(
        service, max_batch=max_batch, max_delay_ms=max_delay_ms
    ) as pipeline:
        for i, scenario in enumerate(mix):
            if warmup_per_thread:
                run_scenario(  # untimed warm-up slice, no drift
                    pipeline,
                    pools,
                    scenario,
                    threads=threads,
                    requests_per_thread=warmup_per_thread,
                    seed=base_seed + 5000 + i,
                )
            report = run_scenario(
                pipeline,
                pools,
                scenario,
                threads=threads,
                requests_per_thread=requests_per_thread,
                seed=base_seed,
                drift_fn=drift_fn if scenario.drift_applies else None,
            )
            reports.append(report)
            lines.append(report.render())
    lines.append(pipeline.stats.render())

    default = reports[0]
    ratio = (
        default.throughput / baseline if baseline > 0 else float("inf")
    )
    lines.append(
        f"default scenario: {default.throughput:.0f}/s vs "
        f"single-caller batch-256 {baseline:.0f}/s ({ratio:.2f}x)"
    )

    live_pct = None
    if telemetry is not None:
        live_pct = histogram_percentiles_ms(
            telemetry.metrics.histogram("pipeline.request_seconds")
        )
        lines.append(
            f"live histogram (all scenarios): "
            f"p50={live_pct['p50_ms']:.2f}ms "
            f"p95={live_pct['p95_ms']:.2f}ms "
            f"p99={live_pct['p99_ms']:.2f}ms | "
            f"{len(telemetry.spans())} spans retained"
        )

    return ExperimentResult(
        experiment_id="Load test",
        rendered="\n".join(lines),
        data={
            "scenarios": {
                r.scenario.name: {
                    "requests": r.requests,
                    "errors": r.errors,
                    "p50_ms": r.p50_ms,
                    "p95_ms": r.p95_ms,
                    "p99_ms": r.p99_ms,
                    "throughput": r.throughput,
                    "hit_rate": r.hit_rate,
                    "applies": r.applies,
                    "apply_mean_ms": r.apply_mean_ms,
                }
                for r in reports
            },
            "baseline_throughput": baseline,
            "default_throughput": default.throughput,
            "default_vs_baseline": ratio,
            "threads": threads,
            "seed": base_seed,
            "deltas_applied": service.stats.deltas_applied,
            "fast_path_hits": pipeline.stats.fast_path_hits,
            "mean_batch": pipeline.stats.mean_batch,
            **(
                {"live_histogram": live_pct}
                if live_pct is not None
                else {}
            ),
        },
    )
