"""Serving-throughput benchmark (``python -m repro serve-bench``).

Measures the batched online query path against the old per-query
serving pattern (one ``predict`` call per fingerprint) at batch sizes
1/64/256, at two layers:

* **estimator** — the vectorized nearest-neighbour ``predict`` versus
  a per-row loop over the same queries;
* **service** — :meth:`PositioningService.query_batch` versus a loop
  of single :meth:`PositioningService.query` calls (cache disabled),
  plus the warm-cache throughput of an identical repeated batch.

It also times **cold start** (build the shard from the raw radio map:
differentiate + fit) against **warm start** (load the same shard from
a saved artifact) — the train-once/serve-many win.  Pass
``--artifact PATH`` on the CLI to keep the shard bundle for reuse.

Two sections cover this PR's index-bound serving work:

* **fleet scale** — a synthetic log-distance radio map with
  ``int(81920 * venue_scale)`` records (32768 under the ``bench``
  preset) served through identical shards whose estimators differ only
  in ``spatial_index`` mode; reports brute/indexed throughput, their
  speedup, and the max-abs parity between the two answers (both paths
  are exact, so this must be 0).  The indexed side additionally
  serves one fully traced batch and sums the ``kernel.*`` children of
  its span tree (probe/select/bound/gemm/finish, plus the candidate
  and GEMM-row counts they carry); the stage breakdown lands in the
  result data as ``kernel_stages``.
  ``--no-spatial-index`` skips the indexed side so CI can A/B the two
  CLI runs.
* **precompute** — the kaide venue with a trained BiSIM, served once
  through the PR-5 path (encoder imputation per batch,
  :class:`EncoderCompletion`) and once through this PR's build-time
  precomputed tensor (:class:`MapCompletion`); their ratio is the
  serve-throughput speedup over the PR-5 baseline.

Timing is best-of-``rounds`` wall clock; results render as a table and
land in :attr:`ExperimentResult.data` for assertions.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from ..bisim import BiSIMConfig
from ..core import TopoACDifferentiator
from ..experiments.base import ExperimentResult
from ..experiments.config import ExperimentConfig
from ..experiments.runner import get_dataset
from ..obs import Span, Telemetry, Tracer, render_prometheus
from ..positioning import WKNNEstimator
from .completion import EncoderCompletion
from .loadgen import scan_pool
from .service import PositioningService, VenueShard

BATCH_SIZES = (1, 64, 256)

#: Fleet-scale synthetic venue dimensions; the record count scales
#: with the preset's ``venue_scale`` (32768 under ``bench``).
FLEET_RECORDS = 81920
FLEET_APS = 96

#: The spatial-index kernel's stages, as ``kernel.<stage>`` spans.
KERNEL_STAGES = ("probe", "select", "bound", "gemm", "finish")


def _best_of(fn: Callable[[], None], rounds: int) -> float:
    best = np.inf
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _kernel_stages(root: Span) -> Dict[str, float]:
    """Sum a traced batch's ``kernel.*`` spans: per-stage and total
    milliseconds, plus the candidate and GEMM-row counts in their
    meta."""
    ms = dict.fromkeys(KERNEL_STAGES, 0.0)
    counts = {"candidates": 0.0, "gemm_rows": 0.0}
    pending = [root]
    while pending:
        span = pending.pop()
        pending.extend(span.children)
        layer, _, stage = span.name.partition(".")
        if layer == "kernel":
            ms[stage] += 1e3 * span.duration
            for field, value in (span.meta or {}).items():
                counts[field] += value
    out = {f"{stage}_ms": value for stage, value in ms.items()}
    out["busy_ms"] = sum(ms.values())
    out.update(counts)
    return out


def _synthetic_fleet_map(
    n_records: int, n_aps: int, rng: np.random.Generator
):
    """A log-distance-path-loss radio map big enough to need an index."""
    side = 200.0
    aps = rng.uniform(0.0, side, size=(n_aps, 2))
    rps = rng.uniform(0.0, side, size=(n_records, 2))
    dist = np.linalg.norm(rps[:, None, :] - aps[None, :, :], axis=2)
    rssi = -30.0 - 30.0 * np.log10(np.maximum(dist, 1.0))
    rssi += rng.normal(0.0, 3.0, size=rssi.shape)
    return np.clip(rssi, -95.0, -20.0), rps


def _fleet_service(
    fingerprints: np.ndarray,
    locations: np.ndarray,
    mode: str,
    telemetry: Optional[Telemetry] = None,
) -> PositioningService:
    estimator = WKNNEstimator(spatial_index=mode).fit(
        fingerprints, locations
    )
    service = PositioningService(cache_size=0, telemetry=telemetry)
    service.register(
        VenueShard(
            "fleet",
            fingerprints.shape[1],
            estimator,
            None,
            fingerprints.mean(axis=0),
        )
    )
    return service


def _fleet_qps(
    service: PositioningService, queries: np.ndarray, rounds: int
):
    keys = ["fleet"] * len(queries)
    out = service.query_batch(keys, queries)  # warm-up + answers
    best = _best_of(
        lambda: service.query_batch(keys, queries), rounds
    )
    return len(queries) / best, out


def run(
    config: ExperimentConfig,
    *,
    rounds: int = 3,
    artifact_path: Optional[str] = None,
    spatial_index: bool = True,
    telemetry: bool = False,
) -> ExperimentResult:
    """Benchmark the serving path on the preset's kaide venue.

    ``artifact_path`` names where to keep the warm-start shard bundle;
    by default it lives in a temporary directory for the duration of
    the benchmark.  ``spatial_index=False`` skips the indexed side of
    the fleet-scale section (the brute baseline still runs), matching
    the CLI's ``--no-spatial-index``.

    ``telemetry`` (``--telemetry``) appends the observability
    section: the fleet-scale service is re-run twice, interleaved —
    once plain, once with a :class:`~repro.obs.Telemetry` attached
    (registry metrics plus span sampling at 1-in-8) — and
    the throughput delta lands in ``telemetry_overhead_pct`` (the
    acceptance bar holds it under 3%).  A fully-traced batch then
    contributes the covered span stages, a Prometheus text export and
    a JSON snapshot under the ``telemetry`` data key.
    """
    dataset = get_dataset("kaide", config)
    rng = np.random.default_rng(config.dataset_seed)
    queries = scan_pool(dataset, max(BATCH_SIZES), rng)

    # Cold start: the full offline pipeline (differentiate + fit).
    service = PositioningService(cache_size=0)
    cold_start = time.perf_counter()
    shard = service.deploy(
        "kaide",
        dataset.radio_map,
        TopoACDifferentiator(entities=dataset.venue.plan.entities),
        estimator=WKNNEstimator(),
    )
    cold_s = time.perf_counter() - cold_start

    # Warm start: the same shard booted from its saved artifact.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(artifact_path or Path(tmp) / "kaide-shard.npz")
        shard.save(path)
        warm_start = time.perf_counter()
        warm_service = PositioningService(cache_size=0)
        warm_shard = warm_service.deploy_from_artifact(path)
        warm_s = time.perf_counter() - warm_start
    warm_parity = float(
        np.abs(
            warm_shard.locate(queries) - shard.locate(queries)
        ).max()
    )

    imputed = shard.impute(queries)

    estimator_speedup: Dict[int, float] = {}
    service_speedup: Dict[int, float] = {}
    batched_throughput: Dict[int, float] = {}
    lines: List[str] = [
        f"{'batch':>6} {'loop (ms)':>10} {'batched (ms)':>13} "
        f"{'speedup':>8} {'queries/s':>10}"
    ]
    for size in BATCH_SIZES:
        q = imputed[:size]
        loop_s = _best_of(
            lambda: [shard.estimator.predict(row) for row in q], rounds
        )
        batched_s = _best_of(
            lambda: shard.estimator.predict(q, squeeze=False), rounds
        )
        estimator_speedup[size] = loop_s / batched_s

        raw = queries[:size]
        keys = ["kaide"] * size
        svc_loop_s = _best_of(
            lambda: [service.query("kaide", row) for row in raw], rounds
        )
        svc_batched_s = _best_of(
            lambda: service.query_batch(keys, raw), rounds
        )
        service_speedup[size] = svc_loop_s / svc_batched_s
        batched_throughput[size] = size / svc_batched_s
        lines.append(
            f"{size:>6} {1e3 * loop_s:>10.2f} {1e3 * batched_s:>13.2f} "
            f"{estimator_speedup[size]:>7.1f}x "
            f"{batched_throughput[size]:>10.0f}"
        )

    # Warm-cache throughput: the same batch served twice.
    cached = PositioningService(cache_size=4096)
    cached.register(shard)
    keys = ["kaide"] * max(BATCH_SIZES)
    cached.query_batch(keys, queries)
    cached_s = _best_of(lambda: cached.query_batch(keys, queries), rounds)
    warm_throughput = max(BATCH_SIZES) / cached_s
    lines.append(
        f"warm cache, batch {max(BATCH_SIZES)}: "
        f"{warm_throughput:.0f} queries/s "
        f"(hit rate {100 * cached.stats.hit_rate:.0f}%)"
    )
    lines.append(
        f"cold start (differentiate+fit): {1e3 * cold_s:.1f} ms | "
        f"warm start (load artifact): {1e3 * warm_s:.1f} ms "
        f"({cold_s / warm_s:.1f}x faster, parity {warm_parity:.1e})"
    )

    # Fleet scale: spatial-indexed KNN vs brute force on a venue big
    # enough that the O(N·D) scan dominates the serve path.
    fleet_n = int(FLEET_RECORDS * config.venue_scale)
    fleet_fp, fleet_rps = _synthetic_fleet_map(fleet_n, FLEET_APS, rng)
    picks = rng.integers(0, fleet_n, size=max(BATCH_SIZES))
    fleet_q = fleet_fp[picks] + rng.normal(
        0.0, 2.5, size=(max(BATCH_SIZES), FLEET_APS)
    )
    brute_qps, brute_out = _fleet_qps(
        _fleet_service(fleet_fp, fleet_rps, "off"), fleet_q, rounds
    )
    indexed_qps = None
    fleet_speedup = None
    fleet_parity = None
    kernel_stages: Optional[Dict[str, float]] = None
    if spatial_index:
        indexed_svc = _fleet_service(fleet_fp, fleet_rps, "on")
        indexed_qps, indexed_out = _fleet_qps(
            indexed_svc, fleet_q, max(rounds, 3)
        )
        fleet_speedup = indexed_qps / brute_qps
        fleet_parity = float(np.abs(indexed_out - brute_out).max())

        # Stage attribution: one fully traced batch (the kernel times
        # its stages only under an active span, so the timed rounds
        # above paid nothing for it).
        with Tracer(sample_every=1).trace("kernel-stages") as root:
            indexed_svc.query_batch(["fleet"] * len(fleet_q), fleet_q)
        kernel_stages = _kernel_stages(root)
        lines.append(
            f"fleet scale (N={fleet_n}, D={FLEET_APS}, batch "
            f"{max(BATCH_SIZES)}): brute {brute_qps:.0f} q/s | "
            f"indexed {indexed_qps:.0f} q/s "
            f"({fleet_speedup:.1f}x, parity {fleet_parity:.1e})"
        )
        lines.append(
            "kernel stages (ms): "
            f"probe {kernel_stages['probe_ms']:.1f} | "
            f"select {kernel_stages['select_ms']:.1f} | "
            f"bound {kernel_stages['bound_ms']:.1f} | "
            f"gemm {kernel_stages['gemm_ms']:.1f} | "
            f"finish {kernel_stages['finish_ms']:.1f}; "
            f"candidates {kernel_stages['candidates']:.0f}, "
            f"gemm rows {kernel_stages['gemm_rows']:.0f}"
        )
    else:
        lines.append(
            f"fleet scale (N={fleet_n}, D={FLEET_APS}, batch "
            f"{max(BATCH_SIZES)}): brute {brute_qps:.0f} q/s "
            "(spatial index disabled)"
        )

    # Precompute: the PR-5 serve path ran the BiSIM encoder on every
    # batch; the precomputed-tensor path never touches the encoder.
    bisim_shard = VenueShard.build(
        "kaide-bisim",
        dataset.radio_map,
        TopoACDifferentiator(entities=dataset.venue.plan.entities),
        bisim_config=BiSIMConfig(
            hidden_size=config.hidden_size,
            epochs=min(config.epochs, 8),
        ),
    )
    legacy_shard = VenueShard(
        "kaide-bisim",
        bisim_shard.n_aps,
        bisim_shard.estimator,
        bisim_shard.online_imputer,
        bisim_shard.fill_values,
        EncoderCompletion(bisim_shard.online_imputer),
    )
    keys = ["kaide-bisim"] * max(BATCH_SIZES)
    before_svc = PositioningService(cache_size=0)
    before_svc.register(legacy_shard)
    before_svc.query_batch(keys, queries)
    before_s = _best_of(
        lambda: before_svc.query_batch(keys, queries), rounds
    )
    after_svc = PositioningService(cache_size=0)
    after_svc.register(bisim_shard)
    after_svc.query_batch(keys, queries)
    after_s = _best_of(
        lambda: after_svc.query_batch(keys, queries), rounds
    )
    before_qps = max(BATCH_SIZES) / before_s
    after_qps = max(BATCH_SIZES) / after_s
    precompute_speedup = after_qps / before_qps
    lines.append(
        f"precompute (kaide BiSIM, batch {max(BATCH_SIZES)}): "
        f"encoder {before_qps:.0f} q/s | precomputed "
        f"{after_qps:.0f} q/s ({precompute_speedup:.1f}x vs PR-5 path)"
    )

    # Observability: what does carrying the telemetry layer cost, and
    # does a traced request cover every kernel stage?
    telemetry_overhead_pct = None
    telemetry_data = None
    if telemetry:
        fleet_mode = "on" if spatial_index else "off"
        plain_svc = _fleet_service(fleet_fp, fleet_rps, fleet_mode)
        instr_svc = _fleet_service(
            fleet_fp,
            fleet_rps,
            fleet_mode,
            telemetry=Telemetry(sample_every=8),
        )
        fleet_keys = ["fleet"] * len(fleet_q)
        plain_svc.query_batch(fleet_keys, fleet_q)  # warm-up
        instr_svc.query_batch(fleet_keys, fleet_q)
        plain_s = instr_s = np.inf
        # Interleaved best-of, so both see the same thermal/turbo
        # conditions.
        for _ in range(max(rounds, 5)):
            start = time.perf_counter()
            plain_svc.query_batch(fleet_keys, fleet_q)
            plain_s = min(plain_s, time.perf_counter() - start)
            start = time.perf_counter()
            instr_svc.query_batch(fleet_keys, fleet_q)
            instr_s = min(instr_s, time.perf_counter() - start)
        telemetry_overhead_pct = 1e2 * (instr_s - plain_s) / plain_s

        # Span coverage: one fully-traced batch (sample_every=1)
        # must reach every kernel stage.
        smoke_tel = Telemetry(sample_every=1)
        smoke_svc = _fleet_service(
            fleet_fp,
            fleet_rps,
            fleet_mode,
            telemetry=smoke_tel,
        )
        smoke_svc.query_batch(fleet_keys, fleet_q)
        span_stages: set = set()
        for root in smoke_tel.tracer.traces():
            span_stages |= root.stage_names()
        snapshot = smoke_tel.snapshot()
        telemetry_data = {
            "overhead_pct": telemetry_overhead_pct,
            "span_stages": sorted(span_stages),
            "prometheus": render_prometheus(snapshot),
            "snapshot": snapshot,
        }
        lines.append(
            f"telemetry: plain {len(fleet_q) / plain_s:.0f} q/s | "
            f"instrumented {len(fleet_q) / instr_s:.0f} q/s "
            f"({telemetry_overhead_pct:+.2f}% overhead) | "
            f"{len(span_stages)} span stages covered"
        )

    return ExperimentResult(
        experiment_id="Serving bench",
        rendered="\n".join(lines),
        data={
            "batch_sizes": list(BATCH_SIZES),
            "estimator_speedup": estimator_speedup,
            "service_speedup": service_speedup,
            "batched_throughput": batched_throughput,
            "warm_cache_throughput": warm_throughput,
            "cold_start_seconds": cold_s,
            "warm_start_seconds": warm_s,
            "warm_start_speedup": cold_s / warm_s,
            "warm_start_parity": warm_parity,
            "fleet_records": fleet_n,
            "fleet_aps": FLEET_APS,
            "fleet_brute_throughput": brute_qps,
            "fleet_indexed_throughput": indexed_qps,
            "fleet_throughput": (
                indexed_qps if spatial_index else brute_qps
            ),
            "fleet_speedup": fleet_speedup,
            "fleet_parity": fleet_parity,
            "kernel_stages": kernel_stages,
            "bisim_before_throughput": before_qps,
            "bisim_after_throughput": after_qps,
            "precompute_speedup": precompute_speedup,
            "telemetry_overhead_pct": telemetry_overhead_pct,
            "telemetry": telemetry_data,
        },
    )
