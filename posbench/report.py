"""Run one workload and report its metrics.

:func:`run_workload` sequences set-up, the open-loop phases and the
correctness checks, then prints every metric with its unit and, as
the last line, the JSON result.  End-to-end metrics come from the
untraced run; per-layer metrics (see :func:`pipeline_layers` and
:func:`fleet_layers`) from the traced one.
"""

from __future__ import annotations

import gc
import json
import math
import statistics
import sys
from typing import Dict, List, Optional, Tuple

import numpy as np

import machine
from layers import LayerTimer
from openloop import (
    BEYOND,
    SLO_PERCENTILE,
    PhaseResult,
    drive,
    find_capacity,
    lag_valid,
    percentile,
    poisson_offsets,
    rate_ladder,
    unattributed_share,
    windowed_percentile,
)
from workloads import CityFleet, KaideDrift, Requests, Workload

from repro.metrics import average_positioning_error

Metrics = Dict[str, Tuple[float, str]]

#: A positioning answer set must beat always guessing the centroid of
#: the true locations by this factor (kaide's APE sits near 0.5 of it).
APE_CEILING = 0.7
#: Exit codes besides 0 (ok).
EXIT_INCORRECT = 1
EXIT_INVALID = 3


def run_phase(
    w: Workload,
    rate: float,
    seconds: float,
    rng: np.random.Generator,
    *,
    abort_on_slo: bool = False,
) -> Tuple[PhaseResult, Requests]:
    """One open-loop phase at ``rate``; inputs are made before it and
    the CPU of the served system is read around it."""
    offsets = poisson_offsets(rate, seconds, rng)
    req = w.prepare(len(offsets), rng)
    # Long-lived set-up objects leave the collector's view, so a
    # full collection during the phase scans only what it allocates.
    gc.collect()
    gc.freeze()
    cpu0 = machine.cpu_seconds()
    w.begin_phase()
    try:
        result = drive(w.submit, offsets, rate=rate, abort_on_slo=abort_on_slo)
    finally:
        w.end_phase()
    result.cpu_s = machine.cpu_seconds() - cpu0
    return result, req


def mean_latency_s(result: PhaseResult) -> float:
    return float(result.latency_s[~result.failed].mean())


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def answers(result: PhaseResult) -> np.ndarray:
    out = np.full((result.sent, 2), np.nan)
    for i, ticket in enumerate(result.tickets):
        if not result.failed[i]:
            out[i] = ticket.value
    return out


def served_answers(
    result: PhaseResult, req: Requests
) -> Tuple[np.ndarray, np.ndarray]:
    """``(answers, ground truth)`` of the requests a phase served."""
    served = ~result.failed
    return answers(result)[served], req.truth[: result.sent][served]


def check(
    w: Workload,
    answered: List[Tuple[np.ndarray, np.ndarray]],
    parity_phase: Tuple[PhaseResult, Requests],
) -> Dict[str, float]:
    """APE of the :func:`served_answers` pairs against ground truth,
    and parity of ``parity_phase`` against batch-of-1 answers, both
    computed after the timed phases."""
    est_all = np.concatenate([est for est, _ in answered])
    truth_all = np.concatenate([truth for _, truth in answered])
    ape = average_positioning_error(est_all, truth_all)
    # A guess at the centroid of the truth is the floor any fix beats.
    centroid_ape = float(
        np.linalg.norm(truth_all - truth_all.mean(axis=0), axis=1).mean()
    )
    out = {"ape_m": ape, "centroid_ape_m": centroid_ape}
    if w.parity_sample:
        result, req = parity_phase
        served = np.flatnonzero(~result.failed)
        rng = np.random.default_rng(w.seed + 7)
        rows = rng.choice(
            served, size=min(w.parity_sample, served.size), replace=False
        )
        ref = w.reference(req, rows)
        got = answers(result)[rows]
        out["mismatch_share"] = float(
            np.mean(~np.all(ref == got, axis=1))
        )
    return out


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
PER_LAYER_UNITS = {
    "loadgen.lag_ms.p99": "ms",
    "pipeline.submit_us.p50": "us",
    "pipeline.batch_rows.mean": "rows",
    "pipeline.wait_ms.p50": "ms",
    "pipeline.wait_ms.p99": "ms",
    "service.cache_hit_share": "share",
    "service.try_cached_us.p50": "us",
    "shard.locate_ms.p50": "ms",
    "completion.us_per_row": "us",
    "completion.ms_per_batch.p50": "ms",
    "completion.partial_share": "share",
    "estimate.us_per_row": "us",
    "estimate.ms_per_batch.p50": "ms",
    "index.query.us_per_row": "us",
    "fleet.submit_us.p50": "us",
    "fleet.rows_per_tick.mean": "rows",
    "fleet.worker_util.max": "share",
    "fleet.imbalance": "ratio",
    "registry.loads_per_1k": "count/1k",
    "registry.fast_reloads_per_1k": "count/1k",
    "registry.evictions_per_1k": "count/1k",
    "registry.load_ms.mean": "ms",
    "ingest.apply_ms.p50": "ms",
    "ingest.apply_ms.p99": "ms",
    "ingest.keys_invalidated": "count",
    "setup.differentiate_s": "s",
    "setup.bisim_fit_s": "s",
    "setup.estimator_fit_s": "s",
    "setup.store_write_s": "s",
    "setup.fleet_start_s": "s",
    "trace.unattributed_share": "share",
    "trace.overhead_share": "share",
}


def _median(values) -> float:
    arr = np.asarray(values, dtype=float)
    return float(np.median(arr)) if arr.size else 0.0


def _p99(values) -> float:
    """p99 under the ten-beyond rule; the median when too few samples
    support even that (fewer than 20)."""
    if len(values) < 2 * BEYOND:
        return _median(values)
    return percentile(values, 99)[0]


def pipeline_layers(
    w: Workload, timer: LayerTimer, result: PhaseResult, hits: float
) -> Tuple[Dict[str, float], float]:
    """Layer metrics of a pipeline-served phase, plus the mean
    per-request time the layers account for (seconds).

    Each request is matched to the ``VenueShard.locate`` call of the
    batch that answered it: the last call to end before the request's
    ticket resolved, provided it started after the request was
    submitted.  Requests answered from the cache at submit time have
    no batch.
    """
    served = ~result.failed
    submit_end = result.intended + result.lag_s + result.submit_s
    at_submit = served & (result.done_at <= submit_end)
    batched = served & ~at_submit
    spans = np.asarray(timer.spans.get("shard.locate", []), dtype=float)
    spans = spans.reshape(-1, 3)
    spans = spans[np.argsort(spans[:, 1])]
    starts, ends = spans[:, 0], spans[:, 1]
    done_at = result.done_at[batched]
    j = np.searchsorted(ends, done_at, side="right") - 1
    matched = j >= 0
    matched[matched] = starts[j[matched]] >= submit_end[batched][matched]
    # Unmatched requests (served by a cache probe in the flusher) get
    # a zero-length "batch" ending when their ticket resolved.
    batch_start = np.where(matched, starts[j] if starts.size else 0.0, done_at)
    batch_end = np.where(matched, ends[j] if ends.size else 0.0, done_at)
    wait_ms = 1e3 * (result.latency_s[batched] - (batch_end - batch_start))
    # Accounted-for time: lag + submit for every request, then queue
    # wait (submit end → batch start) + the batch's locate.
    accounted = result.lag_s + result.submit_s
    accounted[batched] += batch_end - submit_end[batched]
    layers = {
        "pipeline.submit_us.p50": 1e6 * _median(result.submit_s),
        "pipeline.batch_rows.mean": timer.mean_rows("shard.locate"),
        "pipeline.wait_ms.p50": _median(wait_ms),
        "pipeline.wait_ms.p99": _p99(wait_ms),
        "service.cache_hit_share": hits,
        "service.try_cached_us.p50": 1e6 * _median(
            timer.durations("service.try_cached")
        ),
        "shard.locate_ms.p50": timer.median_ms("shard.locate"),
        "completion.us_per_row": timer.us_per_row("completion"),
        "completion.ms_per_batch.p50": timer.median_ms("completion"),
        "completion.partial_share": (
            timer.partial_rows / timer.completed_rows
            if timer.completed_rows
            else 0.0
        ),
        "estimate.us_per_row": timer.us_per_row("estimate"),
        "estimate.ms_per_batch.p50": timer.median_ms("estimate"),
        "index.query.us_per_row": timer.us_per_row("index.query"),
    }
    return layers, float(accounted[served].mean())


def _walk(span: dict, name_prefix: str):
    if span["name"].startswith(name_prefix):
        yield span
    for child in span.get("children", ()):
        yield from _walk(child, name_prefix)


def fleet_layers(
    w: CityFleet,
    result: PhaseResult,
    req: Requests,
    before,
    after,
) -> Tuple[Dict[str, float], float]:
    """Layer metrics of a fleet phase from worker spans and stats."""
    shard_ms, comp_ms, est_ms, rows = [], [], [], []
    for root in w.telemetry.spans():
        for shard in _walk(root, "shard:"):
            shard_ms.append(shard["duration_ms"])
            rows.append(shard.get("meta", {}).get("rows", 1))
            for child in shard.get("children", ()):
                if child["name"] == "complete":
                    comp_ms.append(child["duration_ms"])
                elif child["name"] == "estimate":
                    est_ms.append(child["duration_ms"])
    n_rows = float(sum(rows)) or 1.0
    delta = {}
    for field in ("requests", "ticks", "busy_seconds", "wall_seconds"):
        delta[field] = np.array(
            [getattr(a, field) - getattr(b, field) for a, b in zip(after.workers, before.workers)],
            dtype=float,
        )
    reg = {}
    for field in ("lazy_loads", "fast_reloads", "evictions", "load_seconds"):
        reg[field] = float(
            sum(
                getattr(a.registry, field) - getattr(b.registry, field)
                for a, b in zip(after.workers, before.workers)
            )
        )
    requests = float(delta["requests"].sum())
    ticks = float(delta["ticks"].sum())
    per_1k = 1e3 / requests if requests else 0.0
    scans = np.asarray(req.scans[: result.sent])
    observed = np.isfinite(scans)
    partial = observed.any(axis=1) & ~observed.all(axis=1)
    tick_s = float(delta["busy_seconds"].sum()) / ticks if ticks else 0.0
    layers = {
        "shard.locate_ms.p50": _median(shard_ms),
        "completion.us_per_row": 1e3 * float(sum(comp_ms)) / n_rows,
        "completion.ms_per_batch.p50": _median(comp_ms),
        "completion.partial_share": float(partial.mean()),
        "estimate.us_per_row": 1e3 * float(sum(est_ms)) / n_rows,
        "estimate.ms_per_batch.p50": _median(est_ms),
        "fleet.submit_us.p50": 1e6 * _median(result.submit_s),
        "fleet.rows_per_tick.mean": requests / ticks if ticks else 0.0,
        "fleet.worker_util.max": float(
            np.max(delta["busy_seconds"] / np.maximum(delta["wall_seconds"], 1e-9))
        ),
        "fleet.imbalance": float(
            delta["requests"].max() / max(delta["requests"].mean(), 1e-9)
        ),
        "registry.loads_per_1k": reg["lazy_loads"] * per_1k,
        "registry.fast_reloads_per_1k": reg["fast_reloads"] * per_1k,
        "registry.evictions_per_1k": reg["evictions"] * per_1k,
        "registry.load_ms.mean": (
            1e3 * reg["load_seconds"] / reg["lazy_loads"]
            if reg["lazy_loads"]
            else 0.0
        ),
    }
    served = ~result.failed
    # Each request waits for the whole worker tick that serves it.
    accounted = result.lag_s[served] + result.submit_s[served] + tick_s
    return layers, float(accounted.mean())


def ingest_layers(w: Workload, first_apply: int) -> Dict[str, float]:
    if not isinstance(w, KaideDrift):
        return {}
    applies = w.applies[first_apply:]
    ms = [1e3 * seconds for seconds, _ in applies]
    return {
        "ingest.apply_ms.p50": _median(ms),
        "ingest.apply_ms.p99": _p99(ms),
        "ingest.keys_invalidated": (
            float(np.mean([r.invalidated for _, r in applies])) if applies else 0.0
        ),
    }


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def _setup(w: Workload, traced: bool) -> Tuple[float, Dict[str, float]]:
    """Set up ``setup_repeats`` times; medians of total and parts."""
    totals: List[float] = []
    parts: Dict[str, List[float]] = {}
    for _ in range(w.setup_repeats):
        totals.append(w.setup(traced))
        for name, seconds in w.setup_parts.items():
            parts.setdefault(name, []).append(seconds)
    return statistics.median(totals), {
        name: statistics.median(values) for name, values in parts.items()
    }


def _phase_line(label: str, result: PhaseResult) -> str:
    lat_p, p_used = percentile(result.latency_s, SLO_PERCENTILE)
    return (
        f"# {label}: {result.rate:.0f}/s for {result.wall_s:.1f}s, "
        f"{result.sent} sent, {result.n_failed} failed, "
        f"p50 {result.latency_pct_ms(50):.2f} ms, "
        f"p{p_used:.2f} {1e3 * lat_p:.2f} ms, "
        f"lag p99 {1e3 * result.lag_p99_s():.2f} ms, backlog {result.backlog}"
        + (", aborted" if result.aborted else "")
    )


def run_workload(
    w: Workload,
    *,
    seconds: float,
    traced: bool,
    plan: Optional[Dict[str, float]] = None,
    capacity: bool = False,
) -> int:
    plan = plan or w.plan
    stamp = machine.stamp()
    print("# machine: " + json.dumps(stamp, sort_keys=True))
    rng = np.random.default_rng([w.seed, 1])
    w.make_inputs()
    try:
        setup_s, setup_parts = _setup(w, traced)
        print(f"# setup: median {setup_s:.3f}s over {w.setup_repeats}")
        ungated: Metrics = {}
        if traced:
            metrics, reported, checks = _traced(w, seconds, plan, rng, setup_parts)
        else:
            metrics, ungated, reported, checks = _untraced(
                w, seconds, plan, rng, setup_s, capacity
            )
    finally:
        w.close()

    for label, result in reported:
        print(_phase_line(label, result))
    phases: Dict[str, List[PhaseResult]] = {}
    for label, result in reported:
        phases.setdefault(label, []).append(result)
    invalid = [label for label, chunks in phases.items() if not lag_valid(chunks)]
    if invalid:
        print(
            f"posbench: invalid run, generator lag p99 over its bound in "
            f"{invalid}",
            file=sys.stderr,
        )
        return EXIT_INVALID

    attempted = sum(r.sent for _, r in reported)
    failed = sum(r.n_failed for _, r in reported)
    problems = []
    if failed:
        problems.append(f"{failed} requests failed")
    if w.failed_writes:
        problems.append(f"{w.failed_writes} delta applies failed")
    if not checks["ape_m"] < APE_CEILING * checks["centroid_ape_m"]:
        problems.append(
            f"APE {checks['ape_m']:.2f} m is not below {APE_CEILING} x the "
            f"centroid guess's {checks['centroid_ape_m']:.2f} m"
        )
    if checks.get("mismatch_share", 0.0) > 0:
        problems.append(
            f"mismatch_share {checks['mismatch_share']:.4f}: answers differ "
            "from the batch-of-1 reference"
        )
    print(
        f"# checks: ape_m {checks['ape_m']:.4f} (centroid "
        f"{checks['centroid_ape_m']:.2f}), mismatch_share "
        f"{checks.get('mismatch_share', 'n/a')}, failed_share "
        f"{failed / max(attempted, 1):.4f}"
    )
    for problem in problems:
        print(f"posbench: FAILED CHECK: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for name, (value, unit) in ungated.items():
        print(f"# {name} = {value:.6g} {unit} (reported, not gated)")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return EXIT_INCORRECT if problems else 0


def _warm(w, seconds, plan, rng) -> None:
    """Unreported high-rate traffic: caches and the fleet's LRU reach
    their steady state before anything is measured."""
    run_phase(w, w.high_rate, plan["warm"] * seconds, rng)


def _capacity(w, seconds, plan, rng) -> float:
    """Bisection over the workload's rate ladder (``--capacity``)."""
    rungs = rate_ladder(*w.ladder)
    # Budget for the bisection's verdicts plus a confirmation of
    # about half of them.
    n_probes = 1.5 * math.ceil(math.log2(len(rungs) + 1))
    probe_s = plan["ladder"] * seconds / n_probes
    probes: List[PhaseResult] = []

    def meets(rate: float) -> bool:
        result, _ = run_phase(w, rate, probe_s, rng, abort_on_slo=True)
        probes.append(result)
        return result.meets_slo()

    capacity, outcome = find_capacity(rungs, meets)
    for result, (rate, ok) in zip(probes, outcome):
        print(_phase_line(f"rung {'ok ' if ok else 'bad'}", result))
    return capacity


def _served(result: PhaseResult) -> int:
    return max(result.sent - result.n_failed, 1)


def _untraced(w, seconds, plan, rng, setup_s, capacity):
    """Warm-up, then ``w.rounds`` rounds of a low and a high chunk.

    Each gated figure is the median over its chunks, so a burst of
    contention on the host moves a chunk or two rather than the run;
    alternating the rates exposes both to the same conditions.
    """
    _warm(w, seconds, plan, rng)
    chunks: Dict[str, List[PhaseResult]] = {"low": [], "high": []}
    answered = []
    last = None
    for _ in range(w.rounds):
        for label, rate in (("low", w.low_rate), ("high", w.high_rate)):
            result, req = run_phase(w, rate, plan[label] * seconds / w.rounds, rng)
            answered.append(served_answers(result, req))
            chunks[label].append(result)
            # Only the last chunk keeps its tickets and scans (for the
            # parity check), so the peak RSS is the system's, not that
            # of every answer the benchmark has kept.
            if last is not None:
                last[0].tickets = []
            last = (result, req)
    # Before the ladder, whose top rungs pre-generate far more input.
    rss_mb = machine.peak_rss_mb()
    checks = check(w, answered, last)
    low, high = chunks["low"], chunks["high"]
    metrics: Metrics = {
        "setup_s": (setup_s, "s"),
        "p50_ms.low": (_median([r.latency_pct_ms(50) for r in low]), "ms"),
        "p50_ms.high": (_median([r.latency_pct_ms(50) for r in high]), "ms"),
        "cpu_ms_per_req": (
            _median([1e3 * r.cpu_s / _served(r) for r in high]),
            "ms",
        ),
        "peak_rss_mb": (rss_mb, "MiB"),
        "ape_m": (checks["ape_m"], "m"),
    }
    # Measured and printed, but too unsteady across runs on a shared
    # 2-vCPU machine to gate a change on (see README.md).  Tails are
    # the median window's, so one stall moves one window.
    ungated: Metrics = {
        "p99_ms.low": (_windowed_p99_ms(low), "ms"),
        "p99_ms.high": (_windowed_p99_ms(high), "ms"),
    }
    if capacity:
        ungated["capacity_qps"] = (_capacity(w, seconds, plan, rng), "1/s")
    reported = [("low", r) for r in low] + [("high", r) for r in high]
    return metrics, ungated, reported, checks


def _windowed_p99_ms(chunks: List[PhaseResult]) -> float:
    """:func:`windowed_percentile`'s p99 over the chunks in order."""
    return 1e3 * windowed_percentile(
        np.concatenate([r.latency_s for r in chunks]), SLO_PERCENTILE
    )


def _traced(w, seconds, plan, rng, setup_parts):
    _warm(w, seconds, plan, rng)
    plain, plain_req = run_phase(w, w.high_rate, plan["high"] * seconds, rng)
    timer = LayerTimer()
    w.trace_on(timer)
    first_apply = len(getattr(w, "applies", ()))
    try:
        if isinstance(w, CityFleet):
            before = w.fleet.stats()
            traced, req = run_phase(w, w.high_rate, plan["traced"] * seconds, rng)
            after = w.fleet.stats()
            layers, accounted = fleet_layers(w, traced, req, before, after)
        else:
            stats0 = w.service.stats
            traced, req = run_phase(w, w.high_rate, plan["traced"] * seconds, rng)
            stats1 = w.service.stats
            hits = stats1.cache_hits - stats0.cache_hits
            total = hits + stats1.cache_misses - stats0.cache_misses
            layers, accounted = pipeline_layers(
                w, timer, traced, hits / total if total else 0.0
            )
    finally:
        w.trace_off(timer)
    layers.update(ingest_layers(w, first_apply))
    for name, seconds_ in setup_parts.items():
        layers[f"setup.{name}"] = seconds_
    layers["loadgen.lag_ms.p99"] = 1e3 * traced.lag_p99_s()
    traced_mean = mean_latency_s(traced)
    layers["trace.unattributed_share"] = unattributed_share(
        traced_mean, [accounted]
    )
    layers["trace.overhead_share"] = (
        traced_mean - mean_latency_s(plain)
    ) / mean_latency_s(plain)
    checks = check(
        w,
        [served_answers(plain, plain_req), served_answers(traced, req)],
        (traced, req),
    )
    metrics: Metrics = {
        name: (layers.get(name, 0.0), unit)
        for name, unit in PER_LAYER_UNITS.items()
    }
    return metrics, [("high", plain), ("high traced", traced)], checks
