"""Command-line interface: experiments plus the artifact pipeline.

Experiment reproduction (tables/figures)::

    python -m repro table5 --preset smoke
    python -m repro fig17 --preset bench
    python -m repro all --preset smoke

Artifact pipeline — stages communicate through versioned artifact
files (train once, serve many)::

    python -m repro train --venue kaide --preset smoke --out shard.npz
    python -m repro impute --venue kaide --model shard.npz --out map.npz
    python -m repro serve-bench --preset smoke --artifact shard.npz
    python -m repro ingest --venue kaide --out delta.npz --apply
    python -m repro load-test --preset smoke --threads 8 --drift

``load-test`` deploys two venues, replays a multi-threaded scenario
mix (Zipf venue skew, device re-scan duplicates, burst vs steady
arrival) through the micro-batching serving pipeline, and reports
p50/p95/p99 latency plus throughput against the single-caller
batch-256 baseline; ``--seed`` replays identical request streams,
``--drift`` interleaves ingestion-delta hot-applies with the traffic.

``ingest`` is the streaming write path: fold a fresh survey drop into
a delta artifact (chained on ``--base``'s content hash) and, with
``--apply``, hot-apply it to a live deployment.

``train`` runs the offline half (differentiate → fit BiSIM → fit
estimator) and writes a warm-start shard bundle;
:meth:`~repro.serving.PositioningService.deploy_from_artifact` boots
from it in a fresh process without retraining.  ``impute`` completes a
venue's radio map with a trained model and writes the imputed map.
``serve-bench`` benchmarks the serving subsystem, including cold-start
(train + deploy) versus warm-start (load artifact) timings.  With
``--workers N`` it instead runs the city-scale shard-fleet benchmark:
N worker processes serving a Zipf-skewed stream over ``--fleet-venues``
synthetic venues under a ``--memory-budget-mb`` LRU eviction budget,
compared head-to-head (and bit-for-bit) against one process::

    python -m repro serve-bench --workers 4 --fleet-venues 500

``obs`` exercises the unified telemetry layer end-to-end: it runs a
telemetry-instrumented load test and dumps the merged metric registry
(counters, gauges, streaming latency histograms) plus sampled trace
spans in Prometheus text or JSON snapshot form::

    python -m repro obs --preset smoke --format prometheus
    python -m repro obs --format json --out snapshot.json

``serve-bench --telemetry`` additionally measures the instrumentation
overhead (instrumented vs plain serve, reported as a percentage) and
verifies span coverage of every kernel stage.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from .artifacts import load_artifact, read_manifest, split_prefixed
from .bisim import BiSIMConfig, BiSIMTrainer
from .bisim.checkpoint import (
    ONLINE_KIND,
    TRAINER_KIND,
    online_from_payload,
    trainer_from_payload,
)
from .core import TopoACDifferentiator
from .exceptions import ArtifactError, ReproError
from .obs import Telemetry, render_json, render_prometheus
from .experiments import (
    PRESETS,
    ablation_bidir,
    fig5,
    fig12,
    fig13,
    fig14,
    fig15,
    fig16,
    fig17,
    fig18,
    fig67,
    get_dataset,
    make_estimator,
    marshare,
    table5,
    table6,
    table7,
    table8,
)
from .imputers import fill_mnars
from .ingest import (
    DELTA_KIND,
    StreamIngestor,
    load_delta,
    simulate_new_survey,
)
from .radiomap import RadioMap, save_radio_map
from .serving import SHARD_KIND, PositioningService, VenueShard
from .serving import bench as serve_bench
from .serving import fleetbench, loadgen
from .tracking import TrackingScenario
from .tracking import loadgen as tracking_loadgen

EXPERIMENTS = {
    "table5": table5,
    "fig5": fig5,
    "fig67": fig67,
    "marshare": marshare,
    "fig12": fig12,
    "fig13": fig13,
    "table6": table6,
    "table7": table7,
    "fig14": fig14,
    "fig15": fig15,
    "fig16": fig16,
    "fig17": fig17,
    "fig18": fig18,
    "table8": table8,
    "ablation-bidir": ablation_bidir,
    "serve-bench": serve_bench,
}

#: Light experiments run first when ``all`` is requested.
_ALL_ORDER = [
    "table5",
    "fig5",
    "fig67",
    "marshare",
    "table7",
    "fig16",
    "fig17",
    "fig18",
    "ablation-bidir",
    "table6",
    "table8",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
]

#: Artifact-pipeline stages (everything else is an experiment name).
PIPELINE_COMMANDS = (
    "train",
    "impute",
    "ingest",
    "load-test",
    "track",
    "obs",
)

VENUES = ("kaide", "longhu")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce tables/figures of 'Data Imputation for Sparse "
            "Radio Maps in Indoor Positioning' (ICDE 2023), and run "
            "the train/impute/serve artifact pipeline."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"] + list(PIPELINE_COMMANDS),
        metavar="command",
        help=(
            "a table/figure to regenerate (or 'all'), or a pipeline "
            f"stage: {', '.join(PIPELINE_COMMANDS)}"
        ),
    )
    parser.add_argument(
        "--preset",
        default="smoke",
        choices=sorted(PRESETS),
        help="experiment scale preset (default: smoke)",
    )
    pipeline = parser.add_argument_group(
        "artifact pipeline (train / impute / serve-bench)"
    )
    pipeline.add_argument(
        "--venue",
        default="kaide",
        choices=VENUES,
        help="venue dataset to train/impute on (default: kaide)",
    )
    pipeline.add_argument(
        "--out",
        help="output path: shard artifact (train) or radio map (impute)",
    )
    pipeline.add_argument(
        "--model",
        help="input artifact with a trained BiSIM (impute)",
    )
    pipeline.add_argument(
        "--artifact",
        help="where serve-bench keeps its warm-start shard bundle",
    )
    pipeline.add_argument(
        "--spatial-index",
        dest="spatial_index",
        action="store_true",
        default=True,
        help="serve-bench: time the spatial-indexed KNN path (default)",
    )
    pipeline.add_argument(
        "--no-spatial-index",
        dest="spatial_index",
        action="store_false",
        help="serve-bench: brute-force KNN only (A/B baseline)",
    )
    pipeline.add_argument(
        "--telemetry",
        action="store_true",
        help=(
            "serve-bench: measure instrumentation overhead "
            "(instrumented vs plain serve) and trace span coverage "
            "of every kernel stage"
        ),
    )
    pipeline.add_argument(
        "--estimator",
        default="wknn",
        choices=("knn", "wknn", "rf"),
        help="location estimator to fit (train; default: wknn)",
    )
    pipeline.add_argument(
        "--mean-fill",
        action="store_true",
        help="train without BiSIM (instant per-AP mean-fill deploy)",
    )
    pipeline.add_argument(
        "--epochs",
        type=int,
        help="override the preset's BiSIM epoch count (train)",
    )
    pipeline.add_argument(
        "--hidden-size",
        type=int,
        help="override the preset's BiSIM hidden size (train)",
    )
    fleet = parser.add_argument_group(
        "shard fleet (serve-bench --workers N)"
    )
    fleet.add_argument(
        "--workers",
        type=int,
        help=(
            "serve-bench: run the multi-process shard-fleet benchmark "
            "with this many worker processes instead of the "
            "single-shard bench (try 4)"
        ),
    )
    fleet.add_argument(
        "--memory-budget-mb",
        dest="memory_budget_mb",
        type=float,
        help=(
            "per-registry memory budget in MiB; shards above it are "
            "LRU-evicted (default: sized to keep ~40%% of the venue "
            "pool resident)"
        ),
    )
    fleet.add_argument(
        "--fleet-venues",
        dest="fleet_venues",
        type=int,
        default=500,
        help="synthetic venues in the city pool (default: 500)",
    )
    ingest = parser.add_argument_group(
        "streaming ingestion (ingest)"
    )
    ingest.add_argument(
        "--base",
        help=(
            "base artifact the delta chains on (shard bundle from "
            "train); its content hash becomes the delta's parent"
        ),
    )
    ingest.add_argument(
        "--new-passes",
        type=int,
        default=1,
        help=(
            "corridor-coverage passes of fresh survey records to "
            "ingest (default: 1)"
        ),
    )
    ingest.add_argument(
        "--apply",
        action="store_true",
        help=(
            "after writing the delta, deploy the venue and hot-apply "
            "it live (prints the apply report)"
        ),
    )
    load = parser.add_argument_group(
        "concurrent load test (load-test)"
    )
    load.add_argument(
        "--threads",
        type=int,
        default=8,
        help="worker threads submitting queries (default: 8)",
    )
    load.add_argument(
        "--requests",
        type=int,
        default=1024,
        help="requests per worker thread (default: 1024)",
    )
    load.add_argument(
        "--max-batch",
        type=int,
        default=256,
        help="micro-batch flush size (default: 256)",
    )
    load.add_argument(
        "--max-delay-ms",
        type=float,
        default=0.0,
        help="micro-batch flush deadline in ms (default: 0, flush\n eagerly; raise to trade latency for bigger batches)",
    )
    load.add_argument(
        "--duplicate-rate",
        type=float,
        help="override every scenario's device re-scan rate [0, 1]",
    )
    load.add_argument(
        "--seed",
        type=int,
        help=(
            "seed for every random choice downstream — scan pools, "
            "worker schedules, arrivals, drift deltas — so runs "
            "replay identically (default: the preset's dataset "
            "seed; also seeds the ingest stage's survey simulation)"
        ),
    )
    load.add_argument(
        "--drift",
        action="store_true",
        help=(
            "append the drift scenario: ingestion deltas hot-apply "
            "to a live venue while query traffic runs"
        ),
    )
    obs = parser.add_argument_group("telemetry dump (obs)")
    obs.add_argument(
        "--format",
        dest="obs_format",
        default="prometheus",
        choices=("prometheus", "json"),
        help=(
            "obs: export format for the merged metric/span snapshot "
            "(default: prometheus)"
        ),
    )
    obs.add_argument(
        "--sample-every",
        dest="sample_every",
        type=int,
        default=1,
        help=(
            "obs: keep one traced request in every N sampled "
            "(default: 1, trace everything)"
        ),
    )
    obs.add_argument(
        "--slow-ms",
        dest="slow_ms",
        type=float,
        help=(
            "obs: also log any span slower than this many ms to the "
            "slow-query log, regardless of sampling"
        ),
    )
    track = parser.add_argument_group("trajectory tracking (track)")
    track.add_argument(
        "--devices",
        type=int,
        default=32,
        help="simulated phones walking concurrently (default: 32)",
    )
    track.add_argument(
        "--scan-interval",
        type=float,
        default=1.0,
        help="seconds between a device's scans (default: 1.0)",
    )
    track.add_argument(
        "--duration",
        type=float,
        default=45.0,
        help="seconds each device walks (default: 45)",
    )
    track.add_argument(
        "--floors",
        type=int,
        default=1,
        help=(
            "stack the venue this many floors high and route every "
            "device through the portals (floor-classified shards, "
            "portal hand-off tracking); 1 = the single-floor path "
            "(default: 1)"
        ),
    )
    return parser


# ----------------------------------------------------------------------
# Pipeline stages
# ----------------------------------------------------------------------
def _bisim_config(args, config) -> BiSIMConfig:
    return BiSIMConfig(
        hidden_size=(
            config.hidden_size
            if args.hidden_size is None
            else args.hidden_size
        ),
        epochs=config.epochs if args.epochs is None else args.epochs,
        batch_size=config.batch_size,
    )


def build_shard(
    venue: str,
    config,
    *,
    estimator_name: str = "wknn",
    bisim_config: Optional[BiSIMConfig] = None,
) -> VenueShard:
    """The offline half of the pipeline for one synthetic venue.

    Deterministic in (venue, preset, estimator, BiSIM config) — the
    artifact round-trip tests rely on rebuilding this bit-identically.
    """
    dataset = get_dataset(venue, config)
    return VenueShard.build(
        venue,
        dataset.radio_map,
        TopoACDifferentiator(entities=dataset.venue.plan.entities),
        estimator=make_estimator(estimator_name.upper()),
        bisim_config=bisim_config,
    )


def _cmd_train(args, parser: argparse.ArgumentParser) -> int:
    if not args.out:
        parser.error("train requires --out PATH for the shard artifact")
    config = PRESETS[args.preset]
    bisim = None if args.mean_fill else _bisim_config(args, config)
    start = time.perf_counter()
    shard = build_shard(
        args.venue,
        config,
        estimator_name=args.estimator,
        bisim_config=bisim,
    )
    elapsed = time.perf_counter() - start
    shard.save(args.out)
    pipeline = "mean-fill" if bisim is None else (
        f"BiSIM(h={bisim.hidden_size}, epochs={bisim.epochs})"
    )
    print(
        f"trained {args.venue} [{pipeline} + "
        f"{shard.estimator.name}] in {elapsed:.1f}s "
        f"-> {args.out}"
    )
    if shard.online_imputer is not None:
        history = shard.online_imputer.trainer.history
        print(
            f"  best loss {history.best_loss:.4f} at epoch "
            f"{history.best_epoch + 1}/{history.n_epochs}"
        )
    return 0


def _trainer_from_artifact(path) -> BiSIMTrainer:
    """Extract a fitted BiSIM trainer from any artifact carrying one."""
    artifact = load_artifact(path)
    if artifact.kind == TRAINER_KIND:
        return trainer_from_payload(artifact.config, artifact.arrays)
    if artifact.kind == ONLINE_KIND:
        return online_from_payload(
            artifact.config, artifact.arrays
        ).trainer
    if artifact.kind == SHARD_KIND:
        if artifact.config.get("imputer") is None:
            raise ArtifactError(
                f"shard artifact {path} was trained with --mean-fill "
                "and carries no BiSIM model"
            )
        return online_from_payload(
            artifact.config["imputer"],
            split_prefixed(artifact.arrays, "imputer."),
        ).trainer
    raise ArtifactError(
        f"cannot extract a BiSIM trainer from artifact kind "
        f"{artifact.kind!r}"
    )


def _cmd_impute(args, parser: argparse.ArgumentParser) -> int:
    if not args.model or not args.out:
        parser.error("impute requires --model ARTIFACT and --out PATH")
    config = PRESETS[args.preset]
    trainer = _trainer_from_artifact(args.model)
    dataset = get_dataset(args.venue, config)
    radio_map = dataset.radio_map
    if trainer.model.n_aps != radio_map.n_aps:
        raise ArtifactError(
            f"artifact {args.model} was trained on "
            f"{trainer.model.n_aps} APs but venue {args.venue!r} "
            f"under preset {args.preset!r} has {radio_map.n_aps}"
        )
    mask = TopoACDifferentiator(
        entities=dataset.venue.plan.entities
    ).differentiate(radio_map)
    filled, amended = fill_mnars(radio_map, mask)
    start = time.perf_counter()
    fingerprints, rps = trainer.impute(filled, amended)
    elapsed = time.perf_counter() - start
    imputed = RadioMap(
        fingerprints=fingerprints,
        rps=rps,
        times=radio_map.times.copy(),
        path_ids=radio_map.path_ids.copy(),
    )
    save_radio_map(imputed, args.out)
    print(
        f"imputed {args.venue} with {args.model} in {elapsed:.1f}s "
        f"-> {args.out}"
    )
    print(f"  {imputed.describe()}")
    return 0


def _cmd_ingest(args, parser: argparse.ArgumentParser) -> int:
    """Streaming ingestion: records in → delta artifact out → apply.

    Simulates a fresh crowdsourced survey drop for the venue, folds it
    through a :class:`~repro.ingest.StreamIngestor`, and writes one
    lineage-chained delta artifact.  With ``--base`` the delta chains
    on an existing artifact's content hash; with ``--apply`` the venue
    is deployed and the delta hot-applied live, printing the apply
    report (rows, paths, cache keys invalidated/kept, latency).
    """
    if not args.out:
        parser.error("ingest requires --out PATH for the delta artifact")
    if args.new_passes < 1:
        parser.error("--new-passes must be >= 1")
    config = PRESETS[args.preset]
    seed = config.dataset_seed if args.seed is None else args.seed
    dataset = get_dataset(args.venue, config)
    parent_hash = None
    sequence = 0
    start_path_id = None
    if args.base:
        manifest = read_manifest(args.base)
        parent_hash = str(manifest["content_hash"])
        if manifest.get("kind") == DELTA_KIND:
            # Chaining on a previous delta resumes its sequence
            # numbering AND its path numbering — a new drop reusing
            # the parent delta's path ids would replace those paths
            # on apply instead of extending the map.
            sequence = (
                int(manifest.get("config", {}).get("sequence", -1)) + 1
            )
            parent_delta, _ = load_delta(args.base)
            start_path_id = max(
                int(dataset.radio_map.path_ids.max()),
                int(parent_delta.path_ids.max()),
            ) + 1
    tables = simulate_new_survey(
        dataset,
        n_passes=args.new_passes,
        seed=seed + 101 + sequence,
        start_path_id=start_path_id,
    )
    ingestor = StreamIngestor(
        dataset.radio_map.n_aps,
        parent_hash=parent_hash,
        sequence=sequence,
    )
    start = time.perf_counter()
    for table in tables:
        ingestor.ingest_table(table)
    published = ingestor.publish(args.out)
    elapsed = time.perf_counter() - start
    print(
        f"ingested {args.venue}: {ingestor.stats.render()} "
        f"in {elapsed:.2f}s -> {args.out}"
    )
    parent = published.parent_hash or "(unanchored)"
    print(
        f"  lineage: parent {parent[:12]} -> delta "
        f"{published.content_hash[:12]} (sequence "
        f"{published.sequence})"
    )
    if args.apply:
        service = PositioningService()
        service.deploy(
            args.venue,
            dataset.radio_map,
            TopoACDifferentiator(entities=dataset.venue.plan.entities),
        )
        report = service.apply_delta(args.venue, published.delta)
        print(f"  {report.describe()}")
        print(f"  {service.shard(args.venue).radio_map.describe()}")
    return 0


def _cmd_load_test(args, parser: argparse.ArgumentParser) -> int:
    if args.threads < 1:
        parser.error("--threads must be >= 1")
    if args.requests < 1:
        parser.error("--requests must be >= 1")
    if args.max_batch < 1:
        parser.error("--max-batch must be >= 1")
    if args.max_delay_ms < 0:
        parser.error("--max-delay-ms must be >= 0")
    if args.duplicate_rate is not None and not (
        0.0 <= args.duplicate_rate <= 1.0
    ):
        parser.error("--duplicate-rate must be in [0, 1]")
    config = PRESETS[args.preset]
    start = time.perf_counter()
    result = loadgen.run(
        config,
        threads=args.threads,
        requests_per_thread=args.requests,
        max_batch=args.max_batch,
        max_delay_ms=args.max_delay_ms,
        duplicate_rate=args.duplicate_rate,
        seed=args.seed,
        include_drift=args.drift,
    )
    elapsed = time.perf_counter() - start
    print(f"\n== {result.experiment_id} ({elapsed:.1f}s) ==")
    print(result.rendered)
    return 0


def _cmd_obs(args, parser: argparse.ArgumentParser) -> int:
    """Telemetry dump: instrumented load test → metric/span export.

    Runs the concurrent load test with a :class:`~repro.obs.Telemetry`
    bundle attached, then exports the merged registry (counters,
    gauges, streaming latency histograms) and sampled spans in the
    requested format.  The rendered load-test report (including live
    histogram percentiles) goes to stderr so stdout stays parseable;
    ``--out`` writes the export to a file instead.
    """
    if args.sample_every < 0:
        parser.error("--sample-every must be >= 0")
    if args.slow_ms is not None and args.slow_ms < 0:
        parser.error("--slow-ms must be >= 0")
    if args.threads < 1:
        parser.error("--threads must be >= 1")
    if args.requests < 1:
        parser.error("--requests must be >= 1")
    config = PRESETS[args.preset]
    telemetry = Telemetry(
        sample_every=args.sample_every, slow_ms=args.slow_ms
    )
    start = time.perf_counter()
    result = loadgen.run(
        config,
        threads=args.threads,
        requests_per_thread=args.requests,
        max_batch=args.max_batch,
        max_delay_ms=args.max_delay_ms,
        duplicate_rate=args.duplicate_rate,
        seed=args.seed,
        include_drift=args.drift,
        telemetry=telemetry,
    )
    elapsed = time.perf_counter() - start
    print(
        f"\n== {result.experiment_id} ({elapsed:.1f}s) ==",
        file=sys.stderr,
    )
    print(result.rendered, file=sys.stderr)
    snapshot = telemetry.snapshot()
    if args.obs_format == "prometheus":
        rendered = render_prometheus(snapshot)
    else:
        rendered = render_json(snapshot)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered)
            if not rendered.endswith("\n"):
                fh.write("\n")
        print(
            f"wrote {args.obs_format} telemetry export -> {args.out}",
            file=sys.stderr,
        )
    else:
        print(rendered)
    return 0


def _cmd_track(args, parser: argparse.ArgumentParser) -> int:
    """Trajectory tracking: replay a walking fleet, score the gain."""
    if args.devices < 1:
        parser.error("--devices must be >= 1")
    if args.scan_interval <= 0:
        parser.error("--scan-interval must be positive")
    if args.duration <= args.scan_interval:
        parser.error("--duration must exceed --scan-interval")
    if args.floors < 1:
        parser.error("--floors must be >= 1")
    config = PRESETS[args.preset]
    start = time.perf_counter()
    if args.floors > 1:
        scenario = TrackingScenario(
            name="multifloor",
            devices=args.devices,
            scan_interval=args.scan_interval,
            duration=args.duration,
        )
        result = tracking_loadgen.run_multifloor(
            config,
            venue=args.venue,
            n_floors=args.floors,
            scenario=scenario,
            seed=args.seed,
        )
    else:
        scenario = TrackingScenario(
            devices=args.devices,
            scan_interval=args.scan_interval,
            duration=args.duration,
        )
        result = tracking_loadgen.run(
            config, venue=args.venue, scenario=scenario, seed=args.seed
        )
    elapsed = time.perf_counter() - start
    print(f"\n== {result.experiment_id} ({elapsed:.1f}s) ==")
    print(result.rendered)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.experiment == "train":
            return _cmd_train(args, parser)
        if args.experiment == "impute":
            return _cmd_impute(args, parser)
        if args.experiment == "ingest":
            return _cmd_ingest(args, parser)
        if args.experiment == "load-test":
            return _cmd_load_test(args, parser)
        if args.experiment == "track":
            return _cmd_track(args, parser)
        if args.experiment == "obs":
            return _cmd_obs(args, parser)
    except ReproError as exc:
        # Expected pipeline failures (bad artifact kind, AP-count
        # mismatch, …) are user errors, not tracebacks.
        print(f"error: {exc}", file=sys.stderr)
        return 1

    config = PRESETS[args.preset]
    names = _ALL_ORDER if args.experiment == "all" else [args.experiment]
    for name in names:
        module = EXPERIMENTS[name]
        start = time.perf_counter()
        if name == "serve-bench" and args.workers is not None:
            result = fleetbench.run(
                config,
                n_venues=args.fleet_venues,
                workers=args.workers,
                memory_budget_mb=args.memory_budget_mb,
                seed=args.seed,
            )
        elif name == "serve-bench":
            result = module.run(
                config,
                artifact_path=args.artifact,
                spatial_index=args.spatial_index,
                telemetry=args.telemetry,
            )
        else:
            result = module.run(config)
        elapsed = time.perf_counter() - start
        print(f"\n== {result.experiment_id} ({elapsed:.1f}s) ==")
        print(result.rendered)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
