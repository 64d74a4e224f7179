#!/usr/bin/env python3
"""Open-loop positioning benchmark.

Usage (from the root of a checkout)::

    python3 posbench/run.py --workload mall-open --seed 1 --seconds 30 --trace 0

Workloads: ``mall-open``, ``city-fleet``, ``kaide-drift`` (see
``workloads.py`` and ``README.md``).  A run generates its inputs from
``--seed``, sets the serving system up several times (``setup_s`` is
the median), then drives it open-loop with Poisson arrivals from one
submitting thread for about ``--seconds`` seconds:

* ``--trace 0``: an unreported warm-up, then rounds of a low-rate and
  a high-rate chunk; prints the end-to-end metrics, each the median
  over its chunks.  ``--capacity`` adds a bisection over the fixed
  rate ladder for ``capacity_qps``;
* ``--trace 1``: the high-rate phase untraced, then again with layer
  spans recorded around the stack's public functions; prints the
  per-layer metrics, the unattributed share and the tracing overhead.

Latency is measured from each request's intended send time; the SLO
is p99 <= 100 ms with no failures and no growing backlog.  The last
line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run fails (exit 1) when
a correctness check fails, and is invalid (exit 3, nothing reported)
when the generator ran too late to load the system as scheduled.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (artifact stores); removed on exit.
WORK = ROOT / ".bench_work"

#: Share of ``--seconds`` given to each phase of a traced run (an
#: untraced run follows its workload's ``plan``).
TRACED_PLAN = {"warm": 0.05, "high": 0.45, "traced": 0.5}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--capacity",
        action="store_true",
        help="after an untraced run, search the rate ladder for "
        "capacity_qps (not gated; adds about a third of --seconds)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"posbench: no repro sources under {SRC}; run from the root "
            "of a repository checkout",
            file=sys.stderr,
        )
        return 2
    from machine import pin_blas_threads

    pin_blas_threads()  # before numpy loads anywhere
    sys.path.insert(0, str(SRC))

    from report import run_workload
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"posbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        return run_workload(
            WORKLOADS[args.workload](args.seed, work_dir),
            seconds=args.seconds,
            traced=bool(args.trace),
            plan=TRACED_PLAN if args.trace else None,
            capacity=args.capacity,
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
