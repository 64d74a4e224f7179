"""Hardware stamp and process resource readings (Linux ``/proc``).

Every result carries the CPU count, CPU model, Python and numpy
versions, BLAS vendor and BLAS thread count.  BLAS threads are pinned
to 1 by ``run.py`` before numpy loads: on a 2-core machine, 2
OpenBLAS threads make ``predict`` on 256 rows of the kaide shard stall
at 8.0 ms instead of 0.3 ms now and then, and the generator thread,
the pipeline flusher and BLAS must all fit in the cores there are.
"""

from __future__ import annotations

import ctypes
import os
import platform
import resource
from typing import Dict, Iterable, List

BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
)


def pin_blas_threads() -> None:
    """Fix BLAS to one thread; call before numpy is imported."""
    for name in BLAS_ENV:
        os.environ[name] = "1"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_info() -> Dict[str, object]:
    import numpy as np

    vendor = "unknown"
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except Exception:
        pass
    return {"blas": vendor, "blas_threads": _blas_threads()}


def _blas_threads() -> object:
    """OpenBLAS's own thread count, read from the loaded library."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {
                line.split()[-1]
                for line in fh
                if "openblas" in line.lower() and ".so" in line
            }
    except OSError:
        libs = set()
    names = (
        "openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
    )
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in names:
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unset")


def stamp() -> Dict[str, object]:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **_blas_info(),
    }


def _clock_ticks() -> int:
    return os.sysconf("SC_CLK_TCK")


def _child_pids() -> List[int]:
    import multiprocessing

    return [p.pid for p in multiprocessing.active_children() if p.pid]


def cpu_seconds() -> float:
    """User+system CPU of this process and its live children."""
    t = os.times()
    total = t.user + t.system
    for pid in _child_pids():
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            total += (int(fields[11]) + int(fields[12])) / _clock_ticks()
        except (OSError, IndexError, ValueError):
            continue
    return total


def _vm_hwm_kb(pids: Iterable[int]) -> int:
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
                        break
        except (OSError, ValueError):
            continue
    return total


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its live children, in MiB.

    Forked children count the parent pages they still share, so the
    sum over-counts shared memory; it is compared only against itself.
    """
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own_kb + _vm_hwm_kb(_child_pids())) / 1024.0
