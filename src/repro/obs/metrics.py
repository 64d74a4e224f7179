"""Streaming metrics: counters, gauges, and log-bucket histograms.

The serving stack's stats objects (``ServiceStats``, ``WorkerStats``,
…) all follow the same discipline: accumulate locally while computing,
publish in one critical section, snapshot under that same lock.  This
module factors that discipline into reusable metric primitives so the
legacy dataclasses can become thin *views* over one shared
:class:`MetricsRegistry` — and so live latency distributions exist on
the server, not just in the offline load generator.

Every metric is a plain value under its own lock: a counter holds one
float, a histogram one bucket-count array plus a value total.  A write
is one uncontended lock round (a few hundred nanoseconds — the service
publishes a handful per batch), a read is exact, and the memory a
metric holds does not grow with the number of threads that ever wrote
to it.  A histogram's count is *derived* from its bucket counts
(``counts.sum()``), so "sum of buckets == records observed" holds by
construction in every snapshot.

Cross-**metric** atomicity (e.g. ``queries == hits + misses``) is the
caller's contract: services mutate their counters under their existing
service lock and build their stats view under that same lock.  The
registry does not impose a global ordering it cannot cheaply provide.

``reset()`` zeroes a metric in place, so handles stay valid across
resets; ``drain()`` returns what accumulated since the previous drain
against one watermark, leaving the cumulative value untouched.

Metric keys render labels the way the Prometheus text format does
(``name{k="v",…}``, with ``\\``, ``"`` and newlines escaped in values),
so any label value — a venue called ``mall, "north"`` included —
survives a fleet worker's drain and the parent's merge.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..exceptions import ObservabilityError

__all__ = [
    "LATENCY_BUCKETS",
    "BUCKET_FACTOR",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Log-spaced latency bucket upper edges, in seconds: 8 buckets per
#: decade from 1 µs to 10 s (factor ``10 ** (1/8) ≈ 1.334`` between
#: adjacent edges).  Quantiles read from these buckets are therefore
#: within one bucket width (~33%) of the exact order statistic — tight
#: enough to rank p50/p95/p99 regressions, cheap enough to keep on the
#: serve path.  Values above 10 s land in a final overflow bucket.
LATENCY_BUCKETS = tuple(
    float(v) for v in 10.0 ** (np.arange(-48, 9) / 8.0)
)

#: Multiplicative width of one latency bucket.
BUCKET_FACTOR = float(10.0 ** (1.0 / 8.0))

#: One ``key="value"`` pair of a rendered key; the value may hold any
#: character, with ``\\`` and ``"`` escaped by a backslash.
_LABEL_PAIR = re.compile(r'([^=,"]+)="((?:[^"\\]|\\.)*)"')

_UNESCAPE = re.compile(r"\\(.)", re.DOTALL)


def escape_label_value(value: str) -> str:
    """Escape ``\\``, ``"`` and newline as the Prometheus text format
    does inside a quoted label value."""
    return (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _unescape_label_value(value: str) -> str:
    return _UNESCAPE.sub(
        lambda m: "\n" if m.group(1) == "n" else m.group(1), value
    )


def render_key(name: str, labels: Dict[str, str]) -> str:
    """``name{k="v",…}`` with sorted label keys — the registry key."""
    if not labels:
        return name
    inner = ",".join(
        f'{k}="{escape_label_value(str(labels[k]))}"'
        for k in sorted(labels)
    )
    return f"{name}{{{inner}}}"


def parse_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Invert :func:`render_key`."""
    name, brace, inner = key.partition("{")
    if not brace:
        return key, {}
    if not inner.endswith("}"):
        raise ObservabilityError(f"malformed metric key {key!r}")
    inner = inner[:-1]
    labels: Dict[str, str] = {}
    pos = 0
    while pos < len(inner):
        m = _LABEL_PAIR.match(inner, pos)
        end = m.end() if m is not None else -1
        if m is None or (end < len(inner) and inner[end] != ","):
            raise ObservabilityError(f"malformed metric key {key!r}")
        labels[m.group(1)] = _unescape_label_value(m.group(2))
        pos = end + 1
    return name, labels


class Counter:
    """Monotone sum under a lock.  Created via
    :meth:`MetricsRegistry.counter`."""

    __slots__ = ("name", "labels", "_lock", "_value", "_drained")

    def __init__(self, name: str, labels: Dict[str, str]) -> None:
        self.name = name
        self.labels = dict(labels)
        self._lock = threading.Lock()
        self._value = 0.0
        self._drained = 0.0  # value at the last drain()

    def add(self, n: float = 1.0) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0
            self._drained = 0.0

    def drain(self) -> float:
        """Value accumulated since the last drain (for delta export)."""
        with self._lock:
            delta = self._value - self._drained
            self._drained = self._value
            return delta


class Gauge:
    """A point-in-time value (bytes resident, venues known, …)."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: Dict[str, str]) -> None:
        self.name = name
        self.labels = dict(labels)
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    def set_max(self, value: float) -> None:
        with self._lock:
            if value > self._value:
                self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def reset(self) -> None:
        self.set(0.0)

    def drain(self) -> float:
        """Gauges export their *current* value, not a delta."""
        return self.value


class Histogram:
    """Fixed-bucket streaming histogram under a lock.

    ``bounds`` are ascending bucket *upper* edges; a value ``v`` lands
    in the first bucket with ``v <= bound`` (one trailing overflow
    bucket catches the rest), so ``record`` is one bisection plus two
    increments.  ``count`` is derived from the bucket counts, so no
    snapshot can ever show a count that disagrees with its buckets.
    """

    __slots__ = (
        "name", "labels", "_lock", "_bounds", "_edges", "_nb",
        "_counts", "_total", "_drained_counts", "_drained_total",
    )

    def __init__(
        self,
        name: str,
        labels: Dict[str, str],
        bounds: Iterable[float],
    ) -> None:
        self.name = name
        self.labels = dict(labels)
        self._lock = threading.Lock()
        self._bounds = np.asarray(tuple(bounds), dtype=np.float64)
        if self._bounds.ndim != 1 or self._bounds.size == 0:
            raise ObservabilityError(
                f"histogram {name!r}: bounds must be a non-empty "
                "1-D sequence"
            )
        if np.any(np.diff(self._bounds) <= 0):
            raise ObservabilityError(
                f"histogram {name!r}: bounds must be strictly "
                "increasing"
            )
        self._edges = tuple(self._bounds.tolist())
        self._nb = self._bounds.size + 1  # + overflow bucket
        self._counts = np.zeros(self._nb, dtype=np.int64)
        self._total = 0.0
        # What the last drain() shipped.
        self._drained_counts = np.zeros(self._nb, dtype=np.int64)
        self._drained_total = 0.0

    @property
    def bounds(self) -> np.ndarray:
        return self._bounds.copy()

    def record(self, value: float) -> None:
        self.record_n(value, 1)

    def record_n(self, value: float, n: int) -> None:
        """``n`` observations of the same value in one bump — for
        batch paths where every request in the batch saw the same
        wall-clock latency."""
        # Same bucket as ``searchsorted(side="left")`` for any non-NaN
        # value, at a fraction of a scalar numpy call's cost.
        idx = bisect_left(self._edges, value)
        with self._lock:
            self._counts[idx] += n
            self._total += value * n

    def record_many(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size == 0:
            return
        binned = np.bincount(
            self._bounds.searchsorted(values, side="left"),
            minlength=self._nb,
        )
        self.merge_counts(binned, float(values.sum()))

    @property
    def counts(self) -> np.ndarray:
        with self._lock:
            return self._counts.copy()

    @property
    def count(self) -> int:
        return int(self.counts.sum())

    @property
    def total(self) -> float:
        with self._lock:
            return self._total

    def quantile(self, q: float) -> float:
        """Upper edge of the bucket holding the ``q``-quantile
        (``q`` in [0, 1]) — within one bucket width of exact."""
        return histogram_quantile(self._bounds, self.counts, q)

    def reset(self) -> None:
        with self._lock:
            self._counts[:] = 0
            self._total = 0.0
            self._drained_counts[:] = 0
            self._drained_total = 0.0

    def drain(self) -> Optional[Dict[str, object]]:
        """Bucket-count delta since the last drain, or ``None`` if
        nothing was recorded in the interval."""
        with self._lock:
            delta = self._counts - self._drained_counts
            dtotal = self._total - self._drained_total
            self._drained_counts[:] = self._counts
            self._drained_total = self._total
        if not delta.any():
            return None
        return {
            "bounds": self._bounds.tolist(),
            "counts": delta.tolist(),
            "total": float(dtotal),
        }

    def merge_counts(self, counts: np.ndarray, total: float) -> None:
        """Fold a drained delta from another registry (e.g. a fleet
        worker) into this histogram."""
        counts = np.asarray(counts, dtype=np.int64)
        if counts.size != self._nb:
            raise ObservabilityError(
                f"histogram {self.name!r}: cannot merge "
                f"{counts.size} buckets into {self._nb}"
            )
        with self._lock:
            self._counts += counts
            self._total += float(total)

    def snapshot_dict(self) -> Dict[str, object]:
        with self._lock:
            counts = self._counts.tolist()
            total = self._total
        return {
            "bounds": self._bounds.tolist(),
            "counts": counts,
            "total": float(total),
        }


def histogram_quantile(
    bounds: np.ndarray, counts: np.ndarray, q: float
) -> float:
    """Prometheus-style quantile: the upper edge of the bucket where
    the cumulative count first reaches ``q * total``.

    Returns 0.0 for an empty histogram and clamps the overflow bucket
    to the top edge (the histogram cannot see past its last bound).
    """
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        return 0.0
    cum = np.cumsum(counts)
    idx = int(cum.searchsorted(q * total, side="left"))
    bounds = np.asarray(bounds, dtype=np.float64)
    if idx >= bounds.size:
        return float(bounds[-1])
    return float(bounds[idx])


class MetricsRegistry:
    """Named metrics, keyed by ``name{labels}``, with atomic-enough
    snapshot / delta-drain / merge / reset.

    One registry per service (or per fleet worker); fleet workers
    :meth:`drain` deltas over their pipes each tick and the parent
    :meth:`merge`\\ s them into one fleet view.  ``snapshot()``
    returns a plain JSON-able dict — the input shape the exporters in
    :mod:`repro.obs.export` render.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, object] = {}

    def _get(self, cls, name: str, labels: Dict[str, str], **kw):
        key = render_key(name, labels)
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, labels, **kw)
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise ObservabilityError(
                    f"metric {key!r} already registered as "
                    f"{type(metric).__name__}, not {cls.__name__}"
                )
            return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        bounds: Optional[Iterable[float]] = None,
        **labels: str,
    ) -> Histogram:
        if bounds is None:
            bounds = LATENCY_BUCKETS
        return self._get(Histogram, name, labels, bounds=bounds)

    def get(self, key: str):
        """Look up an existing metric by rendered key, or ``None``."""
        with self._lock:
            return self._metrics.get(key)

    def labelled(
        self, name: str
    ) -> List[Tuple[Dict[str, str], object]]:
        """All metrics sharing ``name`` (any labels)."""
        with self._lock:
            return [
                (m.labels, m)
                for m in self._metrics.values()
                if m.name == name
            ]

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-able snapshot of every metric.

        Per-metric consistency is guaranteed (a histogram's count is
        its bucket sum); cross-metric consistency holds exactly when
        the mutators serialise under one external lock, as the
        serving stats views do.
        """
        out: Dict[str, Dict[str, object]] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        with self._lock:
            for key, metric in sorted(self._metrics.items()):
                if isinstance(metric, Counter):
                    out["counters"][key] = metric.value
                elif isinstance(metric, Gauge):
                    out["gauges"][key] = metric.value
                else:
                    out["histograms"][key] = metric.snapshot_dict()
        return out

    def drain(
        self, gauge_labels: Optional[Dict[str, str]] = None
    ) -> Dict[str, Dict[str, object]]:
        """Everything accumulated since the last drain, as a
        picklable delta dict for :meth:`merge`.

        Counters and histograms ship deltas (summable across
        sources); gauges ship absolute values, optionally re-labelled
        with ``gauge_labels`` (e.g. ``{"worker": "3"}``) so gauges
        from different sources never clobber each other last-wins.
        """
        out: Dict[str, Dict[str, object]] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        with self._lock:
            for key, metric in self._metrics.items():
                if isinstance(metric, Counter):
                    delta = metric.drain()
                    if delta:
                        out["counters"][key] = delta
                elif isinstance(metric, Gauge):
                    if gauge_labels:
                        labels = dict(metric.labels)
                        labels.update(gauge_labels)
                        key = render_key(metric.name, labels)
                    out["gauges"][key] = metric.value
                else:
                    delta = metric.drain()
                    if delta is not None:
                        out["histograms"][key] = delta
        return out

    def merge(self, delta: Dict[str, Dict[str, object]]) -> None:
        """Fold a :meth:`drain` payload into this registry."""
        for key, value in delta.get("counters", {}).items():
            name, labels = parse_key(key)
            self.counter(name, **labels).add(float(value))
        for key, value in delta.get("gauges", {}).items():
            name, labels = parse_key(key)
            self.gauge(name, **labels).set(float(value))
        for key, payload in delta.get("histograms", {}).items():
            name, labels = parse_key(key)
            hist = self.histogram(
                name, bounds=payload["bounds"], **labels
            )
            hist.merge_counts(
                np.asarray(payload["counts"], dtype=np.int64),
                float(payload["total"]),
            )

    def reset(self) -> None:
        """Zero every metric in place; existing handles stay valid."""
        with self._lock:
            for metric in self._metrics.values():
                metric.reset()
