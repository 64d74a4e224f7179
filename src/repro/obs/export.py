"""Exporters: registry snapshots → JSON text / Prometheus text.

Both exporters consume the plain dict produced by
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot` (or a
:meth:`Telemetry.snapshot` bundle, which nests one under
``"metrics"``), so a snapshot taken on a fleet parent after merging
worker deltas renders the whole fleet in one shot.

The Prometheus rendering follows the text exposition format:

* counters  → ``repro_<name>_total{labels} value``
* gauges    → ``repro_<name>{labels} value``
* histograms → cumulative ``_bucket{le="…"}`` series plus ``_sum``
  and ``_count``, with the overflow bucket as ``le="+Inf"``.

Every label set of one metric family is emitted as one contiguous
group under a single ``# TYPE`` line, and label values are escaped
(``\\\\``, ``\\"``, ``\\n``) as the format requires.  Metric names are
sanitised (``.`` → ``_``); a minimal :func:`parse_prometheus`
validates the output line-by-line — including duplicate ``# TYPE``
lines and unescaped quotes in label values — so CI can assert the
export parses without a prometheus client dependency.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Set, Tuple

from ..exceptions import ObservabilityError
from .metrics import escape_label_value, parse_key

__all__ = [
    "render_json",
    "render_prometheus",
    "parse_prometheus",
]

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")

#: One ``label="value"`` pair: only ``\\``, ``\"`` and ``\n`` may be
#: escaped, and a bare quote ends the value.
_LABEL = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*"'

#: ``name{labels} value`` — the only sample shape we emit.
_SAMPLE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"
    rf"(\{{(?:{_LABEL}(?:,{_LABEL})*)?\}})?"
    r" ([0-9eE+.\-]+|[+-]?Inf|NaN)$"
)

_TYPE = re.compile(
    r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) "
    r"(counter|gauge|histogram|summary|untyped)$"
)


def _prom_name(name: str, prefix: str = "repro") -> str:
    return f"{prefix}_{_NAME_OK.sub('_', name)}"


def _prom_labels(labels: Dict[str, str], extra: str = "") -> str:
    parts = [
        f'{_NAME_OK.sub("_", k)}="{escape_label_value(v)}"'
        for k, v in sorted(labels.items())
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def render_json(snapshot: Dict, *, indent: int = 2) -> str:
    """A registry (or telemetry) snapshot as deterministic JSON."""
    return json.dumps(snapshot, indent=indent, sort_keys=True)


def render_prometheus(snapshot: Dict) -> str:
    """Render a snapshot in Prometheus text exposition format.

    Accepts either a bare registry snapshot or a telemetry bundle
    carrying one under ``"metrics"``.
    """
    if "metrics" in snapshot and "counters" not in snapshot:
        snapshot = snapshot["metrics"]
    # family name -> (type, sample lines), in first-seen order
    families: Dict[str, Tuple[str, List[str]]] = {}

    def family(pname: str, kind: str) -> List[str]:
        return families.setdefault(pname, (kind, []))[1]

    for section, kind, suffix in (
        ("counters", "counter", "_total"),
        ("gauges", "gauge", ""),
    ):
        for key, value in sorted(snapshot.get(section, {}).items()):
            name, labels = parse_key(key)
            pname = _prom_name(name) + suffix
            family(pname, kind).append(
                f"{pname}{_prom_labels(labels)} {value}"
            )

    for key, payload in sorted(snapshot.get("histograms", {}).items()):
        name, labels = parse_key(key)
        pname = _prom_name(name)
        lines = family(pname, "histogram")
        cum = 0
        for bound, count in zip(payload["bounds"], payload["counts"]):
            cum += int(count)
            le = _prom_labels(labels, f'le="{bound}"')
            lines.append(f"{pname}_bucket{le} {cum}")
        cum += int(payload["counts"][-1])
        le = _prom_labels(labels, 'le="+Inf"')
        lines.append(f"{pname}_bucket{le} {cum}")
        lab = _prom_labels(labels)
        lines.append(f"{pname}_sum{lab} {payload['total']}")
        lines.append(f"{pname}_count{lab} {cum}")

    out: List[str] = []
    for pname, (kind, lines) in families.items():
        out.append(f"# TYPE {pname} {kind}")
        out.extend(lines)
    return "\n".join(out) + "\n"


def parse_prometheus(text: str) -> List[Tuple[str, str, float]]:
    """Validate Prometheus text format, returning
    ``(name, labels_text, value)`` samples.

    Raises :class:`~repro.exceptions.ObservabilityError` on any line
    that is neither a comment nor a well-formed sample, on a label
    value with an unescaped quote, and on a second ``# TYPE`` line for
    one metric name — the CI smoke's "does the export parse" assert.
    """
    samples: List[Tuple[str, str, float]] = []
    typed: Set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if line.startswith("# TYPE "):
            m = _TYPE.match(line)
            if m is None:
                raise ObservabilityError(
                    f"prometheus line {lineno} is a malformed TYPE "
                    f"line: {line!r}"
                )
            if m.group(1) in typed:
                raise ObservabilityError(
                    f"prometheus line {lineno} repeats the TYPE of "
                    f"{m.group(1)!r}"
                )
            typed.add(m.group(1))
            continue
        if not line or line.startswith("#"):
            continue
        m = _SAMPLE.match(line)
        if m is None:
            raise ObservabilityError(
                f"prometheus line {lineno} does not parse: {line!r}"
            )
        name, labels, value = m.groups()
        samples.append((name, labels or "", float(value)))
    return samples
