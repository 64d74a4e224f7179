"""Per-request tracing: spans, sampled retention, slow-query log.

A :class:`Span` is one timed stage of one request — trace id, stage
name, start, duration, child spans.  The serving layers thread spans
through the request path (``ServingPipeline.submit`` →
``PositioningService.query_batch`` → ``VenueShard.locate`` →
``SpatialIndex.query``), so a retained trace answers "where did this
query spend its time" stage by stage, down to the five spatial-index
kernel stages (``kernel.probe/select/bound/gemm/finish``) of the batch
that ran them.

Tracing every request would cost more than it tells, so the
:class:`Tracer` samples **deterministically**: one trace in every
``sample_every`` sampling decisions (``1`` traces everything — what
the CI smoke uses; ``0`` disables).  Determinism keeps tests and
benchmarks replayable — no RNG on the serve path.

Finished root spans land in two bounded deques: recent traces
(``keep``) and the **slow-query log** (``keep_slow``) for roots whose
duration crossed ``slow_ms`` — the full span tree is kept, so a slow
query's breakdown survives until an operator exports it.

The active span lives in one module-level ``ContextVar``, read by
:func:`current_span`.  Each thread starts with none, so concurrent
batches never see each other's spans, and code below the serving layer
(the spatial-index kernel) times its stages into whatever batch runs
it without being handed a tracer.
:meth:`Tracer.activate` hands a span across threads (the pipeline's
submit thread opens the root, the flusher thread serves under it).
Fleet workers drain finished spans as plain dicts
(:meth:`Tracer.drain`) and ship them over their pipes next to the
metric deltas.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from threading import RLock
from typing import Dict, Iterator, List, Optional, Set

__all__ = ["Span", "Tracer", "current_span"]


class Span:
    """One timed stage of one trace; children nest beneath it.

    A span may be attached as a child of several roots (a batched
    serve is shared by every request in the batch) — the tree is
    read-only after finish, so sharing is safe and ``to_dict``
    simply duplicates the shared subtree per parent.
    """

    __slots__ = (
        "trace_id", "name", "start", "duration", "children", "meta"
    )

    def __init__(
        self,
        trace_id: str,
        name: str,
        start: float = 0.0,
        meta: Optional[Dict[str, object]] = None,
    ) -> None:
        self.trace_id = trace_id
        self.name = name
        self.start = start
        self.duration = 0.0
        self.children: List["Span"] = []
        self.meta = meta

    def child(
        self,
        name: str,
        *,
        duration: float = 0.0,
        meta: Optional[Dict[str, object]] = None,
    ) -> "Span":
        """Attach and return a pre-timed child (for stages whose
        duration is known only after the fact, like the kernel stages
        ``SpatialIndex.query`` times with bare clock reads)."""
        span = Span(self.trace_id, name, start=self.start, meta=meta)
        span.duration = duration
        self.children.append(span)
        return span

    def stage_names(self) -> Set[str]:
        """Every stage name in this tree (for coverage asserts)."""
        names = {self.name}
        for c in self.children:
            names |= c.stage_names()
        return names

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "trace_id": self.trace_id,
            "name": self.name,
            "duration_ms": self.duration * 1e3,
        }
        if self.meta:
            out["meta"] = dict(self.meta)
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    def render(self, indent: int = 0) -> str:
        lines = [
            f"{'  ' * indent}{self.name:<24s} "
            f"{self.duration * 1e3:8.3f}ms"
            + (f"  {self.meta}" if self.meta else "")
        ]
        for c in self.children:
            lines.append(c.render(indent + 1))
        return "\n".join(lines)


#: The calling context's active span (``None`` outside any trace).
_ACTIVE: "ContextVar[Optional[Span]]" = ContextVar(
    "repro_active_span", default=None
)


def current_span() -> Optional[Span]:
    """The active span of the calling thread, or ``None``."""
    return _ACTIVE.get()


@contextmanager
def _child_span(
    parent: Span, name: str, meta: Optional[Dict[str, object]]
) -> Iterator[Span]:
    child = Span(
        parent.trace_id, name, start=time.perf_counter(), meta=meta
    )
    parent.children.append(child)
    token = _ACTIVE.set(child)
    try:
        yield child
    finally:
        child.duration = time.perf_counter() - child.start
        _ACTIVE.reset(token)


class Tracer:
    """Deterministic 1-in-N span sampler with bounded retention."""

    def __init__(
        self,
        *,
        sample_every: int = 64,
        slow_ms: Optional[float] = None,
        keep: int = 64,
        keep_slow: int = 32,
    ) -> None:
        self.sample_every = int(sample_every)
        self.slow_ms = slow_ms
        self._lock = RLock()
        self._decisions = 0
        self._seq = 0
        self._traces: deque = deque(maxlen=keep)
        self._slow: deque = deque(maxlen=keep_slow)

    # -- sampling + span construction ------------------------------

    def sample(self) -> bool:
        """One sampling decision: the 1st, (N+1)th, … of every
        ``sample_every`` calls returns True."""
        if self.sample_every <= 0:
            return False
        if self.sample_every == 1:
            return True
        with self._lock:
            n = self._decisions
            self._decisions = n + 1
            return n % self.sample_every == 0

    def start(
        self, name: str, meta: Optional[Dict[str, object]] = None
    ) -> Span:
        """Open a root span (caller gates with :meth:`sample`)."""
        with self._lock:
            self._seq += 1
            trace_id = f"t{self._seq:08d}"
        return Span(
            trace_id, name, start=time.perf_counter(), meta=meta
        )

    def finish(self, span: Span) -> None:
        """Stamp the root's duration and retain it (slow log too if
        over the threshold)."""
        if span.duration == 0.0:
            span.duration = time.perf_counter() - span.start
        with self._lock:
            self._traces.append(span)
            if (
                self.slow_ms is not None
                and span.duration * 1e3 >= self.slow_ms
            ):
                self._slow.append(span)

    # -- active-span threading -------------------------------------

    def current(self) -> Optional[Span]:
        return _ACTIVE.get()

    @contextmanager
    def activate(self, span: Span) -> Iterator[Span]:
        """Make ``span`` the calling thread's active span — the
        cross-thread handoff (submit thread opens, flusher serves)."""
        token = _ACTIVE.set(span)
        try:
            yield span
        finally:
            _ACTIVE.reset(token)

    @contextmanager
    def trace(
        self, name: str, meta: Optional[Dict[str, object]] = None
    ) -> Iterator[Span]:
        """Open, activate, time and retain a root span."""
        span = self.start(name, meta)
        try:
            with self.activate(span):
                yield span
        finally:
            self.finish(span)

    def span(
        self, name: str, meta: Optional[Dict[str, object]] = None
    ):
        """Context manager for a child of the current active span;
        a no-op (yielding ``None``) when no span is active."""
        parent = _ACTIVE.get()
        if parent is None:
            return nullcontext()
        return _child_span(parent, name, meta)

    # -- retention accessors ---------------------------------------

    def traces(self) -> List[Span]:
        with self._lock:
            return list(self._traces)

    def slow_queries(self) -> List[Span]:
        with self._lock:
            return list(self._slow)

    def drain(self) -> Dict[str, List[Dict[str, object]]]:
        """Retained traces as plain dicts, clearing the deques —
        the picklable span payload fleet workers ship each tick."""
        with self._lock:
            out = {
                "spans": [s.to_dict() for s in self._traces],
                "slow": [s.to_dict() for s in self._slow],
            }
            self._traces.clear()
            self._slow.clear()
            return out

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()
            self._slow.clear()
