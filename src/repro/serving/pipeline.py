"""Thread-safe micro-batching front end for the positioning service.

Many worker threads submit *individual* queries; a single flusher
thread coalesces them into micro-batches and routes each batch through
the serve core behind :meth:`PositioningService.query_batch`,
so concurrent traffic gets batched-path throughput without any caller
seeing more than its own request::

    pipeline = ServingPipeline(service, max_batch=256, max_delay_ms=2)
    with pipeline:
        ticket = pipeline.submit("kaide", scan)      # non-blocking
        location = ticket.result(timeout=5.0)        # (2,)
        location = pipeline.locate("kaide", scan)    # submit + wait

A micro-batch flushes when it reaches ``max_batch`` rows or when its
oldest request has waited ``max_delay_ms`` — the classic
size-or-deadline policy, so a lone request is never stuck behind an
empty queue and a burst is never chopped into tiny batches.

Two hot-path optimisations keep the per-request overhead near the
single-caller batched path:

* **submit-time cache fast path** — :meth:`ServingPipeline.submit_many`
  probes the service's LRU cache (vectorized quantization over the
  whole burst) before enqueueing anything; hits resolve their tickets
  immediately and never occupy a batch slot;
* **slim tickets** — completion is a plain flag plus one shared
  condition variable the flusher notifies once per batch, an order of
  magnitude cheaper than a :class:`concurrent.futures.Future` per
  request.

Requests are validated at submit time (unknown venue, wrong
fingerprint width) so a bad request fails fast in its caller and can
never poison the micro-batch it would have joined.  A venue that
fails inside a flush (unregistered while its rows were queued, or a
``locate`` that raises) fails only its own tickets.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from ..exceptions import ServingError
from .service import CacheKey, PositioningService


@dataclass
class PipelineStats:
    """Counters of one :class:`ServingPipeline`.

    ``submitted`` counts every accepted request; ``fast_path_hits``
    the subset answered from the cache at submit time (they never
    enqueue); ``flushed`` the requests served through micro-batches.
    ``full_flushes`` / ``deadline_flushes`` / ``drain_flushes`` break
    the batches down by what triggered them (size reached, oldest
    request timed out, pipeline stop).
    """

    submitted: int = 0
    fast_path_hits: int = 0
    flushed: int = 0
    failed: int = 0
    batches: int = 0
    full_flushes: int = 0
    deadline_flushes: int = 0
    drain_flushes: int = 0
    largest_batch: int = 0

    @property
    def mean_batch(self) -> float:
        return self.flushed / self.batches if self.batches else 0.0

    def render(self) -> str:
        return (
            f"submitted={self.submitted} "
            f"fast-path hits={self.fast_path_hits} "
            f"batches={self.batches} "
            f"(mean {self.mean_batch:.1f}, max {self.largest_batch}; "
            f"{self.full_flushes} full / "
            f"{self.deadline_flushes} deadline / "
            f"{self.drain_flushes} drain) failed={self.failed}"
        )


class Ticket:
    """One in-flight request's handle; resolved by the flusher.

    ``done_at`` is stamped (``time.perf_counter()``) when the result
    lands, so load harnesses can measure per-request latency without
    serializing on :meth:`result` calls.
    """

    __slots__ = ("_done_cv", "value", "error", "done", "done_at")

    def __init__(self, done_cv: threading.Condition):
        self._done_cv = done_cv
        self.value: Optional[np.ndarray] = None
        self.error: Optional[BaseException] = None
        self.done = False
        self.done_at = 0.0

    @classmethod
    def resolved(cls, value: np.ndarray) -> "Ticket":
        ticket = cls.__new__(cls)
        ticket._done_cv = None
        ticket.value = value
        ticket.error = None
        ticket.done = True
        ticket.done_at = time.perf_counter()
        return ticket

    def result(self, timeout: Optional[float] = None) -> np.ndarray:
        """Block until the answer arrives → ``(2,)`` location."""
        if not self.done:
            deadline = (
                None if timeout is None else time.monotonic() + timeout
            )
            with self._done_cv:
                while not self.done:
                    remaining = (
                        None
                        if deadline is None
                        else deadline - time.monotonic()
                    )
                    if remaining is not None and remaining <= 0:
                        raise ServingError(
                            f"request timed out after {timeout}s"
                        )
                    self._done_cv.wait(remaining)
        if self.error is not None:
            raise self.error
        assert self.value is not None
        return self.value


def settle(
    done_cv: threading.Condition, settled: Iterable[tuple], now: float
) -> None:
    """Resolve ``(ticket, value, error)`` triples stamped ``now`` and
    wake every waiter on ``done_cv`` once."""
    with done_cv:
        for ticket, value, error in settled:
            ticket.value = value
            ticket.error = error
            ticket.done_at = now
            ticket.done = True
        done_cv.notify_all()


#: One queued request: (canonical venue key, fingerprint, cache key,
#: ticket, enqueue time, span) — the enqueue stamp anchors the flush
#: deadline; ``span`` is the sampled request's root trace span (or
#: ``None``), opened in the submitting thread and finished by the
#: flusher when the answer lands.
_Entry = Tuple[
    str, np.ndarray, Optional[CacheKey], Ticket, float, object
]


class ServingPipeline:
    """Coalesces single queries from many threads into micro-batches.

    Parameters
    ----------
    service:
        The (thread-safe) :class:`PositioningService` to route through.
    max_batch:
        Flush as soon as this many requests are queued.
    max_delay_ms:
        Flush when the oldest queued request has waited this long,
        even if the batch is not full.  0 flushes eagerly (whatever is
        queued when the flusher wakes).

    Use as a context manager, or call :meth:`start` / :meth:`stop`
    explicitly; :meth:`stop` drains every queued request before
    returning.
    """

    def __init__(
        self,
        service: PositioningService,
        *,
        max_batch: int = 256,
        max_delay_ms: float = 2.0,
    ):
        if max_batch < 1:
            raise ServingError("max_batch must be >= 1")
        if max_delay_ms < 0:
            raise ServingError("max_delay_ms must be >= 0")
        self.service = service
        self.max_batch = int(max_batch)
        self.max_delay = float(max_delay_ms) / 1e3
        self.stats = PipelineStats()
        #: Queue-inclusive per-request latency (submit → ticket
        #: resolution), recorded into the service's registry — this
        #: is the histogram whose live p50/p95/p99 must agree with
        #: loadgen-measured percentiles, since both span queueing.
        self._h_latency = service.metrics.histogram(
            "pipeline.request_seconds"
        )
        self._queue: List[_Entry] = []
        self._mu = threading.Condition()
        self._done_cv = threading.Condition()
        self._thread: Optional[threading.Thread] = None
        self._started = False
        self._stopping = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServingPipeline":
        with self._mu:
            if self._started:
                raise ServingError("pipeline already started")
            self._started = True
            self._thread = threading.Thread(
                target=self._run, name="serving-pipeline", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Drain the queue, resolve every ticket, stop the flusher."""
        with self._mu:
            if not self._started or self._stopping:
                return
            self._stopping = True
            self._mu.notify_all()
        assert self._thread is not None
        self._thread.join()

    def __enter__(self) -> "ServingPipeline":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return self._started and not self._stopping

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, venue: str, fingerprint: np.ndarray) -> Ticket:
        """Queue one raw fingerprint; returns immediately.

        Venue and shape are validated in the caller's thread (inside
        :meth:`submit_many`), so a bad request raises
        :class:`ServingError` at the call site instead of failing a
        whole micro-batch later.
        """
        fp = np.asarray(fingerprint, dtype=float)
        return self.submit_many(venue, fp[None, :])[0]

    def submit_many(
        self, venue: str, batch: np.ndarray
    ) -> List[Ticket]:
        """Queue a burst of same-venue scans; one ticket per row.

        The burst amortizes validation, cache probing (vectorized
        quantization) and queue locking over all its rows — this is
        the high-throughput submission path a gateway thread should
        use for a device's scan burst.
        """
        if not self.running:
            # Checked again under the lock below; failing before the
            # cache probe keeps a dead pipeline from mutating the
            # service stats for answers it will never deliver.
            raise ServingError("pipeline is not running")
        t0 = time.perf_counter()
        shard = self.service.shard(venue)
        venue = shard.key
        rows = shard._validate(batch)
        out, hit, keys = self.service.try_cached(venue, rows)
        tracer = self.service.tracer
        tickets: List[Ticket] = []
        entries: List[_Entry] = []
        n_hits = 0
        now = time.perf_counter()
        for i in range(len(rows)):
            if hit[i]:
                tickets.append(Ticket.resolved(out[i]))
                n_hits += 1
            else:
                ticket = Ticket(self._done_cv)
                tickets.append(ticket)
                span = (
                    tracer.start("pipeline.request", {"venue": venue})
                    if tracer is not None and tracer.sample()
                    else None
                )
                entries.append(
                    (venue, rows[i], keys[i], ticket, now, span)
                )
        if n_hits:
            # Fast-path hits resolve in the submitting thread; their
            # queue-inclusive latency is just the probe time.
            self._h_latency.record_n(
                time.perf_counter() - t0, n_hits
            )
        with self._mu:
            if not self._started or self._stopping:
                raise ServingError("pipeline is not running")
            self.stats.submitted += len(rows)
            self.stats.fast_path_hits += n_hits
            if entries:
                self._queue.extend(entries)
                self._mu.notify()
        return tickets

    def locate(
        self,
        venue: str,
        fingerprint: np.ndarray,
        timeout: Optional[float] = None,
    ) -> np.ndarray:
        """Submit one scan and wait for its location → ``(2,)``."""
        return self.submit(venue, fingerprint).result(timeout)

    # ------------------------------------------------------------------
    # Flusher
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._mu:
                while not self._queue and not self._stopping:
                    self._mu.wait()
                if not self._queue:
                    return  # stopping, fully drained
                if self._stopping:
                    reason = "drain_flushes"
                elif len(self._queue) < self.max_batch:
                    # Deadline is anchored to the oldest request's
                    # enqueue time, so time already spent waiting
                    # behind a previous flush counts against it.
                    deadline = self._queue[0][4] + self.max_delay
                    while (
                        len(self._queue) < self.max_batch
                        and not self._stopping
                    ):
                        remaining = deadline - time.perf_counter()
                        if remaining <= 0:
                            break
                        self._mu.wait(remaining)
                    reason = (
                        "full_flushes"
                        if len(self._queue) >= self.max_batch
                        else "drain_flushes"
                        if self._stopping
                        else "deadline_flushes"
                    )
                else:
                    reason = "full_flushes"
                batch = self._queue[: self.max_batch]
                del self._queue[: self.max_batch]
                setattr(
                    self.stats, reason, getattr(self.stats, reason) + 1
                )
            self._flush(batch)

    def _flush(self, batch: List[_Entry]) -> None:
        """Serve one micro-batch through the serve core and settle each
        ticket with its own row's outcome."""
        service = self.service
        tracer = service.tracer
        start = time.perf_counter()
        serve_span = None
        if tracer is not None and any(e[5] is not None for e in batch):
            # One serve span is shared by every sampled request in the
            # batch — the flusher serves them together, so their trees
            # share the batched stage breakdown.
            serve_span = tracer.start("serve", {"batch": len(batch)})
        try:
            with (
                tracer.activate(serve_span) if serve_span is not None
                else nullcontext()
            ):
                groups, failed = service._group(
                    [e[0] for e in batch], [e[1] for e in batch],
                    service.shard,
                )
                out, lost = service._serve(
                    groups, len(batch), start, [e[2] for e in batch]
                )
            errors = dict(failed + lost)
        except Exception as exc:  # resolve tickets, never die silent
            errors = dict.fromkeys(range(len(batch)), exc)
        now = time.perf_counter()
        settle(
            self._done_cv,
            [
                (e[3], None, errors[i]) if i in errors
                else (e[3], out[i], None)
                for i, e in enumerate(batch)
            ],
            now,
        )
        # Queue-inclusive per-request latency of the answered rows,
        # vectorized over the batch (one searchsorted, one scatter-add).
        self._h_latency.record_many(
            now - np.asarray(
                [e[4] for i, e in enumerate(batch) if i not in errors]
            )
        )
        if serve_span is not None:
            serve_span.duration = now - start
            for i, e in enumerate(batch):
                root = e[5]
                if root is None:
                    continue
                if i in errors:
                    root.meta = {"error": type(errors[i]).__name__}
                root.child("queue", duration=max(0.0, start - e[4]))
                root.children.append(serve_span)
                root.duration = now - root.start
                tracer.finish(root)
        self.stats.flushed += len(batch) - len(errors)
        self.stats.failed += len(errors)
        self.stats.batches += 1
        self.stats.largest_batch = max(
            self.stats.largest_batch, len(batch)
        )
