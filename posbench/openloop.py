"""Open-loop load generation and the arithmetic the benchmark reports.

Everything here is independent of the positioning stack, so the unit
tests in ``tests/`` exercise it against fake servers:

* :func:`poisson_offsets` — a seeded Poisson arrival schedule;
* :func:`drive` — one submitting thread that sends each request at
  its *intended* time and measures latency from that time, so a stall
  is charged to every request queued behind it (no coordinated
  omission); generator lateness is recorded per request;
* :func:`percentile` — percentiles that honour the rule "report only a
  percentile with at least ten samples beyond it";
  :func:`windowed_percentile` reports the median over windows of them;
* :func:`rate_ladder` / :func:`find_capacity` — the fixed geometric
  rate ladder and the search for its highest rung meeting the SLO;
* :func:`unattributed_share` — the per-layer reconciliation against
  the end-to-end mean.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

#: Latency objective: p99 from intended send time, in seconds.
SLO_S = 0.100
#: The percentile the SLO is set on.
SLO_PERCENTILE = 99.0
#: A phase whose generator lag p99 exceeds this is invalid (seconds).
#: Lag is already inside every latency; the bound only catches a
#: generator too starved to offer the scheduled load, and half the SLO
#: leaves room for the bursts of steal a shared 2-vCPU machine shows.
LAG_BOUND_S = 0.050
#: Minimum number of samples beyond a reported percentile.
BEYOND = 10
#: How long a phase waits for answers after its last send (seconds);
#: a request still pending then counts as failed (timed out).
SETTLE_S = 10.0


def poisson_offsets(
    rate: float, duration: float, rng: np.random.Generator
) -> np.ndarray:
    """Intended send times (seconds from phase start) of a Poisson
    process at ``rate`` per second over ``duration`` seconds."""
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    expected = rate * duration
    n = int(expected + 6.0 * math.sqrt(expected) + 16)
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=n))
    while offsets[-1] < duration:  # vanishingly rare; stay exact anyway
        more = offsets[-1] + np.cumsum(
            rng.exponential(1.0 / rate, size=n)
        )
        offsets = np.concatenate([offsets, more])
    return offsets[offsets < duration]


def supported_percentile(p: float, n: int) -> float:
    """The highest percentile ``<= p`` with ``BEYOND`` samples above it.

    With ``n`` sorted samples, numpy's linear percentile ``q`` sits at
    position ``h = (n - 1) q / 100``; the samples strictly above it
    number ``n - 1 - floor(h)``.  ``p`` is kept while that count is at
    least ``BEYOND``; otherwise ``h`` is capped at ``n - 1 - BEYOND``.
    """
    if n <= BEYOND:
        raise ValueError(
            f"{n} samples cannot support any percentile with "
            f"{BEYOND} samples beyond it"
        )
    if n - 1 - math.floor((n - 1) * p / 100.0) >= BEYOND:
        return float(p)
    return 100.0 * (n - 1 - BEYOND) / (n - 1)


def percentile(values: Sequence[float], p: float) -> Tuple[float, float]:
    """``(value, percentile used)`` under :func:`supported_percentile`.

    Infinite values (failed requests) sort last, so they count as
    missing any latency limit.
    """
    arr = np.asarray(values, dtype=float)
    used = supported_percentile(p, arr.size)
    return float(np.percentile(arr, used)), used


#: Requests per window of :func:`windowed_percentile`: enough for a
#: p99 with ten samples beyond it.
WINDOW = 1100
MAX_WINDOWS = 9


def windowed_percentile(values: Sequence[float], p: float) -> float:
    """Median over consecutive windows of each window's percentile.

    ``values`` in arrival order is cut into as many windows of at
    least ``WINDOW`` values as it holds (at most ``MAX_WINDOWS``);
    each window reports its percentile ``p`` under the ten-beyond
    rule, and the median of those is returned.  One stall then moves
    one window, not the run's figure.
    """
    arr = np.asarray(values, dtype=float)
    k = max(1, min(MAX_WINDOWS, arr.size // WINDOW))
    per_window = [percentile(chunk, p)[0] for chunk in np.array_split(arr, k)]
    return float(np.median(per_window))


@dataclass
class PhaseResult:
    """What one open-loop phase measured.

    ``latency_s`` holds one entry per sent request, measured from its
    intended send time; failed requests (rejected at submit, resolved
    with an error, or still pending after the settle timeout) are
    ``inf``.  ``backlog`` is the number of requests still in flight
    when the last one was sent.  ``cpu_s`` is the CPU the served
    system spent over the phase, when the caller measured it.
    """

    rate: float
    intended: np.ndarray
    latency_s: np.ndarray
    lag_s: np.ndarray
    submit_s: np.ndarray
    done_at: np.ndarray
    failed: np.ndarray
    tickets: list
    backlog: int
    aborted: bool
    wall_s: float
    cpu_s: float = 0.0

    @property
    def sent(self) -> int:
        return int(self.latency_s.size)

    @property
    def n_failed(self) -> int:
        return int(self.failed.sum())

    def latency_pct_ms(self, p: float) -> float:
        return 1e3 * percentile(self.latency_s, p)[0]

    def windowed_pct_ms(self, p: float) -> float:
        """Median over consecutive windows of each window's
        percentile ``p``, in ms (see :func:`windowed_percentile`)."""
        return 1e3 * windowed_percentile(self.latency_s, p)

    def lag_p99_s(self) -> float:
        return percentile(self.lag_s, SLO_PERCENTILE)[0]

    def meets_slo(self) -> bool:
        """SLO met with no failures and no growing backlog.

        The p99 is :func:`windowed_percentile`'s, so a probe long
        enough for several windows is judged by its typical window
        rather than by its one worst stall.

        Generator lateness is already part of every latency (they are
        measured from intended send times), so it needs no test here.

        The backlog test is Little's law: if every request in flight
        at the end of sending would still finish within the SLO, at
        most ``rate * SLO`` of them can be outstanding.
        """
        if self.aborted or self.n_failed:
            return False
        if self.backlog > max(1.0, self.rate * SLO_S):
            return False
        return windowed_percentile(self.latency_s, SLO_PERCENTILE) <= SLO_S


def drive(
    submit: Callable[[int], object],
    offsets: np.ndarray,
    *,
    rate: float,
    abort_on_slo: bool = False,
) -> PhaseResult:
    """Send request ``i`` at ``start + offsets[i]`` from this thread.

    ``submit(i)`` must return a ticket with ``done``, ``done_at``
    (``time.perf_counter()`` stamp) and ``error`` attributes; raising
    counts the request as rejected.  The loop never waits for answers,
    and a late generator sends every overdue request at once, so
    lateness shows up as latency from the intended time rather than
    as a lighter load.

    ``abort_on_slo`` stops sending as soon as more than 1% of the
    planned requests are provably late (still pending more than the
    SLO after their intended time): the phase can no longer meet the
    SLO, so a capacity probe need not run to the end.
    """
    n = int(offsets.size)
    tickets: List[Optional[object]] = [None] * n
    lag = np.zeros(n)
    submit_s = np.zeros(n)
    failed = np.zeros(n, dtype=bool)
    late_budget = int(0.01 * n)
    pending_from = 0
    sent = n
    aborted = False
    start = time.perf_counter() + 0.002
    intended = start + offsets
    wall0 = time.perf_counter()
    for i in range(n):
        due = intended[i]
        now = time.perf_counter()
        if now < due:
            time.sleep(due - now)
            now = time.perf_counter()
        lag[i] = now - due
        try:
            tickets[i] = submit(i)
        except Exception:
            failed[i] = True
        submit_s[i] = time.perf_counter() - now
        if abort_on_slo and i % 128 == 127:
            while pending_from < i and _settled(tickets[pending_from]):
                pending_from += 1
            horizon = int(
                np.searchsorted(intended, now - SLO_S, side="left")
            )
            late = sum(
                1
                for j in range(pending_from, horizon)
                if not _settled(tickets[j])
            )
            if late > late_budget:
                sent = i + 1
                aborted = True
                break
    end_send = time.perf_counter()
    backlog = sum(1 for t in tickets[:sent] if not _settled(t))
    deadline = end_send + SETTLE_S
    done_at = np.full(n, np.inf)
    for i in range(sent):
        ticket = tickets[i]
        if ticket is None:
            continue
        while not ticket.done and time.perf_counter() < deadline:
            time.sleep(0.0005)
        if not ticket.done or ticket.error is not None:
            failed[i] = True
        else:
            done_at[i] = ticket.done_at
    latency = np.where(failed, np.inf, done_at - intended)
    return PhaseResult(
        rate=rate,
        intended=intended[:sent],
        latency_s=latency[:sent],
        lag_s=lag[:sent],
        submit_s=submit_s[:sent],
        done_at=done_at[:sent],
        failed=failed[:sent],
        tickets=tickets[:sent],
        backlog=backlog,
        aborted=aborted,
        wall_s=time.perf_counter() - wall0,
    )


def lag_valid(chunks: Sequence[PhaseResult]) -> bool:
    """Whether the generator kept to schedule over one rate's chunks,
    judged together: their pooled lag p99 is within ``LAG_BOUND_S``.
    A single host stall then voids a run only if it starves the whole
    phase, not just the chunk it hit."""
    lag = np.concatenate([chunk.lag_s for chunk in chunks])
    return percentile(lag, SLO_PERCENTILE)[0] <= LAG_BOUND_S


def _settled(ticket) -> bool:
    return ticket is None or ticket.done


def rate_ladder(low: float, high: float, step: float) -> np.ndarray:
    """Fixed geometric rungs ``low * step**k`` up to ``high``."""
    if not (0 < low < high) or step <= 1.0:
        raise ValueError("need 0 < low < high and step > 1")
    count = int(math.floor(math.log(high / low) / math.log(step))) + 1
    return low * step ** np.arange(count)


def find_capacity(
    rungs: Sequence[float], meets: Callable[[float], bool]
) -> Tuple[float, List[Tuple[float, bool]]]:
    """Highest rung for which ``meets(rate)`` holds, by bisection.

    Assumes the SLO outcome is monotone in the rate (a system that
    fails at one rate fails at every higher one), so about
    ``log2(len(rungs) + 1)`` verdicts suffice.  A single stall can
    fail a probe well below the knee and bisection never revisits
    it, so a failed rung is probed once more and fails only if both
    probes do.  Returns the capacity (0.0 when
    even the lowest rung fails) and every probe in the order it ran.
    """
    lo, hi = -1, len(rungs)
    probes: List[Tuple[float, bool]] = []
    while hi - lo > 1:
        mid = (lo + hi) // 2
        rate = float(rungs[mid])
        ok = bool(meets(rate))
        probes.append((rate, ok))
        if not ok:
            ok = bool(meets(rate))
            probes.append((rate, ok))
        if ok:
            lo = mid
        else:
            hi = mid
    return (float(rungs[lo]) if lo >= 0 else 0.0), probes


def unattributed_share(
    e2e_mean: float, layer_self_means: Sequence[float]
) -> float:
    """Share of the end-to-end mean that no layer's self time covers."""
    if e2e_mean <= 0:
        raise ValueError("end-to-end mean must be positive")
    return (e2e_mean - float(sum(layer_self_means))) / e2e_mean
