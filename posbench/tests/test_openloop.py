"""Tests of the benchmark's own pieces, against fake servers.

Run with ``python -m pytest posbench/tests`` from the repository root.
"""

import math
import time

import numpy as np
import pytest

from layers import LayerTimer
from openloop import (
    SLO_S,
    PhaseResult,
    drive,
    find_capacity,
    lag_valid,
    percentile,
    poisson_offsets,
    rate_ladder,
    supported_percentile,
    unattributed_share,
)


class FakeTicket:
    def __init__(self, error=None):
        self.done = True
        self.done_at = time.perf_counter()
        self.error = error
        self.value = np.zeros(2)


# -- schedules ------------------------------------------------------------
def test_schedule_is_identical_for_a_seed_and_differs_across_seeds():
    a = poisson_offsets(500.0, 2.0, np.random.default_rng(7))
    b = poisson_offsets(500.0, 2.0, np.random.default_rng(7))
    c = poisson_offsets(500.0, 2.0, np.random.default_rng(8))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a[: min(a.size, c.size)], c[: min(a.size, c.size)])


def test_schedule_is_a_poisson_process_at_the_rate():
    offsets = poisson_offsets(2000.0, 5.0, np.random.default_rng(1))
    assert np.all(np.diff(offsets) > 0)
    assert offsets[0] >= 0 and offsets[-1] < 5.0
    assert abs(offsets.size / 5.0 - 2000.0) < 0.05 * 2000.0
    gaps = np.diff(offsets)
    # Exponential gaps: coefficient of variation 1.
    assert abs(gaps.std() / gaps.mean() - 1.0) < 0.05


# -- percentiles ----------------------------------------------------------
@pytest.mark.parametrize("n", [11, 20, 137, 500, 999, 1000, 1001, 5000])
def test_reported_percentile_keeps_ten_samples_beyond(n):
    values = np.random.default_rng(n).permutation(n).astype(float)
    value, used = percentile(values, 99.0)
    assert used <= 99.0
    assert np.sum(values > value) >= 10


@pytest.mark.parametrize("n", [1000, 1001, 5000])
def test_p99_is_reported_as_is_with_enough_samples(n):
    assert supported_percentile(99.0, n) == 99.0


def test_percentile_backs_off_to_the_highest_supported_one():
    used = supported_percentile(99.0, 500)
    assert used < 99.0
    values = np.arange(500, dtype=float)
    # Any higher percentile would leave fewer than ten samples beyond.
    higher = np.percentile(values, used + 0.25)
    assert np.sum(values > higher) < 10


def test_too_few_samples_support_no_percentile():
    with pytest.raises(ValueError):
        supported_percentile(50.0, 10)


# -- the open loop --------------------------------------------------------
def test_latency_is_measured_from_the_intended_send_time():
    offsets = np.arange(40) * 0.005  # 200/s
    stalled = 10

    def submit(i):
        if i == stalled:
            time.sleep(0.05)  # the generator stalls: later sends are late
        return FakeTicket()

    result = drive(submit, offsets, rate=200.0)
    assert result.n_failed == 0
    # The requests queued behind the stall are charged for it ...
    assert result.latency_s[stalled + 1] > 0.03
    assert result.lag_s[stalled + 1] > 0.03
    # ... and the stall does not thin the load: every request is sent.
    assert result.sent == offsets.size
    assert result.latency_s[0] < 0.02


def test_errors_and_rejections_count_as_failed_and_miss_the_slo():
    def submit(i):
        if i == 3:
            raise RuntimeError("rejected")
        return FakeTicket(error=RuntimeError("boom") if i == 5 else None)

    result = drive(submit, np.arange(20) * 0.001, rate=1000.0)
    assert result.n_failed == 2
    assert math.isinf(result.latency_s[3]) and math.isinf(result.latency_s[5])
    assert not result.meets_slo()


def _phase(rate, latencies, backlog=0):
    n = len(latencies)
    return PhaseResult(
        rate=rate,
        intended=np.zeros(n),
        latency_s=np.asarray(latencies, dtype=float),
        lag_s=np.zeros(n),
        submit_s=np.zeros(n),
        done_at=np.zeros(n),
        failed=np.zeros(n, dtype=bool),
        tickets=[None] * n,
        backlog=backlog,
        aborted=False,
        wall_s=1.0,
    )


def test_slo_verdict_needs_the_tail_and_no_growing_backlog():
    fast = np.full(2000, 0.01)
    assert _phase(1000.0, fast).meets_slo()
    slow_tail = fast.copy()
    slow_tail[:30] = 2 * SLO_S  # 1.5% over the limit
    assert not _phase(1000.0, slow_tail).meets_slo()
    # Little's law: more than rate x SLO in flight is a growing queue.
    assert not _phase(1000.0, fast, backlog=101).meets_slo()
    assert _phase(1000.0, fast, backlog=100).meets_slo()


def test_generator_lag_is_judged_over_a_rates_chunks_together():
    stalled = _phase(1000.0, np.full(2000, 0.01))
    stalled.lag_s[:100] = 0.2  # 5% of this chunk sent late
    calm = [_phase(1000.0, np.full(2000, 0.01)) for _ in range(5)]
    assert not lag_valid([stalled])
    assert lag_valid([stalled] + calm)  # under 1% of the phase


# -- the rate ladder ------------------------------------------------------
def _p99_curve(rate, knee=1000.0):
    """A queue-like tail latency that diverges at ``knee``."""
    return math.inf if rate >= knee else 0.01 / (1.0 - rate / knee)


def test_capacity_is_the_highest_rung_meeting_the_slo():
    rungs = rate_ladder(100.0, 3000.0, 1.05)
    assert np.allclose(np.diff(np.log(rungs)), math.log(1.05))
    probed = []

    def meets(rate):
        probed.append(rate)
        return _p99_curve(rate) <= SLO_S

    capacity, probes = find_capacity(rungs, meets)
    # p99 <= 100 ms  <=>  rate <= 900/s on this curve.
    assert capacity == max(r for r in rungs if r <= 900.0)
    passes = [rate for rate, ok in probes if ok]
    assert capacity == max(passes)
    verdicts = {rate for rate, _ in probes}
    assert len(verdicts) <= math.ceil(math.log2(len(rungs) + 1))
    assert len(probed) <= 2 * len(verdicts)


def test_a_single_spurious_failure_is_confirmed_before_it_counts():
    rungs = rate_ladder(100.0, 3000.0, 1.05)
    flaky = {"left": 1}

    def meets(rate):
        if rate < 500.0 and flaky["left"]:
            flaky["left"] -= 1
            return False  # one stall, far below the knee
        return _p99_curve(rate) <= SLO_S

    capacity, _ = find_capacity(rungs, meets)
    assert capacity == max(r for r in rungs if r <= 900.0)


def test_capacity_is_zero_when_no_rung_meets_the_slo():
    capacity, probes = find_capacity(rate_ladder(1.0, 10.0, 1.1), lambda r: False)
    assert capacity == 0.0
    assert all(not ok for _, ok in probes)


# -- reconciliation -------------------------------------------------------
def test_unattributed_share_of_the_end_to_end_mean():
    assert unattributed_share(10.0, [2.0, 3.0, 4.0]) == pytest.approx(0.1)
    assert unattributed_share(10.0, [10.0]) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        unattributed_share(0.0, [1.0])


def test_nested_layer_spans_reconcile_with_the_outer_call():
    """The outer layer's self time plus its child's covers it whole."""

    class Inner:
        def work(self, rows):
            time.sleep(0.002)
            return rows

    class Outer:
        def __init__(self):
            self.inner = Inner()

        def work(self, rows):
            time.sleep(0.003)
            return self.inner.work(rows)

    timer = LayerTimer()
    timer.patch(Outer, "work", "outer")
    timer.patch(Inner, "work", "inner")
    try:
        Outer().work(np.zeros((4, 3)))
    finally:
        timer.restore()
    outer, inner = timer.total_s("outer"), timer.total_s("inner")
    (o_start, o_end, _), = timer.spans["outer"]
    (i_start, i_end, _), = timer.spans["inner"]
    assert o_start <= i_start and i_end <= o_end
    assert 0.003 <= outer - inner < outer
    assert unattributed_share(outer, [outer - inner, inner]) == pytest.approx(
        0.0, abs=1e-12
    )
    assert timer.rows("outer").tolist() == [4.0]


# -- layer timer ----------------------------------------------------------
def test_layer_timer_restores_class_instance_and_inherited_attributes():
    class Base:
        def f(self, x):
            return x + 1

        @classmethod
        def make(cls, x):
            return x * 2

    class Child(Base):
        pass

    obj = Base()
    originals = (Base.__dict__["f"], Base.__dict__["make"])
    timer = LayerTimer()
    timer.patch(Child, "f", "child.f")
    timer.patch(Base, "make", "make")
    timer.patch(obj, "f", "obj.f")
    assert Child().f(1) == 2 and Base.make(3) == 6 and obj.f(2) == 3
    timer.restore()
    assert (Base.__dict__["f"], Base.__dict__["make"]) == originals
    assert "f" not in Child.__dict__ and "f" not in vars(obj)
    assert len(timer.spans["child.f"]) == len(timer.spans["make"]) == 1
    assert len(timer.spans["obj.f"]) == 1


def test_layer_timer_thread_filter_skips_other_threads():
    class Work:
        def f(self):
            return 1

    timer = LayerTimer()
    timer.patch(Work, "f", "f", thread="no-such-thread")
    try:
        Work().f()
    finally:
        timer.restore()
    assert timer.spans["f"] == []
