"""Task model and the kernel nice→weight table."""

import sys
import threading

import pytest
from hypothesis import given, strategies as st

from repro.kernel.threads import ComputeBody
from repro.sched.task import (
    NICE_0_LOAD,
    SCHED_PRIO_TO_WEIGHT,
    Task,
    fresh_pids,
    nice_to_weight,
)


class TestWeightTable:
    def test_nice_zero_is_1024(self):
        assert nice_to_weight(0) == NICE_0_LOAD == 1024

    def test_extremes(self):
        assert nice_to_weight(-20) == 88761
        assert nice_to_weight(19) == 15

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            nice_to_weight(-21)
        with pytest.raises(ValueError):
            nice_to_weight(20)

    def test_table_strictly_decreasing(self):
        assert all(
            a > b
            for a, b in zip(SCHED_PRIO_TO_WEIGHT, SCHED_PRIO_TO_WEIGHT[1:])
        )

    def test_roughly_1_25x_per_level(self):
        """The kernel designed the table so each nice level is ~a 10 %
        CPU share step (weight ratio ≈ 1.25)."""
        for a, b in zip(SCHED_PRIO_TO_WEIGHT, SCHED_PRIO_TO_WEIGHT[1:]):
            assert 1.1 < a / b < 1.4


class TestVruntimeDelta:
    def test_nice_zero_identity(self):
        t = Task("t", body=ComputeBody())
        assert t.vruntime_delta(1000.0) == 1000.0

    def test_high_priority_accrues_slower(self):
        hi = Task("hi", body=ComputeBody(), nice=-20)
        lo = Task("lo", body=ComputeBody(), nice=19)
        assert hi.vruntime_delta(1000.0) < 1000.0 < lo.vruntime_delta(1000.0)

    @given(st.integers(min_value=-20, max_value=19),
           st.floats(min_value=0.0, max_value=1e9))
    def test_delta_nonnegative_and_monotone_in_time(self, nice, exec_ns):
        t = Task("t", body=ComputeBody(), nice=nice)
        assert t.vruntime_delta(exec_ns) >= 0.0
        assert t.vruntime_delta(exec_ns + 1.0) > t.vruntime_delta(exec_ns)


class TestTaskIdentity:
    def test_pids_unique(self):
        a = Task("a", body=ComputeBody())
        b = Task("b", body=ComputeBody())
        assert a.pid != b.pid
        assert a != b
        assert a == a

    def test_pin_to(self):
        t = Task("t", body=ComputeBody())
        assert t.can_run_on(0) and t.can_run_on(5)
        t.pin_to(3)
        assert t.can_run_on(3)
        assert not t.can_run_on(2)

    def test_default_timer_slack_is_50us(self):
        assert Task("t", body=ComputeBody()).timer_slack == 50_000.0

    def test_fresh_pids_numbers_each_thread_from_1000(self):
        """Threads inside ``fresh_pids`` at the same time each number
        their own tasks from 1000."""
        workers, per_worker = 6, 200
        barrier = threading.Barrier(workers)
        seen = {}

        def work(n):
            with fresh_pids():
                barrier.wait(timeout=10)
                seen[n] = [Task("t", body=ComputeBody()).pid
                           for _ in range(per_worker)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(n,))
                       for n in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        expected = list(range(1000, 1000 + per_worker))
        assert seen == {n: expected for n in range(workers)}
