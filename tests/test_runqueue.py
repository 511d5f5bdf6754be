"""Per-CPU runqueue bookkeeping."""

import functools
import operator

import pytest

from repro.kernel.threads import ComputeBody
from repro.sched.runqueue import RunQueue
from repro.sched.task import Task, TaskState


def make(name, vruntime=0.0, nice=0):
    t = Task(name, body=ComputeBody(), nice=nice)
    t.vruntime = vruntime
    return t


class TestMembership:
    def test_add_sets_cpu_and_state(self):
        rq = RunQueue(3)
        t = make("t")
        rq.add(t)
        assert t.cpu == 3
        assert t.state is TaskState.RUNNABLE

    def test_double_add_rejected(self):
        rq = RunQueue(0)
        t = make("t")
        rq.add(t)
        with pytest.raises(ValueError):
            rq.add(t)

    def test_nr_running_counts_current(self):
        rq = RunQueue(0)
        rq.add(make("a"))
        assert rq.nr_running == 1
        rq.current = make("c")
        assert rq.nr_running == 2

    def test_all_tasks_includes_current_first(self):
        rq = RunQueue(0)
        c = make("c")
        rq.current = c
        rq.add(make("q"))
        assert list(rq.all_tasks())[0] is c

    def test_load_sums_weights(self):
        rq = RunQueue(0)
        rq.add(make("a", nice=0))
        rq.add(make("b", nice=0))
        assert rq.load == 2048


class TestAggregates:
    def test_min_vruntime_monotonic(self):
        rq = RunQueue(0)
        rq.add(make("a", vruntime=100.0))
        rq.update_min_vruntime()
        assert rq.min_vruntime == 100.0
        rq.queued[0].vruntime = 50.0  # task vruntime regressed (cannot
        rq.update_min_vruntime()      # happen live, but the aggregate
        assert rq.min_vruntime == 100.0  # must still never decrease)

    def test_min_vruntime_considers_current(self):
        rq = RunQueue(0)
        rq.current = make("c", vruntime=5.0)
        rq.add(make("q", vruntime=10.0))
        rq.update_min_vruntime()
        assert rq.min_vruntime == 5.0

    def test_avg_vruntime_equal_weights(self):
        rq = RunQueue(0)
        rq.add(make("a", vruntime=10.0))
        rq.add(make("b", vruntime=30.0))
        assert rq.avg_vruntime() == pytest.approx(20.0)

    def test_avg_vruntime_sums_left_to_right(self):
        """From Python 3.12 on, ``sum()`` adds floats with compensated
        summation.  These terms round differently under it, and the
        EEVDF average must not depend on the Python version."""
        rq = RunQueue(0)
        rq.current = make("a", 4134364244.112, nice=0)
        rq.add(make("b", 4847433736.937, nice=-5))
        rq.add(make("c", 4763774618.977, nice=5))
        tasks = list(rq.all_tasks())
        terms = [t.vruntime * t.weight for t in tasks]
        weighted = functools.reduce(operator.add, terms)
        assert rq.avg_vruntime() == weighted / sum(t.weight for t in tasks)

    def test_avg_vruntime_empty_queue(self):
        rq = RunQueue(0)
        rq.min_vruntime = 7.0
        assert rq.avg_vruntime() == 7.0

    def test_leftmost_stable_tiebreak(self):
        rq = RunQueue(0)
        a = make("a", vruntime=10.0)
        b = make("b", vruntime=10.0)
        rq.add(a)
        rq.add(b)
        assert rq.leftmost() is (a if a.pid < b.pid else b)

    def test_leftmost_empty(self):
        assert RunQueue(0).leftmost() is None
