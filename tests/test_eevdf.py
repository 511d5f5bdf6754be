"""The EEVDF model: eligibility, deadlines, lag-capped placement."""

import pytest
from hypothesis import given, strategies as st

from repro.kernel.threads import ComputeBody
from repro.sched.eevdf import _ELIGIBILITY_SLACK, EevdfScheduler
from repro.sched.features import SchedFeatures
from repro.sched.params import SchedParams
from repro.sched.runqueue import RunQueue
from repro.sched.task import Task
from tests.strategies import nice_full_range

PARAMS = SchedParams.for_cores(16)
MS = 1_000_000


def make(name, vruntime=0.0, nice=0, deadline=None):
    t = Task(name, body=ComputeBody(), nice=nice)
    t.vruntime = vruntime
    t.last_sleep_vruntime = vruntime
    t.deadline = deadline if deadline is not None else vruntime
    return t


@pytest.fixture
def sched():
    return EevdfScheduler(PARAMS)


@pytest.fixture
def rq():
    return RunQueue(0)


class TestEligibility:
    def test_behind_average_is_eligible(self, sched, rq):
        rq.current = make("c", vruntime=100 * MS)
        behind = make("b", vruntime=50 * MS)
        rq.add(behind)
        assert sched.is_eligible(rq, behind)

    def test_ahead_of_average_is_not(self, sched, rq):
        rq.current = make("c", vruntime=50 * MS)
        ahead = make("a", vruntime=100 * MS)
        rq.add(ahead)
        assert not sched.is_eligible(rq, ahead)

    def test_average_is_load_weighted(self, sched, rq):
        heavy = make("h", vruntime=0.0, nice=-10)  # weight 9548
        light = make("l", vruntime=100 * MS, nice=10)  # weight 110
        rq.add(heavy)
        rq.add(light)
        avg = rq.avg_vruntime()
        assert avg < 50 * MS  # pulled toward the heavy task


class TestPlacement:
    def test_wakeup_deficit_capped_at_one_slice(self, sched, rq):
        """§4.5 calibration: a hibernated thread wakes one base slice
        behind the average — the observable behind the paper's median
        of 219 preemptions."""
        rq.current = make("c", vruntime=100 * MS)
        rq.update_min_vruntime()
        sleeper = make("s", vruntime=0.0)
        sched.place_waking(rq, sleeper)
        assert sleeper.vruntime == pytest.approx(
            rq.avg_vruntime() - PARAMS.base_slice, rel=1e-6
        )

    def test_vruntime_never_moves_backwards(self, sched, rq):
        rq.current = make("c", vruntime=100 * MS)
        napper = make("n", vruntime=99.5 * MS)
        sched.place_waking(rq, napper)
        assert napper.vruntime == 99.5 * MS

    def test_placement_renews_deadline(self, sched, rq):
        rq.current = make("c", vruntime=100 * MS)
        sleeper = make("s", vruntime=0.0)
        sched.place_waking(rq, sleeper)
        assert sleeper.deadline == pytest.approx(
            sleeper.vruntime + PARAMS.base_slice
        )

    def test_weighted_slice(self, sched):
        light = make("l", nice=10)
        assert sched.vslice(light) > PARAMS.base_slice


class TestWakeupPreemption:
    def _place(self, sched, rq, curr_v):
        curr = make("c", vruntime=curr_v)
        sched.renew_deadline(curr)
        rq.current = curr
        wakee = make("w", vruntime=0.0)
        sched.place_waking(rq, wakee)
        return curr, wakee

    def test_well_slept_wakee_preempts(self, sched, rq):
        curr, wakee = self._place(sched, rq, 100 * MS)
        assert sched.wants_wakeup_preempt(rq, curr, wakee)

    def test_ineligible_wakee_does_not(self, sched, rq):
        curr = make("c", vruntime=50 * MS)
        sched.renew_deadline(curr)
        rq.current = curr
        ahead = make("a", vruntime=80 * MS)
        ahead.deadline = ahead.vruntime  # earliest possible deadline
        assert not sched.wants_wakeup_preempt(rq, curr, ahead)

    def test_later_deadline_does_not_preempt(self, sched, rq):
        curr = make("c", vruntime=100 * MS, deadline=100 * MS + 1)
        rq.current = curr
        wakee = make("w", vruntime=99 * MS, deadline=200 * MS)
        rq.add(wakee)
        assert not sched.wants_wakeup_preempt(rq, curr, wakee)

    def test_no_wakeup_preemption_feature(self, rq):
        sched = EevdfScheduler(PARAMS, SchedFeatures.no_wakeup_preemption())
        curr, wakee = (
            make("c", vruntime=100 * MS),
            make("w", vruntime=0.0),
        )
        rq.current = curr
        sched.place_waking(rq, wakee)
        assert not sched.wants_wakeup_preempt(rq, curr, wakee)

    def test_run_to_parity_protects_current(self, rq):
        sched = EevdfScheduler(PARAMS, SchedFeatures(run_to_parity=True))
        curr = make("c", vruntime=100 * MS, deadline=105 * MS)
        rq.current = curr
        wakee = make("w", vruntime=0.0)
        sched.place_waking(rq, wakee)
        assert not sched.wants_wakeup_preempt(rq, curr, wakee)


class TestGuardParityOrdering:
    """Pin the ``wakeup_min_slice_ns`` guard / ``RUN_TO_PARITY``
    interaction (``eevdf.py`` wakeup path).

    Both are pure *deny* filters, so the decision must be their
    conjunction: a wakee preempts only when the current task has run
    its guaranteed minimum slice AND has reached its 0-lag point.
    Passing one check must never short-circuit around the other —
    the §6 ablation's ``min_slice_1ms`` and ``eevdf_run_to_parity``
    rows both depend on this.
    """

    def _decision(self, rq, features, *, slice_exec, deadline_gap):
        sched = EevdfScheduler(PARAMS, features)
        curr = make("c", vruntime=100 * MS, deadline=100 * MS + deadline_gap)
        curr.slice_exec = slice_exec
        rq.current = curr
        # Eligible (behind the average) and earlier-deadline wakee: the
        # base EEVDF comparison alone would always preempt.
        wakee = make("w", vruntime=99 * MS, deadline=99 * MS)
        rq.add(wakee)
        return sched.wants_wakeup_preempt(rq, curr, wakee)

    def test_base_case_preempts(self, rq):
        assert self._decision(rq, SchedFeatures(),
                              slice_exec=0.0, deadline_gap=0.0)

    def test_guard_denies_under_min_slice(self, rq):
        features = SchedFeatures.min_slice_guard(1 * MS)
        assert not self._decision(rq, features,
                                  slice_exec=0.5 * MS, deadline_gap=0.0)

    def test_guard_releases_at_min_slice(self, rq):
        features = SchedFeatures.min_slice_guard(1 * MS)
        assert self._decision(rq, features,
                              slice_exec=1 * MS, deadline_gap=0.0)

    def test_guard_pass_does_not_skip_parity(self, rq):
        """The regression this class exists for: satisfying the
        min-slice guard must not bypass RUN_TO_PARITY's protection of a
        current task still before its 0-lag point."""
        features = SchedFeatures(run_to_parity=True,
                                 wakeup_min_slice_ns=1 * MS)
        assert not self._decision(rq, features,
                                  slice_exec=2 * MS, deadline_gap=5 * MS)

    def test_parity_pass_does_not_skip_guard(self, rq):
        """Symmetric direction: a current task at its 0-lag point is
        still protected until it has run the guaranteed minimum."""
        features = SchedFeatures(run_to_parity=True,
                                 wakeup_min_slice_ns=1 * MS)
        assert not self._decision(rq, features,
                                  slice_exec=0.5 * MS, deadline_gap=0.0)

    def test_both_satisfied_preempts(self, rq):
        features = SchedFeatures(run_to_parity=True,
                                 wakeup_min_slice_ns=1 * MS)
        assert self._decision(rq, features,
                              slice_exec=2 * MS, deadline_gap=0.0)


class TestSelection:
    def test_picks_earliest_deadline_among_eligible(self, sched, rq):
        a = make("a", vruntime=10 * MS, deadline=40 * MS)
        b = make("b", vruntime=20 * MS, deadline=30 * MS)
        rq.add(a)
        rq.add(b)
        # Both eligible (vruntime <= avg of 15 MS? a yes, b no).
        picked = sched.pick_next(rq)
        assert picked is a  # only `a` is eligible

    def test_falls_back_to_earliest_deadline_when_none_eligible(
        self, sched, rq
    ):
        # Single queued task ahead of nothing: avg == its own vruntime,
        # so it is eligible; craft two where neither is (impossible for
        # the weighted average) — fallback still returns *something*.
        a = make("a", vruntime=10 * MS, deadline=99 * MS)
        rq.add(a)
        assert sched.pick_next(rq) is a

    def test_pick_takes_one_average(self, sched, rq, monkeypatch):
        """A pick tests every candidate against one load-weighted
        average, as ``is_eligible`` does, instead of recomputing it per
        candidate."""
        rq.current = make("curr", vruntime=5 * MS, deadline=9 * MS)
        for i, (vruntime, deadline) in enumerate(
                [(1 * MS, 8 * MS), (2 * MS, 4 * MS), (8 * MS, 1 * MS)]):
            rq.add(make(f"t{i}", vruntime=vruntime, deadline=deadline))
        averages = []
        avg_vruntime = RunQueue.avg_vruntime

        def counted(queue):
            averages.append(queue)
            return avg_vruntime(queue)

        monkeypatch.setattr(RunQueue, "avg_vruntime", counted)
        assert sched.pick_next(rq).name == "t1"
        assert len(averages) == 1
        assert sched.tick_preempt(rq, rq.current)
        assert len(averages) == 2

    def test_pick_takes_a_task_exactly_at_the_bound(self, sched, rq):
        """A task whose vruntime equals the average plus the slack is
        eligible, as ``is_eligible`` says, and its earlier deadline
        wins."""
        at_bound = make("at_bound", vruntime=2 * _ELIGIBILITY_SLACK,
                        deadline=1.0)
        rq.add(make("behind", vruntime=0.0, deadline=2.0))
        rq.add(at_bound)
        assert rq.avg_vruntime() + _ELIGIBILITY_SLACK == at_bound.vruntime
        assert sched.is_eligible(rq, at_bound)
        assert sched.pick_next(rq) is at_bound

    @given(tasks=st.lists(st.tuples(
        st.floats(0.0, 1e7), st.floats(0.0, 1e7), nice_full_range),
        min_size=1, max_size=6), with_current=st.booleans())
    def test_pick_matches_per_candidate_eligibility(self, tasks,
                                                    with_current):
        """The same task as a pick that asks ``is_eligible`` of each
        candidate."""
        sched, rq = EevdfScheduler(PARAMS), RunQueue(0)
        built = [make(f"t{i}", vruntime=v, nice=nice, deadline=d)
                 for i, (v, d, nice) in enumerate(tasks)]
        for pid, task in enumerate(built):
            task.pid = pid
        if with_current:
            rq.current = built.pop()
        for task in built:
            rq.add(task)
        candidates = list(rq.queued) + ([rq.current] if with_current else [])
        pool = ([t for t in candidates if sched.is_eligible(rq, t)]
                or candidates)
        want = min(pool, key=lambda t: (t.deadline, t.vruntime, t.pid))
        assert sched._pick_among(rq, include_current=with_current) is want

    def test_empty_queue(self, sched, rq):
        assert sched.pick_next(rq) is None

    def test_tick_renews_deadline_when_consumed(self, sched, rq):
        curr = make("c", vruntime=10 * MS, deadline=5 * MS)
        rq.current = curr
        sched.tick_preempt(rq, curr)
        assert curr.deadline > curr.vruntime


#: (nice, vruntime, deadline - vruntime) of one task.
task_states = st.tuples(
    nice_full_range,
    st.floats(min_value=0.0, max_value=100 * MS),
    st.floats(min_value=-10 * MS, max_value=10 * MS),
)


class TestTickPreempt:
    """A tick with no queued task skips the EEVDF pick; the decision and
    the deadline it leaves must be those of the full pick."""

    @staticmethod
    def build(current, queued):
        rq = RunQueue(0)
        tasks = [make(f"t{i}", vruntime=vruntime, nice=nice,
                      deadline=vruntime + ahead)
                 for i, (nice, vruntime, ahead) in enumerate([current, *queued])]
        for pid, task in enumerate(tasks):
            task.pid = pid
        rq.current = tasks[0]
        for task in tasks[1:]:
            rq.add(task)
        return rq, tasks[0]

    @given(current=task_states, queued=st.lists(task_states, max_size=3))
    def test_matches_full_pick(self, current, queued):
        sched = EevdfScheduler(PARAMS)
        rq, curr = self.build(current, queued)
        decision = sched.tick_preempt(rq, curr)
        ref_rq, ref_curr = self.build(current, queued)
        if ref_curr.vruntime >= ref_curr.deadline:
            sched.renew_deadline(ref_curr)
        best = sched._pick_among(ref_rq, include_current=True)
        assert decision == (best is not ref_curr)
        assert curr.deadline == ref_curr.deadline
