"""The preemption round's bound draws, records and charge.

The kernel's wake, switch and charge path draws its costs through
per-path closures bound once (``CostModel``), builds plain slotted
records, and charges with the weight looked up inline
(``SchedPolicy.charge``).  These tests pin each of them to the form it
replaced: ``max(gauss(mean, sd), 0.25 * mean)`` on the path's own
stream, the dataclass ``repr`` that trace and result digests hash, and
the out-of-range-nice ``ValueError``.
"""

import sys

import pytest

from repro.experiments.setup import build_env
from repro.kernel.costs import CostModel, CostParams
from repro.kernel.threads import ComputeBody
from repro.kernel.tracing import (
    ExitToUserRecord,
    MigrationRecord,
    SwitchRecord,
    VruntimeSample,
    WakeupRecord,
)
from repro.sched.cfs import CfsScheduler
from repro.sched.eevdf import EevdfScheduler
from repro.sched.params import SchedParams
from repro.sched.runqueue import RunQueue
from repro.sched.task import Task
from repro.sim.rng import RngStreams

#: (CostModel draw, its stream, its CostParams mean and σ fields).
PATHS = [
    ("syscall_entry", "cost.syscall", "syscall_entry_mean",
     "syscall_entry_sd"),
    ("irq_entry", "cost.irq", "irq_entry_mean", "irq_entry_sd"),
    ("context_switch", "cost.switch", "switch_mean", "switch_sd"),
    ("timer_fire", "cost.timer", "timer_fire_mean", "timer_fire_sd"),
    ("signal_delivery", "cost.signal", "signal_delivery_mean",
     "signal_delivery_sd"),
    ("aex", "cost.aex", "aex_mean", "aex_sd"),
    ("eresume", "cost.eresume", "eresume_mean", "eresume_sd"),
]

#: σ far above every mean: about half of all draws hit the floor.
HUGE_SD = CostParams(**{sd: 1e5 for _, _, _, sd in PATHS})


class TestBoundDraws:
    @pytest.mark.parametrize("params", [CostParams(), HUGE_SD],
                             ids=["default", "huge-sd"])
    @pytest.mark.parametrize("draw, stream, mean_field, sd_field", PATHS,
                             ids=[p[0] for p in PATHS])
    def test_draw_is_clamped_gauss_on_its_stream(self, params, draw, stream,
                                                 mean_field, sd_field):
        model = CostModel(RngStreams(seed=11), params)
        twin = RngStreams(seed=11).stream(stream)
        mean = getattr(params, mean_field)
        sd = getattr(params, sd_field)
        draws = [getattr(model, draw)() for _ in range(400)]
        expected = [max(twin.gauss(mean, sd), 0.25 * mean)
                    for _ in range(400)]
        assert [repr(d) for d in draws] == [repr(e) for e in expected]
        if params is HUGE_SD:
            assert draws.count(0.25 * mean) > 100  # the clamp ran

    def test_interleaved_paths_draw_from_their_own_streams(self):
        model = CostModel(RngStreams(seed=3))
        twin = RngStreams(seed=3)
        p = model.params
        for _ in range(50):
            for draw, stream, mean_field, sd_field in PATHS:
                mean = getattr(p, mean_field)
                expected = max(twin.stream(stream).gauss(
                    mean, getattr(p, sd_field)), 0.25 * mean)
                assert getattr(model, draw)() == expected


class TestRecords:
    """``_trace_digest`` and ``result_digest`` hash these reprs."""

    @pytest.mark.parametrize("record, text", [
        (SwitchRecord(2150.0, 0, 7, 8, "preempt_wakeup", 1.5, -0.25),
         "SwitchRecord(time=2150.0, cpu=0, prev_pid=7, next_pid=8, "
         "reason='preempt_wakeup', prev_vruntime=1.5, next_vruntime=-0.25)"),
        (SwitchRecord(0.0, 1, None, 9, "block"),
         "SwitchRecord(time=0.0, cpu=1, prev_pid=None, next_pid=9, "
         "reason='block', prev_vruntime=0.0, next_vruntime=0.0)"),
        (ExitToUserRecord(700.0, 0, 7),
         "ExitToUserRecord(time=700.0, cpu=0, pid=7, pc=None, retired=None)"),
        (ExitToUserRecord(700.5, 0, 7, 4096, 12),
         "ExitToUserRecord(time=700.5, cpu=0, pid=7, pc=4096, retired=12)"),
        (WakeupRecord(1500.0, 0, 8, 5.0, 7, 9.0, True),
         "WakeupRecord(time=1500.0, cpu=0, pid=8, placed_vruntime=5.0, "
         "curr_pid=7, curr_vruntime=9.0, preempted=True)"),
        (WakeupRecord(1500.0, 0, 8, 5.0, None, 0.0, False),
         "WakeupRecord(time=1500.0, cpu=0, pid=8, placed_vruntime=5.0, "
         "curr_pid=None, curr_vruntime=0.0, preempted=False)"),
        (MigrationRecord(1.5, 0, 1, 100, vruntime_before=3.0,
                         vruntime_after=1e-07),
         "MigrationRecord(time=1.5, src_cpu=0, dst_cpu=1, pid=100, "
         "vruntime_before=3.0, vruntime_after=1e-07)"),
        (VruntimeSample(1.0, 7, 100.0),
         "VruntimeSample(time=1.0, pid=7, vruntime=100.0)"),
    ], ids=["switch-preempt", "switch-onto-empty", "exit", "exit-program",
            "wakeup-preempt", "wakeup-idle-cpu", "migration",
            "vruntime-sample"])
    def test_repr_is_the_dataclass_format(self, record, text):
        assert repr(record) == text

    @pytest.mark.skipif(sys.version_info < (3, 10),
                        reason="dataclass slots need Python 3.10")
    def test_records_are_slotted(self):
        for record in (SwitchRecord(0.0, 0, None, 1, "block"),
                       ExitToUserRecord(0.0, 0, 1),
                       WakeupRecord(0.0, 0, 1, 0.0, None, 0.0, False),
                       MigrationRecord(0.0, 0, 1, 1),
                       VruntimeSample(0.0, 1, 0.0)):
            assert not hasattr(record, "__dict__")


class TestChargeWeight:
    @pytest.mark.parametrize("policy_cls", [CfsScheduler, EevdfScheduler])
    @pytest.mark.parametrize("nice", [-21, 20])
    def test_out_of_range_nice_raises_when_charged(self, policy_cls, nice):
        policy = policy_cls(SchedParams.for_cores(1))
        task = Task("t", body=ComputeBody(), nice=nice)
        with pytest.raises(ValueError, match="nice must be in"):
            policy.charge(RunQueue(0), task, 1000.0)
        assert task.vruntime == 0.0 and task.sum_exec_runtime == 0.0

    def test_kernel_raises_at_the_first_charge(self):
        env = build_env("cfs", n_cores=1, seed=1)
        env.kernel.spawn(Task("t", body=ComputeBody(), nice=20), cpu=0)
        with pytest.raises(ValueError, match="nice must be in"):
            env.kernel.run_until(max_time=1e6)

    @pytest.mark.parametrize("nice", [-20, -3, 0, 7, 19])
    def test_charge_is_exec_times_nice0_load_over_weight(self, nice):
        task = Task("t", body=ComputeBody(), nice=nice)
        CfsScheduler(SchedParams.for_cores(1)).charge(RunQueue(0), task,
                                                      12345.678)
        assert task.vruntime == 0.0 + 12345.678 * 1024 / task.weight
