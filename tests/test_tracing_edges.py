"""KernelTracer edge cases: stop-rule and resolution queries on
degenerate streams, and unbounded record streams."""

from repro.kernel.tracing import ExitToUserRecord, KernelTracer

VICTIM = 1
ATTACKER = 2


def _exit(t, pid, retired=None, cpu=0):
    return ExitToUserRecord(t, cpu, pid, None, retired)


class TestConsecutivePreemptions:
    def test_attacker_never_runs(self):
        tracer = KernelTracer()
        for i in range(5):
            tracer.record_exit(_exit(float(i), VICTIM, retired=i * 10))
        assert tracer.consecutive_preemptions(VICTIM, ATTACKER) == 0

    def test_empty_stream(self):
        assert KernelTracer().consecutive_preemptions(VICTIM, ATTACKER) == 0

    def test_stop_rule_two_consecutive_victim_exits(self):
        tracer = KernelTracer()
        # A V A V V A — the stop rule ends the count at the double-V.
        for t, pid in enumerate([ATTACKER, VICTIM, ATTACKER, VICTIM,
                                 VICTIM, ATTACKER]):
            tracer.record_exit(_exit(float(t), pid))
        assert tracer.consecutive_preemptions(VICTIM, ATTACKER) == 2

    def test_single_victim_exit_does_not_stop(self):
        tracer = KernelTracer()
        for t, pid in enumerate([ATTACKER, VICTIM, ATTACKER, VICTIM,
                                 ATTACKER]):
            tracer.record_exit(_exit(float(t), pid))
        assert tracer.consecutive_preemptions(VICTIM, ATTACKER) == 3

    def test_victim_exits_before_attacker_starts_ignored(self):
        tracer = KernelTracer()
        for t, pid in enumerate([VICTIM, VICTIM, VICTIM, ATTACKER, VICTIM]):
            tracer.record_exit(_exit(float(t), pid))
        assert tracer.consecutive_preemptions(VICTIM, ATTACKER) == 1


class TestRetiredPerPreemption:
    def test_attacker_never_runs_yields_nothing(self):
        tracer = KernelTracer()
        for i in range(4):
            tracer.record_exit(_exit(float(i), VICTIM, retired=100 * i))
        assert tracer.retired_per_preemption(VICTIM, ATTACKER) == []

    def test_victim_only_stream_with_none_retired(self):
        tracer = KernelTracer()
        tracer.record_exit(_exit(0.0, VICTIM, retired=None))
        tracer.record_exit(_exit(1.0, ATTACKER))
        tracer.record_exit(_exit(2.0, VICTIM, retired=None))
        assert tracer.retired_per_preemption(VICTIM, ATTACKER) == []

    def test_deltas_only_across_attacker_interleavings(self):
        tracer = KernelTracer()
        tracer.record_exit(_exit(0.0, VICTIM, retired=100))
        tracer.record_exit(_exit(1.0, ATTACKER))
        tracer.record_exit(_exit(2.0, VICTIM, retired=130))  # Δ30 counted
        tracer.record_exit(_exit(3.0, VICTIM, retired=170))  # no attacker: skip
        tracer.record_exit(_exit(4.0, ATTACKER))
        tracer.record_exit(_exit(5.0, VICTIM, retired=180))  # Δ10 counted
        assert tracer.retired_per_preemption(VICTIM, ATTACKER) == [30, 10]

    def test_interleaved_cpus_third_party_ignored(self):
        """Records from other pids/CPUs must not break the pairing."""
        tracer = KernelTracer()
        other = 99
        tracer.record_exit(_exit(0.0, VICTIM, retired=100, cpu=0))
        tracer.record_exit(_exit(0.5, other, retired=7, cpu=1))
        tracer.record_exit(_exit(1.0, ATTACKER, cpu=0))
        tracer.record_exit(_exit(1.5, other, retired=8, cpu=1))
        tracer.record_exit(_exit(2.0, VICTIM, retired=150, cpu=0))
        assert tracer.retired_per_preemption(VICTIM, ATTACKER) == [50]


class TestBoundedMode:
    def test_default_is_unbounded(self):
        tracer = KernelTracer()
        for i in range(1000):
            tracer.record_exit(_exit(float(i), VICTIM))
        assert len(tracer.exits) == 1000
