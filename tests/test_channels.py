"""Side-channel receivers, driven by hand against machine state."""

import pytest

from repro.channels.btb_channel import BtbGadgetLayout, BtbTrainProbe, DualBtbProbe
from repro.channels.flush_reload import FlushReload
from repro.channels.prime_probe import (
    PrimeProbe,
    PrimeProbeSet,
    prime_probe_threshold,
)
from repro.channels.seek import FlushReloadSeeker, PrimeProbeSeeker
from repro.cpu.isa import nop
from repro.cpu.machine import Machine, MachineConfig
from repro.kernel import actions as act
from repro.uarch.cache import HierarchyGeometry
from repro.uarch.timing import LATENCY


class Driver:
    """Execute a channel generator against a bare machine (no kernel).

    Each batch action runs element by element; its results go back to
    the generator as one list, as the kernel sends them.
    """

    def __init__(self, machine=None, core=0, asid=99):
        self.machine = machine or Machine(MachineConfig(n_cores=1))
        self.core_id = core
        self.asid = asid

    @property
    def hierarchy(self):
        return self.machine.hierarchy

    def run(self, gen):
        result = None
        try:
            while True:
                result = self._exec(gen.send(result))
        except StopIteration as stop:
            return stop.value

    def _exec(self, action):
        core = self.machine.core(self.core_id)
        if isinstance(action, (act.TimedLoads, act.Loads)):
            return [self._load(core, addr) for addr in action.items]
        if isinstance(action, act.Flushes):
            for addr in action.items:
                self.hierarchy.clflush(addr)
            return [None] * len(action.items)
        if isinstance(action, act.ExecInsts):
            return [core.execute(self.asid, inst) for inst in action.items]
        raise AssertionError(f"unexpected action {action}")

    def _load(self, core, addr):
        cycles = core.tlbs.translate_data(self.core_id, self.asid, addr,
                                          huge=True)
        cycles += self.hierarchy.access(self.core_id, addr, "data")
        return float(cycles)


class TestFlushReload:
    LINES = [0x600000 + 64 * i for i in range(4)]

    def test_detects_victim_access(self):
        driver = Driver()
        channel = FlushReload(self.LINES)
        driver.run(channel.prime_only())
        driver.hierarchy.access(0, self.LINES[2])  # victim touch
        hits = driver.run(channel.measure())
        assert hits == [False, False, True, False]

    def test_measure_rearms_the_channel(self):
        driver = Driver()
        channel = FlushReload(self.LINES)
        driver.run(channel.prime_only())
        driver.hierarchy.access(0, self.LINES[0])
        driver.run(channel.measure())
        # No victim access since: all lines flushed again → all miss.
        hits = driver.run(channel.measure())
        assert hits == [False] * 4

    def test_empty_lines_rejected(self):
        with pytest.raises(ValueError):
            FlushReload([])


class TestPrimeProbe:
    def _set(self, driver, target=0x610000, label="t"):
        return PrimeProbeSet.for_target(
            driver.machine.config.geometry.llc, label, target, 0x3000_0000
        )

    def test_quiet_set_reads_clean(self):
        driver = Driver()
        pp = self._set(driver)
        driver.run(pp.prime())
        result = driver.run(pp.probe())
        assert not result.victim_touched

    def test_victim_access_detected(self):
        driver = Driver()
        target = 0x610000
        pp = self._set(driver, target)
        driver.run(pp.prime())
        driver.hierarchy.access(0, target)  # evicts one primed line
        result = driver.run(pp.probe())
        assert result.victim_touched
        assert result.misses >= 1

    def test_first_measure_is_precondition_only(self):
        driver = Driver()
        channel = PrimeProbe([self._set(driver)])
        assert driver.run(channel.measure()) is None
        results = driver.run(channel.measure())
        assert results is not None and not results[0].victim_touched

    def test_threshold_sits_between_walk_artifact_and_dram(self):
        threshold = prime_probe_threshold()
        assert LATENCY.page_walk + LATENCY.llc_hit < threshold < LATENCY.dram


class TestBtbTrainProbe:
    VICTIM_PC = 0x401080

    def test_layout_collides_in_low_32_bits(self):
        layout = BtbGadgetLayout(self.VICTIM_PC)
        mask = (1 << 32) - 1
        assert layout.prime_pc & mask == self.VICTIM_PC & mask
        assert layout.probe_pc & mask == self.VICTIM_PC & mask
        assert layout.prime_pc != layout.probe_pc

    def test_marker_matches_predicted_target_line(self):
        layout = BtbGadgetLayout(self.VICTIM_PC)
        mask = (1 << 32) - 1
        assert layout.probe_marker & mask == layout.prime_target & mask

    def test_not_executed_reads_fast(self):
        driver = Driver()
        gadget = BtbTrainProbe(self.VICTIM_PC)
        driver.run(gadget.train())
        executed = driver.run(gadget.probe())
        assert executed is False

    def test_victim_execution_detected(self):
        driver = Driver()
        gadget = BtbTrainProbe(self.VICTIM_PC)
        driver.run(gadget.train())
        # Victim executes the colliding plain instruction.
        driver.machine.core(0).execute(1, nop(self.VICTIM_PC))
        executed = driver.run(gadget.probe())
        assert executed is True

    def test_measure_retrains(self):
        driver = Driver()
        gadget = BtbTrainProbe(self.VICTIM_PC)
        driver.run(gadget.train())
        driver.machine.core(0).execute(1, nop(self.VICTIM_PC))
        assert driver.run(gadget.measure()) is True
        # Re-trained: with no further victim activity the next probe is
        # clean.
        assert driver.run(gadget.measure()) is False

    def test_dual_probe_distinguishes_directions(self):
        driver = Driver()
        if_pc, else_pc = 0x401080, 0x401180
        dual = DualBtbProbe(if_pc, else_pc)
        driver.run(dual.train_both())
        driver.machine.core(0).execute(1, nop(else_pc))
        if_fired, else_fired = driver.run(dual.measure())
        assert (if_fired, else_fired) == (False, True)


class TestSeeker:
    def test_flush_reload_seeker_fires_once_marker_fetched(self):
        driver = Driver()
        marker = 0x584000
        seeker = FlushReloadSeeker(marker)
        assert driver.run(seeker.measure()) is False
        driver.hierarchy.access(0, marker, kind="inst")
        assert driver.run(seeker.measure()) is True
        # The seeker re-flushes, so it re-arms itself.
        assert driver.run(seeker.measure()) is False

    def test_prime_probe_seeker_primes_then_fires_on_landmark(self):
        driver = Driver()
        landmark = 0x610000
        seeker = PrimeProbeSeeker(PrimeProbeSet.for_target(
            driver.machine.config.geometry.llc, "seek", landmark, 0x3000_0000))
        assert driver.run(seeker.measure()) is False  # priming round
        assert driver.run(seeker.measure()) is False
        driver.hierarchy.access(0, landmark)
        assert driver.run(seeker.measure()) is True
        assert driver.run(seeker.measure()) is False

