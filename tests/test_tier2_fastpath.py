"""Tier-2 fast-path golden traces.

The serial-core speedup added a layer that must be invisible in
results: the certified fast-forward window (warm-up prefix, then the
steady twin).  Each program's specialized steady twin is certified here
against a generic loop at the bit level, and whole windows against the
per-instruction interpreter through the fast-forward oracle.
"""

from __future__ import annotations

import inspect
import math
import random
import sys

import pytest

from repro.attacks.common import DEFAULT_TAIL_INSTS, PhasedProgram
from repro.cpu.isa import nop
from repro.cpu.machine import Machine, MachineConfig
from repro.cpu.program import StraightlineProgram, TraceProgram
from repro.uarch.timing import CPU_FREQ_GHZ, cycles_to_ns
from repro.validate.uarch import generate_ff_windows, run_fastforward_case


# ----------------------------------------------------------------------
# Steady twins vs the generic loop over Program (float-op-for-float-op)
# ----------------------------------------------------------------------
def _program_steady_loop(program, idx, t, deadline, per_inst, certified):
    """The steady twin loop ``Core._try_fast_forward`` once ran for any
    program without a ``steady_twin`` of its own, copied verbatim (less
    its ``ff_steady_windows`` count).  It rediscovers the stream through
    the ``Program`` interface — ``loop_profile`` and
    ``uniform_region_length`` — so it is the reference for every
    program's ``steady_twin``."""
    idx0 = idx1 = idx
    while t < deadline:
        loop = program.loop_profile(idx)
        if loop is not None:
            per_loop = cycles_to_ns(loop.cycles_per_loop)
            window = deadline - t
            if window >= 2 * per_loop:
                loops = int(window / per_loop)
                if loop.max_loops is not None:
                    loops = min(loops, loop.max_loops)
                if loops >= 1:
                    idx += loops * loop.insts_per_loop
                    t += loops * per_loop
                    continue
        if certified is not None and idx - idx1 >= certified:
            break  # past the certified region: execute() decides
        t += per_inst  # chunk-head instruction (line warm: base cost)
        idx += 1
        if t >= deadline:
            break
        run = program.uniform_region_length(idx)
        if run > 1:
            budget = int((deadline - t) / per_inst)
            bulk = min(run, budget if budget > 0 else 0)
            if bulk > 0:
                idx += bulk
                t += bulk * per_inst
    return (idx - idx0, t) if idx > idx0 else None


def _twin_cases(rng):
    """``(program, per_inst, t, window)`` inputs for the twin check."""
    cycle = cycles_to_ns(1.0)
    programs = [StraightlineProgram(0x400000, inst_size=size, loop_bytes=loop)
                for size in (1, 2, 4, 8, 16)
                for loop in (512, 2048, 4096, 16384, 65536)]
    for _ in range(6000):
        per_inst = rng.choice([cycle, cycle, cycles_to_ns(rng.uniform(0.5, 4.0))])
        t = rng.choice([
            rng.uniform(0.0, 1e6),
            # Budget cells run the twin at clocks from 5e3 to 5e9 ns;
            # log-uniform up to 6e10 ns covers every binade to 2^35.
            math.exp(rng.uniform(0.0, math.log(6e10))),
            # Just below a power of two: the window crosses a binade,
            # so the ulp of ``t`` changes mid-window, often in the
            # middle of a tight run.
            2.0 ** rng.randrange(10, 36) - rng.uniform(0.0, 1000.0),
            2.0 ** rng.randrange(10, 36) - rng.uniform(0.0, 30.0),
            # Below 1 ns the adds leave the binade at once.
            rng.uniform(0.0, 1.0),
        ])
        window = rng.choice([
            rng.uniform(0.0, 50.0),
            rng.uniform(0.0, 2000.0),
            rng.uniform(0.0, 200_000.0),
        ])
        yield rng.choice(programs), per_inst, t, window
    # The hibernation's 1 ms tick windows, at clocks from 2^20 to 2^36 ns.
    for _ in range(400):
        t = 2.0 ** rng.uniform(20.0, 36.0)
        yield rng.choice(programs), rng.choice([cycle, 2 * cycle]), t, 1e6
    # Exact ties: at 2^43 ns the ulp is 2^-9, and both 3·2^-10 and the
    # full-line bulk are odd multiples of half of it, so round-half-even
    # decides by the low bit of ``t``.
    for size in (4, 8):
        program = StraightlineProgram(0x400000, inst_size=size)
        for offset in (12345, 0, 1, 77777):
            for window in (50.0, 500.0, 3000.0):
                yield program, 3 * 2.0 ** -10, 2.0 ** 43 + offset, window


def test_steady_twin_bit_identical_to_generic_loop():
    """The twin, its closed-form tight runs included, retires the same
    instructions as the generic loop and ends at the same float bits."""
    rng = random.Random(7)
    for program, per_inst, t, window in _twin_cases(rng):
        idx0 = rng.randrange(0, 5 * program.loop_insts)
        deadline = t + window
        got = program.steady_twin(idx0, t, deadline, per_inst, None)
        want = _program_steady_loop(program, idx0, t, deadline, per_inst, None)
        assert got == want, (program.inst_size, program.loop_insts,
                             per_inst.hex(), idx0, t.hex(), deadline.hex())
        if got is not None:
            # repr-equality of floats is not enough; require the bits.
            assert got[1].hex() == want[1].hex()


def _long_window_cases():
    """``(program, per_inst, t, deadlines)`` for the every-slot sweep.

    Loops of one, two and a few lines at several instruction sizes, and
    the production 4 KiB loop of 4-byte instructions; ``per_inst`` of
    one, two and four cycles (at four, a head from early in the loop
    outlasts a window of three loops, and only the head's guard stops
    it), and 3·2^-10 ns on loops of at most 64 instructions (the
    reference adds a loop's tail line by line, and at that ``per_inst``
    a 4 KiB tail is 97,000 instructions); clocks in an ordinary binade,
    just below 2^31 (so a head or the whole-loop multiply crosses the
    power of two) and in the 2^43 tie binade; deadlines at the long
    window's routing bound ``two_loops + per_loop`` and a few ulps
    either side, three loops plus a few instructions (the head's end
    decides whether the multiply still runs), and a 1 ms tick.
    """
    cycle = cycles_to_ns(1.0)
    programs = [StraightlineProgram(0x400000, inst_size=size, loop_bytes=loop)
                for size in (1, 2, 4, 5, 8, 12, 16)
                for loop in (64, 128, 256, 480, 512)
                if not loop % size]
    programs.append(StraightlineProgram())  # the §4.3 victim: 4 KiB, 4 B
    for program in programs:
        per_loop = cycles_to_ns(float(program.loop_insts))
        bound = 3 * per_loop
        per_insts = [cycle, 2 * cycle, 4 * cycle]
        if program.loop_insts <= 64:
            per_insts.append(3 * 2.0 ** -10)
        for per_inst in per_insts:
            for t in (1e8 + 0.3, 2.0 ** 31 - 3.3, 2.0 ** 43 + 12345):
                ulp = math.ulp(t)
                deadlines = [t + bound - 4 * ulp, t + bound, t + bound + 4 * ulp,
                             t + bound + 5 * per_inst, t + 1e6]
                yield program, per_inst, t, deadlines


def test_long_windows_every_slot_match_generic_loop():
    """From every loop slot, windows long enough for the head's closed
    form end where the generic loop ends, to the bit: the head up to
    the loop-back as an ulp count, the whole-loop multiply, and the
    tail's tight lines from the loop top, with every fallback (a tie
    binade, a head crossing a power of two, a head ending too near the
    deadline, lines under four instructions, loops of partial lines)."""
    cases = 0
    for program, per_inst, t, deadlines in _long_window_cases():
        for deadline in deadlines:
            for slot in range(program.loop_insts):
                idx0 = 7 * program.loop_insts + slot
                got = program.steady_twin(idx0, t, deadline, per_inst, None)
                want = _program_steady_loop(program, idx0, t, deadline,
                                            per_inst, None)
                assert got == want and got[1].hex() == want[1].hex(), (
                    program.inst_size, program.loop_insts, per_inst.hex(),
                    slot, t.hex(), deadline.hex())
                cases += 1
    assert cases > 100_000


def test_long_window_head_takes_the_closed_form():
    """The sweep above passes whether or not the head's closed form
    runs; on the §4.3 victim's 1 ms ticks it must run from every slot
    but the loop top, where the multiply comes first."""
    program = StraightlineProgram()
    source, first = inspect.getsourcelines(StraightlineProgram.steady_twin)
    taken = first + next(i for i, line in enumerate(source)
                         if "idx += loop_insts - slot" in line)
    hits = []

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == taken:
            hits.append(frame.f_locals["slot"])
        return local

    def tracer(frame, event, arg):
        if frame.f_code is StraightlineProgram.steady_twin.__code__:
            return local
        return None

    t, per_inst = 3.2e9 + 0.123, cycles_to_ns(1.0)
    outer = sys.gettrace()  # a coverage run's tracer, restored after
    sys.settrace(tracer)
    try:
        for slot in range(program.loop_insts):
            program.steady_twin(slot, t, t + 1e6, per_inst, None)
    finally:
        sys.settrace(outer)
    assert hits == list(range(1, program.loop_insts))


# ----------------------------------------------------------------------
# Bounded and phased programs
# ----------------------------------------------------------------------
def _phased(startup_insts):
    """A §5 victim whose startup spin is ``startup_insts`` long."""
    startup_ns = (startup_insts + DEFAULT_TAIL_INSTS + 0.5) / CPU_FREQ_GHZ
    program = PhasedProgram(startup_ns, TraceProgram([nop(0x500000)]))
    assert program.startup_insts == startup_insts
    return program


def _assert_twin_matches(program, idx0, t, window, per_inst):
    """Run both twins over one window from ``idx0`` with the count the
    program certifies there, as ``Core`` does; require the same result
    down to the float bits."""
    certified = program.steady_state(idx0)[1]
    deadline = t + window
    got = program.steady_twin(idx0, t, deadline, per_inst, certified)
    want = _program_steady_loop(program, idx0, t, deadline, per_inst,
                                certified)
    where = (type(program).__name__, idx0, certified, t.hex(),
             deadline.hex(), per_inst.hex())
    assert got == want, where
    if got is not None:
        assert got[1].hex() == want[1].hex(), where
    return got


def _bounded_windows(rng, span, per_inst):
    """``(t, window)`` pairs: short windows, windows ending within a few
    loops, and windows that outlast the ``span`` instructions left."""
    span_ns = span * per_inst
    for _ in range(12):
        t = rng.choice([rng.uniform(0.0, 1e6),
                        math.exp(rng.uniform(0.0, math.log(6e10))),
                        2.0 ** rng.randrange(10, 36) - rng.uniform(0.0, 30.0)])
        window = rng.choice([rng.uniform(0.0, 50.0),
                             rng.uniform(0.0, 5000.0),
                             span_ns * rng.uniform(0.9, 1.1),
                             span_ns * rng.uniform(1.0, 3.0) + 2000.0])
        yield t, window


def test_bounded_steady_twin_matches_generic_loop():
    """A bounded ``StraightlineProgram`` stops at its ``total``: the
    twin matches the generic loop on windows that end inside the
    stream, at the end of it, and past it."""
    rng = random.Random(11)
    cycle = cycles_to_ns(1.0)
    stopped = 0
    for _ in range(150):
        loop_insts = rng.choice([512, 1024, 4096]) // 4
        total = rng.choice([loop_insts * rng.randrange(1, 9),
                            rng.randrange(loop_insts, 9 * loop_insts)])
        program = StraightlineProgram(0x400000, inst_size=4,
                                      loop_bytes=4 * loop_insts, total=total)
        per_inst = rng.choice([cycle, cycle, cycles_to_ns(rng.uniform(0.5, 4.0))])
        # steady_state certifies up to the last loop top with a whole
        # loop after it, and from there to the end of the stream.
        certifiable = total // loop_insts * loop_insts
        idx0 = rng.choice([rng.randrange(certifiable),
                           max(0, certifiable - rng.randrange(1, 40))])
        for t, window in _bounded_windows(rng, total - idx0, per_inst):
            got = _assert_twin_matches(program, idx0, t, window, per_inst)
            stopped += got is not None and idx0 + got[0] == total
    assert stopped > 100  # many windows ran to the end of the stream


def test_phased_steady_twin_matches_generic_loop():
    """A ``PhasedProgram`` forwards through its startup's twin, which
    must stop where the phased stream stops being certified — one loop
    before the startup ends, even where that is a loop top (a startup
    that is a whole number of loops)."""
    rng = random.Random(12)
    cycle = cycles_to_ns(1.0)
    loop_insts = StraightlineProgram().loop_insts  # the startup's loop
    limit_hits = 0
    for _ in range(150):
        startup_insts = rng.choice([loop_insts * rng.randrange(2, 12),
                                    rng.randrange(loop_insts + 1,
                                                  12 * loop_insts)])
        program = _phased(startup_insts)
        limit = startup_insts - loop_insts
        per_inst = rng.choice([cycle, cycle, cycles_to_ns(rng.uniform(0.5, 4.0))])
        idx0 = rng.choice([rng.randrange(limit),
                           max(0, limit - rng.randrange(1, 80))])
        for t, window in _bounded_windows(rng, limit - idx0, per_inst):
            got = _assert_twin_matches(program, idx0, t, window, per_inst)
            limit_hits += got is not None and idx0 + got[0] == limit
    assert limit_hits > 50  # many windows stopped at the certified limit


# ----------------------------------------------------------------------
# Fast-forward vs interpreter on scheduled preemption windows
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(3))
def test_fastforward_certification_oracle_clean(seed):
    assert run_fastforward_case(seed) == []


def test_warmup_twin_engages_and_preserves_results():
    """The warm-up fast-forward must actually fire on warm straightline
    windows (not silently bail to the interpreter) and keep retired
    counts identical to the interpreted run."""
    windows = generate_ff_windows(23, 16)

    def run(fast):
        machine = Machine(MachineConfig(n_cores=1))
        core = machine.cores[0]
        core.fast_forward = fast
        program = StraightlineProgram(0x400000)
        t, out = 0.0, []
        for gap, length in windows:
            core.on_context_switch()
            retired, end = core.run_program(1, program, t + gap,
                                            t + gap + length)
            out.append(retired)
            t = end
        return out, core.stats.ff_warmup_windows

    got, engaged = run(True)
    want, _ = run(False)
    assert got == want
    # The first window pays cold caches interpreted; once the loop
    # footprint is resident every later window starts in the twin.
    assert engaged >= len(windows) // 2
