"""Tier-2 fast-path golden traces.

The serial-core speedup added layers that must be invisible in
results: the widened fast-forward paths (steady twin, warm-up twin,
periodic replay) and batched ``access_many`` walks.  Each is certified
here against the path it replaced — the per-instruction interpreter or
a brute-force reference — at the bit level.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.cpu.machine import Machine, MachineConfig
from repro.cpu.program import StraightlineProgram, make_branchy_loop
from repro.uarch.timing import cycles_to_ns
from repro.validate.uarch import generate_ff_windows, run_fastforward_case


# ----------------------------------------------------------------------
# Steady twin vs the generic executor loop (float-op-for-float-op)
# ----------------------------------------------------------------------
def _generic_steady_twin(p, idx0, t, deadline, per_inst, certified):
    """The executor's original generic steady loop, kept verbatim as
    the reference for the specialized ``StraightlineProgram.steady_twin``
    (which restructures the arithmetic but must keep the exact float
    operation sequence)."""
    loop_insts = p.loop_insts
    per_line = 64 // p.inst_size
    per_loop = cycles_to_ns(float(loop_insts))
    two_loops = 2 * per_loop
    idx = idx0
    while t < deadline:
        if idx % loop_insts == 0:
            window = deadline - t
            if window >= two_loops:
                loops = int(window / per_loop)
                idx += loops * loop_insts
                t += loops * per_loop
                continue
        if certified is not None and idx - idx0 >= certified:
            break
        t += per_inst
        idx += 1
        if t >= deadline:
            break
        slot = idx % loop_insts
        rem = slot % per_line
        if rem == 0:
            run = 0
        else:
            run = per_line - rem
            stop = loop_insts - 1 - slot
            if run > stop:
                run = stop
        if run > 1:
            budget = int((deadline - t) / per_inst)
            bulk = min(run, budget if budget > 0 else 0)
            if bulk > 0:
                idx += bulk
                t += bulk * per_inst
    count = idx - idx0
    return (count, t) if count >= 1 else None


def test_steady_twin_bit_identical_to_generic_loop():
    rng = random.Random(7)
    program = StraightlineProgram(0x400000, inst_size=4, loop_bytes=4096)
    per_inst = cycles_to_ns(1.0)
    for _ in range(6000):
        idx0 = rng.randrange(0, 5 * program.loop_insts)
        t = rng.choice([
            rng.uniform(0.0, 1e6),
            # Budget cells run the twin at clocks from 5e3 to 5e9 ns;
            # log-uniform up to 6e10 ns covers every binade to 2^35.
            math.exp(rng.uniform(0.0, math.log(6e10))),
            # Just below a power of two: the window crosses a binade,
            # so the ulp of ``t`` changes mid-window.
            2.0 ** rng.randrange(10, 36) - rng.uniform(0.0, 1000.0),
        ])
        deadline = t + rng.choice([
            rng.uniform(0.0, 50.0),
            rng.uniform(0.0, 2000.0),
            rng.uniform(0.0, 200_000.0),
        ])
        got = program.steady_twin(idx0, t, deadline, per_inst, None)
        want = _generic_steady_twin(program, idx0, t, deadline, per_inst, None)
        assert got == want
        if got is not None:
            # repr-equality of floats is not enough; require the bits.
            assert got[1].hex() == want[1].hex()


# ----------------------------------------------------------------------
# Fast-forward vs interpreter on scheduled preemption windows
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(3))
def test_fastforward_certification_oracle_clean(seed):
    assert run_fastforward_case(seed) == []


def test_branchy_victim_windows_bit_exact():
    """Periodic (branchy, prefetcher-active) victims replay bit-exactly:
    same retired counts, same end times to the bit, same stats."""
    windows = generate_ff_windows(11, 16)

    def run(fast):
        machine = Machine(MachineConfig(n_cores=1))
        core = machine.cores[0]
        core.fast_forward = fast
        program = make_branchy_loop(0x400000)
        t, out = 0.0, []
        for gap, length in windows:
            core.on_context_switch()
            retired, end = core.run_program(1, program, t + gap,
                                            t + gap + length)
            out.append((retired, end.hex()))
            t = end
        return out, core.stats

    got, fast_stats = run(True)
    want, ref_stats = run(False)
    assert got == want
    # Architectural counters must be bit-equal; the ff_* introspection
    # fields record which path retired the stream, so they differ by
    # construction between the fast and interpreted runs.
    assert fast_stats.architectural() == ref_stats.architectural()
    assert fast_stats.ff_periodic_windows > 0


def test_warmup_twin_engages_and_preserves_results():
    """The warm-up fast-forward must actually fire on warm straightline
    windows (not silently bail to the interpreter) and keep retired
    counts identical to the interpreted run."""
    windows = generate_ff_windows(23, 16)

    def run(fast):
        machine = Machine(MachineConfig(n_cores=1))
        core = machine.cores[0]
        core.fast_forward = fast
        engaged = [0]
        if fast:
            original = core._try_warmup_fast_forward

            def counting(*args, **kwargs):
                result = original(*args, **kwargs)
                if result is not None:
                    engaged[0] += 1
                return result

            core._try_warmup_fast_forward = counting
        program = StraightlineProgram(0x400000)
        t, out = 0.0, []
        for gap, length in windows:
            core.on_context_switch()
            retired, end = core.run_program(1, program, t + gap,
                                            t + gap + length)
            out.append(retired)
            t = end
        return out, engaged[0]

    got, engaged = run(True)
    want, _ = run(False)
    assert got == want
    # The first window pays cold caches interpreted; once the loop
    # footprint is resident every later window starts in the twin.
    assert engaged >= len(windows) // 2
