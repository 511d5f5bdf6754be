"""Batch actions against the per-action protocol they replaced.

Every producer of ``Loads``/``TimedLoads``/``Flushes``/``ExecInsts``
runs twice on machines built from one seed: batched, through
:class:`CoroutineBody` and the kernel context's batch loops (load,
flush and fetch batches through their resolved walks), and one element
at a time, through the per-action body loop and the single
load/flush/fetch handlers kept below as the reference.  The handlers
call the μarch's single-access entry points,
``TlbHierarchy.translate_data`` and ``MemoryHierarchy.access``, which
the ``repro.validate.uarch`` reference models check, a per-line flush
written out below, ``random.Random.gauss`` and ``Core.execute``.  Both
runs see the same seeded sequence of short windows and the same victim
activity between windows, and after every window they must agree on
the outcome, the values the producer returned, the element count,
every cache, TLB and BTB, the prefetch counters, each core's stats and
fetch state, and the state of the ``timed_load`` jitter stream.  The
windows end inside elements, right after a batch's first element and
right after its last one.  Between windows the body moves between CPUs
and between two attacker pids, both machines take a core's TLB flush
(an SGX AEX) and private-cache flush, and both reset the body's core
for a context switch and park or unpark it in ``prefetch_disabled``
(PreFence), so a walk is reused only where it is valid and survives
flushes.  The test checks that each case occurred, and that one
producer's loads overflow an STLB set between the flush beats.
"""

import random
from dataclasses import dataclass

import pytest

from repro.channels.btb_channel import DualBtbProbe
from repro.channels.flush_reload import FlushReload
from repro.channels.prime_probe import PrimeProbe, PrimeProbeSet
from repro.channels.seek import FlushReloadSeeker, PrimeProbeSeeker
from repro.core.degradation import CodeLineStaller, TlbEvictor
from repro.core.oracle import VictimPresenceOracle
from repro.cpu.isa import Instruction, InstrKind, branch, nop
from repro.experiments.channel_noise import PolluterConfig, make_polluter
from repro.experiments.setup import build_env
from repro.kernel import actions as act
from repro.kernel.kernel import TIMED_LOAD_JITTER_CYCLES, _KernelExecContext
from repro.kernel.threads import CoroutineBody, RunOutcome
from repro.sched.task import Task
from repro.uarch.address import CACHE_LINE_SIZE
from repro.uarch.timing import CPU_FREQ_GHZ
from repro.validate.uarch import inject_llc_leak
from repro.victims.layout import (
    ATTACKER_HUGE_REGION,
    ATTACKER_LLC_ARENA,
    ATTACKER_TLB_ARENA,
    TTABLE_BASE,
)

SEED = 5
ATTACKER_PIDS = (4242, 4243)
VICTIM_ASID = 77
WINDOWS = 400
HUGE_LO, HUGE_HI = ATTACKER_HUGE_REGION


# ----------------------------------------------------------------------
# Reference: the per-action protocol
# ----------------------------------------------------------------------
@dataclass
class Load(act.Action):
    """Data load; result is the access latency in cycles."""

    addr: int


@dataclass
class TimedLoad(act.Action):
    """rdtscp-fenced timed load; result is the *measured* latency in
    cycles (true latency + timer overhead + measurement jitter)."""

    addr: int


@dataclass
class Flush(act.Action):
    """clflush: evict the line from the whole hierarchy (no result)."""

    addr: int


@dataclass
class ExecInst(act.Action):
    """Execute one synthetic instruction in the attacker's own address
    space (BTB gadget priming/probing, iTLB eviction-set fetches).
    Result is the instruction's cost in ns."""

    inst: Instruction


_SINGLE = {act.Loads: Load, act.TimedLoads: TimedLoad,
           act.Flushes: Flush, act.ExecInsts: ExecInst}


class PerActionBody:
    """The body loop that ran one action per step."""

    def __init__(self, gen):
        self.gen = gen
        self._send = None
        self._started = False
        self.actions_executed = 0

    def run(self, ctx, start: float, deadline: float) -> RunOutcome:
        t = start
        while t < deadline:
            try:
                if not self._started:
                    self._started = True
                    action = next(self.gen)
                else:
                    action = self.gen.send(self._send)
            except StopIteration:
                return RunOutcome(t, exited=True)
            cost, result, block = ctx.exec_action(action, t)
            t += cost
            self._send = result
            self.actions_executed += 1
            if block is not None:
                if block.kind == "exit":
                    return RunOutcome(t, exited=True)
                return RunOutcome(t, block=block)
        return RunOutcome(t)


def clflush(hierarchy, addr):
    """Flush one line from every cache, one level at a time: the LLC,
    then each core's L1I, L1D and L2, bumping the version of each level
    that held it."""
    line = addr & ~(CACHE_LINE_SIZE - 1)
    levels = [hierarchy.llc]
    for core in range(hierarchy.n_cores):
        levels += [hierarchy.l1i[core], hierarchy.l1d[core],
                   hierarchy.l2[core]]
    for level in levels:
        bucket = level._sets[level.geometry.set_index(line)]
        if line in bucket:
            del bucket[line]
            level.version += 1


class PerActionContext(_KernelExecContext):
    """The kernel context with the single load/flush/fetch handlers."""

    __slots__ = ("_translate_data", "_access", "_gauss")

    def __init__(self, kernel, cpu, task):
        super().__init__(kernel, cpu, task)
        self._translate_data = self.core.tlbs.translate_data
        self._access = self.core.hierarchy.access
        self._gauss = kernel.rng.stream("timed_load").gauss

    def exec_action(self, action, now):
        handler = _REF_DISPATCH.get(type(action))
        if handler is None:
            return super().exec_action(action, now)
        return handler(self, action, now)

    # ``x / CPU_FREQ_GHZ`` below is :func:`cycles_to_ns` inlined.
    def _act_load(self, action, now):
        addr = action.addr
        cycles = self._translate_data(
            self.cpu, self.asid, addr,
            huge=HUGE_LO <= addr < HUGE_HI)
        cycles += self._access(self.cpu, addr, "data")
        return (cycles + self._base_inst) / CPU_FREQ_GHZ, cycles, None

    def _act_timed_load(self, action, now):
        addr = action.addr
        cycles = self._translate_data(
            self.cpu, self.asid, addr,
            huge=HUGE_LO <= addr < HUGE_HI)
        cycles += self._access(self.cpu, addr, "data")
        measured = cycles + self._gauss(0.0, TIMED_LOAD_JITTER_CYCLES)
        return ((cycles + self._timed_extra) / CPU_FREQ_GHZ,
                measured if measured > 0.0 else 0.0, None)

    def _act_flush(self, action, now):
        clflush(self.core.hierarchy, action.addr)
        return self._flush_ns, None, None

    def _act_exec_inst(self, action, now):
        cost = self.core.execute(self.asid, action.inst)
        return cost, cost, None


_REF_DISPATCH = {
    Load: PerActionContext._act_load,
    TimedLoad: PerActionContext._act_timed_load,
    Flush: PerActionContext._act_flush,
    ExecInst: PerActionContext._act_exec_inst,
}


def one_at_a_time(gen):
    """Re-yield each batch element as its single action and send the
    collected results back as the batch's list."""
    result = None
    while True:
        try:
            action = gen.send(result)
        except StopIteration as stop:
            return stop.value
        if isinstance(action, act.Batch):
            single = _SINGLE[type(action)]
            result = []
            for item in action.items:
                result.append((yield single(item)))
        else:
            result = yield action


def per_line_polluter(config, stream):
    """The polluter body that drew each address right before its load."""
    while True:
        for _ in range(config.lines_per_burst):
            if stream.random() < config.target_fraction:
                line = stream.randrange(config.target_lines)
                addr = config.target_base + 64 * line
            else:
                addr = config.arena + 64 * stream.randrange(1 << 14)
            yield Load(addr)
        yield act.Compute(config.period_ns)


# ----------------------------------------------------------------------
# Producers, each with the victim activity that makes its channel move
# ----------------------------------------------------------------------
def _rounds(measure, returned, first=None, n=6):
    """Run ``first`` once, then ``measure`` ``n`` times, recording each
    return value, with a little ALU work between rounds."""
    if first is not None:
        returned.append((yield from first()))
    for _ in range(n):
        returned.append((yield from measure()))
        yield act.Compute(40.0)


FR_LINES = [TTABLE_BASE + 64 * i for i in range(12)]
PP_TARGETS = (0x610000, 0x614040)
IF_PC, ELSE_PC = 0x401080, 0x401180
MARKER = 0x584000
VICTIM_CODE = 0x400000


def _pp_set(env, label, target, arena_offset=0):
    llc = env.machine.config.geometry.llc
    return PrimeProbeSet.for_target(llc, label, target,
                                    ATTACKER_LLC_ARENA + arena_offset)


def _touch_lines(lines):
    def poke(env, r):
        for line in r.sample(lines, r.randint(0, min(2, len(lines)))):
            env.machine.hierarchy.access(0, line, "data")
    return poke


def _execute(pcs):
    def poke(env, r):
        env.machine.core(0).execute(VICTIM_ASID, nop(r.choice(pcs)))
    return poke


def flush_reload(env, returned):
    channel = FlushReload(FR_LINES)
    return (_rounds(channel.measure, returned, first=channel.prime_only),
            _touch_lines(FR_LINES))


def prime_probe(env, returned):
    channel = PrimeProbe([_pp_set(env, "a", PP_TARGETS[0]),
                          _pp_set(env, "b", PP_TARGETS[1], 0x10_0000)])
    return _rounds(channel.measure, returned), _touch_lines(list(PP_TARGETS))


def dual_btb_probe(env, returned):
    channel = DualBtbProbe(IF_PC, ELSE_PC)
    return (_rounds(channel.measure, returned, first=channel.train_both),
            _execute([IF_PC, ELSE_PC]))


def flush_reload_seeker(env, returned):
    seeker = FlushReloadSeeker(MARKER)

    def poke(env, r):
        env.machine.hierarchy.access(0, MARKER, "inst")
    return _rounds(seeker.measure, returned), poke


def prime_probe_seeker(env, returned):
    seeker = PrimeProbeSeeker(_pp_set(env, "seek", PP_TARGETS[0]))
    return _rounds(seeker.measure, returned), _touch_lines([PP_TARGETS[0]])


def presence_oracle(env, returned):
    lines = [VICTIM_CODE + 64 * i for i in range(5)]
    oracle = VictimPresenceOracle(lines)
    return _rounds(oracle.measure, returned), _touch_lines(lines)


def tlb_evictor(env, returned):
    evictor = TlbEvictor(VICTIM_CODE, ATTACKER_TLB_ARENA)
    return _rounds(evictor.degrade, returned), _execute([VICTIM_CODE])


_4GIB = 1 << 32
FETCH_PC = 0x3000_0000
JMP_PC, RET_PC = FETCH_PC + 0x1000, FETCH_PC + 0x2000


def fetch_mix(env, returned):
    """Every path of the fetch walk: one line, a new line and a new
    page; an untaken branch and a fence; a JMP, then a NOP 4 GiB away
    that predicts through the JMP's entry, mispredicts and invalidates
    it; and a RET whose colliding entry is a JMP's 4 GiB away, left
    valid by an untaken branch that mispredicts through it, so the RET
    predicts a target other than its next PC."""
    def jmp(pc):
        return Instruction(pc=pc, kind=InstrKind.JMP, target=pc + 0x440)

    insts = act.ExecInsts((
        nop(FETCH_PC), nop(FETCH_PC + 4), nop(FETCH_PC + 0x40),
        branch(FETCH_PC + 0x44, FETCH_PC + 0x400, taken=False),
        Instruction(pc=FETCH_PC + 0x48, kind=InstrKind.NOP, fenced=True),
        jmp(JMP_PC), nop(JMP_PC + _4GIB),
        jmp(RET_PC + _4GIB),
        branch(RET_PC + 2 * _4GIB, RET_PC + 2 * _4GIB + 0x100, taken=False),
        Instruction(pc=RET_PC, kind=InstrKind.RET, target=RET_PC + 1),
    ))

    def measure():
        return (yield insts)
    return (_rounds(measure, returned),
            _execute([JMP_PC + 2 * _4GIB, RET_PC + 3 * _4GIB]))


#: Lines on both sides of both bounds of the 2 MiB-page arena.
EDGE_LINES = tuple(bound + offset for bound in ATTACKER_HUGE_REGION
                   for offset in (-128, -64, 0, 64))


def arena_edges(env, returned):
    prime = act.Loads(EDGE_LINES)
    probe = act.TimedLoads(EDGE_LINES)

    def measure():
        yield prime
        return (yield probe)
    return _rounds(measure, returned), _touch_lines(list(EDGE_LINES))


#: Fourteen 4 KiB pages in one STLB set (sets are ``vpn % 128``), one
#: line each in its own cache sets, outside the 2 MiB-page arena: a
#: pass overflows the set's 12 ways.
STLB_SET_LINES = tuple(0x5000_0000 + k * (128 << 12) + k * 64
                       for k in range(14))


def stlb_set_overflow(env, returned):
    prime = act.Loads(STLB_SET_LINES)
    probe = act.TimedLoads(STLB_SET_LINES)

    def measure():
        yield prime
        return (yield probe)
    return (_rounds(measure, returned, n=12),
            _touch_lines(list(STLB_SET_LINES)))


def code_line_staller(env, returned):
    staller = CodeLineStaller(env.machine.config.geometry.llc, VICTIM_CODE,
                              ATTACKER_LLC_ARENA)
    return (_rounds(staller.degrade, returned),
            _execute([VICTIM_CODE, VICTIM_CODE + 0x40]))


POLLUTER = dict(cpu=0, period_ns=150.0, lines_per_burst=4,
                target_fraction=0.5)


def polluter(env, returned):
    task = make_polluter(PolluterConfig(**POLLUTER), env.rng)
    return task.body.gen, _touch_lines(FR_LINES)


PRODUCERS = (flush_reload, prime_probe, dual_btb_probe, flush_reload_seeker,
             prime_probe_seeker, presence_oracle, tlb_evictor, fetch_mix,
             code_line_staller, arena_edges, stlb_set_overflow, polluter)


# ----------------------------------------------------------------------
# The differential run
# ----------------------------------------------------------------------
def uarch_state(machine):
    """Every cache, TLB and BTB, the prefetch counters, and each core's
    stats and fetch state."""
    h = machine.hierarchy
    caches = [(level.name, tuple(level.occupied_sets()), level.hits,
               level.misses, level.evictions, level.version)
              for level in (*h.l1i, *h.l1d, *h.l2, h.llc)]
    tlbs = [(tlb.name,
             tuple(tlb.resident_tags(s) for s in range(tlb.geometry.n_sets)),
             tlb.hits, tlb.misses, tlb.evictions, tlb.version)
            for tlb in (*machine.tlbs.itlb, *machine.tlbs.stlb)]
    btbs = [(list(btb._entries.items()), btb.invalidations, btb.allocations)
            for btb in machine.btbs]
    cores = [(core.stats, core._pipeline_cold, core._warmup_remaining,
              core._last_fetch_page, core._last_fetch_line)
             for core in machine.cores]
    return (caches, tlbs, btbs, cores,
            (h.prefetches_issued, h.prefetches_suppressed))


def machine_state(env):
    return (uarch_state(env.machine),
            env.kernel.rng.stream("timed_load").getstate())


def _flush_core(env, cpu):
    """An SGX AEX's TLB flush and a private-cache flush of ``cpu``."""
    env.machine.tlbs.flush_core(cpu)
    env.machine.hierarchy.flush_core_private(cpu)


def _switch_core(env, cpu):
    """A context switch's reset of ``cpu``'s fetch state, and PreFence
    parking ``cpu`` in ``prefetch_disabled``, or unparking it."""
    env.machine.core(cpu).on_context_switch()
    env.machine.hierarchy.prefetch_disabled ^= {cpu}


def _window(r, start):
    """A deadline one element in (the window runs exactly one element
    or action), or a short random one."""
    if r.random() < 0.4:
        return start + 1e-3
    return start + r.uniform(0.5, 120.0)


@pytest.mark.parametrize("producer", PRODUCERS, ids=lambda p: p.__name__)
def test_batches_match_per_action_protocol(producer):
    batched_env = build_env("cfs", n_cores=2, seed=SEED)
    ref_env = build_env("cfs", n_cores=2, seed=SEED)
    batched_returned, ref_returned = [], []
    gen, poke = producer(batched_env, batched_returned)
    ref_gen, ref_poke = producer(ref_env, ref_returned)
    if producer is polluter:
        ref_gen = per_line_polluter(
            PolluterConfig(**POLLUTER), ref_env.rng.stream("polluter0"))
    else:
        ref_gen = one_at_a_time(ref_gen)
    batched = CoroutineBody(gen)
    ref = PerActionBody(ref_gen)
    # The batched side runs on the kernel's pooled per-CPU contexts,
    # rebound to the running task; the reference side mirrors them.
    tasks = [Task("attacker", pid=pid) for pid in ATTACKER_PIDS]
    ref_tasks = [Task("attacker", pid=pid) for pid in ATTACKER_PIDS]
    ref_ctxs = [PerActionContext(ref_env.kernel, cpu, ref_tasks[0])
                for cpu in (0, 1)]
    cpu, who = 0, 0

    r = random.Random(SEED)
    seen = dict(inside_element=0, after_first=0, after_last=0,
                cpu_move=0, pid_move=0, flush=0, switch=0)
    t = 0.0
    for window in range(WINDOWS):
        deadline = _window(r, t)
        ctx = batched_env.kernel._ctx(cpu, tasks[who])
        ref_ctx = ref_ctxs[cpu]
        ref_ctx.task, ref_ctx.asid = ref_tasks[who], ref_tasks[who].pid
        outcome = batched.run(ctx, t, deadline)
        assert ref.run(ref_ctx, t, deadline) == outcome, window
        assert batched_returned == ref_returned, window
        assert batched.actions_executed == ref.actions_executed, window
        assert machine_state(batched_env) == machine_state(ref_env), window

        if outcome.end > deadline:
            seen["inside_element"] += 1
        if batched._batch is not None:
            seen["after_first"] += batched._cursor == 1
        elif isinstance(batched._send, list):
            seen["after_last"] += 1
        if outcome.exited:
            break
        # Victim activity between windows reaches both machines alike.
        if r.random() < 0.3:
            state = r.getstate()
            poke(batched_env, r)
            r.setstate(state)
            ref_poke(ref_env, r)
        # Short producers exit after a few dozen windows, so the moves
        # and flushes come on a fixed beat rather than by chance.
        if window % 5 == 4:
            flushed = r.randrange(2)
            _flush_core(batched_env, flushed)
            _flush_core(ref_env, flushed)
            seen["flush"] += 1
        if window % 7 == 5:
            _switch_core(batched_env, cpu)
            _switch_core(ref_env, cpu)
            seen["switch"] += 1
        if window % 3 == 2:
            seen["cpu_move"] += 1
            cpu = 1 - cpu
        if window % 4 == 1:
            seen["pid_move"] += 1
            who = 1 - who
        t = outcome.end + r.uniform(0.0, 200.0)

    assert batched_returned or producer is polluter, "no round completed"
    assert seen["inside_element"] and seen["after_last"], seen
    assert seen["cpu_move"] and seen["pid_move"] and seen["flush"], seen
    assert seen["switch"], seen
    # A one-element batch's first element is its last.
    one_element = producer in (dual_btb_probe, flush_reload_seeker)
    assert one_element or seen["after_first"], seen
    if producer in (dual_btb_probe, fetch_mix):
        h = batched_env.machine.hierarchy
        assert h.prefetches_issued and h.prefetches_suppressed, seen
    if producer is stlb_set_overflow:
        stlbs = batched_env.machine.tlbs.stlb
        assert sum(stlb.evictions for stlb in stlbs), seen


def test_empty_batch_runs_nothing_and_costs_nothing():
    env = build_env("cfs", n_cores=1, seed=SEED)
    received = []

    def gen():
        received.append((yield act.Loads(())))
        yield act.Compute(10.0)

    body = CoroutineBody(gen())
    ctx = _KernelExecContext(env.kernel, 0, Task("a", pid=ATTACKER_PIDS[0]))
    outcome = body.run(ctx, 0.0, 5.0)
    assert received == [[]]
    assert outcome == RunOutcome(10.0)
    assert body.actions_executed == 1


def test_flush_walk_is_rebuilt_on_another_machine():
    """One ``Flushes`` batch run on two machines flushes each machine's
    own caches, on every core."""
    batch = act.Flushes(FR_LINES)
    for _ in range(2):
        env = build_env("cfs", n_cores=2, seed=SEED)
        hierarchy = env.machine.hierarchy
        for core in (0, 1):
            for line in FR_LINES:
                hierarchy.access(core, line, "data")
                hierarchy.access(core, line, "inst")
        ctx = _KernelExecContext(env.kernel, 1,
                                 Task("a", pid=ATTACKER_PIDS[0]))
        out = []
        ctx.exec_batch(batch, 0, 0.0, float("inf"), out)
        assert out == [None] * len(FR_LINES)
        assert not any(hierarchy.is_cached_anywhere(line)
                       for line in FR_LINES)


def test_llc_leak_planted_after_the_walk_is_built_still_bites():
    """The walk calls the hierarchy's back-invalidation as it is when
    an LLC line is evicted, not as it was when the walk was built."""
    llc = build_env("cfs", n_cores=2, seed=SEED).machine.config.geometry.llc
    stride = llc.n_sets * llc.line_size
    # Core 1 holds ``shared``; core 0 loads the rest of its LLC set.
    shared = ATTACKER_LLC_ARENA
    congruent = tuple(shared + stride * k for k in range(1, llc.n_ways + 1))

    def run(batched):
        env = build_env("cfs", n_cores=2, seed=SEED)
        machine = env.machine
        ctx = _KernelExecContext(env.kernel, 0,
                                 Task("a", pid=ATTACKER_PIDS[0]))
        batch = act.Loads(congruent)
        results = []

        def load_pass():
            out = []
            if batched:
                ctx.exec_batch(batch, 0, 0.0, float("inf"), out)
            else:
                for addr in congruent:
                    cycles = machine.tlbs.translate_data(
                        0, ctx.asid, addr, huge=HUGE_LO <= addr < HUGE_HI)
                    out.append(cycles + machine.hierarchy.access(0, addr))
            results.append(out)

        machine.hierarchy.access(1, shared)
        load_pass()  # builds the batched side's walk
        machine.hierarchy.access(1, shared)
        inject_llc_leak(machine.hierarchy)
        load_pass()
        return results, machine_state(env), machine

    batched_results, batched_state, machine = run(batched=True)
    ref_results, ref_state, _ = run(batched=False)
    assert batched_results == ref_results
    assert batched_state == ref_state
    # The leak bit: core 1 kept its copy of a line the LLC evicted.
    assert machine.hierarchy.l1d[1].contains(shared)
    assert not machine.hierarchy.llc.contains(shared)


def test_llc_leak_planted_after_the_fetch_walk_is_built_still_bites():
    """The fetch walk calls the hierarchy's back-invalidation as it is
    when an LLC line is evicted, not as it was when the walk was built."""
    llc = build_env("cfs", n_cores=2, seed=SEED).machine.config.geometry.llc
    stride = llc.n_sets * llc.line_size
    # Core 1 holds ``shared``; core 0 fetches the rest of its LLC set.
    shared = ATTACKER_LLC_ARENA
    batch = act.ExecInsts(tuple(nop(shared + stride * k)
                                for k in range(1, llc.n_ways + 1)))

    def run(batched):
        env = build_env("cfs", n_cores=2, seed=SEED)
        machine = env.machine
        ctx = _KernelExecContext(env.kernel, 0,
                                 Task("a", pid=ATTACKER_PIDS[0]))
        results = []

        def fetch_pass():
            out = []
            if batched:
                ctx.exec_batch(batch, 0, 0.0, float("inf"), out)
            else:
                out = [ctx.core.execute(ctx.asid, inst)
                       for inst in batch.items]
            results.append(out)

        machine.hierarchy.access(1, shared)
        fetch_pass()  # builds the batched side's walk
        walk = batch.walk
        machine.hierarchy.access(1, shared)
        inject_llc_leak(machine.hierarchy)
        fetch_pass()
        if batched:
            assert batch.walk is walk  # the second pass reused it
        return results, machine_state(env), machine

    batched_results, batched_state, machine = run(batched=True)
    ref_results, ref_state, _ = run(batched=False)
    assert batched_results == ref_results
    assert batched_state == ref_state
    # The leak bit: core 1 kept its copy of a line the LLC evicted.
    assert machine.hierarchy.l1d[1].contains(shared)
    assert not machine.hierarchy.llc.contains(shared)
