"""Shared attack orchestration.

Every §5 exploit follows the same choreography:

1. the attacker thread starts, shrinks its timer slack and hibernates;
2. the victim process is invoked (threat model §3: the attacker starts
   the victim's execution) and performs its startup work — key/file
   loading, allocation — which is what advances the runqueue's
   min_vruntime and arms the full S_slack preemption budget;
3. the attacker wakes just as the victim enters the sensitive routine
   and begins the measure→nap loop.

Step 3's alignment is an offline-calibration problem in reality (same
binary, same quiescent machine ⇒ stable startup time).  In simulation
the calibration is exact: the harness reads the hibernation timer's
expiry after the attacker arms it and sizes the victim's startup phase
so the sensitive code begins right as the first preemption lands.
``victim_startup_ns`` must exceed S_slack (12 ms) so the budget is
fully charged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.primitive import ControlledPreemption
from repro.cpu.isa import Instruction, InstrKind
from repro.cpu.program import Program, StraightlineProgram
from repro.experiments.setup import ExperimentEnv, build_env
from repro.kernel.threads import ProgramBody
from repro.sched.task import Task, TaskState
from repro.uarch.timing import CPU_FREQ_GHZ
from repro.victims.layout import VICTIM_TEXT_BASE

#: Startup phase of every attacked victim; must exceed S_slack so the
#: hibernated attacker wakes with the full preemption budget.
DEFAULT_STARTUP_NS = 16e6

#: Where the startup loop lives (away from the sensitive code).  Its 64
#: lines occupy LLC sets 128–191, clear of every monitored set.
STARTUP_TEXT_BASE = VICTIM_TEXT_BASE + 0x102000


#: Non-looping run of code executed right before the payload — the
#: landmark region the attacker's seek phase watches.  It must be longer
#: than one seek-nap of victim progress so the payload cannot be entered
#: undetected within a single seek round.
#: Tail lines occupy LLC sets from 256 upward — in particular the seek
#: landmark's set is untouched by the startup loop and the kernel
#: footprint, as a real attacker verifies when picking the landmark.
TAIL_TEXT_BASE = VICTIM_TEXT_BASE + 0x184000
DEFAULT_TAIL_INSTS = 2500


class PhasedProgram(Program):
    """A victim with startup, landmark tail, then the sensitive payload.

    * startup — a straight-line loop sized in wall time (the victim's
      key/file-loading work that charges the attacker's budget);
    * tail — a short non-looping stretch at a distinct code region (the
      final call path into the crypto routine), whose first line is the
      attacker's seek landmark;
    * payload — the traced sensitive routine.
    """

    def __init__(
        self,
        startup_ns: float,
        payload: Program,
        tail_insts: int = DEFAULT_TAIL_INSTS,
    ):
        super().__init__()
        startup_insts = max(0, int(startup_ns * CPU_FREQ_GHZ) - tail_insts)
        self.startup = StraightlineProgram(
            base_pc=STARTUP_TEXT_BASE, total=startup_insts
        )
        self.payload = payload
        self.startup_insts = startup_insts
        self.tail_insts = tail_insts
        self.tail_marker_addr = TAIL_TEXT_BASE

    @property
    def payload_start(self) -> int:
        return self.startup_insts + self.tail_insts

    def instruction_at(self, index: int) -> Optional[Instruction]:
        if index < self.startup_insts:
            return self.startup.instruction_at(index)
        if index < self.payload_start:
            offset = index - self.startup_insts
            return Instruction(pc=TAIL_TEXT_BASE + 4 * offset, kind=InstrKind.NOP)
        return self.payload.instruction_at(index - self.payload_start)

    def uniform_region_length(self, index: int) -> int:
        if index < self.startup_insts:
            return min(
                self.startup.uniform_region_length(index),
                self.startup_insts - index,
            )
        if index < self.payload_start:
            offset = index - self.startup_insts
            to_line_end = 16 - (offset % 16)
            if offset % 16 == 0:
                return 0  # line boundary fetches normally
            return min(to_line_end, self.payload_start - index)
        return self.payload.uniform_region_length(index - self.payload_start)

    def loop_profile(self, index: int):
        if index < self.startup_insts - self.startup.loop_insts:
            return self.startup.loop_profile(index)
        return None

    def steady_state(self, index: int):
        # Uniform only inside the startup spin; the final loop plus the
        # tail/payload always execute per-instruction (they are what the
        # attacker observes).
        limit = self.startup_insts - self.startup.loop_insts
        if index >= limit:
            return None
        state = self.startup.steady_state(index)
        if state is None:
            return None
        return state[0], limit - index

    def steady_twin(self, idx0: int, t: float, deadline: float,
                    per_inst: float, certified: Optional[int]):
        # Inside the certified limit the stream is the startup's, at
        # index offset 0, and the certified count stops the twin there.
        return self.startup.steady_twin(idx0, t, deadline, per_inst, certified)

    @property
    def payload_retired(self) -> int:
        return max(0, self.retired - self.payload_start)

    @property
    def in_payload(self) -> bool:
        return self.retired >= self.payload_start


@dataclass
class AttackRun:
    """One synchronized victim run under attack."""

    env: ExperimentEnv
    victim: Task
    attacker: ControlledPreemption
    victim_program: PhasedProgram


def launch_synchronized_attack(
    attacker: ControlledPreemption,
    payload: Program,
    *,
    scheduler: str = "cfs",
    seed: int = 0,
    victim_task: Optional[Task] = None,
    startup_ns: float = DEFAULT_STARTUP_NS,
    align_margin_ns: float = 2_000.0,
    env: Optional[ExperimentEnv] = None,
    cpu: int = 0,
    mitigations=None,
) -> AttackRun:
    """Start attacker + victim with calibrated payload alignment.

    The attacker is spawned first; once its hibernation timer is armed
    the harness reads the exact wake time and spawns the victim so its
    startup phase ends ``align_margin_ns`` *after* the wake — i.e. the
    first few preemptions land at the very end of startup and the
    sensitive payload executes entirely under fine-grained stepping.
    """
    if env is None:
        env = build_env(scheduler, n_cores=1, seed=seed,
                        mitigations=mitigations)
    kernel = env.kernel
    attacker.launch(kernel, cpu)
    # Let the attacker run its prologue and arm the hibernation timer.
    wake_time = attacker.wake_time(kernel, cpu, within=1e7)
    program = PhasedProgram(startup_ns, payload)
    if victim_task is None:
        victim_task = Task("victim", body=ProgramBody(program))
    else:
        victim_task.body = ProgramBody(
            program, spec_window=victim_task.body.spec_window
            if isinstance(victim_task.body, ProgramBody) else None
        )
    spawn_time = wake_time + align_margin_ns - startup_ns
    if spawn_time <= kernel.now:
        raise ValueError(
            "victim startup phase does not fit inside the hibernation; "
            "increase hibernate_ns or decrease startup_ns"
        )
    kernel.sim.call_at(spawn_time, lambda: kernel.spawn(victim_task, cpu=cpu))
    return AttackRun(env, victim_task, attacker, program)


def run_to_completion(run: AttackRun, *, max_ns: float = 30e9) -> None:
    """Advance until both the victim and the attacker finished."""
    run.env.kernel.run_until(
        predicate=lambda: (
            run.victim.state is TaskState.EXITED
            and run.attacker.task.state is TaskState.EXITED
        ),
        max_time=run.env.kernel.now + max_ns,
    )
