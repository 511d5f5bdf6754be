"""Thread bodies: what a task does when it owns the CPU.

Three flavours cover everyone in the paper's experiments:

* :class:`CoroutineBody` — generator-driven userspace code (the
  attacker, noise threads).  Yields :mod:`repro.kernel.actions` actions;
  the kernel executes them and sends results back in.
* :class:`ProgramBody` — a victim replaying an instruction trace
  through the core's microarchitecture (AES, base64, GCD, the
  straight-line resolution victim).
* :class:`ComputeBody` — a pure CPU burner with no microarchitectural
  footprint (the colocation dummies).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Generator, List, Optional, Tuple

from repro.cpu.core import Core
from repro.cpu.program import Program
from repro.kernel.actions import Action, Batch


@dataclass
class BlockRequest:
    """A body asked the kernel to block it."""

    kind: str  # 'nanosleep' | 'pause' | 'exit'
    ns: float = 0.0


@dataclass
class RunOutcome:
    """Result of running a body for one window.

    ``end`` is when the body stopped consuming CPU (may overshoot the
    window's deadline by at most one action, batch element or
    instruction — the interrupt boundary rule).  ``block`` is set when
    the body invoked a blocking syscall; ``exited`` when it terminated.
    """

    end: float
    block: Optional[BlockRequest] = None
    exited: bool = False


class ThreadBody(ABC):
    """Behaviour of one task."""

    #: The victim program a body replays through the core (a
    #: :class:`ProgramBody`'s), else None: what the kernel reads a
    #: task's PC and retired count from.
    program: Optional[Program] = None

    @abstractmethod
    def run(self, ctx: "ExecContext", start: float, deadline: float) -> RunOutcome:
        """Consume CPU from ``start`` until ``deadline``, a blocking
        syscall, or termination — whichever comes first."""

    def on_preempted(self, ctx: "ExecContext") -> None:
        """Hook invoked when the task is involuntarily descheduled."""


class ExecContext:
    """What a body sees of the machine while it runs.

    Defined abstractly here; the kernel provides the implementation
    (it needs kernel state to execute syscalls).
    """

    __slots__ = ()

    core: Core
    asid: int

    def exec_action(self, action: Action, now: float):
        """Execute ``action`` at time ``now``.

        Returns ``(cost_ns, result, block_request_or_None)``.
        """
        raise NotImplementedError

    def exec_batch(self, batch: Batch, i: int, t: float, deadline: float,
                   out: List[Any]) -> Tuple[int, float]:
        """Run ``batch.items[i:]`` from time ``t``, appending each
        element's result to ``out``, and stop after the element that
        reaches ``deadline`` (the interrupt boundary rule, per element).

        Returns ``(next_index, t)``.
        """
        raise NotImplementedError

    def draw_spec_window(self) -> int:
        """Random speculative-lookahead depth for this preemption."""
        raise NotImplementedError


class CoroutineBody(ThreadBody):
    """Generator-driven userspace code.

    A :class:`~repro.kernel.actions.Batch` is run element by element
    through ``ExecContext.exec_batch``.  When a window ends inside one,
    the body keeps the batch, its cursor and the results so far, and
    the next window resumes at the cursor; the generator gets the
    list of results only once the last element has run.
    """

    def __init__(self, gen: Generator[Action, Any, None]):
        self.gen = gen
        self._send: Any = None
        self._batch: Optional[Batch] = None
        self._cursor = 0
        self._results: List[Any] = []
        self.actions_executed = 0

    def run(self, ctx: ExecContext, start: float, deadline: float) -> RunOutcome:
        t = start
        while t < deadline:
            batch = self._batch
            if batch is None:
                try:
                    action = self.gen.send(self._send)
                except StopIteration:
                    return RunOutcome(t, exited=True)
                if not isinstance(action, Batch):
                    cost, result, block = ctx.exec_action(action, t)
                    t += cost
                    self._send = result
                    self.actions_executed += 1
                    if block is not None:
                        if block.kind == "exit":
                            return RunOutcome(t, exited=True)
                        return RunOutcome(t, block=block)
                    continue
                batch = self._batch = action
                self._cursor = 0
                self._results = []
            i = self._cursor
            self._cursor, t = ctx.exec_batch(batch, i, t, deadline,
                                             self._results)
            self.actions_executed += self._cursor - i
            if self._cursor == len(batch.items):
                self._batch = None
                # Sent as built: a tuple copy per batch cost ~0.5 MB of
                # peak RSS over three degraded resolution cells.
                self._send = self._results
        return RunOutcome(t)


class ProgramBody(ThreadBody):
    """A victim program replayed through the core."""

    def __init__(self, program: Program, *, spec_window: Optional[int] = None):
        self.program = program
        #: None means "use the machine default"; 0 disables the smear.
        self.spec_window = spec_window

    def run(self, ctx: ExecContext, start: float, deadline: float) -> RunOutcome:
        retired, end = ctx.core.run_program(
            ctx.asid, self.program, start, deadline
        )
        if self.program.done:
            return RunOutcome(end, exited=True)
        return RunOutcome(end)

    def on_preempted(self, ctx: ExecContext) -> None:
        """Apply the speculative smear: issue cache effects for a few
        instructions past the retirement boundary (Fig 5.1)."""
        window = self.spec_window
        if window is None:
            window = ctx.draw_spec_window()
        if window > 0:
            ctx.core.speculate(ctx.asid, self.program, window)


class ComputeBody(ThreadBody):
    """Pure CPU burner; optional finite duration, else runs forever."""

    def __init__(self, duration_ns: Optional[float] = None):
        self.remaining = duration_ns

    def run(self, ctx: ExecContext, start: float, deadline: float) -> RunOutcome:
        window = deadline - start
        if self.remaining is not None:
            if self.remaining <= window:
                end = start + self.remaining
                self.remaining = 0.0
                return RunOutcome(end, exited=True)
            self.remaining -= window
        return RunOutcome(deadline)
