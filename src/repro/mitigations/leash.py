"""LEASH: reactive throttling of preemption-storm tasks.

LEASH (arxiv 2109.03998) extends the scheduler with a perf-counter
heuristic: tasks whose hardware signals look like a side-channel
attacker are flagged and *leashed* — starved of the scheduler resources
the attack needs.  Our model keys on the scheduler-visible signal the
controlled-preemption primitive cannot hide: the wakeup-preemption
attempt rate.  The attacker's nap/wake loop attempts a preemption every
τ ≈ 740 ns — hundreds per millisecond — while benign interactive tasks
wake orders of magnitude less often.

Mechanism, per fixed window of ``window_ns``:

* every wakeup-preemption *attempt* (granted or not) is charged to the
  wakee;
* a wakee exceeding ``flag_threshold`` attempts in one window is
  **flagged**: it is immediately assessed a one-time vruntime penalty
  (``vruntime_penalty_ns`` of weighted virtual time — LEASH's
  "deprioritize"), its future wakeup preemptions are denied, and while
  it runs it is slice-throttled (forced off the CPU after
  ``throttle_slice_ns`` whenever anyone else is runnable);
* a flagged task is unflagged only after a quiet horizon of
  ``cooldown_windows × window_ns`` with **zero attempts**.  The clock
  is the wall distance from the task's *last attempt* — not a count of
  evaluated windows — so a leashed attacker probing at its residual
  parked rate (one denied attempt per victim slice, several windows
  apart) stays leashed however the window bookkeeping batches, while a
  task that genuinely quiesces is promptly released.

Every intervention is recorded in an ordered event log
(``(time, kind, pid)`` with kinds ``flag``/``unflag``/``deny``/
``throttle``/``penalty``) — the validate oracle replays it to prove the
defense only ever throttles tasks it had flagged.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.mitigations.policy import MitigationPolicy, register_policy

__all__ = ["LeashPolicy"]


@register_policy
class LeashPolicy(MitigationPolicy):
    name = "leash"

    def __init__(
        self,
        *,
        window_ns: float = 250_000.0,
        flag_threshold: int = 12,
        cooldown_windows: int = 16,
        throttle_slice_ns: float = 200_000.0,
        vruntime_penalty_ns: float = 2_000_000.0,
    ):
        if window_ns <= 0:
            raise ValueError("window_ns must be positive")
        if flag_threshold < 1:
            raise ValueError("flag_threshold must be >= 1")
        self.window_ns = float(window_ns)
        self.flag_threshold = int(flag_threshold)
        self.cooldown_windows = int(cooldown_windows)
        self.throttle_slice_ns = float(throttle_slice_ns)
        self.vruntime_penalty_ns = float(vruntime_penalty_ns)
        self._window_start = 0.0
        self._counts: Dict[int, int] = {}
        self._tasks: Dict[int, Any] = {}
        #: pid → time of its most recent wakeup-preemption attempt
        self._last_attempt: Dict[int, float] = {}
        self.flagged_pids: set = set()
        self.flagged_names: set = set()
        self.events: List[Tuple[float, str, int]] = []
        self.flags = 0
        self.denials = 0
        self.throttles = 0
        self.penalties = 0

    # -- windowed heuristic -------------------------------------------
    def _evaluate_window(self, at: float) -> None:
        for pid, count in self._counts.items():
            if count >= self.flag_threshold and pid not in self.flagged_pids:
                self._flag(pid, at)
        horizon = self.cooldown_windows * self.window_ns
        for pid in list(self.flagged_pids):
            last = self._last_attempt.get(pid, at)
            if at - last >= horizon:
                self._unflag(pid, at)
        self._counts.clear()

    def _roll(self, now: float) -> None:
        while now >= self._window_start + self.window_ns:
            boundary = self._window_start + self.window_ns
            self._evaluate_window(boundary)
            self._window_start = boundary
            if not self.flagged_pids:
                # Nothing to age: fast-forward across idle gaps (the
                # attacker's hibernation spans millions of windows).
                remaining = int((now - self._window_start)
                                // self.window_ns)
                if remaining > 0:
                    self._window_start += remaining * self.window_ns
                return

    def _flag(self, pid: int, at: float) -> None:
        self.flagged_pids.add(pid)
        self.flags += 1
        self.events.append((at, "flag", pid))
        task = self._tasks.get(pid)
        if task is not None:
            self.flagged_names.add(task.name)
            # One-time deprioritization: age the task's vruntime so the
            # fair scheduler naturally parks it behind everyone else.
            task.vruntime += task.vruntime_delta(self.vruntime_penalty_ns)
            self.penalties += 1
            self.events.append((at, "penalty", pid))

    def _unflag(self, pid: int, at: float) -> None:
        self.flagged_pids.discard(pid)
        self._last_attempt.pop(pid, None)
        self.events.append((at, "unflag", pid))

    # -- hooks ---------------------------------------------------------
    def filter_wakeup_preempt(self, rq: Any, curr: Any, wakee: Any,
                              decision: bool, now: float) -> bool:
        self._roll(now)
        pid = wakee.pid
        self._counts[pid] = self._counts.get(pid, 0) + 1
        self._tasks[pid] = wakee
        self._last_attempt[pid] = now
        if pid in self.flagged_pids and decision:
            self.denials += 1
            self.events.append((now, "deny", pid))
            return False
        return decision

    def filter_tick_preempt(self, rq: Any, curr: Any,
                            decision: bool, now: float) -> bool:
        if (not decision and curr.pid in self.flagged_pids
                and curr.slice_exec >= self.throttle_slice_ns
                and rq.queued):
            self.throttles += 1
            self.events.append((now, "throttle", curr.pid))
            return True
        return decision

    def on_tick(self, rq: Any, curr: Any, now: float) -> None:
        self._roll(now)

    def snapshot(self) -> Dict[str, Any]:
        return {
            "flags": self.flags,
            "denials": self.denials,
            "throttles": self.throttles,
            "penalties": self.penalties,
            "flagged_pids": sorted(self.flagged_pids),
            "flagged_names": sorted(self.flagged_names),
            "events": len(self.events),
        }
