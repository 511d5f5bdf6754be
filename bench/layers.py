"""Per-layer self time and call counts, measured from outside the program.

The traced pass of the benchmark wraps each layer's public entry points
(:data:`BOUNDARIES`) on their classes and modules before any simulation
environment is built, and restores them afterwards; nothing in ``src/``
knows about it.  Each thread keeps its own span stack.  A span's self
time is its duration minus the time its child spans cover, so the self
times of all layers add up to the time of the root spans: one benchmark
cell, or one client request.  A span that opens on another thread while
a root is open (the service's event-loop and executor threads) counts
as a child of that root.

Fine-grained boundaries (sim, sched, cpu, uarch) are only aggregated.
Coarse ones (roots, ``Kernel.run_until``, cell cache, journal, service,
sweeps) are also kept as spans with parent ids and exported as Chrome
trace-event JSON.  Around every ``Kernel.run_until`` the tracer takes
the program's own counters through
:func:`repro.obs.collect.publish_kernel_metrics` and adds up the deltas.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple


class Boundary(NamedTuple):
    layer: str
    module: str
    #: ``Class.method`` or a module-level function name.
    attr: str
    #: Keep each call as a span in the exported trace.
    coarse: bool = False
    #: The call returns a callable that belongs to the same boundary.
    wraps_result: bool = False


_POLICY_METHODS = ("charge", "place_waking", "place_initial",
                   "wants_wakeup_preempt", "tick_preempt", "pick_next",
                   "on_dequeue_sleep", "migrate")

#: The wrapper table.  A boundary that no longer resolves makes
#: :meth:`LayerTracer.install` raise, so a rename cannot silently drop a
#: layer from the report.
BOUNDARIES: Tuple[Boundary, ...] = (
    *(Boundary("sim", "repro.sim.engine", a)
      for a in ("Simulator.call_at", "Simulator.call_after", "Event.cancel")),
    Boundary("kernel", "repro.kernel.kernel", "Kernel.run_until", coarse=True),
    Boundary("kernel", "repro.kernel.kernel", "_KernelExecContext.exec_action"),
    *(Boundary("sched", "repro.sched.cfs", f"CfsScheduler.{m}")
      for m in _POLICY_METHODS),
    *(Boundary("sched", "repro.sched.eevdf", f"EevdfScheduler.{m}")
      for m in _POLICY_METHODS),
    *(Boundary("sched", "repro.sched.runqueue", f"RunQueue.{m}")
      for m in ("add", "remove", "update_min_vruntime", "avg_vruntime",
                "leftmost")),
    Boundary("sched", "repro.sched.loadbalance", "LoadBalancer.balance"),
    *(Boundary("cpu", "repro.cpu.core", f"Core.{m}")
      for m in ("run_program", "execute", "issue_speculative", "speculate",
                "warm_resume", "on_context_switch")),
    *(Boundary("uarch.cache", "repro.uarch.cache", f"MemoryHierarchy.{m}")
      for m in ("access", "access_many", "prefetch", "clflush",
                "flush_core_private", "is_cached_anywhere")),
    Boundary("uarch.cache", "repro.uarch.cache",
             "MemoryHierarchy.make_line_toucher", wraps_result=True),
    *(Boundary("uarch.tlb", "repro.uarch.tlb", f"TlbHierarchy.{m}")
      for m in ("translate_fetch", "translate_data", "flush_core")),
    *(Boundary("uarch.btb", "repro.uarch.btb", f"Btb.{m}")
      for m in ("predict", "on_control_transfer", "on_plain_instruction",
                "flush")),
    Boundary("attack", "repro.kernel.threads", "CoroutineBody.run"),
    *(Boundary("mitigations", "repro.mitigations.policy", f"MitigationStack.{m}")
      for m in ("on_attach", "filter_wakeup_preempt", "filter_tick_preempt",
                "on_context_switch", "on_tick")),
    Boundary("experiment", "repro.experiments.resolution", "run_resolution",
             coarse=True),
    Boundary("experiment", "repro.experiments.preemption_count",
             "run_budget_measurement", coarse=True),
    Boundary("experiment", "repro.attacks.aes_first_round", "run_aes_attack",
             coarse=True),
    Boundary("experiment", "repro.attacks.btb_gcd", "run_btb_gcd_attack",
             coarse=True),
    Boundary("experiment", "repro.attacks.sgx_base64",
             "run_sgx_pem_experiment", coarse=True),
    Boundary("experiment", "repro.experiments.defense_grid",
             "run_defense_cell", coarse=True),
    Boundary("wire", "repro.experiments.wire", "cell_from_wire"),
    Boundary("wire", "repro.experiments.wire", "normalize_params"),
    *(Boundary("cellcache", "repro.obs.cellcache", f"CellCache.{m}", coarse=True)
      for m in ("key_for", "fetch", "fetch_outcome", "store")),
    *(Boundary("journal", "repro.obs.journal", f"SweepJournal.{m}", coarse=True)
      for m in ("record", "flush", "close")),
    Boundary("journal", "repro.obs.journal", "replay", coarse=True),
    Boundary("sweeps", "repro.sweeps", "run_sweep", coarse=True),
    Boundary("service", "repro.service.client", "submit_batch", coarse=True),
    Boundary("service", "repro.service.server", "execute_cell", coarse=True),
    Boundary("parallel", "repro.parallel", "map_payloads_completions",
             coarse=True),
)

#: Every layer, in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(b.layer for b in BOUNDARIES))

#: Harness layers: they only do work on the ``serve`` workload.
HARNESS_LAYERS = ("wire", "cellcache", "journal", "sweeps", "service",
                  "parallel")

#: Program counters summed over every ``Kernel.run_until``.
KERNEL_COUNTERS = (
    "sim.events_fired", "cpu.instructions_retired", "ff.insts_fast_forwarded",
    "ff.windows.steady", "ff.windows.warmup", "ff.windows.periodic",
    "ff.windows.loop", "uarch.btb.mispredicts",
    *(f"uarch.{level}.{kind}" for level in ("l1i", "l1d", "llc", "itlb", "stlb")
      for kind in ("hits", "misses")),
)


def _kernel_counters(kernel) -> Dict[str, float]:
    """The program's own cumulative counters for one kernel."""
    from repro.obs.collect import publish_kernel_metrics
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry(enabled=True)
    publish_kernel_metrics(kernel, registry)
    values = {name: registry.get(name).value for name in KERNEL_COUNTERS}
    switches = kernel.tracer.switches
    values["kernel.switches"] = len(switches) + switches.dropped
    return values


class _ThreadState(threading.local):
    """Span stacks and per-boundary accumulators of one thread."""

    def __init__(self, tracer: "LayerTracer"):
        #: Child seconds accumulated by each open span.
        self.stack: List[float] = []
        #: Ids of the open coarse spans.
        self.coarse: List[int] = []
        #: ``[calls, self seconds]`` per boundary index.  The tracer keeps
        #: a reference to the list itself: through the thread-local, any
        #: other thread would read its own accumulators instead.
        self.acc = [[0, 0.0] for _ in tracer.boundaries]
        with tracer._lock:
            tracer._accs.append(self.acc)
            self.tid = len(tracer._accs)


class LayerTracer:
    """Installs the boundary wrappers and accumulates what they measure."""

    def __init__(self, boundaries: Tuple[Boundary, ...] = BOUNDARIES):
        self.boundaries = boundaries
        self._lock = threading.Lock()
        self._accs: List[List[List[float]]] = []
        self._local = _ThreadState(self)
        self._undo: List[Tuple[Any, str, bool, Any]] = []
        self._ids = itertools.count(1)
        self._origin = time.perf_counter()
        # The open root span (id) and the time spans on other threads
        # spent inside it.
        self._root: Optional[int] = None
        self._adopted_s = 0.0
        self.root_s = 0.0
        self.roots = 0
        #: Coarse spans: (boundary index, tid, start, seconds, id, parent).
        self.spans: List[Tuple[int, int, float, float, int, Optional[int]]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.cache_hits = 0
        self.denials = 0
        self._hooks: Dict[str, Tuple[Callable, Callable]] = {
            "Kernel.run_until": (self._counters_before, self._counters_after),
            "MitigationStack.filter_wakeup_preempt": (None, self._denials),
            "MitigationStack.filter_tick_preempt": (None, self._denials),
            "CellCache.fetch_outcome": (None, self._cache_hit),
        }

    # ------------------------------------------------------------------
    # Install / uninstall
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every boundary; raises if one no longer resolves."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        try:
            for index, boundary in enumerate(self.boundaries):
                self._install_one(index, boundary)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._undo:
            owner, name, owned, original = self._undo.pop()
            if owned:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    def _install_one(self, index: int, boundary: Boundary) -> None:
        module = importlib.import_module(boundary.module)
        owner_name, _, name = boundary.attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, name)
        if not inspect.isfunction(original):
            raise TypeError(f"{boundary.module}:{boundary.attr} is not a "
                            f"plain function ({type(original).__name__})")
        wrapper = self._wrap(index, original)
        if owner_name:
            targets = [owner]
        else:
            # Modules that imported the function by name hold their own
            # reference; rebind every one of them.
            targets = [mod for mod_name, mod in list(sys.modules.items())
                       if mod_name.split(".")[0] == "repro"
                       and getattr(mod, name, None) is original]
        for target in targets:
            self._undo.append((target, name, name in vars(target),
                               vars(target).get(name)))
            setattr(target, name, wrapper)

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _wrap(self, index: int, fn: Callable) -> Callable:
        boundary = self.boundaries[index]
        if (boundary.coarse or boundary.wraps_result
                or boundary.attr in self._hooks):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return self._span(index, fn, args, kwargs)
            return traced
        return self._fine(index, fn)

    def _fine(self, index: int, fn: Callable) -> Callable:
        local = self._local
        perf = time.perf_counter
        span = self._span

        @functools.wraps(fn)
        def fine(*args, **kwargs):
            stack = local.stack
            if not stack:
                return span(index, fn, args, kwargs)
            stack.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                acc = local.acc[index]
                acc[0] += 1
                acc[1] += dt - stack.pop()
                stack[-1] += dt
        return fine

    def _span(self, index: int, fn: Callable, args, kwargs):
        """The general wrapper: roots, coarse spans and hooks."""
        boundary = self.boundaries[index]
        before, after = self._hooks.get(boundary.attr, (None, None))
        token = before(args) if before is not None else None
        local = self._local
        stack = local.stack
        role = "nested"
        parent = local.coarse[-1] if local.coarse else None
        sid = next(self._ids)
        if not stack:
            with self._lock:
                if self._root is None:
                    role, self._root, self._adopted_s = "root", sid, 0.0
                else:
                    role, parent = "adopted", self._root
        record = boundary.coarse or role != "nested"
        stack.append(0.0)
        if record:
            local.coarse.append(sid)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            child = stack.pop()
            if record:
                local.coarse.pop()
            if role == "root":
                with self._lock:
                    child += self._adopted_s
                    self._root = None
                    self.root_s += dt
                    self.roots += 1
            elif role == "adopted":
                with self._lock:
                    self._adopted_s += dt
            else:
                stack[-1] += dt
            acc = local.acc[index]
            acc[0] += 1
            acc[1] += dt - child
            if record:
                with self._lock:
                    self.spans.append((index, local.tid, t0, dt, sid, parent))
        if boundary.wraps_result:
            result = self._fine(index, result)
        if after is not None:
            after(token, args, result)
        return result

    # ------------------------------------------------------------------
    # Hooks (run outside the timed region)
    # ------------------------------------------------------------------
    @staticmethod
    def _counters_before(args) -> Dict[str, float]:
        return _kernel_counters(args[0])

    def _counters_after(self, before, args, result) -> None:
        after = _kernel_counters(args[0])
        with self._lock:
            for name, value in after.items():
                self.counters[name] += value - before[name]

    def _denials(self, token, args, result) -> None:
        # filter_*(…, decision, now): a defense turned a grant into a denial.
        if args[-2] and not result:
            with self._lock:
                self.denials += 1

    def _cache_hit(self, token, args, result) -> None:
        if result[0] == "hit":
            with self._lock:
                self.cache_hits += 1

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    def boundary_totals(self) -> List[Tuple[int, float]]:
        """``(calls, self seconds)`` per boundary, over all threads."""
        totals = [[0, 0.0] for _ in self.boundaries]
        with self._lock:
            accs = list(self._accs)
        for thread_acc in accs:
            for total, acc in zip(totals, thread_acc):
                total[0] += acc[0]
                total[1] += acc[1]
        return [tuple(t) for t in totals]

    def report(self) -> Dict[str, Any]:
        """Layer totals, program counters and derived ratios."""
        layers = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        calls_by_attr: Dict[str, int] = defaultdict(int)
        for boundary, (calls, self_s) in zip(self.boundaries,
                                             self.boundary_totals()):
            layers[boundary.layer]["calls"] += calls
            layers[boundary.layer]["self_s"] += self_s
            calls_by_attr[boundary.attr] += calls
        counts = dict(self.counters)
        counts["mitigations.denials"] = self.denials
        counts["journal.records"] = calls_by_attr["SweepJournal.record"]
        counts["cellcache.hits"] = self.cache_hits
        counts["cellcache.key_lookups"] = calls_by_attr["CellCache.key_for"]
        return {"layers": layers, "counts": counts, "root_s": self.root_s,
                "roots": self.roots}

    def chrome_trace(self) -> Dict[str, Any]:
        """The coarse spans as Chrome trace-event JSON (host time, µs)."""
        with self._lock:
            spans = list(self.spans)
            n_threads = len(self._accs)
        events: List[Dict[str, Any]] = [
            {"name": "thread_name", "ph": "M", "ts": 0, "pid": 1, "tid": tid,
             "args": {"name": "main" if tid == 1 else f"thread{tid}"}}
            for tid in range(1, n_threads + 1)
        ]
        for index, tid, t0, dt, sid, parent in spans:
            boundary = self.boundaries[index]
            events.append({
                "name": boundary.attr, "cat": boundary.layer, "ph": "X",
                "ts": (t0 - self._origin) * 1e6, "dur": dt * 1e6,
                "pid": 1, "tid": tid,
                "args": {"id": sid, "parent": parent},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def derived_counts(counts: Dict[str, float]) -> Dict[str, float]:
    """The per-layer counts the benchmark reports, from raw totals."""

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {name: counts.get(name, 0) for name in (
        "sim.events_fired", "kernel.switches", "cpu.instructions_retired",
        "ff.windows.steady", "ff.windows.warmup", "ff.windows.periodic",
        "ff.windows.loop", "uarch.btb.mispredicts", "journal.records",
        "mitigations.denials")}
    out["ff.coverage"] = ratio(counts.get("ff.insts_fast_forwarded", 0),
                               counts.get("cpu.instructions_retired", 0))
    for level in ("l1i", "l1d", "llc", "itlb", "stlb"):
        hits = counts.get(f"uarch.{level}.hits", 0)
        out[f"uarch.{level}.hit_rate"] = ratio(
            hits, hits + counts.get(f"uarch.{level}.misses", 0))
    out["cellcache.hit_frac"] = ratio(counts.get("cellcache.hits", 0),
                                      counts.get("cellcache.key_lookups", 0))
    return out
