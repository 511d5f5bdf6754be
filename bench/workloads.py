"""The benchmark's four workloads.

A workload is a sequence of *sets*.  A set is a fixed list of
operations built from ``(seed, workload, set index)`` alone through
:func:`repro.parallel.derive_seed`; the experiment code receives only the
generated inputs.  An operation is one experiment cell, or on ``serve``
one client request.  Operations run serially in this process, with the
cell cache off except on ``serve``.  ``SET_S`` is the seconds one set
takes at the reference speed of ``speed.py``; it fixes how many sets a
run measures.

Each operation is timed around the call into the program only; its
checks (result digest, sanity, cache and journal provenance) run after.
"""

from __future__ import annotations

import asyncio
import importlib
import itertools
import os
import shutil
import sys
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.attacks.btb_gcd import random_prime_pairs
from repro.core.wakeup import WakeupMethod
from repro.experiments.resolution import (FIG_4_3A_TAUS, FIG_4_3B_TAUS,
                                          FIG_4_3C_TAUS)
from repro.obs.manifest import result_digest
from repro.parallel import derive_seed
from repro.sim.rng import RngStreams

#: (module, function) of every cell function the workloads call.
RESOLUTION = ("repro.experiments.resolution", "run_resolution")
BUDGET = ("repro.experiments.preemption_count", "run_budget_measurement")
AES = ("repro.attacks.aes_first_round", "run_aes_attack")
BTB = ("repro.attacks.btb_gcd", "run_btb_gcd_attack")
SGX = ("repro.attacks.sgx_base64", "run_sgx_pem_experiment")
DEFENSE_CELL = ("repro.experiments.defense_grid", "run_defense_cell")


@dataclass
class Op:
    """One timed operation."""

    label: str
    #: The work that is timed: one call into the program.
    call: Callable[[], Any]
    #: ``(digest, problem)`` for the call's return value; ``problem`` is
    #: None when every check passed.
    verify: Callable[[Any], Tuple[Optional[str], Optional[str]]]
    #: Recovery accuracy of an undefended attack cell.
    score: Optional[Callable[[Any], float]] = None
    #: Whether ``bench/pin_golden.py`` pins this operation's digest.
    #: A ``serve`` request that repeats a batch is checked against the
    #: batch's cold digests instead.
    pin: bool = True


class OpRecord(NamedTuple):
    label: str
    #: Host time (``time.perf_counter``) at the middle of the call.
    mid: float
    seconds: float
    digest: Optional[str]
    problem: Optional[str]
    score: Optional[float]


def run_ops(ops: List[Op], probe=None) -> List[OpRecord]:
    """Run ``ops`` in order; a failing operation is recorded, not raised.
    ``probe`` (a :class:`speed.SpeedProbe`) samples between operations,
    once each operation's result has been released."""
    records = []
    for op in ops:
        records.append(_run_op(op))
        if probe is not None:
            probe.maybe_sample()
    return records


def _run_op(op: Op) -> OpRecord:
    t0 = time.perf_counter()
    try:
        raw = op.call()
        seconds = time.perf_counter() - t0
        digest, problem = op.verify(raw)
        score = op.score(raw) if op.score and problem is None else None
        return OpRecord(op.label, t0 + seconds / 2, seconds, digest,
                        problem, score)
    except Exception as exc:  # one bad cell must not end the run
        traceback.print_exc(file=sys.stderr)
        return OpRecord(op.label, t0, time.perf_counter() - t0, None,
                        f"{type(exc).__name__}: {exc}", None)


def _fresh_task_pids() -> None:
    """Number tasks from the start again, as in a fresh process.

    Task pids come from one process-wide counter and a LEASH snapshot
    records flagged pids in the defense cell's result, so without this
    a cell's digest would depend on the cells run before it.
    """
    from repro.sched import task

    task._pid_counter = itertools.count(1000)


def _cell(label: str, target: Tuple[str, str],
          check: Callable[[Any], Optional[str]],
          score: Optional[Callable[[Any], float]] = None, **kwargs) -> Op:
    module = importlib.import_module(target[0])

    def call():
        _fresh_task_pids()
        # Looked up per call, so a traced pass runs the wrapped function.
        return getattr(module, target[1])(**kwargs)

    def verify(result):
        return result_digest(result), check(result)

    return Op(label, call, verify, score)


def _accuracy_in_range(value: float) -> Optional[str]:
    return None if 0.0 <= value <= 1.0 else f"accuracy {value} outside [0, 1]"


class _CellWorkload:
    """A workload whose operations are plain experiment cells."""

    name = ""
    SET_S = 0.0

    def __init__(self, seed: int, state_dir: str):
        # ``state_dir`` is unused: cells keep nothing on disk.
        self.seed = seed

    def seed_for(self, *identity: object) -> int:
        return derive_seed(self.seed, self.name, *identity)

    def plan(self, k: int) -> List[Op]:
        raise NotImplementedError

    def begin_set(self, k: int) -> None:
        pass

    def end_set(self) -> None:
        pass

    def close(self) -> None:
        pass


class Resolution(_CellWorkload):
    """Fig 4.3a/b/c and Fig 4.7 cells: the paper's core primitive."""

    name = "resolution"
    SET_S = 3.9
    PREEMPTIONS = 1000
    #: (group, τ values, run_resolution arguments).  Three cheap groups
    #: against two degraded ones keep the median inside one cost
    #: cluster instead of between the two.
    GROUPS = (
        ("fig4.3a", FIG_4_3A_TAUS, {}),
        ("fig4.3b", FIG_4_3B_TAUS, {"degrade_itlb": True}),
        ("fig4.3c", FIG_4_3C_TAUS, {"method": WakeupMethod.TIMER}),
        ("fig4.7", FIG_4_3B_TAUS, {"degrade_itlb": True, "scheduler": "eevdf"}),
        ("fig4.3a-eevdf", FIG_4_3A_TAUS, {"scheduler": "eevdf"}),
    )

    def plan(self, k):
        def check(run):
            n = len(run.samples)
            return None if n == self.PREEMPTIONS else f"{n} samples"

        return [
            _cell(f"s{k}/{group}/{tau}", RESOLUTION, check, tau=tau,
                  preemptions=self.PREEMPTIONS,
                  seed=self.seed_for(k, group, tau), **kwargs)
            for group, taus, kwargs in self.GROUPS
            for tau in taus
        ]


class Budget(_CellWorkload):
    """Fig 4.4, Fig 4.5 and the §4.5 EEVDF statistic: preemption storms."""

    name = "budget"
    SET_S = 7.7
    FIG_4_4_EXTRA_NS = (5_000.0, 8_000.0, 12_000.0, 20_000.0, 40_000.0,
                        80_000.0)
    FIG_4_5_NICE = (-20, -15, -10, -5, 0, 5, 10)
    #: The two slowest Fig 4.5 cells, about 3 s each: a set runs one,
    #: the next set the other.
    FIG_4_5_TAIL = (15, 19)
    #: The EEVDF cells are the cheapest group.  With 10 of them the
    #: median cell fell between the two cost clusters and moved by 8%
    #: between seeds; 20 keep it inside the cheap one.
    EEVDF_CELLS = 20

    def plan(self, k):
        def check(run):
            return None if run.preemptions > 0 else "no preemptions"

        ops = [_cell(f"s{k}/fig4.4/{extra}", BUDGET, check,
                     extra_compute_ns=extra,
                     seed=self.seed_for(k, "fig4.4", extra))
               for extra in self.FIG_4_4_EXTRA_NS]
        ops += [_cell(f"s{k}/fig4.5/{nice}", BUDGET, check,
                      extra_compute_ns=12_000.0, victim_nice=nice,
                      seed=self.seed_for(k, "fig4.5", nice))
                for nice in self.FIG_4_5_NICE
                + (self.FIG_4_5_TAIL[k % len(self.FIG_4_5_TAIL)],)]
        ops += [_cell(f"s{k}/eevdf/{i}", BUDGET, check,
                      extra_compute_ns=12_000.0, scheduler="eevdf",
                      seed=self.seed_for(k, "eevdf", i))
                for i in range(self.EEVDF_CELLS)]
        return ops


class Attacks(_CellWorkload):
    """§5 attacks and a §6 defense-grid slice: uarch-heavy cells.

    The slice holds each (workload, defense) pair once, alternating
    between CFS and EEVDF, and the next set swaps the two; so every set
    runs mitigation hooks on both schedulers, and two sets cover the
    whole workload × defense × scheduler grid.
    """

    name = "attacks"
    SET_S = 11.5
    BTB_PAIRS = 4
    GRID_WORKLOADS = ("aes", "btb", "benign")
    GRID_DEFENSES = (None, "leash", "schedguard", "prefence")
    GRID_SCHEDULERS = ("cfs", "eevdf")

    def plan(self, k):
        def accuracy(result):
            return _accuracy_in_range(result.accuracy)

        key = RngStreams(seed=self.seed_for(k, "aes")).randbytes("key", 16)
        ops = [_cell(f"s{k}/aes", AES, accuracy, lambda r: r.accuracy,
                     key=key, n_traces=5, seed=self.seed_for(k, "aes"))]
        ops.append(_cell(
            f"s{k}/sgx", SGX, lambda r: _accuracy_in_range(r.stitched_accuracy),
            lambda r: r.stitched_accuracy, bits=1024,
            seed=self.seed_for(k, "sgx")))
        pairs = random_prime_pairs(self.BTB_PAIRS,
                                   seed=self.seed_for(k, "btb-pairs"))
        ops += [_cell(f"s{k}/btb/{i}", BTB, accuracy, lambda r: r.accuracy,
                      a=a, b=b, seed=self.seed_for(k, "btb", i))
                for i, (a, b) in enumerate(pairs)]
        grid = itertools.product(self.GRID_WORKLOADS, self.GRID_DEFENSES)
        for i, (workload, defense) in enumerate(grid):
            scheduler = self.GRID_SCHEDULERS[(i + k)
                                             % len(self.GRID_SCHEDULERS)]
            undefended_attack = defense is None and workload != "benign"
            ops.append(_cell(
                f"s{k}/grid/{workload}/{defense}/{scheduler}",
                DEFENSE_CELL,
                lambda r: _accuracy_in_range(r.leakage),
                (lambda r: r.leakage) if undefended_attack else None,
                workload=workload, defense=defense, scheduler=scheduler,
                seed=self.seed_for(k, "grid", workload, scheduler)))
        return ops


# ----------------------------------------------------------------------
# serve: the harness, driven by one closed-loop client
# ----------------------------------------------------------------------
HOST = "127.0.0.1"


class ServiceThread:
    """An in-process ``ExperimentService(workers=0)`` on its own event
    loop thread.  Its cells run on a one-thread executor, so the process
    never has more than two threads doing work (the client waits)."""

    def __init__(self, cache_dir: str, journal_dir: str):
        from repro.service.server import ExperimentService, ServiceConfig

        self.service = ExperimentService(ServiceConfig(
            host=HOST, workers=0, cache_dir=cache_dir,
            journal_dir=journal_dir))
        self.loop = asyncio.new_event_loop()
        self.executor = ThreadPoolExecutor(max_workers=1,
                                           thread_name_prefix="bench-cell")
        self.loop.set_default_executor(self.executor)
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       name="bench-service")
        self.thread.start()
        try:
            self._call(self.service.start())
        except BaseException:
            self._stop_loop()
            raise
        self.port = self.service.port

    def _call(self, coro) -> Any:
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(60)

    def _stop_loop(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(60)
        self.executor.shutdown(wait=True)
        self.loop.close()

    def close(self) -> None:
        try:
            self._call(self.service.drain())
        finally:
            self._stop_loop()


class Serve:
    """Closed loop, one client, against an in-process service.

    Each round sends five requests for one batch of four resolution
    cells: the cold batch (through the service on even rounds, through
    ``run_sweep`` on odd ones), the same batch spelled differently, the
    previous round's batch, the batch through ``run_sweep`` in a fresh
    run dir, and a ``--resume`` of that run dir.  Every set starts from
    an empty cache, journal and service, so sets are independent.
    """

    name = "serve"
    SET_S = 1.2
    ROUNDS = 10
    TAUS = FIG_4_3A_TAUS
    PREEMPTIONS = 200

    def __init__(self, seed: int, state_dir: str):
        from repro.obs.cellcache import CellCache

        self.seed = seed
        self.state_dir = state_dir
        self.service: Optional[ServiceThread] = None
        self.set_dir = ""
        # Count verified cache hits, so a request that must be served
        # from the cache is checked to have been.  The service's threads
        # and the client's run_sweep both fetch.
        self.cache_hits = 0
        self._hits_lock = threading.Lock()
        self._fetch_outcome = CellCache.fetch_outcome

        def fetch_outcome(cache, key):
            status, result = self._fetch_outcome(cache, key)
            if status == "hit":
                with self._hits_lock:
                    self.cache_hits += 1
            return status, result

        CellCache.fetch_outcome = fetch_outcome

    def begin_set(self, k: int) -> None:
        from repro.obs.cellcache import CACHE_ENV
        from repro.service import client

        self.set_dir = os.path.join(self.state_dir, f"set{k}")
        shutil.rmtree(self.set_dir, ignore_errors=True)
        os.environ[CACHE_ENV] = os.path.join(self.set_dir, "cache")
        self.service = ServiceThread(os.path.join(self.set_dir, "cache"),
                                     os.path.join(self.set_dir, "server"))
        reply = client.ping(HOST, self.service.port)
        if reply.get("type") != "pong":
            raise RuntimeError(f"service did not answer the ping: {reply}")

    def end_set(self) -> None:
        from repro.obs.cellcache import CACHE_ENV

        service, self.service = self.service, None
        os.environ.pop(CACHE_ENV, None)
        try:
            if service is not None:
                service.close()
        finally:
            shutil.rmtree(self.set_dir, ignore_errors=True)

    def close(self) -> None:
        from repro.obs.cellcache import CellCache

        try:
            if self.service is not None:
                self.end_set()
        finally:
            CellCache.fetch_outcome = self._fetch_outcome
            shutil.rmtree(self.state_dir, ignore_errors=True)

    # ------------------------------------------------------------------
    def plan(self, k: int) -> List[Op]:
        cold: Dict[int, List[str]] = {}
        batches: Dict[int, List[Dict[str, Any]]] = {}
        ops: List[Op] = []
        for r in range(self.ROUNDS):
            g = k * self.ROUNDS + r
            seeds = [derive_seed(self.seed, self.name, g, tau)
                     for tau in self.TAUS]
            batches[g] = [
                {"experiment": "resolution",
                 "params": {"tau": tau, "preemptions": self.PREEMPTIONS,
                            "seed": s}}
                for tau, s in zip(self.TAUS, seeds)
            ]
            respelled = [
                {"experiment": f"{RESOLUTION[0]}:{RESOLUTION[1]}",
                 "params": {"tau": int(tau), "preemptions": self.PREEMPTIONS,
                            "seed": s, "degrade_itlb": False,
                            "scheduler": "cfs",
                            "method": {"__enum__": "repro.core.wakeup:"
                                                   "WakeupMethod",
                                       "value": WakeupMethod.NANOSLEEP.value}}}
                for tau, s in zip(self.TAUS, seeds)
            ]
            warm_dir = f"r{g}-warm"
            if g % 2 == 0:
                ops.append(self._service_op(f"r{g}", batches[g], "computed",
                                            cold, g, record=True))
            else:
                ops.append(self._sweep_op(f"r{g}", batches[g], f"r{g}-cold",
                                          cold, g, hits=0, record=True))
            ops.append(self._service_op(f"r{g}/respelled", respelled,
                                        "cached", cold, g))
            prev = g - 1 if r else g
            ops.append(self._service_op(f"r{g}/previous", batches[prev],
                                        "cached", cold, prev))
            ops.append(self._sweep_op(f"r{g}/sweep", batches[g], warm_dir,
                                      cold, g, hits=len(self.TAUS)))
            ops.append(self._resume_op(f"r{g}/resume", warm_dir, cold, g))
        return ops

    def _check_digests(self, digests: List[Optional[str]],
                       cold: Dict[int, List[str]], g: int,
                       record: bool) -> Tuple[Optional[str], Optional[str]]:
        from repro.sweeps import combined_digest

        if len(digests) != len(self.TAUS) or None in digests:
            return None, f"{len(digests)} digests {digests}"
        if record:
            cold[g] = list(digests)
        elif cold.get(g) != digests:
            return combined_digest(digests), f"digests differ from round {g}"
        return combined_digest(digests), None

    def _service_op(self, label, batch, status, cold, g, record=False) -> Op:
        from repro.service import client

        def call():
            return client.submit_batch(HOST, self.service.port, batch)

        def verify(result):
            got = [(c.status, c.source) for c in result.cells]
            want = ("computed", "fresh") if status == "computed" \
                else ("cached", "cache")
            digest, problem = self._check_digests(result.digests, cold, g,
                                                  record)
            if any(pair != want for pair in got):
                return digest, f"served {got}, expected {want}"
            return digest, problem

        return Op(label, call, verify, pin=record)

    def _sweep_op(self, label, batch, run_dir, cold, g, *, hits,
                  record=False) -> Op:
        from repro.experiments import wire
        from repro import sweeps

        def call():
            before = self.cache_hits
            cells = [wire.cell_from_wire(c) for c in batch]
            result = sweeps.run_sweep(os.path.join(self.set_dir, "runs",
                                                   run_dir), cells)
            return result, self.cache_hits - before

        def verify(outcome):
            result, cache_hits = outcome
            digest, problem = self._check_digests(
                [o.digest for o in result.outcomes], cold, g, record)
            if result.ran != len(batch) or cache_hits != hits:
                return digest, (f"ran {result.ran} cells with {cache_hits} "
                                f"cache hits, expected {hits}")
            return digest, problem

        return Op(label, call, verify, pin=record)

    def _resume_op(self, label, run_dir, cold, g) -> Op:
        from repro import sweeps

        def call():
            return sweeps.run_sweep(os.path.join(self.set_dir, "runs",
                                                 run_dir), resume=True)

        def verify(result):
            digest, problem = self._check_digests(
                [o.digest for o in result.outcomes], cold, g, False)
            if result.ran or result.journal_served != len(self.TAUS):
                return digest, (f"resume ran {result.ran}, journal served "
                                f"{result.journal_served}")
            return digest, problem

        return Op(label, call, verify, pin=False)


WORKLOADS = {w.name: w for w in (Resolution, Budget, Attacks, Serve)}
