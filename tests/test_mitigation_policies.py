"""The mitigation policy subsystem: canonical specs, stack composition,
per-policy mechanics, and the kernel's zero-cost default path.

The canonicalization tests double as the dedupe contract for the
defense arena: every spelling of the same defense must produce one
cell-cache key, and defense-on must never share a key with defense-off
(Hypothesis hunts the nested-param spellings humans produce).
"""

from __future__ import annotations

import tempfile
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cpu.machine import Machine, MachineConfig
from repro.experiments.wire import WireError, cell_from_wire
from repro.kernel.threads import ComputeBody
from repro.mitigations.leash import LeashPolicy
from repro.mitigations.policy import (
    MITIGATION_POLICIES,
    MitigationPolicy,
    MitigationStack,
    build_stack,
    canonical_mitigation,
    mitigation_name,
)
from repro.mitigations.prefence import PreFencePolicy
from repro.mitigations.schedguard import SchedGuardPolicy
from repro.obs.cellcache import CellCache
from repro.obs.manifest import _restore, _sanitize
from repro.sched.task import Task

CACHE = CellCache(tempfile.mkdtemp(prefix="mitigation-keys-"))


def make_task(name, pid=None):
    return Task(name, body=ComputeBody(), pid=pid)


def make_rq(queued=(1,)):
    return SimpleNamespace(queued=list(queued))


# ----------------------------------------------------------------------
# Canonical specs
# ----------------------------------------------------------------------
class TestCanonicalMitigation:
    def test_registry_has_all_three(self):
        assert {"leash", "schedguard", "prefence"} <= set(MITIGATION_POLICIES)

    @pytest.mark.parametrize("spelling", [None, "none", "off", "baseline",
                                          {"policy": "none"}])
    def test_no_defense_spellings_are_none(self, spelling):
        assert canonical_mitigation(spelling) is None
        assert mitigation_name(spelling) == "none"

    def test_name_and_dict_spellings_agree(self):
        assert (canonical_mitigation("leash")
                == canonical_mitigation({"policy": "leash"}))

    def test_defaults_filled_and_idempotent(self):
        canonical = canonical_mitigation("schedguard")
        assert canonical["slot_ns"] == 500_000.0
        assert canonical["protect"] == ["victim"]
        assert canonical_mitigation(canonical) == canonical

    def test_int_coerces_where_default_is_float(self):
        a = canonical_mitigation({"policy": "leash", "window_ns": 250000})
        b = canonical_mitigation({"policy": "leash", "window_ns": 250000.0})
        assert a == b
        assert isinstance(a["window_ns"], float)

    def test_protect_collections_sort_and_dedupe(self):
        a = canonical_mitigation({"policy": "schedguard",
                                  "protect": ["b", "a", "a"]})
        b = canonical_mitigation({"policy": "schedguard",
                                  "protect": ("a", "b")})
        assert a == b
        assert a["protect"] == ["a", "b"]

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown mitigation policy"):
            canonical_mitigation("frobnicate")

    def test_unknown_kwarg_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            canonical_mitigation({"policy": "leash", "windw_ns": 1.0})

    @pytest.mark.parametrize("policy_cls", [SchedGuardPolicy,
                                            PreFencePolicy])
    def test_bare_string_protect_rejected(self, policy_cls):
        """Iterated, "victim" would protect the names v, i, c, t, m."""
        with pytest.raises(ValueError, match="not the string 'victim'"):
            canonical_mitigation({"policy": policy_cls.name,
                                  "protect": "victim"})
        with pytest.raises(TypeError, match="list of task names"):
            policy_cls(protect="victim")
        assert policy_cls(protect=["victim"]).protect == ("victim",)

    def test_spec_builds_the_policy_it_names(self):
        (policy,) = build_stack({"policy": "schedguard", "slot_ns": 250_000,
                                 "protect": ["web", "db", "web"]})
        assert isinstance(policy, SchedGuardPolicy)
        assert policy.slot_ns == 250_000.0
        assert policy.protect == ("db", "web")

    def test_json_sanitize_round_trip_is_stable(self):
        """The wire carries sanitized values; a sanitize/restore cycle
        must not change the canonical form (lists stay lists)."""
        canonical = canonical_mitigation("schedguard")
        round_tripped = _restore(_sanitize(canonical))
        assert canonical_mitigation(round_tripped) == canonical


_LEASH_DEFAULTS = canonical_mitigation("leash")
_LEASH_KWARGS = sorted(k for k in _LEASH_DEFAULTS if k != "policy")


class TestNestedParamDigestStability:
    """Satellite: Hypothesis digest stability for nested defense params
    through the full wire path (``run_defense_cell.__wire_canonical__``
    consumed by ``normalize_params``)."""

    @given(explicit=st.sets(st.sampled_from(_LEASH_KWARGS)),
           as_int=st.booleans(), seed=st.integers(0, 2**31))
    def test_leash_spellings_share_one_key(self, explicit, as_int, seed):
        spec = {"policy": "leash"}
        for name in explicit:
            value = _LEASH_DEFAULTS[name]
            if as_int and isinstance(value, float) and value.is_integer():
                value = int(value)
            spec[name] = value
        lean = cell_from_wire({"experiment": "defense-cell",
                               "params": {"workload": "btb", "seed": seed,
                                          "defense": "leash"}})
        fat = cell_from_wire({"experiment": "defense-cell",
                              "params": {"workload": "btb", "seed": seed,
                                         "scheduler": "cfs",
                                         "defense": spec}})
        assert lean == fat
        key = CACHE.key_for(lean.experiment, lean.params)
        assert key is not None
        assert key == CACHE.key_for(fat.experiment, fat.params)

    @given(protect=st.lists(st.sampled_from(["victim", "db", "web", "a"]),
                            min_size=1, max_size=6),
           slot_int=st.booleans())
    def test_schedguard_protect_order_never_splits_key(self, protect,
                                                       slot_int):
        slot = 500_000 if slot_int else 500_000.0
        a = cell_from_wire({"experiment": "defense-cell",
                            "params": {"workload": "aes", "seed": 1,
                                       "defense": {"policy": "schedguard",
                                                   "slot_ns": slot,
                                                   "protect": protect}}})
        b = cell_from_wire({"experiment": "defense-cell",
                            "params": {"workload": "aes", "seed": 1,
                                       "defense": {"policy": "schedguard",
                                                   "slot_ns": 500_000.0,
                                                   "protect": sorted(
                                                       set(protect))}}})
        assert a == b
        assert (CACHE.key_for(a.experiment, a.params)
                == CACHE.key_for(b.experiment, b.params))

    @given(seed=st.integers(0, 2**31))
    def test_defense_on_never_keys_as_defense_off(self, seed):
        on = cell_from_wire({"experiment": "defense-cell",
                             "params": {"workload": "sgx", "seed": seed,
                                        "defense": "prefence"}})
        off = cell_from_wire({"experiment": "defense-cell",
                              "params": {"workload": "sgx", "seed": seed,
                                         "defense": "none"}})
        key_on = CACHE.key_for(on.experiment, on.params)
        key_off = CACHE.key_for(off.experiment, off.params)
        assert key_on is not None and key_off is not None
        assert key_on != key_off

    def test_malformed_spec_fails_the_request(self):
        with pytest.raises(WireError, match="invalid value"):
            cell_from_wire({"experiment": "defense-cell",
                            "params": {"workload": "aes", "seed": 0,
                                       "defense": {"policy": "leash",
                                                   "windw_ns": 1}}})


# ----------------------------------------------------------------------
# Stack composition
# ----------------------------------------------------------------------
class _Deny(MitigationPolicy):
    name = "deny"

    def filter_wakeup_preempt(self, rq, curr, wakee, decision, now):
        return False


class _Record(MitigationPolicy):
    name = "record"

    def __init__(self):
        self.seen = []

    def filter_wakeup_preempt(self, rq, curr, wakee, decision, now):
        self.seen.append(decision)
        return decision

    def on_context_switch(self, cpu, prev, nxt, now):
        self.seen.append(("switch", cpu))


class TestStack:
    def test_build_stack_none_and_empty(self):
        assert build_stack(None) is None
        assert build_stack(MitigationStack([])) is None
        for spelling in ("none", "off", {"policy": "baseline"}):
            assert build_stack(spelling) is None

    def test_build_stack_single_spellings(self):
        for spec in ("leash", {"policy": "leash"}):
            stack = build_stack(spec)
            assert isinstance(stack, MitigationStack)
            assert [type(p) for p in stack] == [LeashPolicy]

    def test_existing_stack_passes_through(self):
        stack = build_stack("schedguard")
        assert build_stack(stack) is stack

    def test_filters_chain_in_order(self):
        recorder = _Record()
        stack = MitigationStack([_Deny(), recorder])
        out = stack.filter_wakeup_preempt(make_rq(), make_task("c"),
                                          make_task("w"), True, 0.0)
        assert out is False
        assert recorder.seen == [False]  # saw the upstream veto

    def test_observers_fan_out(self):
        a, b = _Record(), _Record()
        stack = MitigationStack([a, b])
        stack.on_context_switch(3, None, make_task("t"), 1.0)
        assert a.seen == [("switch", 3)] and b.seen == [("switch", 3)]

    def test_specs_snapshot_keyed_by_name(self):
        stack = MitigationStack([LeashPolicy(), SchedGuardPolicy()])
        assert set(stack.snapshot()) == {"leash", "schedguard"}


# ----------------------------------------------------------------------
# LEASH mechanics
# ----------------------------------------------------------------------
class TestLeash:
    def _leash(self):
        return LeashPolicy(window_ns=1_000.0, flag_threshold=3,
                           cooldown_windows=2, throttle_slice_ns=100.0,
                           vruntime_penalty_ns=1_000_000.0)

    def test_flags_after_threshold_in_one_window(self):
        leash = self._leash()
        rq, curr, atk = (make_rq(), make_task("victim", pid=1),
                         make_task("attacker", pid=2))
        for t in (10.0, 20.0, 30.0):
            assert leash.filter_wakeup_preempt(rq, curr, atk, True, t)
        assert not leash.flagged_pids  # flag lands at the boundary
        assert leash.filter_wakeup_preempt(rq, curr, atk, True, 1_100.0) is False
        assert atk.pid in leash.flagged_pids
        assert "attacker" in leash.flagged_names
        assert leash.denials == 1

    def test_flag_assesses_vruntime_penalty_once(self):
        leash = self._leash()
        rq, curr, atk = (make_rq(), make_task("victim", pid=1),
                         make_task("attacker", pid=2))
        for t in (10.0, 20.0, 30.0, 1_100.0):
            leash.filter_wakeup_preempt(rq, curr, atk, True, t)
        assert atk.vruntime == pytest.approx(atk.vruntime_delta(1_000_000.0))
        assert leash.penalties == 1

    def test_below_threshold_never_flags(self):
        leash = self._leash()
        rq, curr, w = (make_rq(), make_task("victim", pid=1),
                       make_task("benign", pid=3))
        for t in (100.0, 600.0, 1_200.0, 1_700.0, 2_300.0):
            assert leash.filter_wakeup_preempt(rq, curr, w, True, t)
        assert not leash.flagged_pids

    def test_unflags_after_quiet_horizon(self):
        leash = self._leash()
        rq, curr, atk = (make_rq(), make_task("victim", pid=1),
                         make_task("attacker", pid=2))
        for t in (10.0, 20.0, 30.0, 1_100.0):
            leash.filter_wakeup_preempt(rq, curr, atk, True, t)
        assert atk.pid in leash.flagged_pids
        # Quiet horizon = cooldown_windows × window = 2 µs past the last
        # attempt (1.1 µs): a tick roll well past it must release.
        leash.on_tick(rq, curr, 4_500.0)
        assert atk.pid not in leash.flagged_pids
        assert [k for _, k, _ in leash.events].count("unflag") == 1

    def test_residual_probing_stays_leashed(self):
        """The defense-killing regression: a denied attacker probing at
        its parked rate (one attempt per slice, several windows apart,
        each processed in a batched roll) must stay flagged."""
        leash = self._leash()
        rq, curr, atk = (make_rq(), make_task("victim", pid=1),
                         make_task("attacker", pid=2))
        for t in (10.0, 20.0, 30.0, 1_100.0):
            leash.filter_wakeup_preempt(rq, curr, atk, True, t)
        assert atk.pid in leash.flagged_pids
        # Attempts 1.5 windows apart — inside the 2-window horizon but
        # with whole quiet windows between them.
        for t in (2_600.0, 4_100.0, 5_600.0, 7_100.0):
            assert leash.filter_wakeup_preempt(rq, curr, atk, True, t) is False
        assert atk.pid in leash.flagged_pids

    def test_throttles_only_flagged_tasks(self):
        leash = self._leash()
        rq = make_rq(queued=(1,))
        atk, benign = make_task("attacker", pid=2), make_task("benign", pid=3)
        for t in (10.0, 20.0, 30.0, 1_100.0):
            leash.filter_wakeup_preempt(rq, make_task("v", pid=1), atk, True, t)
        atk.slice_exec = 200.0
        benign.slice_exec = 200.0
        assert leash.filter_tick_preempt(rq, atk, False, 1_200.0) is True
        assert leash.filter_tick_preempt(rq, benign, False, 1_200.0) is False
        assert leash.throttles == 1

    def test_no_throttle_when_queue_empty(self):
        leash = self._leash()
        rq = make_rq(queued=())
        atk = make_task("attacker", pid=2)
        for t in (10.0, 20.0, 30.0, 1_100.0):
            leash.filter_wakeup_preempt(rq, make_task("v", pid=1), atk, True, t)
        atk.slice_exec = 200.0
        assert leash.filter_tick_preempt(rq, atk, False, 1_200.0) is False


# ----------------------------------------------------------------------
# SchedGuard mechanics
# ----------------------------------------------------------------------
class TestSchedGuard:
    def test_slot_denies_both_preemption_kinds_until_expiry(self):
        guard = SchedGuardPolicy(slot_ns=500.0, protect=("victim",))
        rq = make_rq()
        victim, other = make_task("victim"), make_task("other")
        guard.on_context_switch(0, other, victim, 1_000.0)
        assert guard.filter_wakeup_preempt(rq, victim, other, True, 1_200.0) is False
        assert guard.filter_tick_preempt(rq, victim, True, 1_400.0) is False
        # Exactly at slot end: no longer protected (now < until).
        assert guard.filter_wakeup_preempt(rq, victim, other, True, 1_500.0) is True
        assert guard.slot_log == [(victim.pid, 1_000.0, 1_500.0)]
        assert guard.wakeup_denials == 1 and guard.tick_denials == 1

    def test_unprotected_current_is_untouched(self):
        guard = SchedGuardPolicy(slot_ns=500.0, protect=("victim",))
        rq = make_rq()
        victim, other = make_task("victim"), make_task("other")
        guard.on_context_switch(0, victim, other, 1_000.0)
        assert guard.filter_wakeup_preempt(rq, other, victim, True, 1_100.0) is True
        assert guard.slots_opened == 0

    def test_cgroup_matching_falls_back_to_name(self):
        guard = SchedGuardPolicy(protect=("secure",))
        grouped = make_task("anything")
        grouped.cgroup = "secure"
        named = make_task("secure")
        unrelated = make_task("other")
        assert guard._protected(grouped)
        assert guard._protected(named)
        assert not guard._protected(unrelated)

    def test_denial_preserves_false_decisions(self):
        guard = SchedGuardPolicy(slot_ns=500.0, protect=("victim",))
        rq, victim = make_rq(), make_task("victim")
        guard.on_context_switch(0, None, victim, 0.0)
        assert guard.filter_wakeup_preempt(rq, victim, make_task("w"),
                                           False, 100.0) is False
        assert guard.wakeup_denials == 0  # nothing to deny


# ----------------------------------------------------------------------
# PreFence mechanics
# ----------------------------------------------------------------------
class TestPreFence:
    def _machine(self, cores=2):
        return Machine(MachineConfig(n_cores=cores))

    def test_fence_always_disables_every_core_at_attach(self):
        machine = self._machine()
        policy = PreFencePolicy()
        policy.on_attach(SimpleNamespace(machine=machine))
        assert machine.hierarchy.prefetch_disabled == {0, 1}

    def test_selective_fencing_follows_switches(self):
        machine = self._machine()
        policy = PreFencePolicy(protect=("victim",))
        policy.on_attach(SimpleNamespace(machine=machine))
        assert machine.hierarchy.prefetch_disabled == set()
        victim, other = make_task("victim"), make_task("other")
        policy.on_context_switch(0, other, victim, 10.0)
        assert 0 in machine.hierarchy.prefetch_disabled
        policy.on_context_switch(0, victim, other, 20.0)
        assert 0 not in machine.hierarchy.prefetch_disabled
        assert policy.fences == 1 and policy.unfences == 1

    def test_hierarchy_suppresses_on_disabled_core(self):
        machine = self._machine()
        hierarchy = machine.hierarchy
        hierarchy.prefetch(0, 0x1000)
        assert hierarchy.prefetches_issued == 1
        hierarchy.prefetch_disabled.add(0)
        hierarchy.prefetch(0, 0x2000)
        assert hierarchy.prefetches_suppressed == 1
        assert hierarchy.prefetches_issued == 1
