"""The chaos engine: deterministic fault schedules (repro.chaos).

The contract under test: a fault decision is a pure function of
``(spec.seed, injection point, call identity)`` — replaying the same
schedule injects the same faults, scripted events beat rate draws, and
the injection points wired into CellCache actually corrupt/stall the
way docs/CHAOS.md promises.
"""

import os

import pytest

from repro.chaos import (
    INJECTION_POINTS,
    ChaosEngine,
    ChaosSpec,
    FaultEvent,
    active_engine,
    chaos_point,
    load_spec,
    reset_active,
    service_fault,
)
from repro.obs.cellcache import CellCache


def _activate(tmp_path, spec: ChaosSpec) -> str:
    path = str(tmp_path / "chaos.json")
    spec.save(path)
    os.environ["REPRO_CHAOS"] = path
    reset_active()
    return path


# ----------------------------------------------------------------------
# Spec validation and round-trip
# ----------------------------------------------------------------------
def test_spec_round_trips_through_json(tmp_path):
    spec = ChaosSpec(
        seed=42,
        rates={"cellcache.fetch": {"corrupt": 0.25}},
        params={"stall_sleep_s": 0.01},
        events=[FaultEvent(point="service.cell", kind="worker_kill",
                           match={"seed": 7, "attempt": 0})],
        max_faults=3,
    )
    path = str(tmp_path / "chaos.json")
    spec.save(path)
    loaded = load_spec(path)
    assert loaded.to_dict() == spec.to_dict()


def test_spec_rejects_unknown_points_and_bad_rates():
    with pytest.raises(ValueError):
        ChaosSpec(rates={"nonsense.point": {"corrupt": 0.1}})
    with pytest.raises(ValueError):
        ChaosSpec(rates={"cellcache.fetch": {"stall": 0.1}})  # wrong kind
    with pytest.raises(ValueError):
        ChaosSpec(rates={"cellcache.fetch": {"corrupt": 1.5}})
    with pytest.raises(ValueError):
        FaultEvent.from_dict({"point": "service.cell", "kind": "corrupt"})


def test_injection_point_catalogue_is_closed():
    # Every event/rate must name one of these; docs/CHAOS.md documents
    # exactly this table.
    assert set(INJECTION_POINTS) == {
        "service.cell", "runner.tick", "cellcache.fetch",
        "cellcache.store",
    }


# ----------------------------------------------------------------------
# Decision determinism
# ----------------------------------------------------------------------
def test_rate_draws_are_pure_functions_of_identity():
    spec = ChaosSpec(seed=9, rates={"cellcache.fetch": {"corrupt": 0.5}})
    decisions = {}
    for key in range(200):
        fault = ChaosEngine(spec).decide(
            "cellcache.fetch", {"key": f"k{key}"})
        decisions[key] = None if fault is None else fault["kind"]
    # A fresh engine replays the identical schedule.
    for key in range(200):
        fault = ChaosEngine(spec).decide(
            "cellcache.fetch", {"key": f"k{key}"})
        assert (None if fault is None else fault["kind"]) == decisions[key]
    fired = sum(1 for kind in decisions.values() if kind == "corrupt")
    assert 0 < fired < 200  # a 0.5 rate fires sometimes, not always


def test_different_seeds_draw_different_schedules():
    identities = [{"key": f"k{i}"} for i in range(64)]

    def schedule(seed):
        engine = ChaosEngine(ChaosSpec(
            seed=seed, rates={"cellcache.fetch": {"corrupt": 0.5}}))
        return tuple(
            engine.decide("cellcache.fetch", ident) is not None
            for ident in identities)

    assert schedule(1) != schedule(2)


def test_scripted_events_beat_rate_draws_and_match_subsets():
    spec = ChaosSpec(
        seed=0,
        rates={"service.cell": {"timeout": 0.0}},
        events=[FaultEvent(point="service.cell", kind="worker_kill",
                           match={"seed": 123, "attempt": 0})],
    )
    engine = ChaosEngine(spec)
    hit = engine.decide("service.cell",
                        {"experiment": "resolution", "seed": 123,
                         "attempt": 0})
    assert hit == {"kind": "worker_kill"}
    # attempt 1 (the retry) does not match: the kill fires exactly once.
    assert engine.decide("service.cell",
                         {"experiment": "resolution", "seed": 123,
                          "attempt": 1}) is None
    assert engine.decide("service.cell",
                         {"experiment": "resolution", "seed": 999,
                          "attempt": 0}) is None


def test_max_faults_caps_execution_not_decisions():
    spec = ChaosSpec(seed=3, rates={"cellcache.fetch": {"corrupt": 1.0}},
                     max_faults=2)
    engine = ChaosEngine(spec)
    fired = [engine.decide("cellcache.fetch", {"key": f"k{i}"})
             for i in range(5)]
    assert [f is not None for f in fired] == [True, True, False,
                                              False, False]
    assert engine.fired == 2


def test_timeout_and_stall_carry_sleep_params():
    spec = ChaosSpec(seed=0, params={"timeout_sleep_s": 0.125},
                     events=[FaultEvent(point="service.cell",
                                        kind="timeout")])
    fault = ChaosEngine(spec).decide("service.cell", {"attempt": 0})
    assert fault == {"kind": "timeout", "sleep_s": 0.125}
    # Per-event params override the spec default.
    spec = ChaosSpec(seed=0, events=[FaultEvent(
        point="cellcache.store", kind="stall",
        params={"sleep_s": 0.01})])
    fault = ChaosEngine(spec).decide("cellcache.store", {"key": "k"})
    assert fault == {"kind": "stall", "sleep_s": 0.01}


# ----------------------------------------------------------------------
# Env activation
# ----------------------------------------------------------------------
def test_active_engine_reads_env_and_memoizes(tmp_path):
    assert os.environ.get("REPRO_CHAOS") is None or True
    os.environ.pop("REPRO_CHAOS", None)
    reset_active()
    assert active_engine() is None
    _activate(tmp_path, ChaosSpec(
        seed=1, events=[FaultEvent(point="runner.tick", kind="abort",
                                   match={"completed": 2})]))
    engine = active_engine()
    assert engine is not None
    assert active_engine() is engine  # memoized
    assert chaos_point("runner.tick", completed=2) == {"kind": "abort"}
    assert chaos_point("runner.tick", completed=1) is None


def test_unreadable_manifest_disables_chaos_without_crashing(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    os.environ["REPRO_CHAOS"] = str(bad)
    reset_active()
    assert active_engine() is None
    assert chaos_point("runner.tick", completed=1) is None


def test_service_fault_maps_to_execute_cell_descriptors(tmp_path):
    _activate(tmp_path, ChaosSpec(events=[
        FaultEvent(point="service.cell", kind="worker_kill",
                   match={"seed": 5, "attempt": 0}),
        FaultEvent(point="service.cell", kind="timeout",
                   match={"seed": 6}, params={"sleep_s": 0.05}),
    ]))
    assert service_fault("resolution", {"seed": 5}, 0) == {"die": True}
    assert service_fault("resolution", {"seed": 5}, 1) is None
    assert service_fault("resolution", {"seed": 6}, 0) == {"sleep_s": 0.05}
    assert service_fault("resolution", {"seed": 7}, 0) is None


# ----------------------------------------------------------------------
# CellCache injection points
# ----------------------------------------------------------------------
def test_chaos_corrupts_cache_fetch_into_recompute(tmp_path):
    cache = CellCache(str(tmp_path / "cache"))
    key = cache.key_for("demo", {"seed": 1})
    cache.store(key, "demo", {"value": 41})
    assert cache.fetch(key) == (True, {"value": 41})

    _activate(tmp_path, ChaosSpec(
        rates={"cellcache.fetch": {"corrupt": 1.0}}))
    status, result = cache.fetch_outcome(key)
    # The flipped byte must be *detected* — corrupt, never a wrong hit.
    assert status == "corrupt" and result is None

    os.environ.pop("REPRO_CHAOS", None)
    reset_active()
    # The on-disk entry itself was never modified.
    assert cache.fetch(key) == (True, {"value": 41})


def test_chaos_stalls_store_while_holding_the_lock(tmp_path):
    import time

    cache = CellCache(str(tmp_path / "cache"))
    key = cache.key_for("demo", {"seed": 2})
    _activate(tmp_path, ChaosSpec(
        rates={"cellcache.store": {"stall": 1.0}},
        params={"stall_sleep_s": 0.2}))
    start = time.monotonic()
    path = cache.store(key, "demo", {"value": 42})
    elapsed = time.monotonic() - start
    assert path is not None
    assert elapsed >= 0.2  # the stall really held the store
    os.environ.pop("REPRO_CHAOS", None)
    reset_active()
    assert cache.fetch(key) == (True, {"value": 42})
