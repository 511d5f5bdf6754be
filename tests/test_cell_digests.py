"""Full-result digests of real experiment cells.

``bench/golden.json`` pins every benchmark op, but only the benchmark
checks it (``bench/run.py``, minutes); the fuzz campaign digests cover
only the fuzzer's own workloads.  These eight cells run the paper's
experiments end to end in well under a second together: plain,
degraded and timer-driven resolution on CFS, degraded resolution on
EEVDF, a budget storm on each scheduler, the SGX BTB attack and a LEASH
arena cell.  Each pins the first 16 hex digits of its
``result_digest``, with task pids numbered from 1000 as in a fresh
process, so any change to a float, a draw, an event or a hook call on
the kernel's path shows here.
"""

import pytest

from repro.attacks.btb_gcd import run_btb_gcd_attack
from repro.core.wakeup import WakeupMethod
from repro.experiments.defense_grid import run_defense_cell
from repro.experiments.preemption_count import run_budget_measurement
from repro.experiments.resolution import run_resolution
from repro.obs.manifest import result_digest
from repro.sched.task import fresh_pids

CELLS = [
    pytest.param(run_resolution, dict(tau=740.0, preemptions=200, seed=1),
                 "5fb97b5dd77db303", id="fig4.3a"),
    pytest.param(run_resolution, dict(tau=760.0, degrade_itlb=True,
                                      preemptions=200, seed=2),
                 "660346ffcc3266cd", id="fig4.3b"),
    pytest.param(run_resolution, dict(tau=2740.0, method=WakeupMethod.TIMER,
                                      preemptions=200, seed=3),
                 "6797bceb892ce518", id="fig4.3c"),
    pytest.param(run_resolution, dict(tau=760.0, degrade_itlb=True,
                                      scheduler="eevdf", preemptions=200,
                                      seed=4),
                 "2f1ca7792aea128a", id="fig4.7"),
    pytest.param(run_budget_measurement, dict(extra_compute_ns=12000.0,
                                              seed=5),
                 "c7956ae12feb2e46", id="budget-cfs"),
    pytest.param(run_budget_measurement, dict(extra_compute_ns=12000.0,
                                              scheduler="eevdf", seed=6),
                 "d441778540f70ddb", id="budget-eevdf"),
    pytest.param(run_btb_gcd_attack, dict(a=1071, b=462, seed=7),
                 "94738f50249c9de0", id="btb-gcd"),
    pytest.param(run_defense_cell, dict(workload="aes", defense="leash",
                                        scheduler="cfs", seed=3),
                 "8c65e4e08793065c", id="arena-aes-leash"),
]


@pytest.mark.parametrize("experiment, params, digest", CELLS)
def test_cell_digest_is_pinned(experiment, params, digest):
    with fresh_pids():
        result = experiment(**params)
    assert result_digest(result)[:16] == digest
