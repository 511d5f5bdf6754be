"""Table 2.1 — CFS configuration values on the evaluated machine."""

from conftest import banner, row

from repro.sched.params import SchedParams, scaling_factor


def test_table_2_1():
    params = SchedParams.for_cores(16)
    banner("Table 2.1: relevant CFS configurations (16-core machine)")
    row("scaling factor ν", "4", scaling_factor(16))
    row("S_bnd (sysctl_sched_latency)", "24 ms", f"{params.s_bnd / 1e6:.0f} ms")
    row("S_min (sched_min_granularity)", "3 ms", f"{params.s_min / 1e6:.0f} ms")
    row("S_slack (wakeup max lag)", "12 ms", f"{params.s_slack / 1e6:.0f} ms")
    row("S_preempt (wakeup_granularity)", "4 ms",
        f"{params.s_preempt / 1e6:.0f} ms")
    row("preemption budget (S_slack − S_preempt)", "8 ms",
        f"{params.preemption_budget / 1e6:.0f} ms")
    assert params.s_bnd == 24_000_000
    assert params.s_min == 3_000_000
    assert params.s_slack == 12_000_000
    assert params.s_preempt == 4_000_000
