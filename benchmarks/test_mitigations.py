"""§6 — mitigation ablation.

Not a paper table, but the paper's §6 makes testable claims: the Linux
team's NO_WAKEUP_PREEMPTION recommendation stops the primitive; a
minimum scheduling interval throttles it; AEX-Notify guarantees enclave
progress per resume (degrading resolution to tens of instructions while
coarse preemption survives).
"""

from conftest import banner, row

from repro.experiments.mitigations import evaluate_mitigations
from repro.experiments.setup import scaled


def test_mitigations():
    results = evaluate_mitigations(
        rounds=scaled(4000, minimum=200), seed=1
    )
    by_name = {r.name: r for r in results}
    banner("§6: mitigation ablation")
    print(f"  {'configuration':<22} {'wakeup preemptions':>19} "
          f"{'median insts/preempt':>21}")
    for r in results:
        print(f"  {r.name:<22} {r.consecutive_preemptions:>19} "
              f"{r.median_instructions_per_preemption:>21,.0f}")
    row("NO_WAKEUP_PREEMPTION stops the primitive",
        "yes (kernel team)", str(
            by_name["no_wakeup_preemption"].consecutive_preemptions == 0))
    row("min-interval throttles preemption rate", "yes (Xen-style)",
        f"{by_name['min_slice_1ms'].consecutive_preemptions} preemptions")
    row("EEVDF RUN_TO_PARITY blocks wakeup preemption",
        "(kernel feature)", str(
            by_name["eevdf_run_to_parity"].consecutive_preemptions == 0))
    aex_median = by_name["sgx_aex_notify"].median_instructions_per_preemption
    row("AEX-Notify guarantees progress per resume", "50–100 insts",
        f"{aex_median:,.0f} insts")
    assert by_name["no_wakeup_preemption"].consecutive_preemptions == 0
    assert by_name["eevdf_run_to_parity"].consecutive_preemptions == 0
    assert by_name["eevdf_baseline"].consecutive_preemptions > 100
    assert (by_name["min_slice_1ms"].consecutive_preemptions
            < by_name["baseline"].consecutive_preemptions / 10)
    assert aex_median > 5 * by_name[
        "sgx_baseline"].median_instructions_per_preemption
