"""EEVDF future-work exploration (§4.5): the attacker's slice request.

Beyond the paper: EEVDF lets an unprivileged task set its own slice;
the preemption budget tracks the requested slice linearly until the
victim's deadline gates it.
"""

from conftest import banner, row

from repro.experiments.eevdf_exploration import (
    budget_grows_then_saturates,
    run_slice_sweep,
)


def test_eevdf_slice_sweep():
    points = run_slice_sweep(seed=1)
    banner("EEVDF exploration: attacker slice request vs budget "
           "(paper §4.5 future work)")
    print(f"  {'requested slice':>16} {'preemptions':>12} "
          f"{'slice/drift model':>18}")
    for p in sorted(points, key=lambda x: x.slice_ns):
        print(f"  {p.slice_ns / 1e6:>13.2f} ms {p.preemptions:>12} "
              f"{p.budget_model:>18.0f}")
    row("budget ∝ slice below the victim's slice", "(new finding)",
        "linear, then")
    row("deadline gate saturates above it", "(new finding)", "plateau")
    assert budget_grows_then_saturates(points)
