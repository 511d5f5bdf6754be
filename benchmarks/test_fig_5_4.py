"""Figs 5.3/5.4 — the BTB Train+Probe gadget against the GCD victim.

Fig 5.4's mechanism: when the victim executed a block, the colliding
BTB entry is invalidated, the prefetch of the probe marker does not
happen, and the marker load reads slow.  The benchmark replays the
paper's example operands (a = 1001941, b = 300463).
"""

from conftest import banner, row

from repro.attacks.btb_gcd import run_btb_gcd_attack
from repro.victims.gcd import binary_gcd_trace


def test_fig_5_4():
    a, b = 1001941, 300463  # the paper's Fig 5.4 operands
    result = run_btb_gcd_attack(a, b, seed=4)
    banner(f"Fig 5.4: victim control path of mbedtls_mpi_gcd({a}, {b})")

    def fmt(bits):
        return "".join(
            "I" if v else ("E" if v is False else "?") for v in bits
        )

    print(f"  true branch directions : {fmt(result.true_branches)}")
    print(f"  recovered via BTB      : {fmt(result.recovered)}")
    row("loop iterations", str(binary_gcd_trace(a, b).iterations),
        str(result.iterations))
    row("high marker latency ⇔ block executed", "yes (Fig 5.4)",
        f"{result.accuracy:.1%} of directions recovered")
    assert result.accuracy > 0.9
