"""§5.1 headline — AES key-nibble recovery accuracy.

Paper: 5 victim invocations per key; upper nibble of every key byte
recovered with 98.9 % (CFS) / 98.1 % (EEVDF) accuracy over 100 keys —
with ONE attacker thread instead of prior work's 40.
"""

from conftest import banner, row

from repro.attacks.aes_first_round import run_aes_accuracy_experiment
from repro.experiments.setup import scaled


def test_aes_accuracy():
    n_keys = max(5, scaled(100, minimum=5) // 2)

    results = {
        scheduler: run_aes_accuracy_experiment(
            n_keys=n_keys, n_traces=5, scheduler=scheduler, seed=11
        )
        for scheduler in ("cfs", "eevdf")
    }
    banner(f"§5.1: AES first-round attack accuracy ({n_keys} keys × 5 traces)")
    row("CFS upper-nibble accuracy", "98.9 %",
        f"{results['cfs'].mean_accuracy:.1%}")
    row("EEVDF upper-nibble accuracy", "98.1 %",
        f"{results['eevdf'].mean_accuracy:.1%}")
    row("colocated attacker threads (prior work: 40)", "1", "1")
    assert results["cfs"].mean_accuracy > 0.95
    assert results["eevdf"].mean_accuracy > 0.95
