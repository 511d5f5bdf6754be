"""§5.3 headline — BTB control-flow recovery accuracy.

Paper: 30 prime pairs, each 20–30 GCD loop iterations; all branch
directions extracted from a single victim run at 97.3 % average
accuracy.
"""

import statistics

from conftest import banner, row

from repro.attacks.btb_gcd import run_btb_accuracy_experiment
from repro.experiments.setup import scaled


def test_btb_accuracy():
    n_pairs = max(4, scaled(30, minimum=4) // 2)
    results = run_btb_accuracy_experiment(n_pairs=n_pairs, seed=3)
    banner(f"§5.3: BTB branch-direction recovery ({n_pairs} prime pairs)")
    mean_acc = statistics.mean(r.accuracy for r in results)
    iterations = [r.iterations for r in results]
    row("GCD iterations per pair", "20–30",
        f"{min(iterations)}–{max(iterations)}")
    row("branch accuracy, single victim run", "97.3 %", f"{mean_acc:.1%}")
    row("decoding", "cache-encoded (no PMU)", "Train+Probe gadgets")
    assert all(20 <= i <= 30 for i in iterations)
    assert mean_acc > 0.93
