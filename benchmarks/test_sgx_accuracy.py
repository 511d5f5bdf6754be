"""§5.2 headline — SGX base64 trace recovery.

Paper (30 random 1024-bit RSA keys, ≈872 base64 characters each): a
single victim run recovers the first 61.5 % of the LUT access trace at
99.2 % accuracy; two runs with trace concatenation recover the full
trace at 98.9 %.
"""

import random
import statistics

from conftest import banner, row

from repro.attacks.sgx_base64 import run_sgx_base64_attack
from repro.experiments.setup import scaled
from repro.victims.rsa import generate_rsa_key, pem_base64_body


def test_sgx_accuracy():
    n_keys = max(3, scaled(30, minimum=3) // 2)

    results = []
    for index in range(n_keys):
        key = generate_rsa_key(1024, rng=random.Random(100 + index))
        body = pem_base64_body(key)
        results.append(run_sgx_base64_attack(body, seed=7 + index))
    banner(f"§5.2: SGX base64 PEM attack ({n_keys} RSA-1024 keys)")
    single_cov = statistics.mean(r.single_run_coverage for r in results)
    single_acc = statistics.mean(r.single_run_accuracy for r in results)
    stitched_cov = statistics.mean(r.stitched_coverage for r in results)
    stitched_acc = statistics.mean(r.stitched_accuracy for r in results)
    chars = statistics.mean(r.char_count for r in results)
    row("base64 characters per key", "≈872", f"{chars:.0f}")
    row("single-run trace coverage", "61.5 %", f"{single_cov:.1%}")
    row("single-run accuracy", "99.2 %", f"{single_acc:.1%}")
    row("two-run (stitched) coverage", "100 %", f"{stitched_cov:.1%}")
    row("two-run accuracy", "98.9 %", f"{stitched_acc:.1%}")
    assert 0.45 < single_cov < 0.8  # budget-limited partial coverage
    assert single_acc > 0.95
    assert stitched_cov > 0.9
    assert stitched_acc > 0.9
