"""§4.3 channel-noise claims.

Two remedies against random cross-core cache pollution:
(1) run the victim several times and majority-vote (the shared-cache
    channels), and
(2) measure core-private structures like the BTB, which other cores
    cannot pollute at all.
"""

from conftest import banner, row

from repro.experiments.channel_noise import (
    aes_accuracy_under_pollution,
    btb_accuracy_under_pollution,
)
from repro.experiments.setup import scaled


def test_channel_noise():
    n_keys = max(3, scaled(30, minimum=3) // 4)

    results = {
        "aes1": aes_accuracy_under_pollution(
            n_keys=n_keys, traces=1, polluted=True, seed=1),
        "aes5": aes_accuracy_under_pollution(
            n_keys=n_keys, traces=5, polluted=True, seed=1),
        "btb_clean": btb_accuracy_under_pollution(
            n_pairs=4, polluted=False, seed=1),
        "btb_noisy": btb_accuracy_under_pollution(
            n_pairs=4, polluted=True, seed=1),
    }
    banner("§4.3: channel noise — cross-core polluter on a sibling core")
    row("AES (Flush+Reload), 1 trace, polluted", "degraded",
        f"{results['aes1'].accuracy:.1%}")
    row("AES, 5 traces + majority vote, polluted", "recovers",
        f"{results['aes5'].accuracy:.1%}")
    row("BTB attack, clean", "—", f"{results['btb_clean'].accuracy:.1%}")
    row("BTB attack, polluted (core-private)", "unaffected",
        f"{results['btb_noisy'].accuracy:.1%}")
    assert results["aes5"].accuracy >= results["aes1"].accuracy
    assert results["aes5"].accuracy > 0.95
    # Core-private channel: pollution must not hurt (run-to-run jitter
    # of a few percent is the scheduler, not the polluter).
    assert results["btb_noisy"].accuracy >= results["btb_clean"].accuracy - 0.1
    assert results["btb_noisy"].accuracy > 0.9
