"""Fig 5.1 — Flush+Reload heatmap of one attacked AES run.

The first four accesses visible on each T-table must be the
first-round indexes (upper nibbles of p ⊕ k), in the column order of
§5.1's equations.
"""

from conftest import banner, row

from repro.analysis.aes_recovery import (
    recover_first_round_nibbles,
    render_heatmap,
)
from repro.attacks.aes_first_round import run_aes_trace
from repro.victims.aes_ttable import TTableAes


def test_fig_5_1():
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    plaintext = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
    aes = TTableAes(key)
    trace = run_aes_trace(aes, plaintext, seed=9)
    banner("Fig 5.1: Flush+Reload heatmap, T0, one AES run "
           "('#' = reload hit)")
    print(render_heatmap(trace.samples, table=0, max_cols=110))
    truth = aes.first_round_upper_nibbles(plaintext)
    recovered = recover_first_round_nibbles(trace.samples)
    correct = sum(1 for r, t in zip(recovered, truth) if r == t)
    row("first accesses reveal first-round nibbles",
        "first 4 per table", f"{correct}/16 bytes from ONE trace")
    row("samples show ~one access each (smears occur)", "yes",
        f"{len(trace.samples)} samples")
    assert correct >= 12
    active = [s for s in trace.samples if any(any(t) for t in s)]
    assert len(active) > 100
