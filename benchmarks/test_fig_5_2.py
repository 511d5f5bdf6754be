"""Fig 5.2 — Prime+Probe trace of the SGX base64 decoder.

The code-set probe (red line in the figure) must be hot while the
victim runs the validity loop and quiet during the decode loop, and the
LUT-set probes must leak one line per character.
"""

import random

from conftest import banner, row

from repro.attacks.sgx_base64 import run_sgx_trace
from repro.victims.rsa import generate_rsa_key, pem_base64_body


def test_fig_5_2():
    key = generate_rsa_key(1024, rng=random.Random(5))
    body = pem_base64_body(key)
    trace, info = run_sgx_trace(body, seed=2)
    banner("Fig 5.2: probe-latency trace of EVP_DecodeUpdate in SGX")
    strip = "".join(
        "V" if code else ("d" if (l0 or l1) else ".")
        for code, l0, l1 in trace.rounds[:110]
    )
    print(f"  per-round phase (V=validity loop, d=decode loop, .=idle):")
    print(f"  {strip}")
    validity_rounds = sum(1 for c, _, _ in trace.rounds if c)
    decode_rounds = sum(
        1 for c, l0, l1 in trace.rounds if not c and (l0 or l1)
    )
    row("validity loop visible via code-line set", "grey regions",
        f"{validity_rounds} rounds")
    row("decode loop distinguishable (code set quiet)", "white regions",
        f"{decode_rounds} rounds")
    # Both phases present and interleaved (64-char groups).
    assert validity_rounds > 50
    assert decode_rounds > 20
    # The validity-phase rounds carry the per-character LUT bit.
    chars = trace.char_lines()
    agreement = sum(1 for a, b in zip(chars, info.ground_truth) if a == b)
    row("validity rounds leak the LUT line per char", "98.9–99.2 %",
        f"{agreement / max(1, min(len(chars), len(info.ground_truth))):.1%}")
    assert agreement / min(len(chars), len(info.ground_truth)) > 0.95
