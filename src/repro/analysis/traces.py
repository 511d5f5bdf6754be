"""Trace scoring (§5.2, §5.3).

These helpers compute the coverage and accuracy numbers the paper
reports for a recovered trace.  The §5.2 two-run protocol that builds
the SGX trace (the first run covers the head, a delayed second run the
tail) stitches in :func:`repro.attacks.sgx_base64.stitch_runs`.
"""

from __future__ import annotations

from typing import Optional, Sequence


def coverage(recovered: Sequence[Optional[int]], truth: Sequence[int]) -> float:
    """Fraction of positions recovered (non-None), relative to truth."""
    if not truth:
        raise ValueError("empty ground truth")
    usable = min(len(recovered), len(truth))
    observed = sum(1 for v in recovered[:usable] if v is not None)
    return observed / len(truth)


def binary_trace_accuracy(
    recovered: Sequence[Optional[int]], truth: Sequence[int]
) -> float:
    """Accuracy over the *recovered* positions (paper's metric: of the
    trace portion captured, how much is correct)."""
    pairs = [
        (r, t)
        for r, t in zip(recovered, truth)
        if r is not None
    ]
    if not pairs:
        return 0.0
    return sum(1 for r, t in pairs if r == t) / len(pairs)


def branch_trace_accuracy(
    recovered: Sequence[Optional[bool]], truth: Sequence[bool]
) -> float:
    """Branch-direction accuracy over all iterations (missing = wrong,
    matching §5.3's 'extract all branch directions' framing)."""
    if not truth:
        raise ValueError("empty ground truth")
    correct = sum(
        1
        for i, direction in enumerate(truth)
        if i < len(recovered) and recovered[i] == direction
    )
    return correct / len(truth)

