"""Offline analysis: histograms, key recovery, trace scoring, rendering.

Everything here consumes attacker samples or kernel-trace records;
nothing reaches into simulated-kernel internals, mirroring what a real
attacker (plus the paper's eBPF measurement harness) can compute.
"""

from repro.analysis.aes_recovery import (
    recover_first_round_nibbles,
    recover_key_upper_nibbles,
)
from repro.analysis.base64_cryptanalysis import (
    consistent_with_trace,
    search_space_report,
)
from repro.analysis.histogram import ResolutionStats, ascii_histogram, resolution_stats
from repro.analysis.traces import (
    binary_trace_accuracy,
    branch_trace_accuracy,
    coverage,
)

__all__ = [
    "recover_first_round_nibbles",
    "recover_key_upper_nibbles",
    "consistent_with_trace",
    "search_space_report",
    "ResolutionStats",
    "ascii_histogram",
    "resolution_stats",
    "binary_trace_accuracy",
    "branch_trace_accuracy",
    "coverage",
]
