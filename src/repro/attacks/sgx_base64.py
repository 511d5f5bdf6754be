"""§5.2: SGX-Step-like attack on base64 PEM decoding, from userspace.

The victim decodes a 1024-bit RSA private key PEM inside an SGX
enclave (LVI-mitigated build, as in Sieck et al.).  The unprivileged
attacker monitors three LLC sets with Prime+Probe:

* the set congruent to the **validity-loop load instruction's line** —
  dual-purposed: priming it stalls the victim's instruction fetch
  (performance degradation) and probing it fingerprints whether the
  victim is inside the validity loop (Fig 5.2's red trace);
* the sets congruent to the **two LUT lines** — whichever was touched
  during the nap leaks one bit of the current base64 character.

A single run's preemption budget covers only a prefix of the ~870-
character trace; the §5.2 two-run protocol attacks the second half of
a fresh run of the *same* key (timed via the start-delay trick) and
stitches the traces, aligning run 2 by maximum overlap agreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.analysis.traces import binary_trace_accuracy, coverage
from repro.attacks.common import (
    DEFAULT_TAIL_INSTS,
    TAIL_TEXT_BASE,
    launch_synchronized_attack,
    run_to_completion,
)
from repro.channels.prime_probe import PrimeProbe, PrimeProbeSet
from repro.channels.seek import PrimeProbeSeeker
from repro.core.primitive import ControlledPreemption, PreemptionConfig
from repro.uarch.cache import HierarchyGeometry
from repro.victims.base64_lut import (
    GROUP_CHARS as _GROUP,
    DecodeProgramInfo,
    build_decode_program,
)
from repro.victims.layout import ATTACKER_LLC_ARENA
from repro.victims.sgx import make_enclave_task

#: τ for the SGX victim: AEX + ERESUME push the scheduling overhead to
#: ≈2.7 µs; τ slightly above that steps ~one LUT lookup per preemption.
SGX_TAU_NS = 2_760.0

#: Attacker measurement padding.  Calibrated so the per-round budget
#: drain (Ia − Iv) ≈ 15 µs, reproducing the paper's single-run coverage
#: of ≈60 % of a ~870-character trace.
SGX_EXTRA_COMPUTE_NS = 6_700.0


@dataclass
class SgxRunTrace:
    """Per-round decoded observations of one victim run."""

    rounds: List[Tuple[bool, bool, bool]]  # (code_active, lut0, lut1)

    def char_lines(
        self, group_chars: int = 64, *, drop_first_segment: bool = False
    ) -> List[Optional[int]]:
        """Per-character LUT-line sequence: :meth:`char_segments`,
        flattened."""
        return [c for seg in self.char_segments(
            group_chars, drop_first_segment=drop_first_segment) for c in seg]

    def char_segments(
        self, group_chars: int = 64, *, drop_first_segment: bool = False
    ) -> List[List[int]]:
        """Validity segments, one per 64-character group (capped).

        A round counts when the code set shows the victim fetching the
        validity loop; one LUT hit → one character, both → two in
        unknown order (rare).  The round straddling a validity→decode
        transition also sees the decode loop's first LUT access, so the
        trace is *segmented* at decode phases (code-inactive rounds
        with LUT activity) and each segment capped at
        EVP_DecodeUpdate's public 64-character group size, dropping the
        boundary artifact.
        """
        segments: List[List[int]] = []
        current: List[int] = []
        for code_active, lut0, lut1 in self.rounds:
            if code_active:
                if lut0 and lut1:
                    current.extend([0, 1])
                elif lut0:
                    current.append(0)
                elif lut1:
                    current.append(1)
            elif (lut0 or lut1) and current:
                # Decode phase: close the current validity segment.
                segments.append(current)
                current = []
        if current:
            segments.append(current)
        if drop_first_segment and segments:
            # A trace that starts mid-group has a partial first segment
            # whose boundary artifact the 64-cap cannot remove; dropping
            # it also aligns the remainder to a group boundary.
            segments = segments[1:]
        return [seg[:group_chars] for seg in segments]


@dataclass
class SgxAttackResult:
    char_count: int
    single_run_coverage: float
    single_run_accuracy: float
    stitched_coverage: float
    stitched_accuracy: float
    ground_truth: List[int]
    stitched_trace: List[Optional[int]]


def _build_channel(info: DecodeProgramInfo, llc_geometry) -> PrimeProbe:
    code_set = PrimeProbeSet.for_target(
        llc_geometry, "code", info.validity_load_pc, ATTACKER_LLC_ARENA
    )
    lut0 = PrimeProbeSet.for_target(
        llc_geometry, "lut0", info.lut_lines[0], ATTACKER_LLC_ARENA + 0x40_0000
    )
    lut1 = PrimeProbeSet.for_target(
        llc_geometry, "lut1", info.lut_lines[1], ATTACKER_LLC_ARENA + 0x80_0000
    )
    return PrimeProbe([code_set, lut0, lut1])


def run_sgx_trace(
    b64_text: str,
    *,
    seed: int = 0,
    post_seek_delay_ns: float = 0.0,
    rounds: int = 2000,
    tau: float = SGX_TAU_NS,
    scheduler: str = "cfs",
    mitigations=None,
) -> Tuple[SgxRunTrace, DecodeProgramInfo]:
    """One victim run under Prime+Probe; returns the round decisions."""
    info = build_decode_program(b64_text, lvi_mitigated=True)
    llc = HierarchyGeometry().llc
    channel = _build_channel(info, llc)
    seeker = PrimeProbeSeeker(
        PrimeProbeSet.for_target(
            llc, "seek", TAIL_TEXT_BASE, ATTACKER_LLC_ARENA + 0xC0_0000
        )
    )
    attacker = ControlledPreemption(
        PreemptionConfig(
            nap_ns=tau,
            rounds=rounds,
            hibernate_ns=100e6,
            extra_compute_ns=SGX_EXTRA_COMPUTE_NS,
            stop_on_exhaustion=True,
            seek_tau_ns=3_000.0,
            post_seek_delay_ns=post_seek_delay_ns,
        ),
        measurer=channel,
        seeker=seeker,
    )
    victim = make_enclave_task("victim", info.program)
    run = launch_synchronized_attack(
        attacker,
        info.program,
        scheduler=scheduler,
        seed=seed,
        victim_task=victim,
        mitigations=mitigations,
    )
    run_to_completion(run, max_ns=60e9)
    decisions: List[Tuple[bool, bool, bool]] = []
    for sample in attacker.useful_samples:
        if sample.data is None:
            continue
        by_label = {r.set_label: r.victim_touched for r in sample.data}
        decisions.append(
            (by_label["code"], by_label["lut0"], by_label["lut1"])
        )
    return SgxRunTrace(decisions), info


def _place_segments(
    stitched: List[Optional[int]], segments: List[List[int]], first_group: int
) -> None:
    """Write segments into group-aligned slots (only over None)."""
    for g, seg in enumerate(segments, start=first_group):
        base = g * _GROUP
        for j, value in enumerate(seg):
            position = base + j
            if position < len(stitched) and stitched[position] is None:
                stitched[position] = value


def _best_group_offset(
    placed: List[Optional[int]], segments: List[List[int]], estimate: int
) -> int:
    """First-group index for run 2's segments.

    EVP's 64-character grouping quantizes the placement, so the search
    space is the few group slots around the start-delay estimate; a
    candidate only beats the estimate when it overlaps run 1's data
    strongly (two runs of the same secret agree almost perfectly at the
    true offset and near-randomly elsewhere)."""
    n_groups = (len(placed) + _GROUP - 1) // _GROUP
    estimate = max(0, min(estimate, n_groups - 1))
    best_g0, best_score = estimate, 0.85
    for g0 in range(max(0, estimate - 2), min(n_groups, estimate + 3)):
        agree = total = 0
        for g, seg in enumerate(segments, start=g0):
            base = g * _GROUP
            for j, value in enumerate(seg):
                position = base + j
                if position < len(placed) and placed[position] is not None:
                    total += 1
                    agree += value == placed[position]
        if total >= 16:
            score = agree / total
            if score >= best_score:
                best_score = score
                best_g0 = g0
    return best_g0


def stitch_runs(
    segments1: List[List[int]],
    segments2: List[List[int]],
    truth_length: int,
    *,
    run2_group_estimate: int = 0,
) -> List[Optional[int]]:
    """§5.2 trace concatenation via group-aligned placement.

    Run 1's segments map to groups 0,1,2,…; run 2's first retained
    segment starts at the group slot that best agrees with run 1's
    overlapping data.  Group alignment keeps any per-round error local
    to its own 64-character group instead of shifting the whole tail.
    """
    stitched: List[Optional[int]] = [None] * truth_length
    _place_segments(stitched, segments1, 0)
    if segments2:
        g0 = _best_group_offset(stitched, segments2, run2_group_estimate)
        _place_segments(stitched, segments2, g0)
    return stitched


def measure_unattacked_char_time(b64_text: str, *, seed: int = 0) -> float:
    """Offline profiling: the victim's unattacked per-character decode
    time (used to size run 2's start delay)."""
    from repro.experiments.setup import build_env
    from repro.kernel.threads import ProgramBody
    from repro.sched.task import Task

    info = build_decode_program(b64_text, lvi_mitigated=True)
    env = build_env("cfs", n_cores=1, seed=seed + 31337)
    victim = Task("victim", body=ProgramBody(info.program))
    start = env.kernel.now
    env.kernel.spawn(victim, cpu=0)
    env.kernel.run_until(
        predicate=lambda: env.kernel.task_exited(victim), max_time=1e9
    )
    return (env.kernel.now - start) / max(1, info.char_count)


def run_sgx_pem_experiment(
    *, bits: int = 1024, seed: int = 0, scheduler: str = "cfs"
) -> SgxAttackResult:
    """Key generation + full attack from one root seed.

    The replayable entry point: generating the RSA key inside the
    experiment (instead of at the call site, as the raw
    :func:`run_sgx_base64_attack` expects) makes ``(bits, seed)`` the
    complete description of a run, which is what run manifests record.
    """
    import random

    from repro.victims.rsa import generate_rsa_key, pem_base64_body

    key = generate_rsa_key(bits, rng=random.Random(seed))
    return run_sgx_base64_attack(pem_base64_body(key), seed=seed,
                                 scheduler=scheduler)


def run_sgx_base64_attack(
    b64_text: str,
    *,
    seed: int = 0,
    scheduler: str = "cfs",
    mitigations=None,
) -> SgxAttackResult:
    """Full §5.2 protocol: two victim runs of the same key, stitched.

    A ``mitigations`` stack (see :mod:`repro.mitigations`) is installed
    in both victim runs; pass a built stack to read its counters after.
    """
    trace1, info = run_sgx_trace(b64_text, seed=seed, scheduler=scheduler,
                                 mitigations=mitigations)
    truth = info.ground_truth
    single = stitch_runs(trace1.char_segments(), [], len(truth))
    single_cov = coverage(single, truth)
    single_acc = binary_trace_accuracy(single, truth)

    # Second run: skip roughly the portion run 1 covered, minus overlap
    # for alignment.  The skipped prefix runs *unattacked* in run 2, so
    # the delay is sized from an offline profile of the victim's
    # unattacked decoding rate (same binary, same machine).
    observed = sum(1 for v in single if v is not None)
    # Skip ~60 % of the observed prefix: run 2 then overlaps run 1 by a
    # couple of groups, which pins its group offset exactly.
    skip_chars = max(0, int(observed * 0.6))
    per_char_unattacked_ns = measure_unattacked_char_time(b64_text, seed=seed)
    # The delay also covers getting back into the enclave (switch +
    # ERESUME) and the cold first pass over the pre-payload call path
    # (the seek landmark region, one DRAM line fill per 16 instructions)
    # — all profiled offline by a real attacker on its own runs.
    resume_ns = 2_800.0
    # Cold call-path crossing: one DRAM line fill (~61 ns) per 16
    # instructions, plus the instructions themselves.
    tail_cross_ns = DEFAULT_TAIL_INSTS / 16 * 65.5
    start_delay = resume_ns + tail_cross_ns + skip_chars * per_char_unattacked_ns
    trace2, _ = run_sgx_trace(
        b64_text, seed=seed + 7919, post_seek_delay_ns=start_delay,
        scheduler=scheduler, mitigations=mitigations,
    )
    segments1 = trace1.char_segments()
    segments2 = trace2.char_segments(drop_first_segment=True)
    # Run 2's retained data starts at the group boundary following the
    # skipped prefix (its partial first segment is dropped).
    estimate = skip_chars // _GROUP + 1
    stitched = stitch_runs(
        segments1, segments2, len(truth), run2_group_estimate=estimate
    )
    return SgxAttackResult(
        char_count=len(truth),
        single_run_coverage=single_cov,
        single_run_accuracy=single_acc,
        stitched_coverage=coverage(stitched, truth),
        stitched_accuracy=binary_trace_accuracy(stitched, truth),
        ground_truth=truth,
        stitched_trace=stitched,
    )
