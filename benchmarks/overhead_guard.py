"""Observability overhead guard — fails CI on disabled-mode regressions.

The ``repro.obs`` layer promises near-zero cost when disabled: null
instruments, pull-based μarch collection, no flag checks on the
per-instruction paths.  This script *measures* that promise.  It times
a serial τ sweep of resolution cells (five τ values, 400 preemptions
each) in the current tree with observability disabled, against the
identical workload in a baseline checkout (a temporary ``git
worktree`` of ``--baseline-ref``, the CI merge base), and exits 1 when

    current_disabled / baseline  >  --threshold   (default 1.05)

Both sides run in fresh subprocesses with a warm-up pass so imports and
allocator growth are excluded, and the rounds are interleaved
(baseline, current, baseline, current, ...) so a noisy neighbour hits
both trees equally.  The metrics-on timing of the current tree is also
reported, informationally — enabling metrics is *allowed* to cost.

    PYTHONPATH=src python benchmarks/overhead_guard.py \
        [--baseline-ref origin/main] [--threshold 1.05] [--rounds 3]

A baseline that cannot be prepared (shallow clone, ref missing the
workload) is a warning, not a failure: the guard protects performance,
and must not brick CI over harness trouble.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

TAUS = (440.0, 830.0, 1220.0, 1610.0, 2000.0)
PREEMPTIONS = 400

# Times one disabled-mode sweep after a warm-up sweep; prints seconds.
_CHILD = f"""
import sys, time
sys.path.insert(0, "src")
from repro.experiments.resolution import tau_sweep

TAUS = {TAUS!r}
tau_sweep(TAUS, preemptions={PREEMPTIONS}, seed=1, jobs=1)  # warm-up
t0 = time.perf_counter()
tau_sweep(TAUS, preemptions={PREEMPTIONS}, seed=1, jobs=1)
print(time.perf_counter() - t0)
"""


#: How to get a usable baseline when the guard can't — printed with
#: every baseline-side failure so the fix is in the log, not a wiki.
BASELINE_HELP = """\
[overhead-guard] to regenerate a usable baseline:
  * fetch the comparison ref:        git fetch origin main
  * in CI, check out full history:   actions/checkout with fetch-depth: 0
  * or point at any local commit:    --baseline-ref HEAD~1
The guard compares against a `git worktree` of --baseline-ref; it needs
that ref to exist locally and to contain src/repro/experiments/."""


class TreeTimingError(RuntimeError):
    """A timed subprocess failed; carries which tree and the child's
    stderr so the caller can decide skip-vs-fail."""

    def __init__(self, tree: Path, detail: str):
        super().__init__(f"benchmark child failed in {tree}: {detail}")
        self.tree = tree
        self.detail = detail


def _time_tree(tree: Path, *, metrics: bool = False) -> float:
    """One timed sweep in a subprocess rooted at ``tree``."""
    env = dict(os.environ, PYTHONPATH="src")
    for key in ("REPRO_METRICS", "REPRO_TRACE", "REPRO_MANIFEST_DIR",
                "REPRO_PROGRESS"):
        env.pop(key, None)
    if metrics:
        env["REPRO_METRICS"] = "1"
    out = subprocess.run(
        [sys.executable, "-c", _CHILD], cwd=tree, env=env,
        capture_output=True, text=True, timeout=600,
    )
    if out.returncode != 0:
        raise TreeTimingError(tree, out.stderr.strip() or "no stderr")
    try:
        return float(out.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise TreeTimingError(
            tree, f"expected a seconds value on stdout, got "
                  f"{out.stdout.strip()!r}")


def _prepare_baseline(ref: str, dest: Path) -> bool:
    probe = subprocess.run(
        ["git", "rev-parse", "--verify", f"{ref}^{{commit}}"],
        cwd=REPO, capture_output=True, text=True,
    )
    if probe.returncode != 0:
        print(f"[overhead-guard] cannot resolve {ref!r}: "
              f"{probe.stderr.strip()}", file=sys.stderr)
        return False
    add = subprocess.run(
        ["git", "worktree", "add", "--detach", str(dest), ref],
        cwd=REPO, capture_output=True, text=True,
    )
    if add.returncode != 0:
        print(f"[overhead-guard] worktree add failed: "
              f"{add.stderr.strip()}", file=sys.stderr)
        return False
    if not (dest / "src" / "repro" / "experiments").is_dir():
        print(f"[overhead-guard] {ref!r} predates the workload — "
              "nothing to guard against", file=sys.stderr)
        return False
    return True


def _remove_baseline(dest: Path) -> None:
    subprocess.run(
        ["git", "worktree", "remove", "--force", str(dest)],
        cwd=REPO, capture_output=True, text=True,
    )


def main() -> int:
    parser = argparse.ArgumentParser(
        description="fail if disabled-mode observability slows the "
                    "τ sweep beyond --threshold vs --baseline-ref")
    parser.add_argument("--baseline-ref", default="origin/main")
    parser.add_argument("--threshold", type=float, default=1.05)
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="obs-guard-") as tmp:
        baseline_tree = Path(tmp) / "baseline"
        if not _prepare_baseline(args.baseline_ref, baseline_tree):
            print(BASELINE_HELP, file=sys.stderr)
            print("[overhead-guard] SKIP — no usable baseline; "
                  "guard not evaluated")
            return 0
        try:
            base_times, curr_times = [], []
            for i in range(args.rounds):
                try:
                    base_times.append(_time_tree(baseline_tree))
                except TreeTimingError as exc:
                    # Baseline trouble is harness trouble: warn with the
                    # fix, don't brick CI over it.
                    print(f"[overhead-guard] baseline run failed: "
                          f"{exc.detail}", file=sys.stderr)
                    print(BASELINE_HELP, file=sys.stderr)
                    print("[overhead-guard] SKIP — baseline not "
                          "measurable; guard not evaluated")
                    return 0
                curr_times.append(_time_tree(REPO))
                print(f"round {i + 1}/{args.rounds}: "
                      f"baseline {base_times[-1]:.4f}s  "
                      f"current {curr_times[-1]:.4f}s")
            metrics_on = _time_tree(REPO, metrics=True)
        except TreeTimingError as exc:
            # The *current* tree failing to run the workload is a real
            # regression, not harness trouble.
            print(f"[overhead-guard] FAIL: current tree cannot run the "
                  f"guard workload: {exc.detail}", file=sys.stderr)
            return 1
        finally:
            _remove_baseline(baseline_tree)

    baseline, current = min(base_times), min(curr_times)
    ratio = current / baseline
    verdict = "PASS" if ratio <= args.threshold else "FAIL"
    print(json.dumps({
        "baseline_ref": args.baseline_ref,
        "baseline_s": round(baseline, 4),
        "current_disabled_s": round(current, 4),
        "disabled_ratio": round(ratio, 3),
        "threshold": args.threshold,
        "metrics_on_s": round(metrics_on, 4),
        "metrics_on_ratio": round(metrics_on / current, 3),
        "verdict": verdict,
    }, indent=2))
    if ratio > args.threshold:
        print(f"[overhead-guard] FAIL: disabled-mode sweep is "
              f"{(ratio - 1) * 100:.1f}% slower than {args.baseline_ref} "
              f"(allowed {(args.threshold - 1) * 100:.0f}%)",
              file=sys.stderr)
        return 1
    print(f"[overhead-guard] PASS: {(ratio - 1) * 100:+.1f}% vs "
          f"{args.baseline_ref}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
