#!/usr/bin/env python3
"""Write bench/golden.json: the result digest of every pinned operation
of the sets a default-length run measures, for seed 1.

    python3 bench/pin_golden.py

Run it only when a change is meant to alter simulation results; the
benchmark reads the file and never rewrites it.  A longer run checks
the sets past the pinned ones for consistency only (traced against
untraced, warm against cold, resume against warm).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
GOLDEN = BENCH / "golden.json"
SEED = 1


def main() -> int:
    sys.path[:0] = [str(SRC), str(BENCH)]
    from run import DEFAULT_SECONDS, WORKLOAD_NAMES, sets_per_run
    from workloads import WORKLOADS, run_ops

    golden = {"seed": SEED, "workloads": {}}
    for name in WORKLOAD_NAMES:
        n_sets = sets_per_run(name, DEFAULT_SECONDS)
        workload = WORKLOADS[name](SEED, str(BENCH / "out" / "pin-state"))
        digests = {}
        try:
            for k in range(n_sets):
                ops = workload.plan(k)
                workload.begin_set(k)
                try:
                    records = run_ops(ops)
                finally:
                    workload.end_set()
                for op, rec in zip(ops, records):
                    if rec.problem is not None:
                        print(f"{rec.label}: {rec.problem}", file=sys.stderr)
                        return 1
                    if op.pin:
                        digests[rec.label] = rec.digest
        finally:
            workload.close()
        golden["workloads"][name] = digests
        print(f"{name}: {len(digests)} digests", file=sys.stderr)
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
