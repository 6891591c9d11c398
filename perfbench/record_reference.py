"""Record the reference summaries that every run compares against.

    python3 perfbench/record_reference.py [--seeds 32]

Runs each workload once per seed 0..N-1 (untraced, full size), requires
every other check to pass, and writes the summaries to
``perfbench/reference.json``.  Re-record only when a workload's configs change,
never to make a failing comparison pass.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import REFERENCE, WORKLOADS, run_child


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=32)
    args = ap.parse_args()
    reference = {}
    for workload in WORKLOADS:
        reference[workload] = {}
        for seed in range(args.seeds):
            res = run_child(workload, seed, False, "full", "", f"record-{workload}-{seed}")
            failed = [name for name, ok in res["checks"] if not ok]
            if failed:
                print(f"{workload} seed {seed}: checks failed: {failed}", file=sys.stderr)
                return 1
            reference[workload][str(seed)] = res["summary"]
        print(f"{workload}: {args.seeds} seeds recorded")
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
