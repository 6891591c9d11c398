"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and asserts that
every metric BENCHMARK.json names is reported with its unit.  Then it stores
the tiny run's summary as a reference, corrupts one value, and asserts that
exactly one more check fails.  Exits 0 when everything holds.
"""

from __future__ import annotations

import copy
import json
import os
import sys

from run import OUT, ROOT, WORKLOADS, measure


def _units(rec: dict) -> dict:
    return {name: m["unit"] for name, m in rec["metrics"].items()}


def _with_reference(workload: str, reference: dict) -> dict:
    path = os.path.join(OUT, "selftest", "reference.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({workload: {"0": reference}}, fh)
    return measure(workload, 0, 0, False, scale="tiny", reference=path, min_children=1)


def check_workload(workload: str, spec: dict) -> list[str]:
    problems = []
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    plain = measure(workload, 0, 0, False, scale="tiny", reference="", min_children=1)
    if _units(plain) != want_e2e:
        problems.append(f"{workload}: end-to-end metrics {_units(plain)} != {want_e2e}")
    traced = measure(workload, 0, 0, True, scale="tiny", reference="", min_children=2)
    if _units(traced) != want_layer:
        missing = sorted(set(want_layer.items()) ^ set(_units(traced).items()))
        problems.append(f"{workload}: per-layer metrics differ: {missing}")
    ntmax = traced["metrics"].get("grid.ntmax.calls", {}).get("value")
    if (ntmax > 0) != (workload == "maximal"):
        problems.append(f"{workload}: grid.ntmax.calls = {ntmax}")

    clean = _with_reference(workload, plain["summary"])
    if not clean["reference_checked"] or clean["failed"] != plain["failed"]:
        problems.append(f"{workload}: its own summary as reference gave "
                        f"{clean['failed']} failures, {plain['failed']} without")
    corrupt = copy.deepcopy(plain["summary"])
    key = sorted(corrupt)[0]
    corrupt[key][0] = corrupt[key][0] * (1 + 1e-3) + 1e-3
    bad = _with_reference(workload, corrupt)
    if bad["failed"] != clean["failed"] + 1 or bad["attempted"] != clean["attempted"]:
        problems.append(f"{workload}: corrupted reference.{key} gave {bad['failed']} of "
                        f"{bad['attempted']} failed, clean {clean['failed']} of "
                        f"{clean['attempted']}")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for workload in WORKLOADS:
        found = check_workload(workload, spec)
        print(f"{workload}: {'ok' if not found else 'FAILED'}")
        problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
