"""homogkit benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload sweep --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all   # every workload in turn

Runs the workload's generated configs through ``homogkit.cli`` in a fresh
child process, one child at a time, until ``--seconds`` is used up (at least
three children), and reports medians over the children:

- ``--trace 0``: the end-to-end metrics ``wall_s``, ``setup_s`` and
  ``peak_rss_mb``.  The two times are scaled to a reference machine speed:
  before and after every child the parent times a calibration process that
  only imports homogkit's dependencies (numpy, scipy, yaml), and each child's
  times are multiplied by ``CAL_REF_S`` over the mean of the two readings.
  This host's speed drifts by up to half between minutes, and the import
  time tracks that drift; the raw medians are printed and recorded too;
- ``--trace 1``: children alternate untraced and traced; the per-layer
  metrics come from the traced ones, ``trace.overhead_s`` is the traced
  minus the untraced median wall time.

Every child checks its outputs; the check counts are summed into
``attempted`` and ``failed`` (their ratio is ``fail_frac``).  BLAS and OpenMP
pools are pinned to one thread.  The last line of standard output is the JSON
result; a full record (seed, environment, every sample) goes to
``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
REFERENCE = os.path.join(HERE, "reference.json")
CHILD_TIMEOUT_S = 150
MIN_CHILDREN = 3
# Median time of the calibration process on the machine the benchmark was
# defined on (2-vCPU Xeon VM).  It only fixes the unit; it never changes.
CAL_REF_S = 0.83
CAL_CMD = ("-c", "import numpy, scipy.fft, scipy.sparse.linalg, yaml")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
# per-layer metrics measured by the parent rather than read from the spans
PARENT_LAYER_METRICS = ("cli.parse_s", "cli.cpu_s", "cli.artifact_mb", "trace.overhead_s")


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def thread_settings() -> dict:
    """One thread per pool (capped at nproc): measured no slower than more."""
    n = str(min(1, _nproc()))
    return {var: n for var in THREAD_VARS}


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(thread_settings())
    return env


def calibrate() -> float:
    """Seconds a fresh interpreter takes to import homogkit's dependencies."""
    t = time.monotonic()
    subprocess.run([sys.executable, *CAL_CMD], cwd=ROOT, env=_child_env(), check=True,
                   timeout=CHILD_TIMEOUT_S)
    return time.monotonic() - t


def run_child(workload: str, seed: int, traced: bool, scale: str, reference: str,
              tag: str) -> dict:
    """Start one child, wait for it, and return its JSON result."""
    env = _child_env()
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--scale", scale,
           "--reference", reference, "--out", os.path.join(OUT, "runs", tag)]
    if traced:
        cmd += ["--spans", os.path.join(OUT, "spans", f"{tag}.json")]
    cmd += ["--spawned", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child {tag} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: str = "full", reference: str = REFERENCE,
            min_children: int = MIN_CHILDREN) -> dict:
    """Run children until ``seconds`` is used up; return the aggregated record."""
    plain, traced = [], []
    start = time.monotonic()
    longest = 0.0
    k = 0
    cal = None if trace else calibrate()
    while True:
        is_traced = trace and k % 2 == 1
        t = time.monotonic()
        res = run_child(workload, seed, is_traced, scale, reference,
                        f"{workload}-seed{seed}-{scale}-{k}")
        if cal is not None:
            cal_after = calibrate()
            res["cal_s"] = (cal + cal_after) / 2
            cal = cal_after
            for key in ("wall_s", "setup_s"):
                res[f"{key}_scaled"] = res[key] * CAL_REF_S / res["cal_s"]
        longest = max(longest, time.monotonic() - t)
        (traced if is_traced else plain).append(res)
        k += 1
        enough = k >= min_children and (traced or not trace)
        if enough and time.monotonic() - start + longest > seconds:
            break

    def med(rows, key):
        return statistics.median(r[key] for r in rows)

    children = plain + traced
    checks = [c for r in children for c in r["checks"]]
    failed = [name for name, ok in checks if not ok]
    raw = {}
    if trace:
        values = {"cli.parse_s": med(plain, "parse_s"), "cli.cpu_s": med(plain, "cpu_s"),
                  "cli.artifact_mb": med(plain, "artifact_mb"),
                  "trace.overhead_s": med(traced, "wall_s") - med(plain, "wall_s")}
        for name in {m["name"] for m in SPEC["per_layer"]} - set(PARENT_LAYER_METRICS):
            found = [r["layers"][name] for r in traced if name in r["layers"]]
            if len(found) == len(traced):
                values[name] = statistics.median(found)
        wanted = SPEC["per_layer"]
    else:
        values = {"wall_s": med(plain, "wall_s_scaled"),
                  "setup_s": med(plain, "setup_s_scaled"),
                  "peak_rss_mb": med(plain, "peak_rss_mb")}
        raw = {"wall_s": med(plain, "wall_s"), "setup_s": med(plain, "setup_s"),
               "cal_s": med(plain, "cal_s")}
        wanted = SPEC["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    env = dict(children[0]["env"], nproc=_nproc(), cpu=_cpu_model(),
               threads=thread_settings())
    return {
        "workload": workload, "seed": seed, "trace": int(trace), "scale": scale,
        "seconds": seconds, "env": env,
        "samples": {"untraced": len(plain), "traced": len(traced)},
        "attempted": len(checks), "failed": len(failed), "failed_checks": failed,
        "reference_checked": all(r["reference_checked"] for r in children),
        "summary": children[0]["summary"],
        "metrics": metrics, "raw": raw,
        "children": [{k: v for k, v in r.items() if k not in ("checks", "env")}
                     for r in children],
    }


def report(rec: dict) -> None:
    """Human-readable lines; the caller prints the JSON result after them."""
    env = rec["env"]
    print(f"workload={rec['workload']} seed={rec['seed']} trace={rec['trace']} "
          f"children untraced={rec['samples']['untraced']} "
          f"traced={rec['samples']['traced']}")
    print(f"env: nproc={env['nproc']} cpu={env['cpu']!r} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} blas={env['blas']} "
          f"threads={env['threads']}")
    n = rec["samples"]["traced" if rec["trace"] else "untraced"]
    for name, m in rec["metrics"].items():
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']:12s} median of {n}")
    for name, value in rec["raw"].items():
        print(f"  {name + ' (raw)':28s} {value:14.6g} {'s':12s} median of {n}, unscaled")
    frac = rec["failed"] / rec["attempted"] if rec["attempted"] else 1.0
    print(f"  {'fail_frac':28s} {frac:14.6g} {'1':12s} "
          f"{rec['failed']} of {rec['attempted']} checks failed"
          f"{'' if rec['reference_checked'] else ' (no stored reference for this seed)'}")
    for name in rec["failed_checks"][:20]:
        print(f"  FAILED {name}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "homogkit", "__init__.py")):
        print(f"no homogkit sources under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            rec = measure(workload, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"benchmark run failed: {exc}", file=sys.stderr)
            return 1
        path = os.path.join(OUT, "results",
                            f"{workload}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as fh:
            json.dump(rec, fh, indent=1)
        report(rec)
        print(json.dumps({"correct": rec["failed"] == 0, "attempted": rec["attempted"],
                          "failed": rec["failed"], "metrics": rec["metrics"]}))
    return 0

if __name__ == "__main__":
    sys.exit(main())
