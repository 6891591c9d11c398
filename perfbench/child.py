"""One measured child process: set up, run a workload through the CLI, check.

Started by ``run.py``; prints one JSON line with its measurements.  The spawn
time is passed in on the command line as a ``time.monotonic`` reading (a
system-wide clock on Linux), so set-up time counts interpreter start-up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _artifact_bytes(dirs: list[str]) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d in dirs for f in os.listdir(d) if f != "manifest.jsonl")


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--scale", default="full")
    ap.add_argument("--reference", default="")
    ap.add_argument("--spans", default="")
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    import homogkit
    from homogkit import cli
    if not os.path.abspath(homogkit.__file__).startswith(SRC + os.sep):
        print(f"homogkit imported from {homogkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    t_parse = time.monotonic()
    cfgs = [cli.parse_config(text)
            for text in workloads.configs(args.workload, args.seed, args.scale)]
    ready = time.monotonic()

    capture = workloads.Capture()
    capture.install()
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    out_dirs = [os.path.join(args.out, f"cfg{i}") for i in range(len(cfgs))]
    manifests = []
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.monotonic()
    for i, (cfg, out_dir) in enumerate(zip(cfgs, out_dirs)):
        if tracer is None:
            manifests.append(cli.run(cfg, out_dir))
        else:
            manifests.append(tracer.root(f"{args.workload}-s{args.seed}-{i}",
                                         cli.run, cfg, out_dir))
    t1 = time.monotonic()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    reference = None
    if args.reference and os.path.exists(args.reference):
        with open(args.reference) as fh:
            reference = json.load(fh).get(args.workload, {}).get(str(args.seed))
    checks = workloads.checks(args.workload, out_dirs, manifests, capture, reference)
    try:
        summary = workloads.summary(args.workload, out_dirs, capture)
    except (OSError, KeyError, IndexError, ValueError, TypeError):
        summary = None

    result = {
        "wall_s": t1 - t0,
        "setup_s": ready - args.spawned,
        "parse_s": ready - t_parse,
        "cpu_s": (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "artifact_mb": _artifact_bytes([d for d in out_dirs if os.path.isdir(d)]) / 1e6,
        "checks": checks,
        "reference_checked": reference is not None,
        "summary": summary,
        "env": _environment(),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        if args.spans:
            tracer.write(args.spans)
    shutil.rmtree(args.out, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
