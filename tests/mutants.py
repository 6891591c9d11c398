"""Mutation probe: does tier-1 catch small, plausible faults?

    python tests/mutants.py [--workdir DIR] [NAME ...]

Copies the working tree (without ``.git``) to a scratch directory, runs
tier-1 there once unmutated, then applies each mutant of ``MUTANTS`` in
turn, runs tier-1 with the unmutated run's failures deselected and stops at
the first new failure, and restores the file.  A run that takes more than
``SLOWDOWN`` times the unmutated one (a wrong operator can leave every
Krylov solve running to its cap) is stopped and counts as a failure.  A
mutant whose run passes *survives*: no test pins the behaviour it changes.
The last line printed lists the survivors.  Naming mutants runs only those.

Each mutant is (name, file, old, new): the text ``old`` must occur exactly
once in ``file``.  pytest does not collect this file (its name does not
start with ``test_``); nothing in the suite imports it.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SLOWDOWN = 4
TIER1 = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rf",
         "--continue-on-collection-errors"]

MUTANTS = [
    # the Krylov driver's bounds
    ("gmres-above-100tol", "src/homogkit/solvers.py",
     "    if res > 10 * tol:", "    if res > 100 * tol:"),
    ("solver-error-above-100tol", "src/homogkit/solvers.py",
     "        if not res <= 10 * tol:", "        if not res <= 100 * tol:"),
    ("gmres-without-preconditioner", "src/homogkit/solvers.py",
     "restart=100, M=M, x0=x)", "restart=100, x0=x)"),
    # documented constants
    ("holder-exponent-halved", "src/homogkit/grid.py",
     "dist, 1.0) ** sigma", "dist, 1.0) ** (sigma / 2)"),
    ("cell-mean-tol-1e-6", "src/homogkit/cell.py",
     "MEAN_TOL = 1e-10", "MEAN_TOL = 1e-6"),
    ("decay-shell-from-2h", "src/homogkit/green.py",
     "(r >= 4 * grid.h)", "(r >= 2 * grid.h)"),
    # the stencil product
    ("box-steps-b-first", "src/homogkit/grid.py",
     "order.sort(key=lambda bk: (offsets[bk[1]], bk[0]))",
     "order.sort(key=lambda bk: (bk[0], offsets[bk[1]]))"),
    ("final-zero-add-dropped", "src/homogkit/grid.py",
     "np.add(rows, 0.0, out=by_comp[:, p - 1:p - 1 + q])",
     "np.copyto(by_comp[:, p - 1:p - 1 + q], rows)"),
    ("block-seam-one-point-late", "src/homogkit/grid.py",
     "r0, r1 = max(lo, p * plane),", "r0, r1 = max(lo, p * plane + 1),"),
    ("block-seam-one-plane-late", "src/homogkit/grid.py",
     "r0, r1 = max(lo, p * plane),", "r0, r1 = max(lo, (p + (p > 1)) * plane),"),
    # the preconditioner transforms
    ("odd-extension-unsigned", "src/homogkit/solvers.py",
     "y[N + 2:] = -x[::-1]", "y[N + 2:] = x[::-1]"),
    ("hartley-cap-1d-up-one", "src/homogkit/solvers.py",
     "_HARTLEY_MAX = {1: 512,", "_HARTLEY_MAX = {1: 513,"),
    ("hartley-cap-2d-up-one", "src/homogkit/solvers.py", " 2: 256, ", " 2: 257, "),
    ("hartley-cap-3d-up-one", "src/homogkit/solvers.py", " 3: 80}", " 3: 81}"),
    ("irfftn-without-s", "src/homogkit/solvers.py",
     "fft.irfftn(xhat, s=grid.shape, axes=axes)", "fft.irfftn(xhat, axes=axes)"),
]


def tier1(tree: str, deselect: list[str], first_failure: bool,
          timeout: float | None = None) -> tuple[int, list[str]]:
    """Exit code and failed test ids of tier-1 run in ``tree``; a run
    stopped after ``timeout`` seconds reads as exit code -1."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), OPENBLAS_NUM_THREADS="1")
    cmd = TIER1 + (["-x"] if first_failure else [])
    for test in deselect:
        cmd += ["--deselect", test]
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return -1, [f"timeout after {timeout:.0f} s"]
    return proc.returncode, re.findall(r"^FAILED (\S+)", proc.stdout, re.M)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", default=None, help="scratch directory for the copy")
    parser.add_argument("names", nargs="*", help="run only these mutants")
    args = parser.parse_args(argv)
    mutants = [m for m in MUTANTS if not args.names or m[0] in args.names]
    work = tempfile.mkdtemp(prefix="mutants-", dir=args.workdir)
    tree = os.path.join(work, "tree")
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_out", ".bench_build"))
    try:
        t0 = time.perf_counter()
        _, known = tier1(tree, [], first_failure=False)
        limit = SLOWDOWN * (time.perf_counter() - t0)
        print(f"unmutated: {len(known)} failing {known}", flush=True)
        survivors = []
        for name, path, old, new in mutants:
            target = os.path.join(tree, path)
            with open(target) as fh:
                text = fh.read()
            if text.count(old) != 1:
                print(f"{name}: the edit does not apply", flush=True)
                survivors.append(f"{name} (not applied)")
                continue
            with open(target, "w") as fh:
                fh.write(text.replace(old, new))
            t0 = time.perf_counter()
            try:
                code, failed = tier1(tree, known, first_failure=True, timeout=limit)
            finally:
                with open(target, "w") as fh:
                    fh.write(text)
            verdict = "survived" if code == 0 else f"killed by {failed[:1] or [f'exit {code}']}"
            print(f"{name}: {verdict} ({time.perf_counter() - t0:.0f} s)", flush=True)
            if code == 0:
                survivors.append(name)
        print(f"survivors: {len(survivors)} of {len(mutants)}: {survivors}")
    finally:
        shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
