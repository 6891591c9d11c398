"""Compare the output files of two trees: a base git revision and this one.

    python tools/compare_outputs.py --base <rev>
    python tools/compare_outputs.py --self-test

The base is checked out with ``git worktree`` under the git-ignored
``.bench_build/`` and removed afterwards.  Both trees run the same cases,
each in a fresh process with BLAS on one thread (outputs still depend on
the BLAS thread count) and the tree's own ``src`` first on the path:

- every ``configs/*.yaml``, run from the tree's root, so that
  ``validate_all``'s relative paths resolve;
- the configs of the benchmark's four workloads at seeds 0 and 5, as
  ``perfbench/workloads.configs`` of this tree generates them.

Per output file it prints "identical", or the largest absolute and relative
deviation over the numbers the two files hold (and "text differs" when
what is not a number differs too).  ``manifest.jsonl`` holds timings and is
skipped.  A file present on one side only, or a case that does not run on
one side, is an error, and so is every difference under ``--self-test``,
which runs HEAD against HEAD on the workloads at tiny scale.  The exit code
is 1 on any error, else 0.
"""

from __future__ import annotations

import argparse
import glob
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("sweep", "maximal", "systems", "green3d")
SEEDS = (0, 5)
NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)")

_RUN = """
import sys
import homogkit.cli as cli
with open(sys.argv[1]) as fh:
    cli.run(cli.parse_config(fh.read()), sys.argv[2])
"""


def cases(scale: str) -> dict[str, str]:
    """Case name -> YAML text: the configs (full scale only) and the
    workloads' configs at each seed."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    out = {}
    if scale == "full":
        for path in sorted(glob.glob(os.path.join(ROOT, "configs", "*.yaml"))):
            with open(path) as fh:
                out[os.path.splitext(os.path.basename(path))[0]] = fh.read()
    for name in WORKLOADS:
        for seed in SEEDS:
            for i, text in enumerate(workloads.configs(name, seed, scale)):
                out[f"{name}-s{seed}-{i}"] = text
    return out


def run_tree(tree: str, configs: dict[str, str], out: str) -> list[str]:
    """Run every case (name -> config path) in ``tree``, writing to
    ``out/<case>``; returns the cases whose process failed."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), OPENBLAS_NUM_THREADS="1")
    failed = []
    for name, cfg in configs.items():
        done = subprocess.run([sys.executable, "-c", _RUN, cfg, os.path.join(out, name)],
                              cwd=tree, env=env, capture_output=True, text=True)
        if done.returncode:
            failed.append(f"{name}: {done.stderr.strip().splitlines()[-1:]}")
    return failed


def deviation(a: bytes, b: bytes) -> str:
    """"identical", or the largest absolute and relative deviation of the
    numbers in ``a`` and ``b`` (relative to the larger magnitude)."""
    if a == b:
        return "identical"
    xa, xb = NUMBER.findall(a), NUMBER.findall(b)
    if len(xa) != len(xb):
        return f"text differs ({len(xa)} against {len(xb)} numbers)"
    worst_abs = worst_rel = 0.0
    for sa, sb in zip(xa, xb):
        fa, fb = float(sa), float(sb)
        if fa == fb or (fa != fa and fb != fb):
            continue
        diff = abs(fa - fb)
        worst_abs = max(worst_abs, diff)
        worst_rel = max(worst_rel, diff / max(abs(fa), abs(fb)))
    same_text = NUMBER.sub(b"#", a) == NUMBER.sub(b"#", b)
    return (f"max abs {worst_abs:.3e}, max rel {worst_rel:.3e}"
            + ("" if same_text else "; text differs"))


def compare(base_out: str, head_out: str) -> tuple[list[str], int, int]:
    """Report lines, errors and differing files over every output file."""
    def files(top):
        return {os.path.relpath(os.path.join(d, f), top)
                for d, _, names in os.walk(top) for f in names if f != "manifest.jsonl"}
    base, head = files(base_out), files(head_out)
    lines, errors, differ = [], 0, 0
    for rel in sorted(base | head):
        if rel not in base or rel not in head:
            lines.append(f"{rel}: ERROR only in {'base' if rel in base else 'this tree'}")
            errors += 1
            continue
        with open(os.path.join(base_out, rel), "rb") as fa, \
                open(os.path.join(head_out, rel), "rb") as fb:
            verdict = deviation(fa.read(), fb.read())
        differ += verdict != "identical"
        lines.append(f"{rel}: {verdict}")
    return lines, errors, differ


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", help="git revision to compare this tree against")
    ap.add_argument("--self-test", action="store_true",
                    help="HEAD against HEAD at tiny scale; every file must be identical")
    args = ap.parse_args(argv)
    if not args.self_test and not args.base:
        ap.error("--base is required unless --self-test is given")
    rev = "HEAD" if args.self_test else args.base
    sha = subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    worktree = tempfile.mkdtemp(prefix=f"base-{sha}-", dir=os.path.join(ROOT, ".bench_build"))
    os.rmdir(worktree)
    subprocess.run(["git", "worktree", "add", "--detach", "--quiet", worktree, sha],
                   cwd=ROOT, check=True)
    try:
        with tempfile.TemporaryDirectory(prefix="compare-") as tmp:
            configs = {}
            for name, text in cases("tiny" if args.self_test else "full").items():
                configs[name] = os.path.join(tmp, f"{name}.yaml")
                with open(configs[name], "w") as fh:
                    fh.write(text)
            outs = {side: os.path.join(tmp, side) for side in ("base", "head")}
            failed = []
            for side, out in outs.items():
                tree = worktree if side == "base" or args.self_test else ROOT
                failed += [f"{side} {f}" for f in run_tree(tree, configs, out)]
            lines, errors, differ = compare(outs["base"], outs["head"])
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", worktree], cwd=ROOT, check=True)
    for line in lines + [f"ERROR run failed: {f}" for f in failed]:
        print(line)
    errors += len(failed) + (differ if args.self_test else 0)
    print(f"{len(lines)} files, {differ} differ, {errors} errors "
          f"({sha} against {'itself' if args.self_test else 'this tree'})")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
