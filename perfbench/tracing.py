"""Spans around calls into homogkit's public functions, and the per-layer
metrics derived from them.

Nothing inside ``src/`` is instrumented.  Each public function listed in
``TARGETS`` is replaced, in every ``homogkit.*`` namespace that holds it, by a
wrapper that records one span: (name, start, end, parent, run id).  The
Krylov routines are wrapped in the ``homogkit.solvers`` namespace so that the
operator and preconditioner they receive can be timed and the iterations
counted through the Krylov callback.

Self time of a span is its duration minus the time covered by its direct
children.  A metric is emitted only when every function it is built from was
found; a function removed by a later change makes its metrics absent, not 0.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from collections import Counter, defaultdict


def replace_everywhere(orig, new) -> None:
    """Rebind every ``homogkit.*`` module attribute that is ``orig`` to ``new``."""
    for mname, mod in list(sys.modules.items()):
        if mod is None or not (mname == "homogkit" or mname.startswith("homogkit.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, new)


def patch_function(module, attr: str, make_wrapper) -> bool:
    """Wrap ``module.attr`` everywhere it is bound; False if it is gone."""
    orig = getattr(module, attr, None)
    if not callable(orig):
        return False
    replace_everywhere(orig, make_wrapper(orig))
    return True


def _grid_points(grid) -> int:
    return int(math.prod(grid.shape))


def _ntmax_pairs(u, *_args, **_kw) -> int:
    """Boundary points times interior points: the pairs the kernel tests."""
    g = u.grid
    interior = (g.n - 1) ** g.d
    return ((g.n + 1) ** g.d - interior) * interior


# (module, attribute, span name, counter name, counter from call arguments)
TARGETS = (
    ("grid", "principal_part_apply", "grid.apply", "grid.apply.points",
     lambda A, u, grid, *a, **k: _grid_points(grid)),
    ("grid", "nontangential_max", "grid.ntmax", "grid.ntmax.pairs", _ntmax_pairs),
    ("grid", "lp_norm", "grid.norms", None, None),
    ("grid", "linf_norm", "grid.norms", None, None),
    ("grid", "h1_norm", "grid.norms", None, None),
    ("grid", "holder_seminorm", "grid.norms", None, None),
    ("grid", "boundary_lp_norm", "grid.norms", None, None),
    ("solvers", "solve_periodic", "solvers.solve", "solvers.rhs_unknowns",
     lambda op, rhs, *a, **k: int(rhs.size)),
    ("solvers", "solve_box_dirichlet", "solvers.solve", "solvers.rhs_unknowns",
     lambda op, rhs, *a, **k: int(rhs.size)),
    ("cell", "solve_correctors", "cell.correctors", None, None),
    ("cell", "homogenize", "cell.homogenize", None, None),
    ("cell", "build_flux_correctors", "cell.flux", None, None),
    ("bvp", "solve", "bvp.solve", None, None),
    ("dirichlet", "solve_dirichlet_correctors", "dirichlet.correctors", None, None),
    ("dirichlet", "psi_diagnostics", "dirichlet.psi", None, None),
    ("green", "approx_green", "green.approx", None, None),
    ("green", "maximal_function_probe", "green.battery", None, None),
    ("green", "boundary_data_battery", "green.battery", None, None),
    ("green", "decay_fit", "green.decay_fit", None, None),
    ("rates", "run_sweep", "rates.sweep", None, None),
    ("rates", "expansion_error", "rates.expansion", None, None),
)


class Tracer:
    """In-memory span recorder for one child process."""

    def __init__(self):
        self.spans: list[list] = []    # [name, start, end, parent index, run id]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.installed: set[str] = set()
        self.run_id = ""

    # -- recording ---------------------------------------------------------

    def timed(self, fn, name: str, counter: str | None = None, amount=None):
        spans, stack, clock, counts = self.spans, self.stack, time.perf_counter, self.counts

        def wrapper(*args, **kwargs):
            if counter is not None:
                counts[counter] += amount(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return wrapper

    def root(self, run_id: str, fn, *args):
        """Call ``fn(*args)`` as the root span ``cli.run`` of one run id."""
        self.run_id = run_id
        return self.timed(fn, "cli.run")(*args)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import importlib

        from scipy.sparse.linalg import LinearOperator

        def mod(name):
            return importlib.import_module(f"homogkit.{name}")

        for mname, attr, span, counter, amount in TARGETS:
            if patch_function(mod(mname), attr,
                              lambda f: self.timed(f, span, counter, amount)):
                self.installed.add(span)

        self._install_csv(mod("grid"))
        self._install_krylov(mod("solvers"), LinearOperator)
        self._install_bvp(mod("bvp"))
        self._install_coefficients(mod("coefficients"))

    def _install_csv(self, grid) -> None:
        counts = self.counts

        def make(fn):
            timed = self.timed(fn, "grid.csv")

            def write_csv(u, path, *a, **k):
                timed(u, path, *a, **k)
                counts["grid.csv.bytes"] += os.path.getsize(path)
            return write_csv

        if patch_function(grid, "write_csv", make):
            self.installed.add("grid.csv")

    def _install_krylov(self, solvers, LinearOperator) -> None:
        counts = self.counts

        def count_iteration(*_):
            counts["solvers.iters"] += 1

        def make(fn, is_gmres):
            def krylov(A, b, *args, **kw):
                A = LinearOperator(A.shape, dtype=A.dtype,
                                   matvec=self.timed(A.matvec, "solvers.matvec"))
                M = kw.get("M")
                if M is not None:
                    kw["M"] = LinearOperator(M.shape, dtype=M.dtype,
                                             matvec=self.timed(M.matvec, "solvers.precond"))
                kw["callback"] = count_iteration
                if is_gmres:
                    counts["solvers.gmres_fallbacks"] += 1
                    kw["callback_type"] = "pr_norm"
                return fn(A, b, *args, **kw)
            return self.timed(krylov, "solvers.krylov")

        found = False
        for attr in ("cg", "bicgstab", "gmres"):
            fn = getattr(solvers, attr, None)
            if fn is not None:
                setattr(solvers, attr, make(fn, attr == "gmres"))
                found = True
        if found:
            self.installed.update(("solvers.krylov", "solvers.matvec",
                                   "solvers.precond"))

    def _install_bvp(self, bvp) -> None:
        problem = getattr(bvp, "DirichletProblem", None)
        if problem is not None and callable(getattr(problem, "samples", None)):
            problem.samples = self.timed(problem.samples, "bvp.samples")
            self.installed.add("bvp.samples")
        samples = getattr(bvp, "CoefficientSamples", None)
        prop = getattr(samples, "is_symmetric", None) if samples else None
        if isinstance(prop, property):
            samples.is_symmetric = property(self.timed(prop.fget, "bvp.symmetry_check"))
            self.installed.add("bvp.symmetry_check")

    def _install_coefficients(self, coefficients) -> None:
        """Time every A/V/B/c evaluation of the families the run builds."""
        def points(y):
            return int(y.size // y.shape[-1])

        def make(build):
            def builtin_family(*args, **kwargs):
                cs = build(*args, **kwargs)
                for field in ("A", "V", "B", "c"):
                    setattr(cs, field, self.timed(getattr(cs, field), "coefficients.eval",
                                                  "coefficients.points", points))
                return cs
            return builtin_family

        if patch_function(coefficients, "builtin_family", make):
            self.installed.add("coefficients.eval")

    # -- derivation --------------------------------------------------------

    def self_times(self):
        """Per span name: (calls, self seconds)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            calls[name] += 1
            self_s[name] += (end - start) - covered
        return calls, self_s

    def _count_under(self, name: str, ancestor: str, direct: bool) -> int:
        n = 0
        for span in self.spans:
            if span[0] != name:
                continue
            p = span[3]
            while p >= 0:
                if self.spans[p][0] == ancestor:
                    n += 1
                    break
                if direct:
                    break
                p = self.spans[p][3]
        return n

    def metrics(self) -> dict:
        calls, self_s = self.self_times()
        c = self.counts
        have = self.installed
        out = {}

        def put(needs, name, value):
            if all(s in have for s in needs):
                out[name] = value

        for span in ("grid.ntmax", "grid.apply", "grid.csv", "bvp.solve", "bvp.samples"):
            put([span], f"{span}.calls", calls[span])
            put([span], f"{span}.s", self_s[span])
        put(["grid.ntmax"], "grid.ntmax.pairs", c["grid.ntmax.pairs"])
        apply_s = self_s["grid.apply"]
        put(["grid.apply"], "grid.apply.mpts_per_s",
            c["grid.apply.points"] / apply_s / 1e6 if apply_s > 0 else 0.0)
        put(["grid.csv"], "grid.csv.mb", c["grid.csv.bytes"] / 1e6)
        put(["grid.norms"], "grid.norms.s", self_s["grid.norms"])

        solves = calls["solvers.solve"]
        put(["solvers.solve"], "solvers.solves", solves)
        put(["solvers.solve"], "solvers.rhs_unknowns", c["solvers.rhs_unknowns"])
        put(["solvers.solve"], "solvers.solve_self_s", self_s["solvers.solve"])
        put(["solvers.krylov"], "solvers.iters", c["solvers.iters"])
        put(["solvers.krylov", "solvers.solve"], "solvers.iters_per_solve",
            c["solvers.iters"] / solves if solves else 0.0)
        put(["solvers.matvec"], "solvers.matvecs", calls["solvers.matvec"])
        put(["solvers.matvec"], "solvers.matvec_s", self_s["solvers.matvec"])
        put(["solvers.precond"], "solvers.precond_applies", calls["solvers.precond"])
        put(["solvers.precond"], "solvers.precond_s", self_s["solvers.precond"])
        put(["solvers.krylov"], "solvers.krylov_self_s", self_s["solvers.krylov"])
        put(["solvers.krylov"], "solvers.gmres_fallbacks", c["solvers.gmres_fallbacks"])

        for span, name in (("cell.correctors", "cell.correctors_s"),
                           ("cell.homogenize", "cell.homogenize_s"),
                           ("cell.flux", "cell.flux_s"),
                           ("bvp.symmetry_check", "bvp.symmetry_check_s"),
                           ("coefficients.eval", "coefficients.eval_s"),
                           ("dirichlet.correctors", "dirichlet.correctors_s"),
                           ("dirichlet.psi", "dirichlet.psi_s"),
                           ("green.approx", "green.approx_s"),
                           ("green.battery", "green.battery_s"),
                           ("green.decay_fit", "green.decay_fit_s"),
                           ("rates.sweep", "rates.sweep_s"),
                           ("rates.expansion", "rates.expansion_s")):
            put([span], name, self_s[span])
        put(["cell.flux", "solvers.solve"], "cell.poisson_solves",
            self._count_under("solvers.solve", "cell.flux", direct=False))
        put(["green.approx", "solvers.solve"], "green.columns",
            self._count_under("solvers.solve", "green.approx", direct=True))
        put(["coefficients.eval"], "coefficients.evals", calls["coefficients.eval"])
        put(["coefficients.eval"], "coefficients.points", c["coefficients.points"])
        out["cli.run_self_s"] = self_s["cli.run"]
        return out

    def write(self, path: str) -> None:
        """Write the spans as JSON: a list of [name, start, end, parent, run id]."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run_id"],
                       "spans": self.spans}, fh)
