"""The benchmark's workloads: seeded configs, output checks and reference
summaries.

Every workload is one or two YAML configs generated from the seed and run
through ``homogkit.cli.parse_config`` and ``homogkit.cli.run``; the program
sees nothing the seed did not generate.  Sizes are chosen so that one child
process takes a few seconds, which lets a run take the median of several.

- sweep:   the paper's eps-sweep (rates): few right-hand sides, expensive
           CG/BiCGStab box solves dominated by operator applies.  The seed
           places the load bump.
- maximal: Green column plus the nontangential-maximal battery: ten
           right-hand sides on one operator, and the only caller of
           ``grid.nontangential_max``.  The seed draws the boundary fields.
- systems: m = 2 homogenization with flux correctors on the torus, then box
           Dirichlet correctors: the heavy user of ``cell``,
           ``solvers.solve_periodic`` and CSV output, many cheap solves.  The
           seed draws the skew amplitude ``delta`` from a narrow range, so
           the iteration counts stay within a few per cent.
- green3d: the only d = 3 path and the only caller of ``decay_fit``.  The
           seed places the Green probe.
"""

from __future__ import annotations

import json
import os
import random

import numpy as np

from tracing import patch_function

SOLVER_TOL = 1e-10
# Every solve stops at a relative residual of SOLVER_TOL; with preconditioned
# condition numbers of order 10 the solutions, and the smooth summaries built
# from them, are accurate to about 1e-9.  1e4 * tol leaves room for a
# different but converged iteration path and still catches any real change.
REF_RTOL = 1e4 * SOLVER_TOL
# Cell means that vanish by construction (torus differences of periodic
# fields, explicitly centred discrepancies); homogkit.cell uses the same 1e-10.
MEAN_TOL = 1e-10


def _sweep(rng: random.Random, seed: int, tiny: bool) -> list[str]:
    eps = "[0.5, 0.25, 0.125]" if tiny else "[0.25, 0.125, 0.0625]"
    return [
        "subcommand: rates\nfamily: trig\n"
        "params: {d: 2, alpha: 2.0, beta: 0.5, lower: 0.5}\n"
        f"eps: {eps}\ndivisor: 16\nn_cell: {16 if tiny else 64}\n"
        f"data: bump\nseed: {seed}\ntol: {SOLVER_TOL:.1e}\n"
    ]


def _maximal(rng: random.Random, seed: int, tiny: bool) -> list[str]:
    n, eps = (32, 0.5) if tiny else (96, 0.25)
    return [
        "subcommand: green\nfamily: trig\nparams: {d: 2}\n"
        f"n: {n}\neps: {eps}\nbattery: true\nprobes: [[0.5, 0.5]]\n"
        f"seed: {seed}\ntol: {SOLVER_TOL:.1e}\n"
    ]


def _systems(rng: random.Random, seed: int, tiny: bool) -> list[str]:
    delta = round(rng.uniform(0.28, 0.32), 6)
    fam = f"family: nonsymmetric-system\nparams: {{d: 2, delta: {delta!r}}}\n"
    n_hom, n_box, eps, n_cell = (16, 32, 0.5, 16) if tiny else (96, 64, 0.25, 64)
    return [
        f"subcommand: homogenize\n{fam}n: {n_hom}\nflux: true\n"
        f"seed: {seed}\ntol: {SOLVER_TOL:.1e}\n",
        f"subcommand: correctors\n{fam}n: {n_box}\neps: {eps}\nn_cell: {n_cell}\n"
        f"seed: {seed}\ntol: {SOLVER_TOL:.1e}\n",
    ]


def _green3d(rng: random.Random, seed: int, tiny: bool) -> list[str]:
    # The probe sits on an interior grid point in [3/8, 5/8]^3, far enough
    # from the boundary for decay_fit's admissible shell [8h, d_y / 2] to hold
    # points at n = 48; the tiny grid needs the centre.
    n = 40 if tiny else 48
    if tiny:
        probe = [0.5, 0.5, 0.5]
    else:
        probe = [rng.randint(3 * n // 8, 5 * n // 8) / n for _ in range(3)]
    return [
        "subcommand: green\nfamily: trig\nparams: {d: 3}\n"
        f"n: {n}\neps: 0.25\nlam: 0.0\nlambda_override: true\n"
        f"probes: {json.dumps([probe])}\nseed: {seed}\ntol: {SOLVER_TOL:.1e}\n"
    ]


_GENERATORS = {"sweep": _sweep, "maximal": _maximal, "systems": _systems,
               "green3d": _green3d}


def configs(workload: str, seed: int, scale: str = "full") -> list[str]:
    """The YAML config texts of one workload, generated from ``seed``."""
    return _GENERATORS[workload](random.Random(seed), seed, scale == "tiny")


class Capture:
    """Keeps what the public functions return, for the checks after the run.

    The wrappers only append a reference to a list, so they are installed in
    untraced runs too.
    """

    def __init__(self):
        self.residuals: list[tuple[str, float]] = []
        self.hats = []
        self.flux = []

    def install(self) -> None:
        from homogkit import bvp, cell, dirichlet, green

        def keep(fn, on_result):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                on_result(result)
                return result
            return wrapper

        res = self.residuals
        hooks = (
            (cell, "solve_correctors",
             lambda c: res.extend(("cell." + k, v) for k, v in c.residuals.items())),
            (dirichlet, "solve_dirichlet_correctors",
             lambda p: res.extend(("dirichlet." + k, v) for k, v in p.residuals.items())),
            (bvp, "solve", lambda r: res.append(("bvp.solve", r[1]["residual"]))),
            (green, "approx_green",
             lambda s: res.extend(("green.column", v) for v in s.residuals)),
            (cell, "homogenize", self.hats.append),
            (cell, "build_flux_correctors", self.flux.append),
        )
        for module, attr, on_result in hooks:
            patch_function(module, attr, lambda f: keep(f, on_result))


def _load(out_dir: str, name: str):
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def summary(workload: str, out_dirs: list[str], capture: Capture) -> dict:
    """Summary values compared against the stored reference (lists of floats)."""
    if workload == "sweep":
        slopes = _load(out_dirs[0], "rates_summary.json")["slopes"]
        return {"A_hat": np.ravel(capture.hats[0].A_hat).tolist(),
                "slopes": [slopes[k]["slope"] for k in sorted(slopes)]}
    if workload == "maximal":
        fit = _load(out_dirs[0], "green_summary.json")["fits"][-1]
        return {"C_p": [fit["C_p"]],
                "max_principle_ratio": [fit["max_principle_ratio"]]}
    if workload == "systems":
        hom = _load(out_dirs[0], "homogenized.json")
        psi = _load(out_dirs[1], "psi_summary.json")
        return {"A_hat": np.ravel(hom["a_hat"]).tolist(),
                "psi_sup_norms": psi["psi_sup_norms"]}
    fits = _load(out_dirs[0], "green_summary.json")["fits"]
    return {"exponents": [f["exponent"] for f in fits],
            "prefactors": [f["prefactor"] for f in fits]}


def _flux_checks(flux) -> list[tuple[str, bool]]:
    """Exact antisymmetry of E and F, and zero cell means of every field."""
    nd = flux.grid.d
    axes = tuple(range(nd))
    E, F = flux.E, flux.F
    out = [("flux.E_antisymmetric", bool(np.array_equal(E, -np.swapaxes(E, nd, nd + 1)))),
           ("flux.F_antisymmetric", bool(np.array_equal(F, -np.swapaxes(F, nd, nd + 1))))]
    for name in ("b", "E", "U", "F", "W", "Z"):
        field = getattr(flux, name)
        scale = max(1.0, float(np.abs(field).max()))
        out.append((f"flux.{name}_zero_mean",
                    float(np.abs(field.mean(axis=axes)).max()) <= MEAN_TOL * scale))
    return out


def checks(workload: str, out_dirs: list[str], manifests: list[dict],
           capture: Capture, reference: dict | None) -> list[tuple[str, bool]]:
    """Every output check of one child: (name, passed).

    The CLI's own manifest checks come first, then the residual of every solve
    the run reported, the workload's invariants, and the reference summary
    when one is stored for this seed.  A run that did not complete fails all.
    """
    out = []
    for i, m in enumerate(manifests):
        for name, value in m["checks"].items():
            if isinstance(value, bool):
                out.append((f"cli{i}.{name}", value))
    out.append(("solves_reported", bool(capture.residuals)))
    out.extend((f"residual.{name}", r <= 10 * SOLVER_TOL) for name, r in capture.residuals)

    try:
        if workload == "systems":
            out.extend(_flux_checks(capture.flux[0]))
        got = summary(workload, out_dirs, capture)
        if workload == "maximal":
            ratio = got["max_principle_ratio"][0]
            # the trig stencil is an M-matrix and lambda > 0: |u| <= max |g|
            out.append(("max_principle", 0.0 < ratio <= 1.0 + 1e3 * SOLVER_TOL))
        for key, want in (reference or {}).items():
            have = got.get(key)
            ok = have is not None and len(have) == len(want) and all(
                abs(h - w) <= REF_RTOL * max(1.0, abs(w)) for h, w in zip(have, want))
            out.append((f"reference.{key}", ok))
    except (OSError, KeyError, IndexError, ValueError, TypeError) as exc:
        out.append((f"outputs_readable: {type(exc).__name__}: {exc}", False))

    completed = all(m["checks"].get("run_completed", True) for m in manifests)
    return [(name, bool(ok) and completed) for name, ok in out]
