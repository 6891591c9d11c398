"""Epsilon sweeps: convergence rates and uniform-in-epsilon constants.

The central object is the corrected two-scale expansion error

    w_eps = u_eps - Phi_0 u - (Phi_k - P_k) du/dx_k,

whose H1 norm decays like eps when the correctors do their job, while the
naive difference u_eps - u stalls in H1 (its gradient keeps the oscillation).
Sweeps solve the homogenized problem once on the finest grid and restrict it
down, so discretization error is common mode across the sweep rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random import PCG64, Generator

from .bvp import DirichletProblem, check_lambda, solve
from .cell import homogenize, solve_correctors
from .coefficients import builtin_family
from .dirichlet import DirichletCorrectorSet, solve_dirichlet_correctors
from .green import boundary_data_battery, maximal_function_probe
from .grid import (BoxGrid, GridFunction, TorusGrid, _pointwise_abs, gradient,
                   h1_norm, is_dyadic, lp_norm, linf_norm, holder_seminorm)


class SweepError(ValueError):
    pass


CORNER_MARGIN = 1 / 8   # corner-excluded norms and the Lipschitz probe keep d_x >= this
PROBE_P = 2.0           # the exponent p of the W1p, Holder and MaxPrinciple probes
HOLDER_SIGMA = 0.5      # the Holder probe's sigma


@dataclass
class SweepConfig:
    family: str
    params: dict = field(default_factory=dict)
    eps_list: tuple = (1 / 8, 1 / 16, 1 / 32)
    divisor: int = 16            # h = eps / divisor
    n_fixed: int | None = None   # overrides the divisor rule with one fine grid
    lam: float | None = None
    data: str = "one"            # one | sine | bump
    seed: int = 0
    tol: float = 1e-10
    n_cell: int = 64

    def __post_init__(self):
        eps = tuple(float(e) for e in self.eps_list)
        if not eps:
            raise SweepError("eps list is empty")
        if any(not is_dyadic(e) for e in eps):
            raise SweepError(f"eps must be dyadic (2^-j), got {eps}")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise SweepError(f"eps list must be strictly decreasing, got {eps}")
        self.eps_list = eps

    def grid_for(self, eps: float) -> BoxGrid:
        d = builtin_family(self.family, **self.params).d
        if self.n_fixed is not None:
            return BoxGrid(d, self.n_fixed)
        return BoxGrid(d, int(round(self.divisor / eps)))


def load_field(kind: str, grid: BoxGrid, m: int, seed: int = 0) -> np.ndarray:
    """The sweep data battery: constant load, separable sine, localized bump."""
    pts = grid.points()
    vals = np.zeros(grid.shape + (m,))
    if kind == "one":
        vals[..., 0] = 1.0
    elif kind == "sine":
        prod = np.ones(grid.shape)
        for ax in range(grid.d):
            prod = prod * np.sin(np.pi * pts[..., ax])
        vals[..., 0] = prod
    elif kind == "bump":
        rng = Generator(PCG64(seed))
        center = rng.uniform(0.3, 0.7, size=grid.d)
        width = 0.15
        r2 = np.sum((pts - center) ** 2, axis=-1)
        vals[..., 0] = np.exp(-r2 / (2 * width ** 2))
    else:
        raise SweepError(f"unknown data kind {kind!r}; expected one|sine|bump")
    return vals


def restrict(values: np.ndarray, fine: BoxGrid, coarse: BoxGrid) -> np.ndarray:
    """Pointwise restriction between nesting box grids (strided subsample)."""
    if fine.n % coarse.n != 0:
        raise SweepError(f"grids do not nest: {fine.n} intervals onto {coarse.n}")
    f = fine.n // coarse.n
    sl = (slice(None, None, f),) * fine.d
    return values[sl]


# ---------------------------------------------------------------------------
# expansion error
# ---------------------------------------------------------------------------

@dataclass
class ExpansionError:
    w: GridFunction
    h1_norm: float
    h1_norm_corner_excluded: float
    l2_norm: float
    norm_phi0_u_l2: float     # ||(Phi_0 - I) u||_2
    norm_phik_du_l2: float    # ||(Phi_k - P_k) du/dx_k||_2


def masked_h1_norm(u: GridFunction, mask: np.ndarray, gu: GridFunction) -> float:
    """Discrete H1 norm restricted to a point mask (Riemann cell rule), from
    u and its gradient ``gu``."""
    g = u.grid
    gu = gu.values
    nd = g.d
    mag2 = np.sum(u.values ** 2, axis=tuple(range(nd, u.values.ndim)))
    gmag2 = np.sum(gu ** 2, axis=tuple(range(nd, gu.ndim)))
    cell = g.cells
    w = mask[cell]
    total = float(((mag2 + gmag2)[cell] * w).sum()) * g.cell_volume
    return math.sqrt(total)


def expansion_error(u_eps: GridFunction, u: GridFunction,
                    phis: DirichletCorrectorSet) -> ExpansionError:
    """w_eps, its H1 norms (global and with a corner-excluded mask), and the
    L2 norms of the two corrector terms of the triangle inequality.

    On convex-corner domains the corrected rate can degrade near corners, so
    the masked norm (d_x >= CORNER_MARGIN) is recorded alongside the global
    one.
    """
    grid = u_eps.grid
    if u.grid != grid or phis.grid != grid:
        raise SweepError("expansion error requires all fields on one grid")
    uv = u.values
    du = gradient(u).values               # (*shape, m, d)
    dev0, *devs = phis.deviations
    w = u_eps.values - np.einsum("...ab,...b->...a", phis.phi0, uv)
    phik_du = np.zeros(uv.shape)
    for k, dev in enumerate(devs):
        term = np.einsum("...ab,...b->...a", dev, du[..., k])
        w -= term
        phik_du += term
    wf = GridFunction(grid, w)
    gw = gradient(wf)   # once, for both H1 norms
    mask = grid.boundary_distance() >= CORNER_MARGIN
    l2 = lp_norm(wf, 2.0)
    h1 = math.sqrt(l2 ** 2 + lp_norm(gw, 2.0) ** 2)   # as grid.h1_norm
    phi0_u = GridFunction(grid, np.einsum("...ab,...b->...a", dev0, uv))
    return ExpansionError(w=wf, h1_norm=h1,
                          h1_norm_corner_excluded=masked_h1_norm(wf, mask, gw),
                          l2_norm=l2,
                          norm_phi0_u_l2=lp_norm(phi0_u, 2.0),
                          norm_phik_du_l2=lp_norm(GridFunction(grid, phik_du), 2.0))


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------

@dataclass
class RateFit:
    slope: float
    intercept: float
    residual: float
    n_used: int
    dropped: int


def fit_rate(pairs) -> RateFit:
    """OLS on (log eps, log error); nonpositive errors are dropped with a flag."""
    eps = np.array([p[0] for p in pairs], float)
    err = np.array([p[1] for p in pairs], float)
    keep = err > 0
    dropped = int((~keep).sum())
    eps, err = eps[keep], err[keep]
    if eps.size < 3:
        raise SweepError(f"need at least 3 positive pairs, have {eps.size}")
    le, lv = np.log(eps), np.log(err)
    slope, intercept = np.polyfit(le, lv, 1)
    resid = float(np.sqrt(np.mean((lv - slope * le - intercept) ** 2)))
    return RateFit(slope=float(slope), intercept=float(intercept),
                   residual=resid, n_used=int(eps.size), dropped=dropped)


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------

ROW_FIELDS = ("eps", "n", "err_l2", "err_linf", "err_h1_uncorrected",
              "w_h1", "w_h1_corner", "w_l2", "phi0_dev_sup", "phik_dev_sup",
              "norm_phi0_u_l2", "norm_phik_du_l2", "residual")


@dataclass
class ConvergenceReport:
    rows: list[dict]
    slopes: dict
    complete: bool
    notes: list[str] = field(default_factory=list)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(",".join(ROW_FIELDS) + "\n")
            for row in self.rows:
                cells = [str(row[k]) if k == "n" else repr(float(row[k]))
                         for k in ROW_FIELDS]
                fh.write(",".join(cells) + "\n")


def run_sweep(config: SweepConfig) -> ConvergenceReport:
    """Solve the sweep and record error norms, corrector diagnostics and slopes.

    The homogenized reference is solved once on the finest grid and restricted
    to every coarser row.  A solver failure aborts the remaining rows and
    flags the report incomplete.
    """
    cs = builtin_family(config.family, **config.params)
    lam = check_lambda(cs, config.lam)
    notes = []

    cell_grid = TorusGrid(cs.d, config.n_cell)
    correctors = solve_correctors(cs, cell_grid, tol=config.tol)
    hats = homogenize(cs, correctors)

    grids = [config.grid_for(e) for e in config.eps_list]
    fine = max(grids, key=lambda g: g.n)
    F_fine = load_field(config.data, fine, cs.m, config.seed)
    u_hom_fine, _ = solve(DirichletProblem(cs=hats.coefficients(cs), grid=fine,
                                           lam=lam, F=F_fine), tol=config.tol)

    rows = []
    complete = True
    for eps, grid in zip(config.eps_list, grids):
        try:
            F = restrict(F_fine, fine, grid)
            problem = DirichletProblem(cs=cs, grid=grid, eps=eps, lam=lam, F=F)
            u_eps, info = solve(problem, tol=config.tol)
            u_hom = GridFunction(grid, restrict(u_hom_fine.values, fine, grid))
            phis = solve_dirichlet_correctors(cs, eps, grid, tol=config.tol)
            exp = expansion_error(u_eps, u_hom, phis)
        except Exception as exc:  # noqa: BLE001 - solver failures flag the report
            notes.append(f"row eps={eps} aborted: {exc}")
            complete = False
            break
        diff = GridFunction(grid, u_eps.values - u_hom.values)
        rows.append({
            "eps": eps,
            "n": grid.n,
            "err_l2": lp_norm(diff, 2.0),
            "err_linf": linf_norm(diff),
            "err_h1_uncorrected": h1_norm(diff),
            "w_h1": exp.h1_norm,
            "w_h1_corner": exp.h1_norm_corner_excluded,
            "w_l2": exp.l2_norm,
            "phi0_dev_sup": float(np.abs(phis.deviations[0]).max()),
            "phik_dev_sup": max(float(np.abs(dev).max()) for dev in phis.deviations[1:]),
            "norm_phi0_u_l2": exp.norm_phi0_u_l2,
            "norm_phik_du_l2": exp.norm_phik_du_l2,
            "residual": info["residual"],
        })

    slopes = {}
    if len(rows) >= 3:
        for key in ("err_l2", "err_linf", "err_h1_uncorrected", "w_h1",
                    "w_h1_corner"):
            vals = [r[key] for r in rows]
            if max(vals) <= 100 * config.tol:
                notes.append(f"slope for {key} skipped: errors at solver tolerance")
                continue
            try:
                slopes[key] = fit_rate([(r["eps"], r[key]) for r in rows])
            except SweepError as exc:
                notes.append(f"slope for {key} not fitted: {exc}")
    return ConvergenceReport(rows=rows, slopes=slopes, complete=complete, notes=notes)


# ---------------------------------------------------------------------------
# uniform-constant probes
# ---------------------------------------------------------------------------

PROBE_KINDS = ("W1p", "Holder", "Lipschitz", "MaxPrinciple")


@dataclass
class ProbeResult:
    per_eps: dict          # eps -> constant
    dispersion: float      # max / min over the sweep


def uniform_constant_probe(kind: str, config: SweepConfig) -> ProbeResult:
    """Ratio of the two sides of a uniform regularity estimate, per eps.

    W1p: ||grad u_eps||_p / ||F||_p; Holder: the C^{0,sigma} seminorm over
    ||F||_p; Lipschitz: sup |grad u_eps| away from corners over ||F||_inf;
    MaxPrinciple: the nontangential maximal constant from the kernel module.
    The data battery is identical across eps by construction.
    """
    if kind not in PROBE_KINDS:
        raise SweepError(f"unknown probe kind {kind!r}; expected one of {PROBE_KINDS}")
    cs = builtin_family(config.family, **config.params)
    lam = check_lambda(cs, config.lam)
    per_eps = {}
    for eps in config.eps_list:
        grid = config.grid_for(eps)
        if kind == "MaxPrinciple":
            battery = boundary_data_battery(grid, cs.m, seed=config.seed)
            res = maximal_function_probe(cs, eps, lam, grid, battery, p=PROBE_P,
                                         tol=config.tol)
            per_eps[eps] = res.C_p
            continue
        F = load_field(config.data, grid, cs.m, config.seed)
        problem = DirichletProblem(cs=cs, grid=grid, eps=eps, lam=lam, F=F)
        u, _ = solve(problem, tol=config.tol)
        Ff = GridFunction(grid, F)
        gu = gradient(u)
        if kind == "W1p":
            per_eps[eps] = lp_norm(gu, PROBE_P) / lp_norm(Ff, PROBE_P)
        elif kind == "Holder":
            per_eps[eps] = holder_seminorm(u, HOLDER_SIGMA) / lp_norm(Ff, PROBE_P)
        else:  # Lipschitz, away from corners
            mask = grid.boundary_distance() >= CORNER_MARGIN
            gmag = _pointwise_abs(gu.values, grid)
            per_eps[eps] = float(gmag[mask].max()) / linf_norm(Ff)
    vals = list(per_eps.values())
    disp = max(vals) / min(vals) if min(vals) > 0 else math.inf
    return ProbeResult(per_eps=per_eps, dispersion=disp)
