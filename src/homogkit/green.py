"""Mollified Green's-matrix approximation, decay fits, and the
nontangential-maximal battery.

The approximating Green column for source component gamma at a point y is the
adjoint-operator solution of

    L* G = (1 / |B_rho(y) cap Omega|) 1_{B_rho(y)} e_gamma,  G = 0 on the boundary,

so that the bilinear-form pairing of G with any test field u returns the ball
average of u^gamma near y.  Discrete transposition makes the ball-averaged
reciprocity between forward and adjoint samples exact up to solver tolerance.

Grids here are deliberately allowed to under-resolve the oscillation: decay
exponents are measured with coarse tolerance windows, and the pointwise
coefficient sampling stays well defined at any h.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.random import PCG64, Generator

from .bvp import DirichletProblem, sample_coefficients, solve
from .coefficients import CoefficientSet
from .grid import BoxGrid, _read_only, boundary_lp_norm, linf_norm, nontangential_max


class GreenError(ValueError):
    pass


CONE_APERTURE = 2.0      # N0 of the nontangential maximal function
MIN_FIT_PAIRS = 10       # fewest shell points a decay fit accepts
FIT_MAX_PAIRS = 4000     # a decay fit thins its shell to about this many points
BATTERY_SIZE = 10        # boundary data fields of the maximal-function battery


def _snap_interior(grid: BoxGrid, y) -> np.ndarray:
    yi = np.rint(np.asarray(y, float) / grid.h).astype(int)
    if yi.shape != (grid.d,):
        raise GreenError(f"source point must have {grid.d} coordinates")
    if np.any(yi <= 0) or np.any(yi >= grid.n):
        raise GreenError(f"source point {y} is not an interior grid point")
    return yi * grid.h


def _distance_from(grid: BoxGrid, y: np.ndarray) -> np.ndarray:
    """|x - y| at every grid point x: the per-axis squared offsets summed in
    axis order by broadcasting, with no (*shape, d) point array."""
    x = grid.axis()
    sq = np.meshgrid(*[(x - yk) ** 2 for yk in y], indexing="ij", sparse=True)
    return np.sqrt(functools.reduce(np.add, sq))


def _ball_mask(grid: BoxGrid, center: np.ndarray, rho: float) -> np.ndarray:
    return _distance_from(grid, center) <= rho + 1e-12


def point_boundary_distance(y: np.ndarray) -> float:
    """d_y, the distance from the point y to the boundary of the box."""
    return float(np.minimum(y, 1.0 - y).min())


def decay_shell(grid: BoxGrid, y: np.ndarray, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Distances r = |x - y| and the admissible shell of the decay fits
    around the source point y with mollification radius rho: clear of the
    grid scale (r >= 4h), of the boundary influence of y (r <= d_y / 2) and
    of the mollification ball (rho < r / 4)."""
    r = _distance_from(grid, y)
    return r, ((r >= 4 * grid.h) & (r <= 0.5 * point_boundary_distance(y))
               & (rho < r / 4))


@dataclass
class GreenSample:
    grid: BoxGrid
    eps: float
    lam: float
    y: np.ndarray
    rho: float
    columns: np.ndarray        # (m, *shape, m): [source comp, x..., field comp]
    residuals: list[float]

    @property
    def m(self) -> int:
        return self.columns.shape[0]

    @functools.cached_property
    def fit_shell(self) -> tuple[np.ndarray, np.ndarray]:
        """``decay_shell`` of this sample's grid, source point and rho,
        computed once per sample; both arrays are read-only."""
        return tuple(map(_read_only, decay_shell(self.grid, self.y, self.rho)))

    @functools.cached_property
    def magnitude(self) -> np.ndarray:
        """Frobenius norm over both matrix indices, per grid point, computed
        once per sample; the array is read-only."""
        sq = np.sum(self.columns ** 2, axis=(0, self.columns.ndim - 1))
        return _read_only(np.sqrt(sq))


def approx_green(cs: CoefficientSet, eps: float, lam: float, grid: BoxGrid,
                 y, rho: float | None = None, tol: float = 1e-10,
                 star: bool = False) -> GreenSample:
    """m adjoint solves with the normalized ball-indicator source at y.

    With ``star=True`` the forward operator is solved instead, producing the
    columns of the adjoint problem's kernel (used by the reciprocity check).
    """
    h = grid.h
    if rho is None:
        rho = 2.0 * h
    if rho < 2.0 * h - 1e-12:
        raise GreenError(f"mollification radius {rho} below the 2h = {2 * h} floor")
    y_pt = _snap_interior(grid, y)
    mask = _ball_mask(grid, y_pt, rho)
    meas = float(mask.sum()) * grid.cell_volume
    samples = sample_coefficients(cs, grid, eps, lam)
    op = samples if star else samples.adjoint()
    m = cs.m
    columns = np.zeros((m,) + grid.shape + (m,))
    residuals = []
    for gamma in range(m):
        F = np.zeros(grid.shape + (m,))
        F[mask, gamma] = 1.0 / meas
        columns[gamma][grid.interior], res = op.solve(F[grid.interior], tol)
        residuals.append(res)
    return GreenSample(grid=grid, eps=eps, lam=lam, y=y_pt, rho=rho,
                       columns=columns, residuals=residuals)


def direct_solve(cs: CoefficientSet, eps: float, lam: float, grid: BoxGrid,
                 F: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Forward Dirichlet solve with zero boundary data and load F (*shape, m).

    Unlike the boundary-value module this skips ``bvp.resolution_guard``:
    it serves as the oracle for the kernel representation identity,
    which is a discrete transpose identity and holds at any resolution.
    """
    samples = sample_coefficients(cs, grid, eps, lam)
    full = np.zeros(grid.shape + (cs.m,))
    full[grid.interior], _ = samples.solve(np.asarray(F, float)[grid.interior], tol)
    return full


def ball_average(sample: GreenSample, center) -> np.ndarray:
    """(m, m) matrix of column fields averaged over the sample's
    mollification ball moved to ``center``."""
    c_pt = _snap_interior(sample.grid, center)
    mask = _ball_mask(sample.grid, c_pt, sample.rho)
    return sample.columns[:, mask, :].mean(axis=1)


def reciprocity_residual(cs: CoefficientSet, eps: float, lam: float,
                         grid: BoxGrid, y, x, rho: float | None = None,
                         tol: float = 1e-10) -> float:
    """Relative defect of the kernel transposition identity between x and y.

    The ball-averaged forward kernel at (x, y) must equal the transposed
    ball-averaged adjoint kernel at (y, x); discretely this is a transpose
    identity, so the defect is pure solver error.
    """
    s_fwd = approx_green(cs, eps, lam, grid, y, rho, tol)
    s_adj = approx_green(cs, eps, lam, grid, x, rho, tol, star=True)
    a = ball_average(s_fwd, x)
    b = ball_average(s_adj, y)
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-300)
    return float(np.abs(a - b.T).max() / scale)


def representation_value(sample: GreenSample, F: np.ndarray) -> np.ndarray:
    """Interior representation: u^gamma(y) from the load F shaped (*shape, m)."""
    g = sample.grid
    F = np.asarray(F, float)
    axes = list(range(1, sample.columns.ndim))
    return np.tensordot(sample.columns, F, axes=(axes, list(range(F.ndim)))) \
        * g.cell_volume


@dataclass
class DecayFit:
    exponent: float
    prefactor: float
    residual: float
    n_pairs: int
    spans_decade: bool


def decay_fit(sample: GreenSample) -> DecayFit:
    """Log-log least-squares fit of |G| against |x - y|.

    Admissible evaluation points lie in ``GreenSample.fit_shell`` and carry a
    nonzero value.  Only d = 3 carries a power decay law.
    """
    if sample.grid.d != 3:
        raise GreenError("power-law decay fits require d = 3")
    r, adm = sample.fit_shell
    mag = sample.magnitude
    adm = adm & (mag > 0)
    rr = r[adm]
    vv = mag[adm]
    if rr.size < MIN_FIT_PAIRS:
        raise GreenError(f"only {rr.size} admissible pairs; need at least {MIN_FIT_PAIRS}")
    if rr.size > FIT_MAX_PAIRS:
        stride = rr.size // FIT_MAX_PAIRS + 1
        order = np.argsort(rr)
        sel = order[::stride]
        rr, vv = rr[sel], vv[sel]
    lr = np.log(rr)
    lv = np.log(vv)
    slope, intercept = np.polyfit(lr, lv, 1)
    resid = float(np.sqrt(np.mean((lv - slope * lr - intercept) ** 2)))
    return DecayFit(exponent=float(slope), prefactor=float(math.exp(intercept)),
                    residual=resid, n_pairs=int(rr.size),
                    spans_decade=bool(rr.max() / rr.min() >= 10.0))


# ---------------------------------------------------------------------------
# nontangential maximal function battery
# ---------------------------------------------------------------------------

@dataclass
class MaximalProbeResult:
    C_p: float                 # worst ||(u)*||_p / ||g||_p over the battery
    ratios: list[float]
    max_principle_ratio: float  # worst ||u||_inf / ||g||_inf


def boundary_data_battery(grid: BoxGrid, m: int, seed: int = 0) -> list[np.ndarray]:
    """``BATTERY_SIZE`` deterministic boundary data fields, alternating
    trigonometric traces and localized bumps, drawn in order from ``seed``.

    Full-shape arrays are returned; only the boundary rows matter downstream.
    """
    rng = Generator(PCG64(seed))
    pts = grid.points()
    battery = []
    for j in range(BATTERY_SIZE):
        vals = np.zeros(grid.shape + (m,))
        if j % 2 == 0:
            freqs = rng.integers(1, 4, size=grid.d)
            phases = rng.uniform(0, 2 * np.pi, size=grid.d)
            trace = np.ones(grid.shape)
            for ax in range(grid.d):
                trace = trace * np.cos(2 * np.pi * freqs[ax] * pts[..., ax] + phases[ax])
            vals[..., j % m] = trace
        else:
            center = rng.uniform(0.0, 1.0, size=grid.d)
            width = rng.uniform(0.1, 0.3)
            r2 = np.sum((pts - center) ** 2, axis=-1)
            vals[..., j % m] = np.exp(-r2 / (2 * width ** 2))
        battery.append(vals)
    return battery


def maximal_function_probe(cs: CoefficientSet, eps: float, lam: float,
                           grid: BoxGrid, battery: list[np.ndarray],
                           p: float = 2.0, tol: float = 1e-10,
                           lambda_override: bool = False) -> MaximalProbeResult:
    """Worst nontangential-maximal constant over a battery of boundary data.

    The fields share one operator: the coefficients are sampled and the
    operator assembled once for the whole battery.  Also records the worst
    sup-norm ratio (the maximum-principle surrogate).
    """
    if len(battery) < BATTERY_SIZE:
        raise GreenError(f"battery needs at least {BATTERY_SIZE} boundary data fields")
    ratios = []
    mp_worst = 0.0
    bmask = grid.boundary_mask()
    base = DirichletProblem(cs=cs, grid=grid, eps=eps, lam=lam,
                            lambda_override=lambda_override)
    samples = base.samples()
    for g_vals in battery:
        u, _ = solve(replace(base, g=g_vals), tol=tol, samples=samples)
        star = nontangential_max(u, CONE_APERTURE)
        g_on_b = g_vals[bmask]
        g_norm = boundary_lp_norm(g_on_b, grid, p)
        star_norm = boundary_lp_norm(star, grid, p)
        if g_norm > 0:
            ratios.append(star_norm / g_norm)
        g_sup = float(np.abs(g_on_b).max())
        if g_sup > 0:
            mp_worst = max(mp_worst, linf_norm(u) / g_sup)
    if not ratios:
        raise GreenError("every battery field has zero boundary data; "
                         "the maximal-function ratio is undefined")
    return MaximalProbeResult(C_p=max(ratios), ratios=ratios,
                              max_principle_ratio=mp_worst)
