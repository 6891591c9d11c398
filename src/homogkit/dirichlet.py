"""Dirichlet correctors on box domains and their boundary-layer diagnostics.

Phi_{eps,0} solves the principal-part problem with source div(V_eps) and
identity boundary data; Phi_{eps,k} solves the homogeneous problem with the
coordinate monomial P_k as boundary data.  The deviation fields

    Psi_k = Phi_k - P_k - eps * chi_k(x/eps)      (P_0 = I)

are pure boundary-layer objects: O(eps) in sup norm with gradients decaying
like min(1, eps / dist-to-boundary).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bvp import CoefficientSamples, pullback, resolution_guard, sample_coefficients
from .cell import CorrectorSet
from .coefficients import CoefficientSet
from .grid import BoxGrid, GridFunction, TorusGrid, _centered_box, gradient


class CommensurabilityError(ValueError):
    """eps does not place the cell lattice onto the box lattice exactly."""


PROFILE_BINS = 8   # logarithmic boundary-distance bins of the Psi gradient profile


@dataclass
class DirichletCorrectorSet:
    grid: BoxGrid
    eps: float
    phi0: np.ndarray          # (*shape, m, m)
    phi: list[np.ndarray]     # d entries (*shape, m, m)
    residuals: dict[str, float]

    @property
    def m(self) -> int:
        return self.phi0.shape[-1]


@dataclass
class PsiDiagnostics:
    eps: float
    psi: list[np.ndarray]          # k = 0..d, each (*shape, m, m)
    sup_norms: list[float]
    grad_sup_norms: list[float]
    profile_bins: np.ndarray       # bin edges in d_x
    profile_max_grad: np.ndarray   # max |grad Psi| per bin, over all k


def _phi0(cs: CoefficientSet, eps: float, samples: CoefficientSamples,
          tol: float) -> tuple[np.ndarray, float]:
    """Phi_{eps,0}: principal part applied, source div(V_eps), boundary = I."""
    grid = samples.grid
    m = cs.m
    V = cs.V(pullback(grid, eps))   # (*shape, d, m, m)
    phi0 = np.zeros(grid.shape + (m, m))
    residuals = []
    for beta in range(m):
        rhs = np.zeros(grid.shape + (m,))
        for i in range(grid.d):
            rhs += _centered_box(V[..., i, :, beta], i, grid.h)
        w, res = samples.solve(rhs[grid.interior], tol)
        residuals.append(res)
        full = np.zeros(grid.shape + (m,))
        full[grid.interior] = w
        full[..., beta] += 1.0   # + identity column (exact on the boundary)
        phi0[..., :, beta] = full
    return phi0, max(residuals)


def _phik(samples: CoefficientSamples, k: int, tol: float) -> tuple[np.ndarray, float]:
    """Phi_{eps,k}: homogeneous principal-part solve with P_k boundary data.

    Implemented through w = Phi - P_k, which vanishes on the boundary and
    satisfies L(w) = -L(P_k); for constant A the right side is identically
    zero and Phi = P_k exactly.
    """
    grid = samples.grid
    m = samples.m
    x = grid.points()
    phik = np.zeros(grid.shape + (m, m))
    residuals = []
    for beta in range(m):
        pk = np.zeros(grid.shape + (m,))
        pk[..., beta] = x[..., k - 1]
        w, res = samples.solve(-samples.apply_full(pk)[grid.interior], tol)
        residuals.append(res)
        pk[grid.interior] += w
        phik[..., :, beta] = pk
    return phik, max(residuals)


def solve_dirichlet_correctors(cs: CoefficientSet, eps: float, grid: BoxGrid,
                               tol: float = 1e-10) -> DirichletCorrectorSet:
    """Phi_{eps,0} and Phi_{eps,1..d}, all from one sampled and assembled
    principal-part operator (``cs`` with V, B and c set to zero)."""
    resolution_guard(grid, eps)
    samples = sample_coefficients(replace(cs, V=None, B=None, c=None), grid, eps, 0.0)
    phi0, r0 = _phi0(cs, eps, samples, tol)
    phis = []
    res = {"phi0": r0}
    for k in range(1, cs.d + 1):
        pk, rk = _phik(samples, k, tol)
        phis.append(pk)
        res[f"phi{k}"] = rk
    return DirichletCorrectorSet(grid=grid, eps=eps, phi0=phi0, phi=phis, residuals=res)


def lattice_step(box_grid: BoxGrid, eps: float, n_cell: int) -> int:
    """Cell-lattice spacings per box spacing at x/eps, (h / eps) * n_cell;
    CommensurabilityError unless it is an integer."""
    ratio = box_grid.h / eps * n_cell
    if abs(ratio - round(ratio)) > 1e-9:
        raise CommensurabilityError(
            f"box spacing h = {box_grid.h} at eps = {eps} does not land on the "
            f"cell lattice (n_cell = {n_cell}); choose dyadic eps and "
            f"compatible grids"
        )
    return int(round(ratio))


def sample_periodic_field(arr: np.ndarray, cell_grid: TorusGrid,
                          box_grid: BoxGrid, eps: float) -> np.ndarray:
    """Evaluate a unit-cell field at x/eps on the box lattice, exactly.

    Requires the pullback lattice to coincide with the cell lattice:
    (h_box / eps) * n_cell must be an integer.  Dyadic sweeps with n a power
    of two satisfy this by construction.
    """
    step = lattice_step(box_grid, eps, cell_grid.n)
    idx1 = (np.arange(box_grid.n + 1) * step) % cell_grid.n
    ix = np.ix_(*([idx1] * box_grid.d))
    return arr[ix]


def phi_inverse(phi0: np.ndarray) -> np.ndarray:
    """Pointwise inverse of Phi_{eps,0}, guarded by the smallness condition
    ||Phi - I||_inf <= 1/2 that the paper-regime transformations assume."""
    m = phi0.shape[-1]
    eye = np.eye(m)
    dev = np.abs(phi0 - eye).max()
    if dev > 0.5:
        raise ValueError(f"Phi deviates from identity by {dev:.3f} > 1/2; eps too large")
    return np.linalg.inv(phi0)


def psi_diagnostics(phis: DirichletCorrectorSet, correctors: CorrectorSet,
                    eps: float) -> PsiDiagnostics:
    """Psi fields, their sup norms, and the radial gradient profile.

    The gradient profile records max |grad Psi| over logarithmic bins of the
    boundary distance; the theory predicts the envelope min(1, eps / d_x).
    """
    grid = phis.grid
    m = phis.m
    cell = correctors.grid
    chi_all = [correctors.chi0] + list(correctors.chi)
    phi_all = [phis.phi0] + list(phis.phi)
    pts = grid.points()
    dist = grid.boundary_distance()

    psis = []
    sup_norms = []
    grad_sups = []
    grad_mags = []
    eye = np.eye(m)
    for k, (phi, chi) in enumerate(zip(phi_all, chi_all)):
        chi_pulled = sample_periodic_field(chi, cell, grid, eps)
        base = np.broadcast_to(eye, grid.shape + (m, m)).copy()
        if k > 0:
            base = np.zeros(grid.shape + (m, m))
            for a in range(m):
                base[..., a, a] = pts[..., k - 1]
        psi = phi - base - eps * chi_pulled
        psis.append(psi)
        sup_norms.append(float(np.abs(psi).max()))
        gpsi = gradient(GridFunction(grid, psi)).values
        nd = grid.d
        gmag = np.sqrt(np.sum(gpsi ** 2, axis=tuple(range(nd, gpsi.ndim))))
        grad_sups.append(float(gmag.max()))
        grad_mags.append(gmag)

    interior = dist > 0
    dmin = max(grid.h, 1e-12)
    dmax = float(dist.max())
    edges = np.geomspace(dmin, dmax * 1.0001, PROFILE_BINS + 1)
    prof = np.zeros(PROFILE_BINS)
    gstack = np.maximum.reduce(grad_mags)
    for b in range(PROFILE_BINS):
        mask = interior & (dist >= edges[b]) & (dist < edges[b + 1])
        prof[b] = float(gstack[mask].max()) if mask.any() else math.nan
    return PsiDiagnostics(eps=eps, psi=psis, sup_norms=sup_norms,
                          grad_sup_norms=grad_sups, profile_bins=edges,
                          profile_max_grad=prof)
