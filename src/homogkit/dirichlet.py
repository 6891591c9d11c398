"""Dirichlet correctors on box domains and their boundary-layer diagnostics.

The corrector Phi_{eps,k} (k = 0..d) has the affine data P_k I on the
boundary (P_0 = 1, P_k = x_k).  ``solve_dirichlet_correctors`` runs one
loop over k and the m columns on one sampled principal-part operator L_0:
each column is P_k + w, with w zero on the boundary and L_0 w = div(V_eps)
for k = 0 (``cell._source_0``, the source of the cell corrector chi_0, here
on the box), L_0 w = -L_0(P_k) for k >= 1.  The deviations Phi_k - P_k I are
formed once (``DirichletCorrectorSet.deviations``); the fields

    Psi_k = Phi_k - P_k I - eps * chi_k(x/eps)

(``psi_diagnostics``, at the eps the Phi_k were solved at) are pure
boundary-layer objects: O(eps) in sup norm with gradients decaying like
min(1, eps / dist-to-boundary).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bvp import pullback, resolution_guard, sample_coefficients
from .cell import CorrectorSet, _source_0
from .coefficients import CoefficientSet
from .grid import BoxGrid, GridFunction, TorusGrid, _pointwise_abs, gradient


class CommensurabilityError(ValueError):
    """eps does not place the cell lattice onto the box lattice exactly."""


PROFILE_BINS = 8   # logarithmic boundary-distance bins of the Psi gradient profile


def affine_data(grid: BoxGrid, k: int, m: int) -> np.ndarray:
    """P_k I on the grid, (*shape, m, m): P_0 = 1 and P_k = x_k."""
    p = np.ones(grid.shape) if k == 0 else grid.points()[..., k - 1]
    out = np.zeros(grid.shape + (m, m))
    for a in range(m):
        out[..., a, a] = p
    return out


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

    @cached_property
    def deviations(self) -> list[np.ndarray]:
        """Phi_k - P_k I for k = 0..d, each (*shape, m, m)."""
        return [phi - affine_data(self.grid, k, self.m)
                for k, phi in enumerate([self.phi0, *self.phi])]


@dataclass
class PsiDiagnostics:
    eps: float
    psi: list[np.ndarray]          # k = 0..d, each (*shape, m, m)
    sup_norms: list[float]
    grad_sup_norms: list[float]
    profile_bins: np.ndarray       # bin edges in d_x
    profile_max_grad: np.ndarray   # max |grad Psi| per bin, over all k


def solve_dirichlet_correctors(cs: CoefficientSet, eps: float, grid: BoxGrid,
                               tol: float = 1e-10) -> DirichletCorrectorSet:
    """Phi_{eps,0} and Phi_{eps,1..d}, all from one sampled and assembled
    principal-part operator (``cs.principal_part``).  For constant A the
    k >= 1 right sides vanish identically and Phi_k = P_k I exactly."""
    resolution_guard(grid, eps)
    samples = sample_coefficients(cs.principal_part, grid, eps, 0.0)
    m = cs.m
    phis, res = [], {}
    for k in range(cs.d + 1):
        # the kept field is allocated before the temporaries, so that they
        # do not leave holes below it in the heap (peak RSS of a sweep)
        phi = np.empty(grid.shape + (m, m))
        P = affine_data(grid, k, m)
        phi[...] = P
        if k == 0:   # div(V_eps e_beta), as column views; V_eps is freed here
            sources = np.moveaxis(_source_0(cs.V(pullback(grid, eps)), grid), -1, 0)
        else:        # -L_0(P_k e_beta)
            sources = [-samples.apply_full(P[..., :, beta]) for beta in range(m)]
        residuals = []
        for beta, rhs in enumerate(sources):
            w, r = samples.solve(rhs[grid.interior], tol)
            residuals.append(r)
            phi[grid.interior + (slice(None), beta)] += w
        phis.append(phi)
        res[f"phi{k}"] = max(residuals)
    return DirichletCorrectorSet(grid=grid, eps=eps, phi0=phis[0], phi=phis[1:],
                                 residuals=res)


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
    idx1 = (np.arange(box_grid.shape[0]) * step) % cell_grid.n
    ix = np.ix_(*([idx1] * box_grid.d))
    return arr[ix]


def psi_diagnostics(phis: DirichletCorrectorSet, correctors: CorrectorSet) -> PsiDiagnostics:
    """Psi fields at the eps the Dirichlet correctors were solved at
    (``phis.eps``), their sup norms, and the radial gradient profile.

    The gradient profile records max |grad Psi| over logarithmic bins of the
    boundary distance; the theory predicts the envelope min(1, eps / d_x).
    """
    grid, eps = phis.grid, phis.eps
    cell = correctors.grid
    dist = grid.boundary_distance()
    psis = [dev - eps * sample_periodic_field(chi, cell, grid, eps)
            for dev, chi in zip(phis.deviations, [correctors.chi0, *correctors.chi])]
    grad_mags = [_pointwise_abs(gradient(GridFunction(grid, psi)).values, grid)
                 for psi in psis]
    sup_norms = [float(np.abs(psi).max()) for psi in psis]
    grad_sups = [float(g.max()) for g in grad_mags]

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
