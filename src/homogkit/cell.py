"""Periodic cell problems: correctors, effective coefficients, flux potentials.

Everything here lives on the unit torus.  The corrector chi_k (k = 1..d)
solves the cell problem driven by the coordinate monomial P_k, chi_0 the one
driven by div(V); ``solve_correctors`` is the one entry point for them, one
loop over k = 0..d and the m columns on one assembled operator.  Each k
forms the sources of all m columns at once: ``_source_k`` is -L(P_k e_beta)
and ``_source_0`` is div(V e_beta) (``grid.divergence``, on either geometry,
so ``dirichlet`` takes the source of Phi_{eps,0} from it too).  The four
effective tensors are cell averages (``_hats``) of the
coefficient-plus-corrector-flux integrands, written once in
``_cell_fluxes``; the flux discrepancy fields (b, U, W, Z) are the remainders
of the same integrands, represented through antisymmetric potentials (E, F)
and auxiliary zero-mean Poisson solves.  ``build_flux_correctors`` forms the
integrands once and takes both the tensors and the remainders from them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .coefficients import CoefficientSet, ellipticity_margin
from .grid import (Grid, GridFunction, TorusGrid, _centered_periodic, _coef_block, assemble,
                   coefficient_blocks, divergence, gradient, precond_scale)
from .solvers import _mean_zero, poisson_periodic, solve_periodic

MEAN_TOL = 1e-10


class CellError(RuntimeError):
    pass


@dataclass
class CorrectorSet:
    """chi_0 and chi_1..chi_d on a torus grid; each has (m, m) components."""

    grid: TorusGrid
    chi0: np.ndarray            # (*shape, m, m)
    chi: list[np.ndarray]       # d entries, each (*shape, m, m)
    residuals: dict[str, float]

    def gradients(self):
        """Centered periodic gradients: grad_chi0 (*shape, m, m, d) and the
        list for chi_k."""
        g0, *gk = (gradient(GridFunction(self.grid, c)).values
                   for c in [self.chi0, *self.chi])
        return g0, gk


@dataclass
class HomogenizedCoefficients:
    A_hat: np.ndarray   # (d, d, m, m)
    V_hat: np.ndarray   # (d, m, m)
    B_hat: np.ndarray   # (d, m, m)
    c_hat: np.ndarray   # (m, m)

    def ellipticity_margin(self, mu: float) -> float:
        return ellipticity_margin(self.A_hat, mu)

    def coefficients(self, cs: CoefficientSet) -> CoefficientSet:
        """The homogenized operator L_0 as a coefficient set: ``cs`` with the
        constant tensors in place of A, V, B and c.  It keeps ``cs.mu`` and
        ``cs.kappa``, so its lambda threshold is that of ``cs``."""
        def const(t):
            return lambda y: np.broadcast_to(t, y.shape[:-1] + t.shape).copy()

        return replace(cs, A=const(self.A_hat), V=const(self.V_hat),
                       B=const(self.B_hat), c=const(self.c_hat))


@dataclass
class FluxCorrectorSet:
    grid: TorusGrid
    hats: HomogenizedCoefficients   # the cell means b, U, W, Z are taken against
    # largest |cell mean| of the remainders hat - coefficient - correction
    # before b, U, W, Z are centred: round-off when the hats are the
    # integrands' cell means
    remainder_mean: float
    b: np.ndarray          # (*shape, d, d, m, m)
    E: np.ndarray          # (*shape, d, d, d, m, m), E[l, i, j]
    U: np.ndarray          # (*shape, d, m, m)
    theta: np.ndarray      # (*shape, d, m, m)
    F: np.ndarray          # (*shape, d, d, m, m), F[k, i]
    W: np.ndarray          # (*shape, d, m, m)
    vartheta: np.ndarray   # (*shape, d, m, m)
    Z: np.ndarray          # (*shape, m, m)
    zeta: np.ndarray       # (*shape, m, m)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _cell_mean(v: np.ndarray, grid: TorusGrid) -> np.ndarray:
    return v.mean(axis=tuple(range(grid.d)))


# ---------------------------------------------------------------------------
# correctors
# ---------------------------------------------------------------------------

def _source_0(V: np.ndarray, grid: Grid) -> np.ndarray:
    """div(V e_beta) for all m columns beta, (*shape, m, m), on the torus or
    the box: the source of chi_0 and of Phi_{eps,0}."""
    return divergence(GridFunction(grid, np.moveaxis(V, -3, -1))).values


def _source_k(A: np.ndarray, k: int, grid: TorusGrid) -> np.ndarray:
    """-L(P_k e_beta) for all m columns beta, (*shape, m, m): fluxes of the
    affine fields with gradient e_k e_beta, with the operator's own
    stencils, so constant A gives exactly zero."""
    nd, h, ki = grid.d, grid.h, k - 1
    akk = _coef_block(A, nd, ki, ki)                      # (*shape, m, m)
    half = 0.5 * (akk + np.roll(akk, -1, axis=ki))
    rhs = (half - np.roll(half, 1, axis=ki)) / h
    for i in range(nd):
        if i == ki:
            continue
        rhs += _centered_periodic(_coef_block(A, nd, i, ki), i, h)
    return rhs


def solve_correctors(cs: CoefficientSet, grid: TorusGrid, tol: float = 1e-10) -> CorrectorSet:
    """All correctors chi_0, chi_1..chi_d on one grid, from one assembled
    operator: one solve per k = 0..d and column beta, driven by
    div(V e_beta) for k = 0 and by -L(P_k e_beta) for k >= 1."""
    if tol <= 0:
        raise CellError("tol must be positive")
    y = grid.points()
    A, V = cs.A(y), cs.V(y)
    blocks = coefficient_blocks(A)
    K = assemble(blocks, grid)

    def op(u):
        return (K @ u.ravel()).reshape(u.shape)

    scale = precond_scale(blocks, grid)
    # the torus operator -div(A grad .) is the principal part of L
    self_adjoint = cs.principal_part.self_adjoint
    chis, res = [], {}
    for k in range(cs.d + 1):
        chi = np.zeros(grid.shape + (cs.m, cs.m))
        src = _source_0(V, grid) if k == 0 else _source_k(A, k, grid)
        residuals = []
        for beta in range(cs.m):
            chi[..., :, beta], r = solve_periodic(op, src[..., :, beta], grid, tol=tol,
                                                  precond_scale=scale,
                                                  self_adjoint=self_adjoint)
            residuals.append(r)
        mean = np.abs(_cell_mean(chi, grid)).max()
        if mean > MEAN_TOL:
            raise CellError(f"chi{k} cell mean {mean:.2e} exceeds {MEAN_TOL}")
        chis.append(chi)
        res[f"chi{k}"] = max(residuals)
    return CorrectorSet(grid=grid, chi0=chis[0], chi=chis[1:], residuals=res)


# ---------------------------------------------------------------------------
# cell-flux integrands: homogenized coefficients and flux correctors
# ---------------------------------------------------------------------------

def _cell_fluxes(cs: CoefficientSet, correctors: CorrectorSet):
    """The four corrector-flux integrands on the cell lattice, each as its
    (coefficient, correction) pair, in the order A, V, B, c:

        a_ij + a_ik d_k chi_j,   V_i + a_ij d_j chi_0,
        B_i + B_j d_i chi_j,     c + B_i d_i chi_0.

    Their cell means are the homogenized tensors; their remainders against
    those means are the flux discrepancies b, U, W, Z.
    """
    y = correctors.grid.points()
    A, V, B, c = cs.A(y), cs.V(y), cs.B(y), cs.c(y)
    g0, gk = correctors.gradients()    # (*s, m, m, d), list of same
    grad_chi = np.stack(gk, axis=-4)   # grad_chi[..., j, a, b, k] = d_k chi_j^{ab}
    return [
        (A, np.einsum("...ikag,...jgbk->...ijab", A, grad_chi, optimize=True)),
        (V, np.einsum("...ijab,...bgj->...iag", A, g0, optimize=True)),
        (B, np.einsum("...jab,...ibgj->...iag", B, grad_chi, optimize=True)),
        (c, np.einsum("...iab,...bgi->...ag", B, g0, optimize=True)),
    ]


def _hats(fluxes, grid: TorusGrid) -> HomogenizedCoefficients:
    """Cell means of the ``_cell_fluxes`` integrands: A_hat the mean of the
    sum, the lower-order hats the sum of the two means."""
    (A, corr_a), *lower = fluxes
    V_hat, B_hat, c_hat = (_cell_mean(coef, grid) + _cell_mean(corr, grid)
                           for coef, corr in lower)
    return HomogenizedCoefficients(A_hat=_cell_mean(A + corr_a, grid),
                                   V_hat=V_hat, B_hat=B_hat, c_hat=c_hat)


def homogenize(cs: CoefficientSet, correctors: CorrectorSet) -> HomogenizedCoefficients:
    """Cell averages defining the constant-coefficient limit operator."""
    return _hats(_cell_fluxes(cs, correctors), correctors.grid)


def _centred(remainder: np.ndarray, grid: TorusGrid) -> tuple[np.ndarray, float]:
    """``remainder`` less its cell mean, and the largest |cell mean| removed."""
    return _mean_zero(remainder, grid.d), float(np.abs(_cell_mean(remainder, grid)).max())


def _curl(p: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """out[..., l, i, ...] = d_l p_i - d_i p_l for a potential p[..., i, ...],
    with the differences of ``gradient``, one pair (l, i) at a time, so that
    the full gradient of p is never held."""
    nd, h = grid.d, grid.h
    at = (slice(None),) * nd
    out = np.empty(p.shape[:nd] + (nd,) + p.shape[nd:])
    for l in range(nd):
        for i in range(nd):
            np.subtract(_centered_periodic(p[at + (i,)], l, h),
                        _centered_periodic(p[at + (l,)], i, h), out=out[at + (l, i)])
    return out


def build_flux_correctors(cs: CoefficientSet, correctors: CorrectorSet) -> FluxCorrectorSet:
    """The homogenized tensors and all flux potentials, from one pass over
    the integrands.

    The discrepancies b_ij = A_hat_ij - a_ij - a_ik d_k chi_j and their
    lower-order analogues U_i (V), W_i (B) and Z (c) have zero cell mean,
    because the hats are the cell means of the same integrands (``_hats``);
    ``remainder_mean`` records how far the uncentred remainders miss that,
    and each is then centred.  Each is represented by the zero-mean solution
    of Laplace(p) = discrepancy: pi_ij, theta_i, vartheta_i and zeta, with
    E_lij = d_l pi_ij - d_i pi_lj and F_ki = d_k theta_i - d_i theta_k.
    """
    grid = correctors.grid
    fluxes = _cell_fluxes(cs, correctors)
    hats = _hats(fluxes, grid)
    (b, U, W, Z), means = zip(*(_centred(hat - coef - corr, grid) for hat, (coef, corr) in
                                zip((hats.A_hat, hats.V_hat, hats.B_hat, hats.c_hat), fluxes)))
    # release the coefficient samples before the potentials, to keep peak RSS down
    del fluxes
    E = _curl(_poisson_components(b, grid), grid)
    theta = _poisson_components(U, grid)
    F = _curl(theta, grid)
    return FluxCorrectorSet(grid=grid, hats=hats, remainder_mean=max(means),
                            b=b, E=E, U=U, theta=theta, F=F,
                            W=W, vartheta=_poisson_components(W, grid), Z=Z,
                            zeta=_poisson_components(Z, grid))


def _poisson_components(src: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Solve Laplace(p) = src componentwise with zero mean (torus), exactly:
    the compact flux Laplacian is inverted in Fourier space."""
    flat = src.reshape(grid.shape + (-1,))
    out = np.empty_like(flat)
    for comp in range(flat.shape[-1]):
        out[..., comp] = poisson_periodic(-flat[..., comp], grid)
    return out.reshape(src.shape)

