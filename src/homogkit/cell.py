"""Periodic cell problems: correctors, effective coefficients, flux potentials.

Everything here lives on the unit torus.  The corrector chi_k (k = 1..d)
solves the cell problem driven by the coordinate monomial P_k, chi_0 the one
driven by div(V); the four effective tensors are cell averages of the
coefficient-plus-corrector-flux integrands; the flux discrepancy fields
(b, U, W, Z) are represented through antisymmetric potentials (E, F) and
auxiliary zero-mean Poisson solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSet
from .grid import TorusGrid, _coef_block, assemble_torus, precond_scale
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

    @property
    def d(self) -> int:
        return self.grid.d

    @property
    def m(self) -> int:
        return self.chi0.shape[-1]

    def gradients(self):
        """Centered periodic gradients: grad_chi0 (*shape, m, m, d) and the
        list for chi_k."""
        return _torus_gradient(self.chi0, self.grid), [
            _torus_gradient(ck, self.grid) for ck in self.chi
        ]


@dataclass
class HomogenizedCoefficients:
    A_hat: np.ndarray   # (d, d, m, m)
    V_hat: np.ndarray   # (d, m, m)
    B_hat: np.ndarray   # (d, m, m)
    c_hat: np.ndarray   # (m, m)

    @property
    def d(self) -> int:
        return self.A_hat.shape[0]

    @property
    def m(self) -> int:
        return self.A_hat.shape[-1]

    def ellipticity_margin(self, mu: float) -> float:
        from .coefficients import _probe_directions

        margin = np.inf
        for xi in _probe_directions(self.d, self.m):
            quad = float(np.einsum("ijab,ia,jb->", self.A_hat, xi, xi))
            margin = min(margin, quad - mu * float(np.sum(xi ** 2)))
        return margin


@dataclass
class FluxCorrectorSet:
    grid: TorusGrid
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

def _torus_gradient(v: np.ndarray, grid: TorusGrid) -> np.ndarray:
    parts = [
        (np.roll(v, -1, axis=ax) - np.roll(v, 1, axis=ax)) / (2.0 * grid.h)
        for ax in range(grid.d)
    ]
    return np.stack(parts, axis=-1)


def _cell_mean(v: np.ndarray, grid: TorusGrid) -> np.ndarray:
    return v.mean(axis=tuple(range(grid.d)))


# ---------------------------------------------------------------------------
# correctors
# ---------------------------------------------------------------------------

def _cell_operator(cs: CoefficientSet, grid: TorusGrid):
    """A on the cell lattice and the matvec of its assembled -div(A grad .)."""
    A = cs.A(grid.points())
    K = assemble_torus(A, grid)
    return A, lambda u: (K @ u.ravel()).reshape(u.shape)


def _source_k(A: np.ndarray, k: int, grid: TorusGrid, beta: int) -> np.ndarray:
    """-L(P_k e_beta): fluxes of the affine field with gradient e_k e_beta,
    with the operator's own stencils, so constant A gives exactly zero."""
    nd, h, ki = grid.d, grid.h, k - 1
    akk = _coef_block(A, nd, ki, ki)[..., :, beta]        # (*shape, m)
    half = 0.5 * (akk + np.roll(akk, -1, axis=ki))
    rhs = (half - np.roll(half, 1, axis=ki)) / h
    for i in range(nd):
        if i == ki:
            continue
        aik = _coef_block(A, nd, i, ki)[..., :, beta]
        rhs += (np.roll(aik, -1, axis=i) - np.roll(aik, 1, axis=i)) / (2.0 * h)
    return rhs


def _source_0(V: np.ndarray, grid: TorusGrid, beta: int) -> np.ndarray:
    """div(V e_beta) with centered differences."""
    rhs = np.zeros(grid.shape + (V.shape[-1],))
    for i in range(grid.d):
        vi = V[..., i, :, beta]
        rhs += (np.roll(vi, -1, axis=i) - np.roll(vi, 1, axis=i)) / (2.0 * grid.h)
    return rhs


def _solve_cell(cs: CoefficientSet, grid: TorusGrid, tol: float, A: np.ndarray,
                op, sources: list[np.ndarray]) -> tuple[np.ndarray, float]:
    """Column beta of the corrector solves op(chi[..., :, beta]) = sources[beta]
    with zero mean; returns the corrector and the worst relative residual."""
    scale = precond_scale(A, grid)
    chi = np.zeros(grid.shape + (cs.m, cs.m))
    residuals = []
    for beta, rhs in enumerate(sources):
        chi[..., :, beta], res = solve_periodic(op, rhs, grid, tol=tol,
                                                precond_scale=scale,
                                                symmetric=cs.symmetric)
        residuals.append(res)
    return chi, max(residuals)


def _check_tol(tol: float) -> None:
    if tol <= 0:
        raise CellError("tol must be positive")


def solve_corrector_k(cs: CoefficientSet, k: int, grid: TorusGrid,
                      tol: float = 1e-10) -> tuple[np.ndarray, float]:
    """Solve the cell problem for chi_k, 1 <= k <= d.

    The driving term is the discrete divergence of the flux of the coordinate
    monomial P_k, written with exactly the same stencils as the operator so
    that constant coefficients give chi_k = 0 identically.

    Returns (chi_k, residual) with chi_k of shape (*grid.shape, m, m) and the
    relative residual of the discrete equation.
    """
    if not 1 <= k <= cs.d:
        raise CellError(f"k must be in 1..{cs.d}, got {k}")
    _check_tol(tol)
    A, op = _cell_operator(cs, grid)
    return _solve_cell(cs, grid, tol, A, op,
                       [_source_k(A, k, grid, beta) for beta in range(cs.m)])


def solve_corrector_0(cs: CoefficientSet, grid: TorusGrid,
                      tol: float = 1e-10) -> tuple[np.ndarray, float]:
    """Solve the cell problem for chi_0 with source div(V), zero cell mean."""
    _check_tol(tol)
    A, op = _cell_operator(cs, grid)
    V = cs.V(grid.points())
    return _solve_cell(cs, grid, tol, A, op,
                       [_source_0(V, grid, beta) for beta in range(cs.m)])


def solve_correctors(cs: CoefficientSet, grid: TorusGrid, tol: float = 1e-10) -> CorrectorSet:
    """All correctors chi_0, chi_1..chi_d on one grid, from one assembled
    operator."""
    _check_tol(tol)
    A, op = _cell_operator(cs, grid)
    V = cs.V(grid.points())
    chi0, r0 = _solve_cell(cs, grid, tol, A, op,
                           [_source_0(V, grid, beta) for beta in range(cs.m)])
    chis = []
    res = {"chi0": r0}
    for k in range(1, cs.d + 1):
        ck, rk = _solve_cell(cs, grid, tol, A, op,
                             [_source_k(A, k, grid, beta) for beta in range(cs.m)])
        chis.append(ck)
        res[f"chi{k}"] = rk
    out = CorrectorSet(grid=grid, chi0=chi0, chi=chis, residuals=res)
    for name, arr in [("chi0", chi0)] + [(f"chi{k+1}", c) for k, c in enumerate(chis)]:
        mean = np.abs(_cell_mean(arr, grid)).max()
        if mean > MEAN_TOL:
            raise CellError(f"{name} cell mean {mean:.2e} exceeds {MEAN_TOL}")
    return out


# ---------------------------------------------------------------------------
# homogenized coefficients
# ---------------------------------------------------------------------------

def homogenize(cs: CoefficientSet, correctors: CorrectorSet) -> HomogenizedCoefficients:
    """Cell averages defining the constant-coefficient limit operator."""
    grid = correctors.grid
    y = grid.points()
    A = cs.A(y)
    V = cs.V(y)
    B = cs.B(y)
    c = cs.c(y)
    g0, gk = correctors.gradients()   # (*s, m, m, d), list of same

    # A_hat_ij^{ab} = <a_ij^{ab} + a_ik^{ag} d_k chi_j^{gb}>
    grad_chi = np.stack(gk, axis=-4)  # (*s, d_j, m, m, d_k)
    A_hat = _homog_a(A, grad_chi, grid)
    V_hat = _cell_mean(V, grid) + _cell_mean(
        np.einsum("...ijab,...bgj->...iag", A, g0, optimize=True), grid)
    B_hat = _cell_mean(B, grid) + _cell_mean(
        np.einsum("...jab,...ibgj->...iag", B, grad_chi, optimize=True), grid)
    c_hat = _cell_mean(c, grid) + _cell_mean(
        np.einsum("...iab,...bgi->...ag", B, g0, optimize=True), grid)
    return HomogenizedCoefficients(A_hat=A_hat, V_hat=V_hat, B_hat=B_hat, c_hat=c_hat)


def _homog_a(A: np.ndarray, grad_chi: np.ndarray, grid: TorusGrid) -> np.ndarray:
    # grad_chi[..., j, a, b, k] = d_k chi_j^{ab}
    corr = np.einsum("...ikag,...jgbk->...ijab", A, grad_chi, optimize=True)
    return _cell_mean(A + corr, grid)


# ---------------------------------------------------------------------------
# flux correctors
# ---------------------------------------------------------------------------

def flux_correctors(cs: CoefficientSet, correctors: CorrectorSet,
                    A_hat: np.ndarray):
    """Antisymmetric potential E for the principal flux discrepancy b.

    b_ij = A_hat_ij - a_ij - a_ik d_k chi_j has zero cell mean (exactly, by
    the quadrature defining A_hat); pi_ij solves Laplace(pi_ij) = b_ij with
    zero mean and E_lij = d_l pi_ij - d_i pi_lj.
    """
    grid = correctors.grid
    y = grid.points()
    A = cs.A(y)
    _, gk = correctors.gradients()
    grad_chi = np.stack(gk, axis=-4)
    corr = np.einsum("...ikag,...jgbk->...ijab", A, grad_chi, optimize=True)
    b = A_hat - A - corr
    mean_b = np.abs(_cell_mean(b, grid)).max()
    if mean_b > 1e-6:
        raise CellError(
            f"flux discrepancy b has cell mean {mean_b:.2e}; upstream correctors inaccurate"
        )
    b = _mean_zero(b, grid.d)
    pi = _poisson_components(b, grid)
    d = grid.d
    dpi = _torus_gradient(pi, grid)   # (*s, d_i, d_j, m, m, d_l)
    E = np.empty(grid.shape + (d, d, d) + b.shape[grid.d + 2:])
    for l in range(d):
        for i in range(d):
            for j in range(d):
                E[..., l, i, j, :, :] = dpi[..., i, j, :, :, l] - dpi[..., l, j, :, :, i]
    return b, E


def lower_flux_correctors(cs: CoefficientSet, correctors: CorrectorSet,
                          hats: HomogenizedCoefficients):
    """Potentials for the lower-order flux discrepancies.

    U_i = V_hat_i - V_i - a_ij d_j chi_0, with Laplace(theta_i) = U_i and
    F_ki = d_k theta_i - d_i theta_k; W_i and Z are the B / c analogues with
    auxiliary potentials vartheta_i and zeta.
    """
    grid = correctors.grid
    y = grid.points()
    A = cs.A(y)
    V = cs.V(y)
    B = cs.B(y)
    c = cs.c(y)
    g0, gkl = correctors.gradients()
    grad_chi = np.stack(gkl, axis=-4)

    U = hats.V_hat - V - np.einsum("...ijab,...bgj->...iag", A, g0, optimize=True)
    W = hats.B_hat - B - np.einsum("...jab,...ibgj->...iag", B, grad_chi, optimize=True)
    Z = hats.c_hat - c - np.einsum("...iab,...bgi->...ag", B, g0, optimize=True)

    for name, fld in (("U", U), ("W", W), ("Z", Z)):
        mean = np.abs(_cell_mean(fld, grid)).max()
        if mean > 1e-6:
            raise CellError(f"solvability violated: cell mean of {name} is {mean:.2e}")
    U = _mean_zero(U, grid.d)
    W = _mean_zero(W, grid.d)
    Z = _mean_zero(Z, grid.d)

    theta = _poisson_components(U, grid)
    vartheta = _poisson_components(W, grid)
    zeta = _poisson_components(Z, grid)

    d = grid.d
    dtheta = _torus_gradient(theta, grid)  # (*s, d_i, m, m, d_k)
    F = np.empty(grid.shape + (d, d) + U.shape[grid.d + 1:])
    for k in range(d):
        for i in range(d):
            F[..., k, i, :, :] = dtheta[..., i, :, :, k] - dtheta[..., k, :, :, i]
    return U, theta, F, W, vartheta, Z, zeta


def build_flux_correctors(cs: CoefficientSet, correctors: CorrectorSet,
                          hats: HomogenizedCoefficients, tol: float = 1e-10) -> FluxCorrectorSet:
    """All flux potentials.  ``tol`` is kept for callers that pass the run
    tolerance; the Poisson solves behind the potentials are direct."""
    b, E = flux_correctors(cs, correctors, hats.A_hat)
    U, theta, F, W, vartheta, Z, zeta = lower_flux_correctors(cs, correctors, hats)
    return FluxCorrectorSet(grid=correctors.grid, b=b, E=E, U=U, theta=theta,
                            F=F, W=W, vartheta=vartheta, Z=Z, zeta=zeta)


def _poisson_components(src: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Solve Laplace(p) = src componentwise with zero mean (torus), exactly:
    the compact flux Laplacian is inverted in Fourier space."""
    flat = src.reshape(grid.shape + (-1,))
    out = np.empty_like(flat)
    for comp in range(flat.shape[-1]):
        out[..., comp] = poisson_periodic(-flat[..., comp], grid)
    return out.reshape(src.shape)


def divergence_centered(field: np.ndarray, grid: TorusGrid, axis_index: int) -> np.ndarray:
    """Centered discrete divergence contracting the axis ``axis_index`` that
    enumerates the d flux directions (used by identity tests)."""
    d = grid.d
    out = np.zeros(tuple(np.delete(np.array(field.shape), axis_index)))
    for l in range(d):
        comp = np.take(field, l, axis=axis_index)
        out += (np.roll(comp, -1, axis=l) - np.roll(comp, 1, axis=l)) / (2.0 * grid.h)
    return out
