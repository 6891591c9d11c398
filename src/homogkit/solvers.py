"""Preconditioned Krylov solves for the periodic cell and box Dirichlet systems.

Both geometries admit an exact fast-Poisson inverse for the constant-
coefficient part (FFT on the torus, DST-I on the box interior), which is used
as the preconditioner for CG (symmetric coefficient sets) or BiCGStab
(general ones).  All solves verify the final relative residual themselves;
Krylov "success" flags are not trusted.
"""

from __future__ import annotations

import numpy as np
import scipy.fft
from scipy.sparse.linalg import LinearOperator, bicgstab, cg, gmres

from .grid import BoxGrid, TorusGrid


class SolverError(RuntimeError):
    """Krylov non-convergence; carries the final relative residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (final relative residual {residual:.3e})")
        self.residual = residual


def _laplace_symbol_torus(grid: TorusGrid) -> np.ndarray:
    """Eigenvalues of the compact 3-point -Laplacian on the torus lattice."""
    k = np.arange(grid.n)
    lam1 = (2.0 - 2.0 * np.cos(2.0 * np.pi * k / grid.n)) / grid.h ** 2
    sym = np.zeros(grid.shape)
    for ax in range(grid.d):
        shape = [1] * grid.d
        shape[ax] = grid.n
        sym = sym + lam1.reshape(shape)
    return sym


def _laplace_symbol_box(grid: BoxGrid) -> np.ndarray:
    """Eigenvalues of the Dirichlet -Laplacian on the interior lattice (DST-I)."""
    k = np.arange(1, grid.n)
    lam1 = (2.0 - 2.0 * np.cos(np.pi * k / grid.n)) / grid.h ** 2
    sym = np.zeros((grid.n - 1,) * grid.d)
    for ax in range(grid.d):
        shape = [1] * grid.d
        shape[ax] = grid.n - 1
        sym = sym + lam1.reshape(shape)
    return sym


def _mean_zero(v: np.ndarray, grid_axes: int) -> np.ndarray:
    axes = tuple(range(grid_axes))
    return v - v.mean(axis=axes, keepdims=True)


def poisson_periodic(rhs: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Mean-zero x with -Laplace_h x = rhs - mean(rhs) on the torus, by FFT.

    Laplace_h is the compact flux Laplacian (the operator of identity
    coefficients); its symbol ``_laplace_symbol_torus`` is inverted exactly
    and the constant mode is set to zero.  ``rhs`` has shape grid.shape.
    """
    nd = grid.d
    sym = _laplace_symbol_torus(grid)[..., : grid.n // 2 + 1]
    sym[(0,) * nd] = 1.0
    xhat = np.fft.rfftn(rhs) / sym
    xhat[(0,) * nd] = 0.0
    return np.fft.irfftn(xhat, s=grid.shape, axes=tuple(range(nd)))


def solve_periodic(apply_op, rhs: np.ndarray, grid: TorusGrid, *,
                   tol: float = 1e-10, maxiter: int | None = None,
                   precond_scale: float = 1.0, symmetric: bool = True,
                   x0: np.ndarray | None = None) -> np.ndarray:
    """Solve apply_op(x) = rhs on the torus in the mean-zero subspace.

    ``apply_op`` maps full-shape arrays (grid.shape + comp) to same-shape
    arrays and must annihilate constants (the periodic divergence-form
    operator does).  The rhs is projected onto mean-zero; the solution comes
    back mean-zero per component.
    """
    shape = rhs.shape
    nd = grid.d
    rhs = _mean_zero(rhs, nd)
    size = rhs.size
    sym = _laplace_symbol_torus(grid)
    sym_safe = sym.copy()
    sym_safe.flat[0] = 1.0  # zero mode handled by projection

    comp_shape = shape[nd:]

    def matvec(x):
        arr = _mean_zero(x.reshape(shape), nd)
        out = apply_op(arr)
        return _mean_zero(out, nd).ravel()

    def precond(r):
        arr = r.reshape(shape)
        rhat = np.fft.fftn(arr, axes=tuple(range(nd)))
        denom = (precond_scale * sym_safe).reshape(sym.shape + (1,) * len(comp_shape))
        zhat = rhat / denom
        # kill the constant mode
        zhat[(0,) * nd] = 0.0
        z = np.real(np.fft.ifftn(zhat, axes=tuple(range(nd))))
        return z.ravel()

    A = LinearOperator((size, size), matvec=matvec)
    M = LinearOperator((size, size), matvec=precond)
    b = rhs.ravel()
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(shape)
    if maxiter is None:
        maxiter = max(200, int(20 * grid.n ** (grid.d / 2)))
    x0v = None if x0 is None else _mean_zero(np.asarray(x0, float).reshape(shape), nd).ravel()
    krylov = cg if symmetric else bicgstab
    x, _ = krylov(A, b, rtol=tol, atol=0.0, maxiter=maxiter, M=M, x0=x0v)
    res = np.linalg.norm(A @ x - b) / bnorm
    if res > 10 * tol:
        x, _ = gmres(A, b, rtol=tol, atol=0.0, maxiter=maxiter, restart=100, M=M, x0=x)
        res = np.linalg.norm(A @ x - b) / bnorm
        if res > 10 * tol:
            raise SolverError("periodic cell solve did not converge", res)
    return _mean_zero(x.reshape(shape), nd)


def solve_box_dirichlet(apply_interior, rhs_interior: np.ndarray, grid: BoxGrid, *,
                        lam: float = 0.0, tol: float = 1e-10,
                        maxiter: int | None = None, precond_scale: float = 1.0,
                        symmetric: bool = True,
                        x0: np.ndarray | None = None) -> np.ndarray:
    """Solve the interior system of a Dirichlet problem on a box.

    ``apply_interior`` maps arrays shaped (n-1)^d + comp (interior points,
    homogeneous boundary implied) to the operator action at interior points.
    The preconditioner is the exact inverse of precond_scale * (-Laplace_h)
    + max(lam, 0) via DST-I.
    """
    shape = rhs_interior.shape
    nd = grid.d
    size = rhs_interior.size
    comp_shape = shape[nd:]
    sym = _laplace_symbol_box(grid)
    denom = (precond_scale * sym + max(lam, 0.0)).reshape(sym.shape + (1,) * len(comp_shape))
    dst_axes = tuple(range(nd))
    # DST-I is its own inverse up to the factor (2n)^d
    dst_norm = (2.0 * grid.n) ** nd

    def matvec(x):
        return apply_interior(x.reshape(shape)).ravel()

    def precond(r):
        arr = r.reshape(shape)
        rhat = scipy.fft.dstn(arr, type=1, axes=dst_axes)
        z = scipy.fft.dstn(rhat / denom, type=1, axes=dst_axes) / dst_norm
        return z.ravel()

    A = LinearOperator((size, size), matvec=matvec)
    M = LinearOperator((size, size), matvec=precond)
    b = rhs_interior.ravel()
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(shape)
    if maxiter is None:
        maxiter = max(200, 50 * grid.n)
    x0v = None if x0 is None else np.asarray(x0, float).ravel()
    krylov = cg if symmetric else bicgstab
    x, _ = krylov(A, b, rtol=tol, atol=0.0, maxiter=maxiter, M=M, x0=x0v)
    res = np.linalg.norm(A @ x - b) / bnorm
    if res > 10 * tol:
        x, _ = gmres(A, b, rtol=tol, atol=0.0, maxiter=maxiter, restart=100, M=M, x0=x)
        res = np.linalg.norm(A @ x - b) / bnorm
        if res > 10 * tol:
            raise SolverError("box Dirichlet solve did not converge", res)
    return x.reshape(shape)
