"""Preconditioned Krylov solves for the periodic cell and box Dirichlet systems.

Both geometries admit an exact fast-Poisson inverse for the constant-
coefficient part (FFT on the torus, DST-I on the box interior), which is used
as the preconditioner for CG (``self_adjoint`` operators) or BiCGStab (general
ones).  A wrong choice costs time, not accuracy, because one driver runs
every solve and verifies the final relative residual itself (Krylov "success"
flags are not trusted); it returns that residual with the solution.

CG and BiCGStab are this module's own copies of scipy's loops, bit for bit,
so that a run loads neither ``scipy.sparse.linalg`` nor the LAPACK of
``scipy.linalg``; only the GMRES fallback imports scipy's, on its first call.

A preconditioner only has to be approximate, so its transforms run in
float32: the residual is cast down, transformed, multiplied by a float32
copy of the reciprocal symbol, transformed back and cast back.
``_spectral_solve`` holds this contract for both geometries; the two solves
pass it only their transform, symbol and right-hand side.  The operator, the
Krylov vectors, the GMRES fallback and the residual check stay float64.
``_krylov`` scales the right-hand side by an exact power of two (max |b| in
[0.5, 1)) and the solution back, so the float32 range never sees the scale
of the data.  ``poisson_periodic`` is an exact solve, not a preconditioner,
and stays float64.

The box DST-I is applied as a product with the dense sine matrix, one BLAS
GEMM per grid axis, when a grid axis has at most ``DENSE_DST_MAX`` = 127
interior points, and through ``scipy.fft.dstn`` above that; the rule,
``needs_scipy_fft``, reads the grid size alone.  The sine matrix is built
once per size and dtype and shared read-only.  The product costs
O(N^(d+1)) against the FFT's O(N^d log N), but on small axes BLAS wins: per
float32 transform on one BLAS thread, 0.43 against 0.98 ms at 47^3, 0.042
against 0.085 ms at 95^2 and 0.107 against 0.131 ms at 127^2, while at
255^2 it loses, 0.75 against 0.41 ms.  Both paths compute the same
unnormalised transform, so the reciprocal symbol is shared.  The float32
apply agrees with the float64 one to about 1.5e-6 relative on the product
path and 4e-7 on the FFT path.  The torus keeps ``rfftn`` on every size: a
dense real-Fourier basis measured slower at 96^2 x 2.

``scipy.fft`` (which also loads ``scipy.special``) is imported on first use,
by ``scipy_fft``: only a torus solve, ``poisson_periodic`` and a box above
the rule transform with it.  ``cli.parse_config`` calls ``scipy_fft`` for a
run whose grids ``needs_scipy_fft``, so the import lands in the set-up of
the runs that need it.  A run on small boxes only loads no scipy module at
all: this module imports none, and the box operator it solves with is
applied with numpy (``grid.assemble_box``).
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

from .grid import BoxGrid, TorusGrid

# Largest number of interior points per axis at which the box preconditioner
# applies its DST-I as a dense sine-matrix product (see the module docstring).
DENSE_DST_MAX = 127


def needs_scipy_fft(grid: TorusGrid | BoxGrid) -> bool:
    """Whether a solve on ``grid`` transforms with ``scipy.fft``: every torus
    grid (``rfftn``), and a box grid with more than ``DENSE_DST_MAX`` interior
    points per axis (``dstn``); smaller boxes take the sine-matrix product."""
    return isinstance(grid, TorusGrid) or grid.n - 1 > DENSE_DST_MAX


def scipy_fft():
    """The ``scipy.fft`` module, imported on the first call."""
    import scipy.fft

    return scipy.fft


class SolverError(RuntimeError):
    """Krylov non-convergence; carries the final relative residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (final relative residual {residual:.3e})")
        self.residual = residual


def _laplace_symbol(theta: np.ndarray, h: float, d: int) -> np.ndarray:
    """Eigenvalues of the compact 3-point -Laplacian on a d-dimensional
    lattice: the per-axis values (2 - 2 cos theta) / h^2 summed over axes."""
    lam1 = (2.0 - 2.0 * np.cos(theta)) / h ** 2
    sym = np.zeros((theta.size,) * d)
    for ax in range(d):
        shape = [1] * d
        shape[ax] = theta.size
        sym = sym + lam1.reshape(shape)
    return sym


def _mean_zero(v: np.ndarray, grid_axes: int) -> np.ndarray:
    axes = tuple(range(grid_axes))
    return v - v.mean(axis=axes, keepdims=True)


def _inverse_symbol_torus(grid: TorusGrid, scale: float) -> np.ndarray:
    """1 / (scale * symbol) of the torus -Laplacian over the half spectrum of
    ``scipy.fft.rfftn`` (last grid axis n//2 + 1), 0 at the constant mode."""
    nd = grid.d
    theta = 2.0 * np.pi * np.arange(grid.n) / grid.n   # the FFT modes
    sym = _laplace_symbol(theta, grid.h, nd)[..., : grid.n // 2 + 1]
    sym[(0,) * nd] = 1.0
    inv = 1.0 / (scale * sym)
    inv[(0,) * nd] = 0.0
    return inv


def _apply_inverse_torus(r: np.ndarray, inv: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """rfftn over the grid axes of ``r``, times ``inv`` (broadcast over any
    trailing component axes), and back, in the precision of ``r``."""
    fft, axes = scipy_fft(), tuple(range(grid.d))
    zhat = fft.rfftn(r, axes=axes)
    zhat *= inv
    return fft.irfftn(zhat, s=grid.shape, axes=axes, overwrite_x=True)


def _inverse_symbol_box(grid: BoxGrid, scale: float, lam: float) -> np.ndarray:
    """1 / ((scale * symbol + max(lam, 0)) (2n)^d) of the Dirichlet
    -Laplacian on the interior lattice: DST-I is its own inverse up to the
    factor (2n)^d, folded in here."""
    sym = _laplace_symbol(np.pi * np.arange(1, grid.n) / grid.n, grid.h, grid.d)
    return 1.0 / ((scale * sym + max(lam, 0.0)) * (2.0 * grid.n) ** grid.d)


def _sine_matrix(grid: BoxGrid, dtype) -> np.ndarray | None:
    """The DST-I of ``scipy.fft.dst(type=1)`` as a read-only matrix in
    ``dtype``, shared by every solve on a grid of the same n; None when the
    grid ``needs_scipy_fft``, which selects the ``scipy.fft.dstn`` path of
    ``_apply_inverse_box``."""
    if needs_scipy_fft(grid):
        return None
    return _dense_sine_matrix(grid.n, np.dtype(dtype))


@functools.lru_cache(maxsize=8)
def _dense_sine_matrix(n: int, dtype: np.dtype) -> np.ndarray:
    """S[j, k] = 2 sin(pi j k / n) for j, k = 1..n-1 (j k reduced mod 2n
    before the sine), in ``dtype``, not writeable; kept for the last 8
    (n, dtype) pairs, at most 128 KiB each."""
    j = np.arange(1, n)
    jk = np.outer(j, j) % (2 * n)
    S = (2.0 * np.sin(np.pi * jk / n)).astype(dtype)
    S.flags.writeable = False
    return S


def _dst_dense(x: np.ndarray, S: np.ndarray, nd: int) -> np.ndarray:
    """DST-I over the first ``nd`` axes of ``x`` as one GEMM per axis (a
    batched one for the middle axes); a trailing component axis stays in
    place inside the products."""
    N, shape = S.shape[0], x.shape
    for ax in range(nd):
        lead = N ** ax
        if ax == 0:
            x = S @ x.reshape(N, -1)
        elif x.size == lead * N:   # the last grid axis, no component axis after it
            x = x.reshape(-1, N) @ S   # S is symmetric
        else:
            x = np.matmul(S, x.reshape(lead, N, -1))
    return x.reshape(shape)


def _apply_inverse_box(r: np.ndarray, inv: np.ndarray, nd: int,
                       S: np.ndarray | None) -> np.ndarray:
    """DST-I over the first ``nd`` axes of ``r``, times ``inv`` (broadcast
    over any trailing component axes), and DST-I again, in the precision of
    ``r``: as products with the sine matrix ``S`` (``_sine_matrix``), or by
    ``scipy.fft.dstn`` when ``S`` is None."""
    if S is None:
        fft, axes = scipy_fft(), tuple(range(nd))
        rhat = fft.dstn(r, type=1, axes=axes)
        rhat *= inv
        return fft.dstn(rhat, type=1, axes=axes, overwrite_x=True)
    rhat = _dst_dense(r, S, nd)
    rhat *= inv
    return _dst_dense(rhat, S, nd)


def poisson_periodic(rhs: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Mean-zero x with -Laplace_h x = rhs - mean(rhs) on the torus, by FFT.

    Laplace_h is the compact flux Laplacian (the operator of identity
    coefficients); its symbol is inverted exactly, in float64, by
    ``_inverse_symbol_torus``, which sets the constant mode to zero.  ``rhs``
    has shape grid.shape.
    """
    return _apply_inverse_torus(rhs, _inverse_symbol_torus(grid, 1.0), grid)


def cg(A, b, *, rtol, atol, maxiter, M, callback=None):
    """Preconditioned conjugate gradients (Hestenes and Stiefel, 1952): the
    loop of ``scipy.sparse.linalg.cg`` (scipy 1.17) from x0 = 0, operation
    for operation, so its iterates match scipy's bit for bit.  ``A`` and
    ``M`` provide ``matvec``; returns (x, info) with info 0 on convergence,
    ||r|| < max(atol, rtol ||b||), and ``maxiter`` when the loop ran out."""
    bnrm2 = np.linalg.norm(b)
    atol = max(float(atol), float(rtol) * float(bnrm2))
    if bnrm2 == 0:
        return b, 0
    x = np.zeros_like(b)
    r = b.copy()
    for iteration in range(maxiter):
        if np.linalg.norm(r) < atol:
            return x, 0
        z = M.matvec(r)
        rho_cur = np.dot(r, z)
        if iteration > 0:
            p *= rho_cur / rho_prev
            p += z
        else:
            p = z.copy()
        q = A.matvec(p)
        alpha = rho_cur / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho_cur
        if callback:
            callback(x)
    return x, maxiter


def bicgstab(A, b, *, rtol, atol, maxiter, M, callback=None):
    """Preconditioned BiCGStab (van der Vorst, SIAM J. Sci. Stat. Comput. 13,
    1992): the loop of ``scipy.sparse.linalg.bicgstab`` (scipy 1.17) from
    x0 = 0, the same arithmetic in the same order, with the calling
    convention and return values of ``cg``.  info -10 and -11 report a rho
    and an omega breakdown below scipy's thresholds (eps^2, absolute)."""
    bnrm2 = np.linalg.norm(b)
    atol = max(float(atol), float(rtol) * float(bnrm2))
    if bnrm2 == 0:
        return b, 0
    breaktol = np.finfo(b.dtype.char).eps ** 2
    x = np.zeros_like(b)
    r = b.copy()
    rtilde = r.copy()
    for iteration in range(maxiter):
        if np.linalg.norm(r) < atol:
            return x, 0
        rho = np.dot(rtilde, r)
        if np.abs(rho) < breaktol:
            return x, -10
        if iteration > 0:
            if np.abs(omega) < breaktol:
                return x, -11
            beta = (rho / rho_prev) * (alpha / omega)
            p -= omega * v
            p *= beta
            p += r
        else:
            p = r.copy()
        phat = M.matvec(p)
        v = A.matvec(phat)
        rv = np.dot(rtilde, v)
        if rv == 0:
            return x, -11
        alpha = rho / rv
        r -= alpha * v   # scipy copies r into s here; r is used in its place
        if np.linalg.norm(r) < atol:
            x += alpha * phat
            return x, 0
        shat = M.matvec(r)
        t = A.matvec(shat)
        omega = np.dot(t, r) / np.dot(t, t)
        x += alpha * phat
        x += omega * shat
        r -= omega * t
        rho_prev = rho
        if callback:
            callback(x)
    return x, maxiter


def gmres(A, b, **kwargs):
    """``scipy.sparse.linalg.gmres``, imported on the first call: only the
    fallback of ``_krylov`` reaches it, and no other solve needs
    ``scipy.sparse.linalg`` or the LAPACK of ``scipy.linalg`` it loads.
    scipy wraps ``A`` and ``M`` (objects with shape, dtype and matvec) as
    LinearOperators itself."""
    from scipy.sparse.linalg import gmres as scipy_gmres

    return scipy_gmres(A, b, **kwargs)


def _krylov(matvec, precond, rhs: np.ndarray, *, self_adjoint: bool, tol: float,
            maxiter: int, what: str) -> tuple[np.ndarray, float]:
    """Solve matvec(x) = rhs, preconditioned by ``precond``, for x shaped like
    ``rhs``; returns x and its true relative residual ||A x - b|| / ||b||.

    The Krylov method solves for b = rhs * 2^-e, with 2^e the power of two
    that puts max |b| in [0.5, 1), and x is scaled back by 2^e.  Both scalings
    are exact, so solving for 2^k rhs returns 2^k x bit for bit; a float32
    preconditioner apply neither underflows nor overflows, and the breakdown
    thresholds of ``bicgstab``, which are absolute, see data of unit size.

    CG (``self_adjoint``) or BiCGStab runs first.  A non-finite true residual
    raises SolverError at once.  When the residual exceeds 10 tol, GMRES
    restarts from the iterate; when that residual is still not within 10 tol,
    SolverError carries it.  ``cg``, ``bicgstab`` and
    ``gmres`` are looked up in this module at call time, so whatever rebinds
    them here (instrumentation, tests) sees every solve.
    """
    size = rhs.size
    A = SimpleNamespace(shape=(size, size), dtype=np.dtype(float), matvec=matvec)
    M = SimpleNamespace(shape=(size, size), dtype=np.dtype(float), matvec=precond)
    bmax = np.max(np.abs(rhs))
    if bmax == 0.0:
        return np.zeros(rhs.shape), 0.0
    exponent = int(np.frexp(bmax)[1])
    b = np.ldexp(rhs.ravel(), -exponent)
    bnorm = np.linalg.norm(b)
    krylov = cg if self_adjoint else bicgstab
    x, _ = krylov(A, b, rtol=tol, atol=0.0, maxiter=maxiter, M=M)
    res = np.linalg.norm(A.matvec(x) - b) / bnorm
    if not np.isfinite(res):   # a NaN compares False against any bound
        raise SolverError(f"{what} broke down", res)
    if res > 10 * tol:
        x, _ = gmres(A, b, rtol=tol, atol=0.0, maxiter=maxiter, restart=100, M=M, x0=x)
        res = np.linalg.norm(A.matvec(x) - b) / bnorm
        if not res <= 10 * tol:
            raise SolverError(f"{what} did not converge", res)
    return np.ldexp(x, exponent).reshape(rhs.shape), float(res)


def _spectral_solve(apply_op, apply_inverse, inv: np.ndarray, rhs: np.ndarray,
                    nd: int, **krylov) -> tuple[np.ndarray, float]:
    """``_krylov`` on apply_op(x) = rhs with a float32 spectral preconditioner:
    the residual is cast down, ``apply_inverse`` transforms it, multiplies by
    the float32 copy of the reciprocal symbol ``inv`` (broadcast over the axes
    after the first ``nd``) and transforms back, and the result is cast back."""
    shape = rhs.shape
    inv = inv.astype(np.float32).reshape(inv.shape + (1,) * (len(shape) - nd))

    def matvec(x):
        return apply_op(x.reshape(shape)).ravel()

    def precond(r):
        z = apply_inverse(r.reshape(shape).astype(np.float32), inv)
        return z.astype(np.float64).ravel()

    return _krylov(matvec, precond, rhs, **krylov)


def solve_periodic(apply_op, rhs: np.ndarray, grid: TorusGrid, *,
                   tol: float = 1e-10, maxiter: int | None = None,
                   precond_scale: float = 1.0,
                   self_adjoint: bool = True) -> tuple[np.ndarray, float]:
    """Solve apply_op(x) = rhs on the torus in the mean-zero subspace.

    ``apply_op`` maps full-shape arrays (grid.shape + comp) to same-shape
    arrays.  It must annihilate constants and have a mean-zero range per
    component, as the periodic divergence-form operator
    (``grid.assemble_torus``) does up to round-off; the Krylov iteration
    therefore applies it unprojected.  The rhs is projected onto mean-zero
    once; the solution comes back mean-zero per component, with the relative
    residual of the unprojected operator against the projected rhs.
    """
    nd = grid.d
    if maxiter is None:
        maxiter = max(200, int(20 * grid.n ** (grid.d / 2)))
    x, res = _spectral_solve(apply_op, lambda r, inv: _apply_inverse_torus(r, inv, grid),
                             _inverse_symbol_torus(grid, precond_scale),
                             _mean_zero(rhs, nd), nd, self_adjoint=self_adjoint,
                             tol=tol, maxiter=maxiter, what="periodic cell solve")
    return _mean_zero(x, nd), res


def solve_box_dirichlet(apply_interior, rhs_interior: np.ndarray, grid: BoxGrid, *,
                        lam: float = 0.0, tol: float = 1e-10,
                        maxiter: int | None = None, precond_scale: float = 1.0,
                        self_adjoint: bool = True) -> tuple[np.ndarray, float]:
    """Solve the interior system of a Dirichlet problem on a box.

    ``apply_interior`` maps arrays shaped (n-1)^d + comp (interior points,
    homogeneous boundary implied) to the operator action at interior points.
    The preconditioner is the inverse of precond_scale * (-Laplace_h)
    + max(lam, 0) via DST-I, exact up to float32 rounding.  Returns the
    solution and its relative residual.
    """
    nd = grid.d
    S = _sine_matrix(grid, np.float32)
    if maxiter is None:
        maxiter = max(200, 50 * grid.n)
    return _spectral_solve(apply_interior, lambda r, inv: _apply_inverse_box(r, inv, nd, S),
                           _inverse_symbol_box(grid, precond_scale, lam), rhs_interior,
                           nd, self_adjoint=self_adjoint, tol=tol, maxiter=maxiter,
                           what="box Dirichlet solve")
