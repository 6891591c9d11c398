"""Reference code that only the tests call.

``box_precond_float64`` and ``torus_precond_float64`` are the preconditioner
closures of ``solve_box_dirichlet`` and ``solve_periodic`` with every
transform in float64, the oracles against which the solves with the
single-precision preconditioners are compared.  ``divergence_centered``,
``divergence_box_sum`` and ``divergence_box_loop`` are the discrete
divergences that the cell source, the Dirichlet corrector source and the box
load summed by hand before ``grid.divergence``.  ``phi_inverse``,
``boundary_weighted_ratio`` and ``triangle_defects`` check paper bounds on
the objects a run computes; no run reports them.  ``validate`` and its three
checks test a coefficient set's declared structure constants, and
``bilinear_energy`` and ``inner`` are the quadrature pairings against which
``grid.principal_part_apply`` is tested; no run calls them.
``poisson_kernel_boundary_rep`` is the discrete Poisson kernel, which checks
the adjoint Green columns against solves with boundary data.
``scipy_interior`` and ``scipy_boundary`` rebuild the box operator's blocks
as ``scipy.sparse`` arrays from their stored arrays, and ``torus_csr`` the
torus operator from its blocks: the products they are tested against, and
the transposes and dense forms the assembly tests read.
``torus_csr_array`` is the torus assembly as it was when the torus operator
was a CSR array.
"""

from __future__ import annotations

import numpy as np
import scipy.fft
from scipy import sparse

from homogkit.bvp import sample_coefficients
from homogkit.coefficients import CoefficientError, CoefficientSet, ellipticity_margin
from homogkit.grid import (GridError, TorusGrid, _centered_box,
                           _centered_periodic, _coef_block, _component_matvec,
                           _cross_pairs, _flux_stencil, _shifted, _stencil_offsets)
from homogkit.green import GreenError, GreenSample, point_boundary_distance
from homogkit.rates import ConvergenceReport


def scipy_interior(K_ii) -> sparse.dia_array:
    """K_ii (``grid.Diagonals``) as the DIA array of its data and offsets."""
    return sparse.dia_array((K_ii.data, K_ii.offsets), shape=K_ii.shape)


def scipy_boundary(K_ib) -> sparse.csr_array:
    """K_ib (``grid.Triplets``) as the CSR array of its triplets."""
    return sparse.csr_array((K_ib.vals, (K_ib.rows, K_ib.cols)), shape=K_ib.shape)


def torus_csr(K) -> sparse.csr_array:
    """A torus operator (``grid.TorusStencil``) as the CSR array of its
    entries: row (p, a) holds the columns (p + offsets[k], b), ordered by b,
    then k, as the product adds them."""
    m, nk = K.blocks.shape[:2]
    d, n = K.blocks.ndim - 3, K.blocks.shape[-1] - 2
    npts = n ** d
    entries = K.blocks[(slice(None),) * 3 + (slice(1, -1),) * d].reshape(m, nk, m, npts)
    data = np.ascontiguousarray(entries.transpose(3, 2, 0, 1))   # [p, a, b, k]
    point = np.arange(npts, dtype=np.int32).reshape((n,) * d)
    nbr = np.stack([np.roll(point, [-k for k in s], axis=tuple(range(d))).ravel()
                    for s in K.offsets], axis=1)
    comp = np.arange(m, dtype=np.int32)[:, None]
    indices = np.broadcast_to(m * nbr[:, None, None, :] + comp, data.shape)
    indptr = np.arange(0, data.size + 1, m * nk, dtype=np.int32)
    return sparse.csr_array((data.ravel(), indices.ravel(), indptr), shape=K.shape)


def torus_csr_array(A: np.ndarray, grid: TorusGrid) -> sparse.csr_array:
    """The CSR array that ``grid.assemble_torus`` built for every torus:
    row (p, a) holds the columns (nbr[p, k], b), ordered by b, then k."""
    d, n, m = grid.d, grid.n, A.shape[-1]
    npts = grid.npoints
    pairs = _cross_pairs(A)
    offsets = _stencil_offsets(d, pairs)
    slot = {s: k for k, s in enumerate(offsets)}
    wrap = [(1, 1)] * d
    A = np.pad(A, wrap + [(0, 0)] * 4, mode="wrap")
    point = np.pad(np.arange(npts, dtype=np.int32).reshape(grid.shape), wrap, mode="wrap")
    data = np.empty((npts, m, m, len(offsets)))
    nbr = np.empty((npts, len(offsets)), dtype=np.int32)
    for s, blk in _flux_stencil(A, None, None, None, 0.0, grid.h, n, pairs):
        data[..., slot[s]] = blk.reshape(npts, m, m)
        nbr[:, slot[s]] = _shifted(point, s, n).ravel()
    comp = np.arange(m, dtype=np.int32)[:, None]
    indices = np.broadcast_to(m * nbr[:, None, None, :] + comp, data.shape)
    indptr = np.arange(0, data.size + 1, m * len(offsets), dtype=np.int32)
    return sparse.csr_array((data.ravel(), indices.ravel(), indptr),
                            shape=(npts * m, npts * m))


def laplace_symbol(theta: np.ndarray, h: float, d: int) -> np.ndarray:
    """Sum over the d axes of (2 - 2 cos theta) / h^2 on the tensor lattice of
    ``theta``: the -Laplacian's eigenvalues, built independently of ``src``."""
    lam1 = (2.0 - 2.0 * np.cos(theta)) / h ** 2
    return sum(lam1.reshape([-1 if k == ax else 1 for k in range(d)])
               for ax in range(d)) * np.ones((theta.size,) * d)


def box_precond_float64(shape, grid, scale: float, lam: float):
    """DST-I, times 1 / ((scale * symbol + max(lam, 0)) (2n)^d), DST-I, all in
    float64, for flat residuals of arrays shaped ``shape`` = (n-1)^d + comp."""
    nd = grid.d
    sym = laplace_symbol(np.pi * np.arange(1, grid.n) / grid.n, grid.h, nd)
    inv = 1.0 / ((scale * sym + max(lam, 0.0)) * (2.0 * grid.n) ** nd)
    inv = inv.reshape(sym.shape + (1,) * (len(shape) - nd))
    axes = tuple(range(nd))

    def precond(r):
        rhat = scipy.fft.dstn(r.reshape(shape), type=1, axes=axes)
        rhat *= inv
        return scipy.fft.dstn(rhat, type=1, axes=axes, overwrite_x=True).ravel()
    return precond


def torus_precond_float64(shape, grid, scale: float):
    """rfftn, times 1 / (scale * symbol) (0 at the constant mode), irfftn, all
    in float64, for flat residuals of arrays shaped ``shape`` = grid.shape + comp."""
    nd = grid.d
    sym = laplace_symbol(2.0 * np.pi * np.arange(grid.n) / grid.n, grid.h, nd)
    sym = sym[..., : grid.n // 2 + 1]
    sym[(0,) * nd] = 1.0
    inv = 1.0 / (scale * sym)
    inv[(0,) * nd] = 0.0
    inv = inv.reshape(inv.shape + (1,) * (len(shape) - nd))
    axes = tuple(range(nd))

    def precond(r):
        zhat = scipy.fft.rfftn(r.reshape(shape), axes=axes)
        zhat *= inv
        return scipy.fft.irfftn(zhat, s=grid.shape, axes=axes, overwrite_x=True).ravel()
    return precond


KAPPA_LATTICE = 64   # per-axis density of the sup-norm maximization behind kappa


def check_ellipticity(cs) -> float:
    """``ellipticity_margin`` of A over the validation lattice; negative
    means the declared mu is invalid."""
    return ellipticity_margin(cs.A(cs._lattice()), cs.mu)


def check_periodicity(cs) -> bool:
    y = cs._lattice()
    for fn in (cs.A, cs.V, cs.B, cs.c):
        base = fn(y)
        for k in range(cs.d):
            shift = y.copy()
            shift[:, k] += 1.0
            if not np.allclose(fn(shift), base, atol=1e-12, rtol=0.0):
                return False
    return True


def computed_kappa(cs) -> float:
    """Lattice maximization of the sup-norms of V, B, c."""
    y = TorusGrid(cs.d, KAPPA_LATTICE).points().reshape(-1, cs.d)
    return max(float(np.max(np.abs(fn(y)))) for fn in (cs.V, cs.B, cs.c))


def validate(cs) -> None:
    """Raise CoefficientError if any declared structure constant fails."""
    margin = check_ellipticity(cs)
    if margin < -1e-10:
        raise CoefficientError(
            f"family {cs.name!r}: ellipticity margin {margin:.3e} < 0 for mu = {cs.mu}"
        )
    if not check_periodicity(cs):
        raise CoefficientError(f"family {cs.name!r}: not 1-periodic")
    got = computed_kappa(cs)
    if got > cs.kappa + 1e-8:
        raise CoefficientError(
            f"family {cs.name!r}: sup-norm of lower-order terms {got:.3g} "
            f"exceeds declared kappa = {cs.kappa:.3g}"
        )


def bilinear_energy(A: np.ndarray, u: np.ndarray, v: np.ndarray, grid) -> float:
    """The quadratic form matching ``grid.principal_part_apply`` exactly.

    For u, v vanishing on the box boundary (or any periodic pair),
    ``inner(principal_part_apply(A, u), v) == bilinear_energy(A, u, v)``
    to machine precision: both sides are the same sums reassociated.
    """
    d = grid.d
    h = grid.h
    nd = len(grid.shape)
    total = 0.0
    for i in range(d):
        aii = _coef_block(A, nd, i, i)
        dpu = (np.roll(u, -1, axis=i) - u) / h
        dpv = (np.roll(v, -1, axis=i) - v) / h
        half = 0.5 * (aii + np.roll(aii, -1, axis=i))
        total += np.sum(_component_matvec(half, dpu) * dpv)
        for j in range(d):
            if j == i:
                continue
            aij = _coef_block(A, nd, i, j)
            dcu = (np.roll(u, -1, axis=j) - np.roll(u, 1, axis=j)) / (2.0 * h)
            dcv = (np.roll(v, -1, axis=i) - np.roll(v, 1, axis=i)) / (2.0 * h)
            total += np.sum(_component_matvec(aij, dcu) * dcv)
    return float(total) * grid.cell_volume


def inner(u, v) -> float:
    """Midpoint-rule L2 pairing of two grid functions."""
    if u.grid != v.grid:
        raise GridError("inner product across different grids")
    return float(np.sum(u.values * v.values)) * u.grid.cell_volume


def divergence_centered(field: np.ndarray, grid, axis_index: int) -> np.ndarray:
    """Torus divergence contracting the axis ``axis_index`` of length d:
    centred periodic differences added to zeros in axis order."""
    out = np.zeros(tuple(np.delete(np.array(field.shape), axis_index)))
    for l in range(grid.d):
        out += _centered_periodic(np.take(field, l, axis=axis_index), l, grid.h)
    return out


def divergence_box_sum(field: np.ndarray, grid) -> np.ndarray:
    """Box divergence over the trailing axis of length d, as ``sum`` of the
    per-axis box differences started from zeros."""
    return sum((_centered_box(field[..., i], i, grid.h) for i in range(grid.d)),
               np.zeros(field.shape[:-1]))


def divergence_box_loop(field: np.ndarray, grid) -> np.ndarray:
    """Box divergence over the trailing axis of length d, added in place to
    zeros axis by axis."""
    out = np.zeros(field.shape[:-1])
    for i in range(grid.d):
        out += _centered_box(field[..., i], i, grid.h)
    return out


def phi_inverse(phi0: np.ndarray) -> np.ndarray:
    """Pointwise inverse of Phi_{eps,0}, guarded by the smallness condition
    ||Phi - I||_inf <= 1/2 that the paper-regime transformations assume."""
    m = phi0.shape[-1]
    eye = np.eye(m)
    dev = np.abs(phi0 - eye).max()
    if dev > 0.5:
        raise ValueError(f"Phi deviates from identity by {dev:.3f} > 1/2; eps too large")
    return np.linalg.inv(phi0)


def boundary_weighted_ratio(sample: GreenSample) -> float:
    """max over admissible x of |G| |x-y|^(d-1) / d_y, the near-boundary bound."""
    g = sample.grid
    r, _ = sample.fit_shell
    mag = sample.magnitude
    d_y = max(point_boundary_distance(sample.y), g.h)
    adm = (r >= 4 * g.h) & (sample.rho < r / 4)
    if not adm.any():
        raise GreenError("no admissible points for the weighted ratio")
    return float((mag[adm] * r[adm] ** (g.d - 1)).max() / d_y)


def poisson_kernel_boundary_rep(samples: list[GreenSample], cs: CoefficientSet,
                                g_values: np.ndarray) -> np.ndarray:
    """Ball averages of the solution of L u = 0 with u = g on the boundary,
    through the discrete Poisson kernel -h^d K_ib^T G.

    The adjoint Green columns G (the default ``star=False`` of
    ``green.approx_green``) are paired with the boundary coupling K_ib g_b
    that ``CoefficientSamples.lift`` assembles.  By discrete transposition
    the result equals the mollification-ball average of the solve with
    boundary data g, to solver tolerance.  g is shaped (*shape, m); only its
    boundary rows are read.

    Returns an array (len(samples), m) of probe values.
    """
    if not samples:
        raise GreenError("no Green samples supplied")
    out = np.zeros((len(samples), samples[0].m))
    for isamp, sample in enumerate(samples):
        grid = sample.grid
        lifted = sample_coefficients(cs, grid, sample.eps, sample.lam).lift(
            np.asarray(g_values, float))
        cols = sample.columns[(slice(None),) + grid.interior]
        out[isamp] = -np.tensordot(cols, lifted, axes=cols.ndim - 1) * grid.cell_volume
    return out


def triangle_defects(report: ConvergenceReport) -> list[float]:
    """Row-wise slack of ||u_eps - u|| <= ||w|| + ||(Phi_0 - I)u|| + ||(Phi_k - P_k) du||.

    Nonnegative values mean the triangle inequality holds on the recorded
    norms; a negative value beyond round-off flags inconsistent bookkeeping.
    """
    out = []
    for row in report.rows:
        rhs = row["w_l2"] + row["norm_phi0_u_l2"] + row["norm_phik_du_l2"]
        out.append(rhs - row["err_l2"])
    return out
