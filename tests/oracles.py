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
``torus_csr`` and ``box_csr`` rebuild an operator's stencil (``grid.Stencil``)
as ``scipy.sparse`` CSR arrays of the entries its steps read, the box's
split into the interior block K_ii and the boundary coupling K_ib: the
products they are tested against, and the transposes and dense forms the
assembly tests read.
``torus_csr_array`` is the torus assembly as it was when the torus operator
was a CSR array.
``assemble_box_full`` is the box assembly as it was when a box sample held
the full d x d x m x m tensor A and V, B, c arrays (zero for a set without
lower-order terms) and K_ii and K_ib were stored apart, by diagonals and by
triplets; it returns them as the ``scipy.sparse`` arrays whose products
they matched bit for bit.  ``box_stencil_full`` and ``precond_scale_full``
are the box stencil's entries and the preconditioner scale from the same
full arrays; ``flux_stencil_full`` and ``cross_pairs_full`` are the stencil
and the pair rule they read.  ``sample_arrays`` rebuilds those full arrays
from a box sample's blocks.
"""

from __future__ import annotations

import numpy as np
import scipy.fft
from scipy import sparse

from homogkit.bvp import sample_coefficients
from homogkit.coefficients import CoefficientError, CoefficientSet, ellipticity_margin
from homogkit.grid import (BoxGrid, GridError, TorusGrid, _centered_box, _centered_periodic,
                           _coef_block, _component_matvec, _shifted, _stencil_offsets)
from homogkit.green import GreenError, GreenSample, point_boundary_distance
from homogkit.rates import ConvergenceReport


def torus_csr(K) -> sparse.csr_array:
    """A torus operator (``grid.Stencil``) as the CSR array of its entries:
    row (p, a) holds the columns (p + offsets[k], b) in ``K.order``, the
    order in which the product adds them, read through ``K.entries``."""
    m, nk = K.blocks.shape[0], len(K.offsets)
    d, n = K.blocks.ndim - 3, K.blocks.shape[-1] - 2
    npts = n ** d
    b, k = np.array(K.order).T
    steps = np.stack([K.entries(*bk).reshape(m, npts) for bk in K.order])
    data = np.ascontiguousarray(steps.transpose(2, 1, 0))   # [p, a, step]
    point = np.arange(npts, dtype=np.int32).reshape((n,) * d)
    nbr = np.stack([np.roll(point, [-x for x in s], axis=tuple(range(d))).ravel()
                    for s in K.offsets], axis=1)
    indices = np.broadcast_to((m * nbr[:, k] + b)[:, None, :], data.shape)
    indptr = np.arange(0, data.size + 1, m * nk, dtype=np.int32)
    return sparse.csr_array((data.ravel(), indices.ravel(), indptr), shape=K.shape)


def box_csr(K) -> tuple[sparse.csr_array, sparse.csr_array]:
    """(K_ii, K_ib) of a box operator (``grid.Stencil``) as CSR arrays of
    its entries: row (p, a) couples to (p + offsets[k], b), an interior
    unknown (K_ii) or a boundary value ordered as ``boundary_indices``
    (K_ib), each row's columns in increasing order, read through
    ``K.entries``."""
    m, d, side = K.blocks.shape[0], K.blocks.ndim - 3, K.blocks.shape[-1]
    rows = side - 2
    bmask = np.ones((side,) * d, dtype=bool)
    bmask[(slice(1, -1),) * d] = False
    number = np.empty(bmask.shape, dtype=np.int64)
    number[~bmask], number[bmask] = np.arange(rows ** d), np.arange(bmask.sum())
    point = np.arange(rows ** d)
    r, c, v, edge = [], [], [], []
    for b, k in K.order:
        nbr = _shifted(number, K.offsets[k], rows).ravel()
        at_face = _shifted(bmask, K.offsets[k], rows).ravel()
        for a in range(m):
            r.append(m * point + a)
            c.append(m * nbr + b)
            v.append(K.entries(b, k)[a].ravel())
            edge.append(at_face)
    r, c, v, edge = map(np.concatenate, (r, c, v, edge))
    shape = (m * rows ** d, m * rows ** d), (m * rows ** d, m * int(bmask.sum()))
    return tuple(sparse.csr_array((v[sel], (r[sel], c[sel])), shape=sh)
                 for sel, sh in zip((~edge, edge), shape))


def torus_csr_array(A: np.ndarray, grid: TorusGrid) -> sparse.csr_array:
    """The CSR array that the torus assembly built when it held a CSR array:
    row (p, a) holds the columns (nbr[p, k], b), ordered by b, then k."""
    d, n, m = grid.d, grid.n, A.shape[-1]
    npts = grid.npoints
    pairs = cross_pairs_full(A)
    offsets = _stencil_offsets(d, pairs)
    slot = {s: k for k, s in enumerate(offsets)}
    wrap = [(1, 1)] * d
    A = np.pad(A, wrap + [(0, 0)] * 4, mode="wrap")
    point = np.pad(np.arange(npts, dtype=np.int32).reshape(grid.shape), wrap, mode="wrap")
    data = np.empty((npts, m, m, len(offsets)))
    nbr = np.empty((npts, len(offsets)), dtype=np.int32)
    for s, blk in flux_stencil_full(A, None, None, None, 0.0, grid.h, n, pairs):
        data[..., slot[s]] = blk.reshape(npts, m, m)
        nbr[:, slot[s]] = _shifted(point, s, n).ravel()
    comp = np.arange(m, dtype=np.int32)[:, None]
    indices = np.broadcast_to(m * nbr[:, None, None, :] + comp, data.shape)
    indptr = np.arange(0, data.size + 1, m * len(offsets), dtype=np.int32)
    return sparse.csr_array((data.ravel(), indices.ravel(), indptr),
                            shape=(npts * m, npts * m))


def cross_pairs_full(A: np.ndarray) -> list[tuple[int, int]]:
    """The axis pairs i < j whose a_ij or a_ji is nonzero (or NaN) somewhere
    in the full tensor ``A`` (trailing axes (d, d, m, m))."""
    d = A.shape[-3]
    return [(i, j) for i in range(d) for j in range(i + 1, d)
            if A[..., i, j, :, :].any() or A[..., j, i, :, :].any()]


def flux_stencil_full(A, V, B, c, lam: float, h: float, rows: int,
                      pairs: list[tuple[int, int]]):
    """(offset, block) of the flux stencil from the full tensor ``A`` and,
    unless they are None, the arrays V, B, c, as ``grid._flux_stencil``
    yielded them from full arrays."""
    d, m = A.shape[-3], A.shape[-1]
    h2 = h * h
    lower = V is not None

    def at(arr, s):
        return _shifted(arr, s, rows)

    def block(arr, *idx):
        return np.ascontiguousarray(arr[(Ellipsis,) + idx + (slice(None),) * 2])

    zero = (0,) * d
    diag = None
    for i in range(d):
        ei = tuple(int(k == i) for k in range(d))
        mi = tuple(-k for k in ei)
        aii = block(A, i, i)
        plus = at(aii, zero) + at(aii, ei)
        plus *= 0.5 / h2
        minus = at(aii, mi) + at(aii, zero)
        minus *= 0.5 / h2
        del aii
        if diag is None:
            diag = plus + minus
        else:
            diag += plus
            diag += minus
        np.negative(plus, out=plus)
        np.negative(minus, out=minus)
        if lower:
            vi = block(V, i)
            bi = at(block(B, i), zero) / (2.0 * h)
            plus -= at(vi, ei) / (2.0 * h)
            plus += bi
        yield ei, plus
        del plus
        if lower:
            minus += at(vi, mi) / (2.0 * h)
            minus -= bi
        yield mi, minus
        del minus
    for i, j in pairs:
        aij, aji = block(A, i, j), block(A, j, i)
        for si in (1, -1):
            for sj in (1, -1):
                ti = tuple(si * int(k == i) for k in range(d))
                tj = tuple(sj * int(k == j) for k in range(d))
                blk = at(aij, ti) + at(aji, tj)
                blk *= -si * sj / (4.0 * h2)
                yield tuple(a + b for a, b in zip(ti, tj)), blk
    diag += lam * np.eye(m)
    if lower:
        diag += at(block(c), zero)
    yield zero, diag


def assemble_box_full(A: np.ndarray, V: np.ndarray, B: np.ndarray, c: np.ndarray,
                      lam: float, grid: BoxGrid):
    """(K_ii, K_ib) of the box operator as the split assembly built them from
    coefficients sampled on all of ``grid`` with trailing axes (d, d, m, m),
    (d, m, m), (d, m, m), (m, m): K_ii as the ``dia_array`` of the stencil's
    diagonals (entries whose neighbour is a boundary point zeroed), K_ib as
    the ``csr_array`` coupling interior rows to the boundary values ordered
    as ``boundary_indices``.  Their products add each row's terms in column
    order."""
    d, n, m = grid.d, grid.n, A.shape[-1]
    npts = (n - 1) ** d
    strides = [(n - 1) ** (d - 1 - k) for k in range(d)]

    def flat(s):
        return sum(k * st for k, st in zip(s, strides))

    pairs = cross_pairs_full(A)
    diagonals = sorted({flat(s) * m + b - a for s in _stencil_offsets(d, pairs)
                        for a in range(m) for b in range(m)})
    row_of = {k: r for r, k in enumerate(diagonals)}
    data = np.zeros((len(diagonals), npts * m))
    bmask = grid.boundary_mask()
    nb = int(bmask.sum())
    bnum = np.full(grid.shape, -1, dtype=np.int32)
    bnum[bmask] = np.arange(nb, dtype=np.int32)
    comp = np.arange(m)
    ib_rows, ib_cols, ib_vals = [], [], []
    for s, blk in flux_stencil_full(A, V, B, c, lam, grid.h, n - 1, pairs):
        blk = blk.reshape(npts, m, m)
        nbr = _shifted(bnum, s, n - 1).ravel()
        edge = np.flatnonzero(nbr >= 0)
        if edge.size:
            ib_rows.append(np.broadcast_to((edge * m)[:, None, None] + comp[:, None],
                                           (edge.size, m, m)).ravel())
            ib_cols.append(np.broadcast_to((nbr[edge] * m)[:, None, None] + comp,
                                           (edge.size, m, m)).ravel())
            ib_vals.append(blk[edge].ravel())
            blk[edge] = 0.0
        off = flat(s)
        lo, hi = max(0, -off), min(npts, npts - off)
        for a in range(m):
            for b in range(m):
                dst = data[row_of[off * m + b - a]].reshape(npts, m)[:, b]
                dst[lo + off:hi + off] = blk[lo:hi, a, b]
    K_ii = sparse.dia_array((data, diagonals), shape=(npts * m, npts * m))
    # csr_array sorts each row's triplets by column
    K_ib = sparse.csr_array((np.concatenate(ib_vals),
                             (np.concatenate(ib_rows), np.concatenate(ib_cols))),
                            shape=(npts * m, nb * m))
    return K_ii, K_ib


def box_stencil_full(A: np.ndarray, V: np.ndarray, B: np.ndarray, c: np.ndarray,
                     lam: float, grid: BoxGrid):
    """(blocks, offsets) of the box ``grid.Stencil`` from coefficients
    sampled on all of ``grid`` with trailing axes (d, d, m, m), (d, m, m),
    (d, m, m), (m, m): ``blocks[b, k, a]`` on the box lattice, zero on its
    boundary layer."""
    d, m = grid.d, A.shape[-1]
    pairs = cross_pairs_full(A)
    offsets = _stencil_offsets(d, pairs)
    slot = {s: k for k, s in enumerate(offsets)}
    blocks = np.zeros((m, len(offsets), m) + grid.shape)
    for s, blk in flux_stencil_full(A, V, B, c, lam, grid.h, grid.n - 1, pairs):
        blocks[(slice(None), slot[s], slice(None)) + grid.interior] = np.moveaxis(
            blk, (-1, -2), (0, 1))
    return blocks, offsets


def sample_arrays(s):
    """(A, V, B, c) of the box sample ``s`` as full arrays: A (*shape, d, d,
    m, m) from its blocks, zero where it holds no cross block, and V, B, c
    zero for a sample without lower-order terms."""
    blocks, shape, m = s.A, s.grid.shape, s.m
    d = len(blocks.diag)
    A = np.zeros(shape + (d, d, m, m))
    for i, b in enumerate(blocks.diag):
        A[..., i, i, :, :] = b
    for (i, j), b in blocks.cross.items():
        A[..., i, j, :, :] = b
    if s.V is None:
        zero = np.zeros(shape + (d, m, m))
        return A, zero, zero.copy(), np.zeros(shape + (m, m))
    return A, s.V, s.B, s.c


def precond_scale_full(A: np.ndarray, grid) -> float:
    """Mean of the diagonal entries a_ii^{aa} of the full tensor ``A``
    (shaped grid.shape + (d, d, m, m)), read through views of ``A``."""
    m = A.shape[-1]
    s = 0.0
    for i in range(grid.d):
        s += sum(float(A[..., i, i, a, a].mean()) for a in range(m)) / m
    return s / grid.d


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
