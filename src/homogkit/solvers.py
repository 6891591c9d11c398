"""Preconditioned Krylov solves for the periodic cell and box Dirichlet systems.

Both geometries admit an exact fast-Poisson inverse for the constant-
coefficient part (Fourier on the torus, DST-I on the box interior), which is used
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
pass it only their kernel, symbol and right-hand side.  The operator, the
Krylov vectors, the GMRES fallback and the residual check stay float64.
``_krylov`` scales the right-hand side by an exact power of two (max |b| in
[0.5, 1)) and the solution back, so the float32 range never sees the scale
of the data.  ``poisson_periodic`` is an exact solve, not a preconditioner,
and stays float64.

Every preconditioner transform is picked by one rule, ``kernel``, from d, n
and the m components per point alone.  There are five kernels.  On the
torus, ``"hartley"``, products with the dense Hartley matrix
H[j, k] = cos(2 pi j k / n) + sin(2 pi j k / n), which is symmetric, squares
to n I and diagonalises the periodic -Laplacian as the Fourier basis does,
and ``"rfftn"``, ``numpy.fft.rfftn`` over the half spectrum and ``irfftn``
back.  On the box, ``"sine"``, products with the dense DST-I matrix
S[j, k] = 2 sin(pi j k / n), which squares to 2n I; ``"sine-split"``, the
same products with each GEMM split by S[n - j, k] = (-1)^(k+1) S[j, k] into
two of half size after the input is folded (x_j + x_{n-j}, x_j - x_{n-j}),
and once more when 4 divides n: the first radix-2 steps of the fast sine
transform (Van Loan, *Computational Frameworks for the Fast Fourier
Transform*, SIAM 1992); and ``"dst-rfft"`` in 1D, the DST-I as the real
FFT of the odd extension (0, x, 0, -x reversed).  The dense kernels share
one per-axis GEMM loop (``_dense_products``), run on one component at a
time for the systems on 2D and 3D grids, and their matrices are built once
per size and dtype and shared read-only.  A dense product costs
O(N^(d+1)) against the FFT's O(N^d log N), but on these sizes BLAS wins.
The rule rests on these per-apply timings (float32, two transforms and the
multiply, one BLAS thread on a 2-vCPU Xeon VM, medians of alternated runs;
ms):

    torus 64^2             hartley 0.039
    torus 64^2 x 2         hartley 0.096
    torus 96^2 x 2         hartley 0.219
    torus 16^3             hartley 0.027
    torus 20^3 x 2         hartley 0.178
    torus 512              hartley 0.051
    torus 128^2            hartley 0.22   rfftn 0.29
    torus 192^2            hartley 0.65   rfftn 0.82
    torus 224^2            hartley 1.03   rfftn 1.30
    torus 256^2            hartley 1.48   rfftn 1.46
    torus 384^2            hartley 4.60   rfftn 4.42
    torus 512^2            hartley 12.9   rfftn 7.5
    torus 48^3             hartley 1.18   rfftn 3.43
    torus 64^3             hartley 3.51   rfftn 8.55
    torus 80^3             hartley 7.66   rfftn 15.6
    torus 128^3            hartley 42.7   rfftn 76.2
    torus 4096                            rfftn 0.066
    box 255          sine 0.024
    box 511                               dst-rfft 0.031
    box 1023                              dst-rfft 0.043
    box 47^3         sine 1.043
    box 127^3        sine 34.3
    box 159^3        sine 88.0
    box 95^2         sine 0.099  split 0.253
    box 127^2        sine 0.207  split 0.261
    box 128^2        sine 0.235  split 0.252
    box 255^2        sine 1.227  split 0.899
    box 256^2        sine 1.374  split 1.123
    box 319^2                    split 1.26
    box 511^2                    split 3.96
    box 1023^2                   split 23.9
    box 63^2 x 2     sine 0.123  split 0.373
    box 107^2 x 2    sine 0.500  split 0.548
    box 108^2 x 2    sine 0.320  split 0.244
    box 255^2 x 2    sine 3.786  split 2.393

Single cells drift by 10–30% from run to run with the host.  The 3D cap of
80 points per axis is below the crossing: the Hartley products were faster
up to 160 (92 against 166 ms), and the cap keeps the test of the shape
above it cheap; no workload or config solves on a 3D torus above 20.
Above the caps ``numpy.fft`` is slow on lengths with a large prime factor
(257^2: 7.0 ms against 1.8 for the Hartley products; 97^3: 131 against 19),
a cost the rule takes so as to read n alone; no workload or config solves
there.  Against the ``scipy.fft`` transforms these kernels replaced, on
the shapes that changed kernel: 2D tori from 128^2 are 1.2–3 times slower
(256^2 1.8 against 0.56, 384^2 3.6 against 1.2), 3D tori from 64^3 to 80^3
level and above the cap 1.6 times slower (96^3 21 against 13), 2D boxes
from 511^2, 3D boxes from 127^3 and 1D boxes from 511 points 1.0–1.2 times,
the 319^2 box level, and 3D tori up to 48^3 1.4–2 times faster.  The float32
apply agrees with the float64 transforms to about 1.5e-6 relative on the
dense paths, 6e-8 on the 1D box FFT and about 2e-7 on the torus one.

This module imports ``numpy.fft`` with numpy, so no transform loads a
module during a run, and no transform needs scipy; only the GMRES fallback
imports ``scipy.sparse.linalg``, on its first call.  The operators it
solves with are numpy arrays (``grid.Stencil``).
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np
from numpy import fft

from .grid import BoxGrid, TorusGrid, _read_only


# The largest n per axis of a torus that takes the Hartley products, by d.
_HARTLEY_MAX = {1: 512, 2: 256, 3: 80}


def kernel(grid: TorusGrid | BoxGrid, m: int = 1) -> str:
    """The preconditioner transform of a solve on ``grid`` with ``m``
    components per point, by d, n and m alone (the module docstring gives
    the timings it rests on):

    - torus: ``"hartley"`` up to n = 512 in 1D, 256 in 2D and 80 in 3D,
      ``"rfftn"`` above;
    - box with N = n - 1 interior points per axis: ``"sine-split"`` for a 2D
      box from N = 128 (108 when m > 1), ``"dst-rfft"`` for a 1D box above
      N = 255, ``"sine"`` otherwise.
    """
    if isinstance(grid, TorusGrid):
        return "hartley" if grid.n <= _HARTLEY_MAX[grid.d] else "rfftn"
    d, N = grid.d, grid.n - 1
    if d == 1 and N > 255:
        return "dst-rfft"
    if d == 2 and N >= (128 if m == 1 else 108):
        return "sine-split"
    return "sine"


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


def _inverse_symbol(grid: TorusGrid | BoxGrid, kern: str, scale: float,
                    lam: float = 0.0) -> np.ndarray:
    """The reciprocal symbol that ``_apply_inverse`` multiplies by, laid out
    as ``kern`` leaves the spectrum, with the transforms' normalisation
    folded in.

    Torus: 1 / (scale * symbol), 0 at the constant mode, over the half
    spectrum of ``rfftn`` (last grid axis n//2 + 1), or over all modes
    divided by n^d for ``"hartley"`` (the Hartley matrix squares to n I).
    Box: 1 / ((scale * symbol + max(lam, 0)) (2n)^d) (DST-I squares to 2n I),
    with each axis in the row order of the split plan for ``"sine-split"``.
    """
    nd, n = grid.d, grid.n
    if isinstance(grid, TorusGrid):
        sym = _laplace_symbol(2.0 * np.pi * np.arange(n) / n, grid.h, nd)
        if kern == "rfftn":
            sym = sym[..., : n // 2 + 1]
        sym[(0,) * nd] = 1.0
        inv = 1.0 / (scale * sym) if kern == "rfftn" else 1.0 / (scale * sym * n ** nd)
        inv[(0,) * nd] = 0.0
        return inv
    sym = _laplace_symbol(np.pi * np.arange(1, n) / n, grid.h, nd)
    inv = 1.0 / ((scale * sym + max(lam, 0.0)) * (2.0 * n) ** nd)
    if kern == "sine-split":
        rows = _split_plan(n, np.dtype(np.float32)).order - 1
        inv = inv[np.ix_(*(rows,) * nd)]
    return inv


@functools.lru_cache(maxsize=8)
def _dense_matrix(kern: str, n: int, dtype: np.dtype) -> np.ndarray:
    """The symmetric transform matrix of ``kern`` in ``dtype``, not writeable;
    kept for the last 8 (kern, n, dtype), at most 2 MiB each (the Hartley
    matrix of a 512-point torus in float64):

    - ``"sine"``: the unnormalised DST-I,
      S[j, k] = 2 sin(pi j k / n) for j, k = 1..n-1 (j k reduced mod 2n);
    - ``"hartley"``: H[j, k] = cos(2 pi j k / n) + sin(2 pi j k / n) for
      j, k = 0..n-1 (j k reduced mod n), which diagonalises every symmetric
      circulant matrix, the periodic -Laplacian among them.
    """
    if kern == "sine":
        j = np.arange(1, n)
        M = 2.0 * np.sin(np.pi * (np.outer(j, j) % (2 * n)) / n)
    else:
        j = np.arange(n)
        theta = 2.0 * np.pi * (np.outer(j, j) % n) / n
        M = np.cos(theta) + np.sin(theta)
    return _read_only(M.astype(dtype))


def _dense_products(x: np.ndarray, S: np.ndarray, nd: int) -> np.ndarray:
    """The symmetric matrix ``S`` applied along each of the first ``nd`` axes
    of ``x`` as one GEMM per axis (a batched one for the middle axis of a 3D
    grid); a trailing component axis stays in place inside the products,
    which ``_apply_inverse`` only lets through in 1D or at length 1."""
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


# The split DST-I.  A plan applies rows of S to the rows of x (an (N, R)
# array); with ``t`` its output, and a backward pass's input, hold the
# transpose, so that the second grid axis is split along rows too and the
# transposes fall to the GEMMs.  The plan is shared read-only; its work
# arrays live in ``work``, a dict that one solve keeps for all its applies
# (``_scratch``): fresh arrays on every apply cost page faults and made the
# apply time swing by a third from process to process.

def _rows(a: np.ndarray, lo: int, hi: int | None, t: bool) -> np.ndarray:
    return a[:, lo:hi] if t else a[lo:hi]


def _scratch(work: dict, part, name: str, shape: tuple, dtype) -> np.ndarray:
    """The work array ``name`` of ``part`` for this shape and dtype, made on
    first use and kept in ``work``; it holds whatever the last apply left."""
    key = (id(part), name, shape, dtype)
    if key not in work:
        work[key] = np.empty(shape, dtype)
    return work[key]


class _Product:
    """The rows ``order`` of the DST-I restricted to the columns it is given
    as one matrix M: forward M x, backward M^T y."""

    def __init__(self, M: np.ndarray, order: np.ndarray):
        self.M, self.MT, self.order = _read_only(M), _read_only(M.T.copy()), order

    def forward(self, x, out, t, _work):
        if t:
            np.matmul(x.T, self.MT, out=out)
        else:
            np.matmul(self.M, x, out=out)

    def backward(self, y, out, t, _work):
        np.matmul(self.MT, y.T if t else y, out=out)


class _Fold:
    """S[n - j, k] = (-1)^(k+1) S[j, k]: the odd rows k act on the folded
    sums x_j + x_{n-j} (with the middle x_{n/2}), the even rows on the
    differences x_j - x_{n-j}, for j up to half the axis."""

    def __init__(self, odd, even, N: int):
        self.odd, self.even, self.h = odd, even, N // 2
        self.L = N - self.h
        self.order = np.concatenate([odd.order, even.order])

    def forward(self, x, out, t, work):
        L, h = self.L, self.h
        u, xr = _scratch(work, self, "fold", x.shape, x.dtype), x[::-1]
        np.add(x[:h], xr[:h], out=u[:h])
        u[h:L] = x[h:L]
        np.subtract(x[:h], xr[:h], out=u[L:])
        self.odd.forward(u[:L], _rows(out, 0, L, t), t, work)
        self.even.forward(u[L:], _rows(out, L, None, t), t, work)

    def backward(self, y, out, t, work):
        L, h = self.L, self.h
        q = _scratch(work, self, "fold", out.shape, out.dtype)
        self.odd.backward(_rows(y, 0, L, t), q[:L], t, work)
        self.even.backward(_rows(y, L, None, t), q[L:], t, work)
        np.add(q[:h], q[L:], out=out[:h])
        out[h:L] = q[h:L]
        np.subtract(q[:h], q[L:], out=out[::-1][:h])


class _Butterfly:
    """S[j, n - k] = (-1)^(j+1) S[j, k] for odd k when 4 divides n: the
    rows k and n - k of the odd half share the products E of the odd and O
    of the even columns j, as E + O and E - O."""

    def __init__(self, cols_odd: _Product, cols_even: _Product, order: np.ndarray):
        self.e, self.o, self.order = cols_odd, cols_even, order

    def forward(self, u, out, t, work):
        half = u.shape[0] // 2
        shape = (u.shape[1], half) if t else (half, u.shape[1])
        E, O = (_scratch(work, self, name, shape, u.dtype) for name in "EO")
        self.e.forward(u[0::2], E, t, work)
        self.o.forward(u[1::2], O, t, work)
        np.add(E, O, out=_rows(out, 0, half, t))
        np.subtract(E, O, out=_rows(out, half, None, t))

    def backward(self, y, out, t, work):
        half = out.shape[0] // 2
        top, bottom = _rows(y, 0, half, t), _rows(y, half, None, t)
        S, D = (_scratch(work, self, name, top.shape, y.dtype) for name in "SD")
        self.e.backward(np.add(top, bottom, out=S), out[0::2], t, work)
        self.o.backward(np.subtract(top, bottom, out=D), out[1::2], t, work)


@functools.lru_cache(maxsize=4)
def _split_plan(n: int, dtype: np.dtype):
    """The DST-I on N = n - 1 points as a ``_Fold`` of two half-size
    products; when 4 divides n, the odd half is a ``_Butterfly`` of two
    quarter-size products and the even half, a DST-I on n/2, is folded
    again.  ``order`` lists the k of each output row."""
    N = n - 1

    def product(k, j):
        return _Product((2.0 * np.sin(np.pi * (np.outer(k, j) % (2 * n)) / n)).astype(dtype),
                        k)

    L, h = N - N // 2, N // 2
    k_odd, k_even = 2 * np.arange(L) + 1, 2 * np.arange(1, h + 1)
    j = np.arange(1, L + 1)
    if n % 4:
        return _Fold(product(k_odd, j), product(k_even, j[:h]), N)
    top = k_odd[: L // 2]
    odd = _Butterfly(product(top, j[0::2]), product(top, j[1::2]),
                     np.concatenate([top, n - top]))
    L2, h2 = h - h // 2, h // 2
    even = _Fold(product(2 * k_odd[:L2], j[:L2]), product(2 * k_even[:h2], j[:h2]), h)
    return _Fold(odd, even, N)


def _split_products(r: np.ndarray, inv: np.ndarray, plan, work: dict) -> np.ndarray:
    """DST-I over both grid axes of ``r`` (N, N, comp...), times ``inv``
    (in the plan's row order on both axes) and DST-I again, one component
    at a time.  The spectrum is held transposed: it only meets ``inv``,
    which is symmetric."""
    out = np.empty(r.shape, r.dtype)
    inv2 = inv.reshape(inv.shape[:2])
    spec, tmp = (_scratch(work, plan, name, inv2.shape, r.dtype) for name in ("spec", "tmp"))
    for c in np.ndindex(r.shape[2:]):
        x = np.ascontiguousarray(r[(...,) + c])
        plan.forward(x, tmp, True, work)
        plan.forward(tmp, spec, False, work)
        spec *= inv2
        plan.backward(spec, tmp, False, work)
        plan.backward(tmp, out[(...,) + c], True, work)
    return out


def _dst_rfft(x: np.ndarray) -> np.ndarray:
    """The DST-I along the first axis of ``x``, 2 sum_j x_j sin(pi j k / n)
    for j, k = 1..n-1: minus the imaginary part of the real FFT of the odd
    extension (0, x, 0, -x reversed), of length 2n."""
    N = x.shape[0]
    y = np.zeros((2 * N + 2,) + x.shape[1:], x.dtype)
    y[1:N + 1] = x
    y[N + 2:] = -x[::-1]
    return -fft.rfft(y, axis=0)[1:N + 1].imag


def _apply_inverse(r: np.ndarray, inv: np.ndarray, grid: TorusGrid | BoxGrid,
                   kern: str, work: dict | None = None) -> np.ndarray:
    """The transform ``kern`` over the grid axes of ``r``, times ``inv``
    (``_inverse_symbol``, broadcast over any trailing component axes), and
    the transform back, computed in the precision of ``inv`` and returned in
    that of ``r``.  The dense products take the components of a 2D or 3D
    grid one at a time: each is cast straight into a contiguous copy and its
    result straight into the output.  ``work`` keeps the split kernel's work
    arrays from one call to the next."""
    nd, axes, dtype = grid.d, tuple(range(grid.d)), inv.dtype
    if kern in ("sine", "hartley") and nd > 1 and r.size != inv.size:
        # several components on a 2D or 3D grid: one at a time, so that the
        # product along every axis is a GEMM on contiguous rows
        S = _dense_matrix(kern, grid.n, dtype)
        out = np.empty(r.shape, r.dtype)
        inv = inv.reshape(inv.shape[:nd])
        for c in np.ndindex(r.shape[nd:]):
            rhat = _dense_products(np.ascontiguousarray(r[(...,) + c], dtype), S, nd)
            rhat *= inv
            out[(...,) + c] = _dense_products(rhat, S, nd)
        return out
    x = r.astype(dtype, copy=False)
    if kern == "rfftn":
        xhat = fft.rfftn(x, axes=axes)
        xhat *= inv
        z = fft.irfftn(xhat, s=grid.shape, axes=axes)
    elif kern == "dst-rfft":
        xhat = _dst_rfft(x)
        xhat *= inv
        z = _dst_rfft(xhat)
    elif kern == "sine-split":
        z = _split_products(x, inv, _split_plan(grid.n, dtype), {} if work is None else work)
    else:
        S = _dense_matrix(kern, grid.n, dtype)
        xhat = _dense_products(x, S, nd)
        xhat *= inv
        z = _dense_products(xhat, S, nd)
    return z.astype(r.dtype, copy=False)


def poisson_periodic(rhs: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Mean-zero x with -Laplace_h x = rhs - mean(rhs) on the torus, by the
    transform ``kernel`` picks for a scalar field.

    Laplace_h is the compact flux Laplacian (the operator of identity
    coefficients); its symbol is inverted exactly, in float64, by
    ``_inverse_symbol``, which sets the constant mode to zero.  ``rhs``
    has shape grid.shape.
    """
    kern = kernel(grid)
    return _apply_inverse(rhs, _inverse_symbol(grid, kern, 1.0), grid, kern)


def cg(A, b, *, rtol, atol, maxiter, M, callback=None):
    """Preconditioned conjugate gradients (Hestenes and Stiefel, 1952): the
    loop of ``scipy.sparse.linalg.cg`` (scipy 1.17) from x0 = 0, operation
    for operation, so its iterates match scipy's bit for bit.  ``A`` and
    ``M`` provide ``matvec``; returns (x, info) with info 0 on convergence,
    ||r|| < max(atol, rtol ||b||), and ``maxiter`` when the loop ran out.
    The products alpha p and alpha q go through one work vector ``w`` kept
    for the solve, which rounds as scipy's fresh ``alpha * p`` does, and
    the results of the applies are freed once read."""
    bnrm2 = np.linalg.norm(b)
    atol = max(float(atol), float(rtol) * float(bnrm2))
    if bnrm2 == 0:
        return b, 0
    x = np.zeros_like(b)
    r = b.copy()
    w = np.empty_like(b)
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
        # each apply's result is dropped once read, so that it is freed
        # before the next apply allocates its own (peak memory)
        del z
        q = A.matvec(p)
        alpha = rho_cur / np.dot(p, q)
        x += np.multiply(alpha, p, out=w)
        r -= np.multiply(alpha, q, out=w)
        del q
        rho_prev = rho_cur
        if callback:
            callback(x)
    return x, maxiter


def bicgstab(A, b, *, rtol, atol, maxiter, M, callback=None):
    """Preconditioned BiCGStab (van der Vorst, SIAM J. Sci. Stat. Comput. 13,
    1992): the loop of ``scipy.sparse.linalg.bicgstab`` (scipy 1.17) from
    x0 = 0, the same arithmetic in the same order, with the calling
    convention and return values of ``cg``.  info -10 and -11 report a rho
    and an omega breakdown below scipy's thresholds (eps^2, absolute).  The
    scalar-times-vector products go through one work vector, as in ``cg``."""
    bnrm2 = np.linalg.norm(b)
    atol = max(float(atol), float(rtol) * float(bnrm2))
    if bnrm2 == 0:
        return b, 0
    breaktol = np.finfo(b.dtype.char).eps ** 2
    x = np.zeros_like(b)
    r = b.copy()
    rtilde = r.copy()
    w = np.empty_like(b)
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
            p -= np.multiply(omega, v, out=w)
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
        # scipy copies r into s here; r is used in its place
        r -= np.multiply(alpha, v, out=w)
        if np.linalg.norm(r) < atol:
            x += np.multiply(alpha, phat, out=w)
            return x, 0
        shat = M.matvec(r)
        t = A.matvec(shat)
        omega = np.dot(t, r) / np.dot(t, t)
        x += np.multiply(alpha, phat, out=w)
        x += np.multiply(omega, shat, out=w)
        r -= np.multiply(omega, t, out=w)
        del phat, shat, t   # as in ``cg``; v is read by the next iteration
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
    b = np.empty(size)   # one pass, also for a strided rhs
    np.ldexp(rhs, -exponent, out=b.reshape(rhs.shape))
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


def _spectral_solve(apply_op, rhs: np.ndarray, grid: TorusGrid | BoxGrid, kern: str,
                    inv: np.ndarray, **krylov) -> tuple[np.ndarray, float]:
    """``_krylov`` on apply_op(x) = rhs with a float32 spectral preconditioner:
    the residual is cast down, transformed by ``kern``, multiplied by the
    float32 copy of the reciprocal symbol ``inv`` (``_inverse_symbol``,
    broadcast over the component axes) and transformed back, and the result
    is cast back, all by ``_apply_inverse``."""
    shape, nd = rhs.shape, grid.d
    inv = inv.astype(np.float32).reshape(inv.shape + (1,) * (len(shape) - nd))

    def matvec(x):
        return apply_op(x.reshape(shape)).ravel()

    work = {}

    def precond(r):
        return _apply_inverse(r.reshape(shape), inv, grid, kern, work).ravel()

    return _krylov(matvec, precond, rhs, **krylov)


def _kernel_of(grid: TorusGrid | BoxGrid, rhs: np.ndarray) -> str:
    """``kernel`` for a right-hand side shaped grid points + components."""
    points = grid.npoints if isinstance(grid, TorusGrid) else (grid.n - 1) ** grid.d
    return kernel(grid, rhs.size // points)


def solve_periodic(apply_op, rhs: np.ndarray, grid: TorusGrid, *,
                   tol: float = 1e-10, maxiter: int | None = None,
                   precond_scale: float = 1.0,
                   self_adjoint: bool = True) -> tuple[np.ndarray, float]:
    """Solve apply_op(x) = rhs on the torus in the mean-zero subspace.

    ``apply_op`` maps full-shape arrays (grid.shape + comp) to same-shape
    arrays.  It must annihilate constants and have a mean-zero range per
    component, as the periodic divergence-form operator
    (``grid.assemble`` on a torus) does up to round-off; the Krylov iteration
    therefore applies it unprojected.  The rhs is projected onto mean-zero
    once; the solution comes back mean-zero per component, with the relative
    residual of the unprojected operator against the projected rhs.
    """
    nd = grid.d
    if maxiter is None:
        maxiter = max(200, int(20 * grid.n ** (grid.d / 2)))
    kern = _kernel_of(grid, rhs)
    x, res = _spectral_solve(apply_op, _mean_zero(rhs, nd), grid, kern,
                             _inverse_symbol(grid, kern, precond_scale),
                             self_adjoint=self_adjoint, tol=tol, maxiter=maxiter,
                             what="periodic cell solve")
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

    The default ``maxiter``, max(200, 50 n), is a cap against a loop that
    does not converge, not a contract: the solves of the workloads and
    configs stop within a few dozen iterations, and a loop cut short by the
    cap is handed to GMRES and ``SolverError`` like any other (``_krylov``),
    so no test pins the number.
    """
    if maxiter is None:
        maxiter = max(200, 50 * grid.n)
    kern = _kernel_of(grid, rhs_interior)
    return _spectral_solve(apply_interior, rhs_interior, grid, kern,
                           _inverse_symbol(grid, kern, precond_scale, lam),
                           self_adjoint=self_adjoint, tol=tol, maxiter=maxiter,
                           what="box Dirichlet solve")
