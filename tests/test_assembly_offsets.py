"""The assembled operators against an assembler that stores every offset of
the flux stencil (3 / 9 / 19 in d = 1 / 2 / 3), whatever the coefficients
couple.  The oracle below is that assembler, kept verbatim: products with
either must agree bit for bit, and so must their dense forms."""

import numpy as np
import pytest

from homogkit.bvp import CoefficientSamples
from homogkit.grid import BoxGrid, TorusGrid, assemble, coefficient_blocks
from oracles import box_csr, sample_arrays, torus_csr

from test_assembly import CASES, IDS, SIZES, box_samples, torus_coefficients


# ---------------------------------------------------------------------------
# oracle: the all-offsets assembler
# ---------------------------------------------------------------------------

def _stencil_offsets(d: int) -> list[tuple[int, ...]]:
    unit = [tuple(int(k == i) for k in range(d)) for i in range(d)]
    out = [(0,) * d]
    for i in range(d):
        out += [unit[i], tuple(-k for k in unit[i])]
    for i in range(d):
        for j in range(i + 1, d):
            out += [tuple(si * a + sj * b for a, b in zip(unit[i], unit[j]))
                    for si in (1, -1) for sj in (1, -1)]
    return out


def _shifted(arr: np.ndarray, s: tuple[int, ...], rows: int) -> np.ndarray:
    return arr[tuple(slice(1 + k, 1 + rows + k) for k in s)]


def _flux_stencil(A, V, B, c, lam: float, h: float, rows: int):
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
    for i in range(d):
        for j in range(i + 1, d):
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


def assemble_torus_all(A: np.ndarray, grid: TorusGrid):
    from scipy import sparse

    d, n, m = grid.d, grid.n, A.shape[-1]
    npts = grid.npoints
    offsets = _stencil_offsets(d)
    slot = {s: k for k, s in enumerate(offsets)}
    wrap = [(1, 1)] * d
    A = np.pad(A, wrap + [(0, 0)] * 4, mode="wrap")
    point = np.pad(np.arange(npts, dtype=np.int32).reshape(grid.shape), wrap, mode="wrap")
    data = np.empty((npts, m, m, len(offsets)))
    nbr = np.empty((npts, len(offsets)), dtype=np.int32)
    for s, blk in _flux_stencil(A, None, None, None, 0.0, grid.h, n):
        k = slot[s]
        data[..., k] = blk.reshape(npts, m, m)
        nbr[:, k] = _shifted(point, s, n).ravel()
    comp = np.arange(m, dtype=np.int32)[:, None]
    indices = np.broadcast_to(m * nbr[:, None, None, :] + comp, data.shape)
    rowlen = m * len(offsets)
    indptr = np.arange(0, data.size + 1, rowlen, dtype=np.int32)
    return sparse.csr_array((data.ravel(), indices.ravel(), indptr),
                            shape=(npts * m, npts * m))


def assemble_box_all(A: np.ndarray, V: np.ndarray, B: np.ndarray, c: np.ndarray,
                     lam: float, grid: BoxGrid):
    from scipy import sparse

    d, n, m = grid.d, grid.n, A.shape[-1]
    npts = (n - 1) ** d
    strides = [(n - 1) ** (d - 1 - k) for k in range(d)]

    def flat(s):
        return sum(k * st for k, st in zip(s, strides))

    diagonals = sorted({flat(s) * m + b - a for s in _stencil_offsets(d)
                        for a in range(m) for b in range(m)})
    row_of = {k: r for r, k in enumerate(diagonals)}
    data = np.zeros((len(diagonals), npts * m))
    bmask = grid.boundary_mask()
    nb = int(bmask.sum())
    bnum = np.full(grid.shape, -1, dtype=np.int32)
    bnum[bmask] = np.arange(nb, dtype=np.int32)
    comp = np.arange(m)
    ib_rows, ib_cols, ib_vals = [], [], []
    for s, blk in _flux_stencil(A, V, B, c, lam, grid.h, n - 1):
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
    K_ib = sparse.csr_array(
        (np.concatenate(ib_vals), (np.concatenate(ib_rows), np.concatenate(ib_cols))),
        shape=(npts * m, nb * m))
    return K_ii, K_ib


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------

# random 3D tensors coupling one axis pair through a single entry: only
# a_12 (axes 0, 1) or only a_21 (axes 1, 0) is nonzero off the diagonal
PARTIAL = [("a12", (0, 1)), ("a21", (1, 0))]
PARTIAL_IDS = [f"{name}-m{m}" for name, _ in PARTIAL for m in (1, 2)]
PARTIAL_CASES = [(entry, m) for _, entry in PARTIAL for m in (1, 2)]


def partial_tensor(shape, m, entry, rng) -> np.ndarray:
    A = rng.standard_normal(shape + (3, 3, m, m))
    for i in range(3):
        for j in range(3):
            if i != j and (i, j) != entry:
                A[..., i, j, :, :] = 0.0
    return A


def partial_box_samples(entry, m, lam=0.7) -> CoefficientSamples:
    g = BoxGrid(3, SIZES[3])
    rng = np.random.Generator(np.random.PCG64(6))
    return CoefficientSamples(
        grid=g, A=coefficient_blocks(partial_tensor(g.shape, m, entry, rng)),
        V=rng.standard_normal(g.shape + (3, m, m)),
        B=rng.standard_normal(g.shape + (3, m, m)),
        c=rng.standard_normal(g.shape + (m, m)), lam=lam, m=m, self_adjoint=False)


def same_bits(got, want) -> bool:
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def check_box(s: CoefficientSamples):
    rng = np.random.Generator(np.random.PCG64(21))
    grid = s.grid
    bmask = grid.boundary_mask()
    for t in (s, s.adjoint()):
        K_ii, K_ib = box_csr(t.stencil)
        W_ii, W_ib = assemble_box_all(*sample_arrays(t), t.lam, grid)
        u = rng.standard_normal((grid.n - 1,) * grid.d + (t.m,))
        g = rng.standard_normal(grid.shape + (t.m,))
        assert same_bits(t.apply_interior(u).ravel(), W_ii @ u.ravel())
        assert same_bits(t.lift(g).ravel(), W_ib @ g[bmask].ravel())
        assert np.array_equal(K_ii.toarray(), W_ii.toarray())
        assert np.array_equal(K_ib.toarray(), W_ib.toarray())


def check_torus(A: np.ndarray, g: TorusGrid):
    rng = np.random.Generator(np.random.PCG64(22))
    K, W = assemble(coefficient_blocks(A), g), assemble_torus_all(A, g)
    u = rng.standard_normal(K.shape[1])
    assert same_bits(K @ u, W @ u)
    assert np.array_equal(torus_csr(K).toarray(), W.toarray())


@pytest.mark.parametrize("name,params", CASES, ids=IDS)
def test_box_matches_all_offsets(name, params):
    check_box(box_samples(name, params))


@pytest.mark.parametrize("name,params", CASES, ids=IDS)
def test_torus_matches_all_offsets(name, params):
    d = params["d"]
    g = TorusGrid(d, SIZES[d])
    A = torus_coefficients(name, params, g, np.random.Generator(np.random.PCG64(7)))
    check_torus(A, g)


@pytest.mark.parametrize("entry,m", PARTIAL_CASES, ids=PARTIAL_IDS)
def test_partially_coupled_box_matches_all_offsets(entry, m):
    check_box(partial_box_samples(entry, m))


@pytest.mark.parametrize("entry,m", PARTIAL_CASES, ids=PARTIAL_IDS)
def test_partially_coupled_torus_matches_all_offsets(entry, m):
    g = TorusGrid(3, SIZES[3])
    check_torus(partial_tensor(g.shape, m, entry, np.random.Generator(np.random.PCG64(9))), g)
