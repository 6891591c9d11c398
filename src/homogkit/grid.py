"""Uniform structured grids and discrete differential operators.

Two grid flavors share one lattice: d axes of spacing h = 1/n, with the
points i*h on each.  The periodic unit cell ``[0,1)^d`` (TorusGrid) has n
points per axis; the unit box ``[0,1]^d`` with strongly imposed Dirichlet
boundaries (BoxGrid) has n + 1.  Each grid states that number once, in
``shape``, and which points carry a Riemann cell, in ``cells``; the
coordinates (``axis``, ``points``), the cells the norms sum over, the CSV
header and, on the box, the boundary follow from them.  Grid functions are
plain numpy arrays with the grid axes first and an arbitrary tuple of
trailing component axes.

All difference operators are second order.  The divergence-form operator is
discretized in flux-conservative form so that discrete summation by parts
holds exactly.  Solvers use it assembled once, by ``assemble``;
``principal_part_apply`` evaluates the same stencil from the coefficient
arrays and serves as the reference the assembled operators are tested
against.  ``assemble`` reads A as ``PrincipalBlocks``, the blocks a_ij
(*grid shape, m, m) the stencil uses: cut from a full tensor by
``coefficient_blocks`` on the torus, sampled block by block on a box
(``bvp.sample_coefficients``).  On either grid it stores the operator as
one block of entries per component and stencil offset on the lattice
padded by one layer (``Stencil``), and applies it with numpy, so no
operator needs ``scipy.sparse``.  The torus wraps the padding layer; a
box's padding layer is its boundary, so one stencil gives both the
interior block K_ii (zero boundary values) and the boundary coupling K_ib
(``Stencil.lift``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


class GridError(ValueError):
    """Raised on grid / field shape mismatches."""


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Lattice:
    """The lattice of both grids: d axes of spacing h = 1/n with the points
    i*h, i = 0 .. shape[0] - 1.  Dataclass equality also compares the
    class, so a torus and a box of one size differ."""

    d: int
    n: int

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise GridError(f"dimension must be 1, 2 or 3, got {self.d}")
        if self.n < 4:
            raise GridError(f"need n = 1/h >= 4 cells per axis, got {self.n}")

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def cell_volume(self) -> float:
        return self.h ** self.d

    def axis(self) -> np.ndarray:
        """The coordinates i*h of the points of one axis."""
        return np.arange(self.shape[0]) * self.h

    def points(self) -> np.ndarray:
        """Array of shape (*shape, d) with the lattice coordinates."""
        mesh = np.meshgrid(*[self.axis()] * self.d, indexing="ij")
        return np.stack(mesh, axis=-1)


class TorusGrid(_Lattice):
    """Uniform lattice on the flat torus [0,1)^d with n points per axis;
    every point carries a Riemann cell."""

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.d

    @property
    def npoints(self) -> int:
        return self.n ** self.d

    @property
    def cells(self) -> tuple[slice, ...]:
        return (slice(None),) * self.d


class BoxGrid(_Lattice):
    """Uniform grid on the unit box [0, 1]^d including the boundary points.

    ``n`` counts intervals per axis; points sit at i*h, i = 0..n, so dyadic
    refinements nest exactly (needed by the sweep restriction logic).  The
    points of the upper faces carry no Riemann cell.
    """

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n + 1,) * self.d

    @property
    def cells(self) -> tuple[slice, ...]:
        return (slice(0, -1),) * self.d

    @property
    def interior(self) -> tuple[slice, ...]:
        return (slice(1, -1),) * self.d

    def boundary_mask(self) -> np.ndarray:
        """The complement of ``interior``."""
        mask = np.ones(self.shape, dtype=bool)
        mask[self.interior] = False
        return mask

    def boundary_distance(self) -> np.ndarray:
        """Exact distance to the box boundary at every grid point: the least
        of the per-axis distances, combined by broadcasting."""
        x = self.axis()
        near = np.minimum(x, 1.0 - x)
        axes = np.meshgrid(*[near] * self.d, indexing="ij", sparse=True)
        return functools.reduce(np.minimum, axes)


Grid = TorusGrid | BoxGrid


def is_dyadic(e: float) -> bool:
    """Whether ``e`` is 2^-j for an integer j >= 0 (the eps the sweeps nest)."""
    if e <= 0 or e > 1:
        return False
    j = math.log2(1.0 / e)
    return abs(j - round(j)) < 1e-12


# ---------------------------------------------------------------------------
# grid functions
# ---------------------------------------------------------------------------

@dataclass
class GridFunction:
    """Samples of a (possibly tensor-valued) function on a grid.

    ``values`` has shape ``grid.shape + comp_shape``.  The trailing component
    axes carry whatever tensor structure the caller wants (scalars have
    ``comp_shape == ()``).
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        gs = self.grid.shape
        if self.values.shape[: len(gs)] != gs:
            raise GridError(
                f"values shape {self.values.shape} does not start with grid shape {gs}"
            )
        if not np.all(np.isfinite(self.values)):
            raise GridError("grid function contains non-finite values")

    @property
    def comp_shape(self) -> tuple[int, ...]:
        return self.values.shape[len(self.grid.shape):]

    @property
    def ncomp(self) -> int:
        return int(np.prod(self.comp_shape)) if self.comp_shape else 1


# ---------------------------------------------------------------------------
# difference operators (raw-array level)
# ---------------------------------------------------------------------------

def _centered_periodic(v: np.ndarray, axis: int, h: float) -> np.ndarray:
    return (np.roll(v, -1, axis=axis) - np.roll(v, 1, axis=axis)) / (2.0 * h)


def _face_difference(v: np.ndarray, axis: int, h: float, low: bool) -> np.ndarray:
    """Second-order one-sided d/dx_axis of ``v`` on its low or high face."""
    def at(i):
        return (slice(None),) * axis + (i,)

    if low:
        return (-3.0 * v[at(0)] + 4.0 * v[at(1)] - v[at(2)]) / (2.0 * h)
    return (3.0 * v[at(-1)] - 4.0 * v[at(-2)] + v[at(-3)]) / (2.0 * h)


def _centered_box(v: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Second-order differences: centered inside, one-sided at the two faces."""
    lead = (slice(None),) * axis
    out = np.empty_like(v)
    out[lead + (slice(1, -1),)] = (v[lead + (slice(2, None),)]
                                   - v[lead + (slice(0, -2),)]) / (2.0 * h)
    out[lead + (0,)] = _face_difference(v, axis, h, low=True)
    out[lead + (-1,)] = _face_difference(v, axis, h, low=False)
    return out


def _difference(grid: Grid):
    """d/dx_axis as ``f(v, axis, h)``: periodic centred differences on the
    torus; on a box centred inside and one-sided at the faces."""
    return _centered_periodic if isinstance(grid, TorusGrid) else _centered_box


def gradient(u: GridFunction) -> GridFunction:
    """Discrete gradient; exact for affine fields.

    Output components gain a trailing axis of length d: shape
    ``grid.shape + comp_shape + (d,)``.
    """
    g = u.grid
    diff = _difference(g)
    return GridFunction(g, np.stack([diff(u.values, ax, g.h) for ax in range(g.d)],
                                    axis=-1))


def divergence(u: GridFunction) -> GridFunction:
    """Discrete divergence, with the differences of ``gradient``: the sum of
    d/dx_i of component i of the trailing axis of length d, which it drops.

    The terms are added to zeros in axis order, so each value is the sum
    0 + t_1 + ... + t_d in that order.
    """
    g = u.grid
    if u.comp_shape[-1:] != (g.d,):
        raise GridError(f"divergence needs a trailing axis of length d = {g.d}, "
                        f"got components {u.comp_shape}")
    diff = _difference(g)
    out = np.zeros(u.values.shape[:-1])
    for ax in range(g.d):
        out += diff(u.values[..., ax], ax, g.h)
    return GridFunction(g, out)


# ---------------------------------------------------------------------------
# divergence-form operator
# ---------------------------------------------------------------------------

def _component_matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Contract the (m, m) trailing block of ``a`` with the m-vector ``v``."""
    if a.ndim == v.ndim:  # scalar block (m = 1 stored without axes)
        return a * v
    return np.einsum("...ab,...b->...a", a, v)


def _coef_block(A: np.ndarray, nd: int, i: int, j: int) -> np.ndarray:
    """Slice out a_ij from coefficients shaped grid.shape + (d, d[, m, m])."""
    return np.take(np.take(A, i, axis=nd), j, axis=nd)


def principal_part_apply(A: np.ndarray, u: np.ndarray, grid: Grid) -> np.ndarray:
    """Apply the flux-form discretization of -div(A grad u).

    ``A`` has shape ``grid.shape + (d, d)`` for scalar problems or
    ``grid.shape + (d, d, m, m)`` for systems; ``u`` has shape ``grid.shape``
    or ``grid.shape + (m,)``.

    Diagonal entries a_ii use compact D-(a D+) stencils with arithmetic
    half-point averaging; off-diagonal entries use centered-in / centered-out
    differences.  Both pieces transpose cleanly, which makes the discrete
    adjoint equal the operator built from the transposed coefficients.

    On a BoxGrid the full array (boundary included) is processed and only the
    interior rows of the result are meaningful; wrap-around touches boundary
    rows only.

    This is the reference evaluation of the stencil that ``assemble``
    stores.
    """
    d = grid.d
    h = grid.h
    gs = grid.shape
    nd = len(gs)
    out = np.zeros_like(u)
    for i in range(d):
        aii = _coef_block(A, nd, i, i)
        # forward difference of u along axis i
        dpu = (np.roll(u, -1, axis=i) - u) / h
        half = 0.5 * (aii + np.roll(aii, -1, axis=i))
        flux = _component_matvec(half, dpu)
        out -= (flux - np.roll(flux, 1, axis=i)) / h
        for j in range(d):
            if j == i:
                continue
            aij = _coef_block(A, nd, i, j)
            dcu = (np.roll(u, -1, axis=j) - np.roll(u, 1, axis=j)) / (2.0 * h)
            q = _component_matvec(aij, dcu)
            out -= (np.roll(q, -1, axis=i) - np.roll(q, 1, axis=i)) / (2.0 * h)
    return out


# ---------------------------------------------------------------------------
# the coefficient blocks the stencil reads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrincipalBlocks:
    """The blocks a_ij (*grid shape, m, m) of a principal coefficient A that
    the flux stencil reads: every diagonal block a_ii, and the cross blocks
    a_ij and a_ji of each axis pair i < j whose a_ij or a_ji is nonzero (or
    NaN) somewhere (``_cross_pairs``).  Every cross block not in ``cross``
    is zero.  ``coefficient_blocks`` cuts them from a full tensor."""

    diag: tuple[np.ndarray, ...]
    cross: dict[tuple[int, int], np.ndarray]

    def transposed(self) -> "PrincipalBlocks":
        """The blocks of a_ij^{ab} -> a_ji^{ba} (the principal part of the
        adjoint), as views."""
        def t(b):
            return np.swapaxes(b, -1, -2)

        return PrincipalBlocks(tuple(map(t, self.diag)),
                               {(i, j): t(self.cross[j, i]) for i, j in self.cross})


def coefficient_blocks(A: np.ndarray) -> PrincipalBlocks:
    """The ``PrincipalBlocks`` of a full tensor ``A`` (..., d, d, m, m), as
    views of ``A``."""
    d = A.shape[-3]
    cross = {}
    for i in range(d):
        for j in range(i + 1, d):
            aij, aji = A[..., i, j, :, :], A[..., j, i, :, :]
            if aij.any() or aji.any():
                cross[i, j], cross[j, i] = aij, aji
    return PrincipalBlocks(tuple(A[..., i, i, :, :] for i in range(d)), cross)


def precond_scale(A: PrincipalBlocks, grid: Grid) -> float:
    """Mean of the diagonal entries a_ii^{aa}: the Laplacian scale of the
    FFT/DST preconditioners for the operator with principal blocks ``A``.
    Each mean runs over the grid points in C order, so it is the same
    whether a block is a view of a full tensor or a copy."""
    m = A.diag[0].shape[-1]
    s = 0.0
    for i in range(grid.d):
        s += sum(float(A.diag[i][..., a, a].mean()) for a in range(m)) / m
    return s / grid.d


# ---------------------------------------------------------------------------
# assembled operator
# ---------------------------------------------------------------------------

def _cross_pairs(A: PrincipalBlocks) -> list[tuple[int, int]]:
    """The axis pairs i < j whose a_ij or a_ji is nonzero (or NaN) somewhere:
    only these fill the diagonal offsets +-e_i +-e_j of the flux stencil."""
    return sorted((i, j) for i, j in A.cross if i < j)


def _stencil_offsets(d: int, pairs: list[tuple[int, int]]) -> list[tuple[int, ...]]:
    """The offsets of the flux-form stencil: the centre, +-e_i, and +-e_i +-e_j
    for each axis pair of ``pairs`` (``_cross_pairs``); 3 / 9 / 19 in
    d = 1 / 2 / 3 when every pair couples, 1 + 2d for a diagonal A."""
    unit = [tuple(int(k == i) for k in range(d)) for i in range(d)]
    out = [(0,) * d]
    for i in range(d):
        out += [unit[i], tuple(-k for k in unit[i])]
    for i, j in pairs:
        out += [tuple(si * a + sj * b for a, b in zip(unit[i], unit[j]))
                for si in (1, -1) for sj in (1, -1)]
    return out


def _shifted(arr: np.ndarray, s: tuple[int, ...], rows: int) -> np.ndarray:
    """``arr`` at x + s for every row point x, as a view.

    Grid arrays carry one layer of points around the ``rows`` row points per
    axis (the box boundary, or a periodic wrap), so the shift is a slice.
    """
    return arr[tuple(slice(1 + k, 1 + rows + k) for k in s)]


def _flux_stencil(A: PrincipalBlocks, V, B, c, lam: float, h: float, rows: int):
    """Yield (offset, block) once for each offset of
    ``_stencil_offsets(d, _cross_pairs(A))``.

    Coefficients are laid out as ``_shifted`` expects.  Each block is a fresh
    array (*rows, m, m) whose [..., a, b] entry couples u^b(x + offset) into
    row (x, a).  The entries are those of ``principal_part_apply`` plus,
    unless ``V``, ``B``, ``c`` are None (all three or none), the centered
    lower-order terms -D(V u) + B Du + (c + lam) u.  Without them an entry
    that couples two components through a zero a_ii^{ab} is -0.0; every
    product ends by adding 0.0 (``Stencil``), so the sign never reaches a
    result.
    """
    d, m = len(A.diag), A.diag[0].shape[-1]
    h2 = h * h
    lower = V is not None

    def at(arr, s):
        return _shifted(arr, s, rows)

    def block(arr, *idx):
        # a contiguous block keeps the (m, m) axes and the last grid axis in
        # one inner loop of every slice operation below; the blocks of a
        # box sample are contiguous already and are not copied
        return np.ascontiguousarray(arr[(Ellipsis,) + idx + (slice(None),) * 2])

    zero = (0,) * d
    diag = None
    for i in range(d):
        ei = tuple(int(k == i) for k in range(d))
        mi = tuple(-k for k in ei)
        # a_ii at x +- e_i / 2, over h^2; built in place to keep few
        # row-sized temporaries alive
        aii = block(A.diag[i])
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
    for i, j in _cross_pairs(A):
        aij, aji = block(A.cross[i, j]), block(A.cross[j, i])
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


# Unknowns of a stencil product handled at once: the block of the result
# and the product temporary (256 KiB each) stay in cache while the stored
# entries stream through.
_ROW_BLOCK = 1 << 15


class Stencil:
    """An operator on a lattice as one block of entries per (component b,
    stencil offset k): ``blocks[b, k, a]`` holds, on the lattice padded by
    one layer per axis, the entry coupling u^b(x + offsets[k]) into row
    (x, a) at every lattice point x, and zero on the padding layer.

    ``K @ x`` copies x, one component at a time, into a padded array and
    fills its padding layer by ``wraps``, (padding face, lattice face)
    index pairs copied in order: the torus's wrap.  A box has none, so
    there the padding layer is its boundary layer, zero for ``@`` (K_ii)
    and the boundary values of a field for ``lift`` (K_ib).  In that layout
    the neighbours x + s of all lattice points are one contiguous slice,
    moved by the flat offset of s, so the product is one multiply and one
    add per step (b, k), over the flat range from the first to the last
    lattice point; the padding points inside it are computed and dropped.
    The range is cut into blocks of whole planes of the first axis, about
    ``_ROW_BLOCK`` unknowns each, and each block runs every step and writes
    out its lattice rows before the next begins.

    The steps run in ``order``, a list of (b, k), starting from the first
    product, and 0.0 is added last, as the rows are written out with the
    components fastest.  Each entry is thus (((p_1 + p_2) + ...) + 0.0).
    Its partial sums differ from those of 0 + p_1 + p_2 + ... only by a
    zero's sign, which the last addition clears, so the product agrees bit
    for bit with that of a ``scipy.sparse.csr_array`` holding each row's
    entries in ``order``, the sign of a zero included.  On the torus a NaN
    or an infinity in x reaches the same entries as there.  On a box, a
    finite entry times the zero padding is a signed zero, which changes no
    sum.

    The padded x, the block of the result and the product temporary are
    kept from one call to the next; the vector a product returns is fresh.
    """

    def __init__(self, blocks: np.ndarray, offsets: list[tuple[int, ...]],
                 order: list[tuple[int, int]], wraps=()):
        m, d, side = blocks.shape[0], blocks.ndim - 3, blocks.shape[-1]
        self.blocks, self.offsets, self.order = blocks, offsets, order
        self.shape = (m * (side - 2) ** d,) * 2
        self._field = (side - 2,) * d + (m,)
        self._comp_first = (d,) + tuple(range(d))   # field axes, components first
        self._x = np.zeros((m,) + (side,) * d)
        self._x_inner = self._x[(slice(None),) + (slice(1, -1),) * d]
        self._wraps = [(self._x[face], self._x[src]) for face, src in wraps]
        strides = [side ** (d - 1 - ax) for ax in range(d)]
        self._shift = [sum(sk * st for sk, st in zip(s, strides)) for s in offsets]
        lo = sum(strides)                   # the flat index of the first lattice point
        hi = side ** d - lo                 # one past the last
        plane, nplanes = strides[0], side - 2
        nblocks = -(-nplanes * plane * m // _ROW_BLOCK)
        per = -(-nplanes // nblocks)        # planes per block
        y = np.empty((m, per) + (side,) * (d - 1))
        t = np.empty((m, per * plane))
        self._blocks = []   # (first plane, planes, flat range, y and t there, y's lattice rows)
        for p in range(1, side - 1, per):
            q = min(per, side - 1 - p)
            r0, r1 = max(lo, p * plane), min(hi, (p + q) * plane)
            window = slice(r0 - p * plane, r1 - p * plane)
            self._blocks.append((p, q, r0, r1, y.reshape(m, -1)[:, window], t[:, :r1 - r0],
                                 y[(slice(None), slice(q)) + (slice(1, -1),) * (d - 1)]))
        self._steps = self._bind(self._x)

    def _bind(self, x: np.ndarray) -> list:
        """For every block, the steps of a product with the padded array
        ``x``: (entries, x at the neighbours) in ``order``."""
        m = x.shape[0]
        entries = self.blocks.reshape(m, len(self.offsets), m, -1)
        xf = x.reshape(m, -1)
        return [[(entries[b, k, :, r0:r1], xf[b, r0 + self._shift[k]:r1 + self._shift[k]])
                 for b, k in self.order] for _, _, r0, r1, *_ in self._blocks]

    def _product(self, steps: list) -> np.ndarray:
        out = np.empty(self._field)
        by_comp = out.transpose(self._comp_first)
        for (p, q, _, _, y, t, rows), ((blk, xs), *rest) in zip(self._blocks, steps):
            np.multiply(blk, xs, out=y)
            for blk, xs in rest:
                np.multiply(blk, xs, out=t)
                y += t
            np.add(rows, 0.0, out=by_comp[:, p - 1:p - 1 + q])
        return out

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        self._x_inner[...] = x.reshape(self._field).transpose(self._comp_first)
        for face, src in self._wraps:
            face[...] = src
        return self._product(self._steps).reshape(-1)

    def lift(self, u: np.ndarray) -> np.ndarray:
        """The product with zero at every lattice point and the padding
        layer of ``u`` (*padded shape, m), whose lattice values are not read:
        on a box, K_ib u_b.  Returns (*lattice shape, m)."""
        x = np.zeros(self._x.shape)
        for ax in range(1, x.ndim):
            for i in (0, -1):
                face = (slice(None),) * ax + (i,)
                x[face] = np.moveaxis(u[face[1:]], -1, 0)
        return self._product(self._bind(x))


def assemble(A: PrincipalBlocks, grid: Grid, V: np.ndarray | None = None,
             B: np.ndarray | None = None, c: np.ndarray | None = None,
             lam: float = 0.0) -> Stencil:
    """-div(A grad u + V u) + B grad u + (c + lam) u on ``grid`` as a
    ``Stencil``; V, B, c are all None (the default) for -div(A grad u) +
    lam u (``principal_part_apply`` at lam = 0).

    Unknowns are the lattice points in C order with the m components
    fastest: every point of a torus, the interior points of a box.  On the
    torus, A is given on the grid and wrapped into the padding layer.  On a
    box, the blocks of A and V, B, c (trailing axes (d, m, m), (d, m, m),
    (m, m)) are sampled on all of ``grid``, whose boundary layer is the
    padding.  The offsets are ``_stencil_offsets(d, _cross_pairs(A))``, and
    with n >= 4 no two of them reach the same point, so every row couples
    to exactly m * (1 + 2d + 4 * len(_cross_pairs(A))) unknowns.  The steps
    run b first, then k, on the torus (the order of the CSR array that once
    held it), and on a box by (offset, b): the column order of every row,
    in which the products of K_ii by diagonals and of K_ib by triplets
    added their terms.
    """
    d, m = grid.d, A.diag[0].shape[-1]
    offsets = _stencil_offsets(d, _cross_pairs(A))
    order = [(b, k) for b in range(m) for k in range(len(offsets))]
    wraps = []
    if isinstance(grid, TorusGrid):
        n = grid.n
        pad = functools.partial(np.pad, pad_width=[(1, 1)] * d + [(0, 0)] * 2, mode="wrap")
        A = PrincipalBlocks(tuple(map(pad, A.diag)), {k: pad(b) for k, b in A.cross.items()})
        wraps = [((slice(None),) * ax + (i,), (slice(None),) * ax + (j,))
                 for ax in range(1, d + 1) for i, j in ((0, n), (n + 1, 1))]
    else:
        # offsets in lexicographic order are in the order of their flat offsets
        order.sort(key=lambda bk: (offsets[bk[1]], bk[0]))
    padded = A.diag[0].shape[:-2]
    blocks = np.zeros((m, len(offsets), m) + padded)
    slot = {s: k for k, s in enumerate(offsets)}
    inner = (slice(1, -1),) * d
    for s, blk in _flux_stencil(A, V, B, c, lam, grid.h, padded[0] - 2):
        # blk[..., a, b] is blocks[b, k, a] at the lattice points
        blocks[(slice(None), slot[s], slice(None)) + inner] = np.moveaxis(blk, (-1, -2), (0, 1))
    return Stencil(blocks, offsets, order, wraps)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def _pointwise_abs(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Euclidean magnitude over component axes."""
    nd = len(grid.shape)
    comp_axes = tuple(range(nd, values.ndim))
    if not comp_axes:
        return np.abs(values)
    return np.sqrt(np.sum(values ** 2, axis=comp_axes))


def lp_norm(u: GridFunction, p: float) -> float:
    """Riemann sum over the grid's cells: one value per cell [ih, (i+1)h)."""
    mag = _pointwise_abs(u.values, u.grid)[u.grid.cells]
    return float((np.sum(mag ** p) * u.grid.cell_volume) ** (1.0 / p))


def linf_norm(u: GridFunction) -> float:
    return float(_pointwise_abs(u.values, u.grid).max())


_HOLDER_POINTS = 100   # points of the pair sample: 10^4 pairs


def holder_seminorm(u: GridFunction, sigma: float) -> float:
    """Holder(sigma) seminorm estimated on a deterministic stratified pair sample.

    Exact all-pairs is O(N^2); the pairs of a strided sample of
    ``_HOLDER_POINTS`` points are plenty for the ratio tests this feeds.
    """
    g = u.grid
    pts = g.points().reshape(-1, g.d)
    mag = u.values.reshape((np.prod(g.shape),) + u.comp_shape)
    npts = pts.shape[0]
    stride = max(1, npts // _HOLDER_POINTS)
    idx = np.arange(0, npts, stride)
    sub_pts = pts[idx]
    sub_vals = mag[idx]
    diff = sub_pts[:, None, :] - sub_pts[None, :, :]
    dist = np.sqrt(np.sum(diff ** 2, axis=-1))
    vdiff = sub_vals[:, None] - sub_vals[None, :]
    comp_axes = tuple(range(2, vdiff.ndim))
    vmag = np.sqrt(np.sum(vdiff ** 2, axis=comp_axes)) if comp_axes else np.abs(vdiff)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(dist > 0, vmag / np.where(dist > 0, dist, 1.0) ** sigma, 0.0)
    return float(ratio.max())


def h1_norm(u: GridFunction) -> float:
    gu = gradient(u)
    return float(math.sqrt(lp_norm(u, 2.0) ** 2 + lp_norm(gu, 2.0) ** 2))


# ---------------------------------------------------------------------------
# boundary machinery
# ---------------------------------------------------------------------------

def boundary_indices(grid: BoxGrid) -> np.ndarray:
    """Integer index tuples (N_b, d) of all boundary points, in a fixed order."""
    mask = grid.boundary_mask()
    return np.argwhere(mask)


def boundary_measure(grid: BoxGrid) -> float:
    return grid.h ** (grid.d - 1)


def boundary_lp_norm(values_on_boundary: np.ndarray, grid: BoxGrid, p: float) -> float:
    """L^p norm over boundary points with the face quadrature weight h^(d-1)."""
    mag = np.abs(values_on_boundary)
    if mag.ndim > 1:
        mag = np.sqrt(np.sum(values_on_boundary ** 2, axis=tuple(range(1, mag.ndim))))
    if p == math.inf:
        return float(mag.max())
    return float((np.sum(mag ** p) * boundary_measure(grid)) ** (1.0 / p))


# Cap on the (boundary point, interior point) cone tests evaluated at once by
# ``nontangential_max``: 2^16 pairs keep each float working array at 512 KiB.
_NTMAX_PAIRS = 1 << 16
# Interior points in the first block a boundary batch scans; each further
# block is twice as long, up to the pair cap.
_NTMAX_FIRST_BLOCK = 64


def _distances(cols: list[np.ndarray], q: np.ndarray) -> np.ndarray:
    """|x - Q| for the points x with coordinate columns ``cols`` against the
    points Q, the rows of ``q``: a (len(q), len(x)) array.

    The squares are added axis by axis, the order in which
    ``np.sqrt(np.sum((x - Q) ** 2, axis=-1))`` adds them for d <= 3, so the
    values are bit-identical to that expression.
    """
    sq = None
    for k, col in enumerate(cols):
        dk = col[None, :] - q[:, k, None]
        dk *= dk
        sq = dk if sq is None else np.add(sq, dk, out=sq)
    return np.sqrt(sq, out=sq)


def _box_distances(cols: list[np.ndarray], lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Distance from each point x with coordinate columns ``cols`` to the box
    [lo, hi], a lower bound on |x - Q| for every point Q in the box."""
    sq = None
    for k, col in enumerate(cols):
        dk = np.maximum(lo[k] - col, col - hi[k])
        np.maximum(dk, 0.0, out=dk)
        dk *= dk
        sq = dk if sq is None else np.add(sq, dk, out=sq)
    return np.sqrt(sq, out=sq)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=4)
def _cone_geometry(grid: BoxGrid, N0: float, cap: int):
    """The field-independent part of ``nontangential_max``, built once per
    (grid, N0, pair cap) and read-only:

    - the interior points' coordinate columns and their cone reach
      N0 * dist(x), in the order of ``points()[~boundary_mask()]``;
    - the boundary points, ordered as ``boundary_indices``;
    - the boundary batches: rows of that order, at most ``isqrt(cap)`` of
      them, all on one face and consecutive in the face's lexicographic
      order, each with the bounding box (lo, hi) of its points;
    - for every boundary point, the flat index of the interior point nearest
      it.
    """
    interior = ~grid.boundary_mask()
    pts = grid.points()[interior]
    cols = tuple(_read_only(pts[:, k].copy()) for k in range(grid.d))
    reach = _read_only(N0 * grid.boundary_distance()[interior])
    bidx = boundary_indices(grid)
    bpts = _read_only(bidx * grid.h)
    # a boundary point belongs to the face of its first boundary coordinate
    axis = ((bidx == 0) | (bidx == grid.n)).argmax(axis=1)
    face = 2 * axis + (bidx[np.arange(len(bidx)), axis] == grid.n)
    by_face = np.lexsort((*bidx.T[::-1], face))
    batch = math.isqrt(cap)
    batches = []
    for rows in np.split(by_face, np.flatnonzero(np.diff(face[by_face])) + 1):
        for part in np.array_split(rows, -(-rows.size // batch)):
            q = bpts[part]
            batches.append((_read_only(part), _read_only(q.min(axis=0)),
                            _read_only(q.max(axis=0))))
    inner = np.clip(bidx, 1, grid.n - 1) - 1            # interior lattice indices
    nearest = np.ravel_multi_index(tuple(inner.T), (grid.n - 1,) * grid.d)
    return cols, reach, bpts, tuple(batches), _read_only(nearest)


def nontangential_max(u: GridFunction, N0: float) -> np.ndarray:
    """Nontangential maximal function on the boundary of a BoxGrid.

    For every boundary point Q the maximum of |u| over interior grid points x
    in the cone |x - Q| <= N0 * dist(x, boundary) is returned (one value per
    boundary point, ordered as ``boundary_indices``).  A degenerate cone, one
    holding no interior point, is widened to the interior point nearest Q.

    Algorithm: the interior points are sorted by |u|, largest first.  The
    boundary points are taken in batches that lie on one face, consecutive
    in the face's lexicographic order, so each batch has a thin bounding box.
    A batch scans the sorted points in blocks that double in length from
    ``_NTMAX_FIRST_BLOCK``.  In each block, the points whose distance to the
    batch's bounding box exceeds their reach N0 * dist(x) by more than a
    relative 1e-12 are skipped; the rest are tested against the batch's
    unresolved boundary points.  The maximum over a cone is the first point
    of the sorted order lying in it, so each boundary point is resolved by
    its first hit and leaves the batch.  Points never hit take the value at
    the interior point nearest Q = q h, clip(q, 1, n - 1) h: the exact
    squared distance to any other interior point is larger by at least h^2,
    so it is also the ``argmin`` of the floating-point distances.

    Exactness: cone membership is decided by the floating-point expression
    ``sqrt(sum((x - Q)**2)) <= N0 * dist(x)`` on ``points()`` and
    ``boundary_distance()``, the test of the all-pairs definition.  The skip
    is conservative.  The distance from x to the box is a lower bound on
    |x - Q| for every Q of the batch, and each of its floating-point steps
    (difference, square, sum, sqrt) is monotone, so its computed value is at
    most the computed |x - Q|.  The 1e-12 slack adds a margin far above the
    rounding of either side.  So no skipped point lies in the cone of any
    point of the batch.  The value returned is a maximum, which no visiting order
    changes, and points tied in |u| carry the same value, so the sort need
    not be stable.  The output is therefore bit-identical to testing every
    pair.

    Work per call: the field-independent geometry is built once per (grid,
    N0) and cached (``_cone_geometry``); a call sorts |u| and scans.

    Memory: at most ``_NTMAX_PAIRS`` pairs are tested at once, whatever the
    grid size.  Batches hold at most ``isqrt(_NTMAX_PAIRS)`` boundary points,
    and a block holds at most ``_NTMAX_PAIRS // (unresolved count)`` interior
    points.
    """
    g = u.grid
    if not isinstance(g, BoxGrid):
        raise GridError("nontangential_max requires a BoxGrid")
    if N0 <= 1.0:
        raise GridError("need aperture N0 > 1")
    cols, reach, bpts, batches, nearest = _cone_geometry(g, N0, _NTMAX_PAIRS)
    mag = _pointwise_abs(u.values, g)[g.interior].ravel()
    order = np.argsort(-mag)
    s_mag, s_reach = mag[order], reach[order]
    s_bound = s_reach * (1.0 + 1e-12)
    s_cols = [c[order] for c in cols]
    npts = len(order)
    out = np.empty(len(bpts))
    for todo, lo, hi in batches:
        start, block = 0, _NTMAX_FIRST_BLOCK
        while todo.size and start < npts:
            stop = min(npts, start + block, start + _NTMAX_PAIRS // todo.size)
            box = _box_distances([c[start:stop] for c in s_cols], lo, hi)
            near = start + np.flatnonzero(box <= s_bound[start:stop])
            if near.size:
                dd = _distances([c[near] for c in s_cols], bpts[todo])
                in_cone = dd <= s_reach[near]
                first = in_cone.argmax(axis=1)
                hit = in_cone[np.arange(todo.size), first]
                out[todo[hit]] = s_mag[near[first[hit]]]
                todo = todo[~hit]
            start, block = stop, 2 * block
        out[todo] = mag[nearest[todo]]
    return out


# ---------------------------------------------------------------------------
# serialization (CSV interchange format)
# ---------------------------------------------------------------------------

def write_csv(u: GridFunction, path) -> None:
    """Write a grid function as CSV: header 'dim,n_per_axis,components', then
    row-major point data (one point per row)."""
    g = u.grid
    ncomp = u.ncomp
    flat = u.values.reshape(np.prod(g.shape), ncomp)
    with open(path, "w") as fh:
        fh.write("dim,n_per_axis,components\n")
        fh.write(f"{g.d},{g.shape[0]},{ncomp}\n")
        for row in flat:
            # repr of a Python float is the shortest round-trip decimal; one
            # row at a time, so no list of every value is ever held
            fh.write(",".join(map(repr, row.tolist())) + "\n")


def read_csv(path, grid: Grid | None = None) -> GridFunction:
    """Read back a grid function written by ``write_csv``.

    Without a grid the file is read on ``TorusGrid(d, n_per_axis)``: the
    header cannot tell a torus from a box, so a box file needs its grid.
    A grid whose shape disagrees with the header raises GridError.
    """
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "dim,n_per_axis,components":
            raise GridError(f"bad CSV header {header!r}")
        d, n, ncomp = (int(x) for x in fh.readline().split(","))
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if grid is None:
        grid = TorusGrid(d, n)
    elif grid.shape != (n,) * d:
        raise GridError(f"CSV header has (d, n_per_axis) = ({d}, {n}); "
                        f"the grid has shape {grid.shape}")
    shape = grid.shape + ((ncomp,) if ncomp > 1 else ())
    vals = data.reshape(shape)
    return GridFunction(grid, vals)
