import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import homogkit.green as green_mod
import homogkit.grid as grid_mod
import oracles
from homogkit.bvp import DirichletProblem, default_lambda, solve
from homogkit.coefficients import builtin_family
from homogkit.green import CONE_APERTURE, boundary_data_battery
from homogkit.grid import (BoxGrid, GridError, GridFunction,
                           TorusGrid, _pointwise_abs,
                           boundary_indices, boundary_lp_norm, divergence,
                           gradient,
                           is_dyadic, lp_norm, linf_norm, holder_seminorm,
                           h1_norm, nontangential_max,
                           precond_scale, principal_part_apply, read_csv,
                           write_csv)
from homogkit.rates import masked_h1_norm


def identity_coefficients(grid, d):
    A = np.zeros(grid.shape + (d, d))
    for i in range(d):
        A[..., i, i] = 1.0
    return A


class TestGrids:
    def test_torus_basic(self):
        g = TorusGrid(2, 8)
        assert g.h == 0.125
        assert g.shape == (8, 8)
        pts = g.points()
        assert pts.shape == (8, 8, 2)
        assert pts.max() < 1.0  # half-open cell

    def test_box_includes_boundary(self):
        g = BoxGrid(2, 8)
        pts = g.points()
        assert pts.shape == (9, 9, 2)
        assert pts.max() == 1.0

    @pytest.mark.parametrize("bad", [0, 4, 5])
    def test_dimension_guard(self, bad):
        with pytest.raises(GridError):
            TorusGrid(bad, 8)

    def test_small_n_guard(self):
        with pytest.raises(GridError):
            BoxGrid(2, 3)

    def test_boundary_distance_exact(self):
        g = BoxGrid(2, 4)
        dist = g.boundary_distance()
        assert dist[0, 2] == 0.0
        assert dist[2, 2] == 0.5
        assert dist[1, 2] == 0.25

    @pytest.mark.parametrize("d,n", [(1, 9), (1, 16), (2, 7), (2, 12),
                                     (3, 5), (3, 8)])
    def test_boundary_distance_matches_point_array(self, d, n):
        # the per-axis distances combined by broadcasting are bit-identical
        # to the reduction over the full (*shape, d) point array
        g = BoxGrid(d, n)
        pts = g.points()
        want = np.minimum(pts, 1.0 - pts).min(axis=-1)
        got = g.boundary_distance()
        assert got.shape == want.shape and np.array_equal(got, want)

    def test_boundary_mask_count(self):
        g = BoxGrid(2, 4)
        # 5^2 points minus 3^2 interior
        assert g.boundary_mask().sum() == 25 - 9


# ---------------------------------------------------------------------------
# Equivalence with the per-class lattice code that the shared lattice base
# replaced.  The oracles below are that code, copied in its arithmetic: each
# grid and consumer derived the points per axis, coordinates, Riemann cells
# and boundary on its own.
# ---------------------------------------------------------------------------

def _oracle_per_axis(g):
    return g.n if isinstance(g, TorusGrid) else g.n + 1


def _oracle_points(g):
    axes = [np.arange(_oracle_per_axis(g)) * g.h for _ in range(g.d)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def _oracle_boundary_mask(g):
    mask = np.zeros((g.n + 1,) * g.d, dtype=bool)
    for ax in range(g.d):
        idx = [slice(None)] * g.d
        idx[ax] = 0
        mask[tuple(idx)] = True
        idx[ax] = -1
        mask[tuple(idx)] = True
    return mask


def _oracle_boundary_distance(g):
    x = np.arange(g.n + 1) * g.h
    near = np.minimum(x, 1.0 - x)
    return functools.reduce(np.minimum, np.meshgrid(*[near] * g.d, indexing="ij",
                                                    sparse=True))


def _oracle_cells(g):
    if isinstance(g, TorusGrid):
        return (slice(None),) * g.d
    return (slice(0, -1),) * g.d


def _oracle_distance_from(g, y):
    x = np.arange(g.n + 1) * g.h
    sq = np.meshgrid(*[(x - yk) ** 2 for yk in y], indexing="ij", sparse=True)
    return np.sqrt(functools.reduce(np.add, sq))


def _oracle_masked_h1_norm(u, mask, gu):
    g, gu = u.grid, gu.values
    nd = g.d
    mag2 = np.sum(u.values ** 2, axis=tuple(range(nd, u.values.ndim)))
    gmag2 = np.sum(gu ** 2, axis=tuple(range(nd, gu.ndim)))
    cell = (slice(0, -1),) * nd
    return math.sqrt(float(((mag2 + gmag2)[cell] * mask[cell]).sum()) * g.cell_volume)


def _same_array(got, want):
    return got.dtype == want.dtype and np.array_equal(got, want)


LATTICES = [kind(d, n) for kind in (TorusGrid, BoxGrid) for d in (1, 2, 3)
            for n in (4, 5, 16, 33)]


@pytest.mark.parametrize("g", LATTICES, ids=repr)
class TestLatticeEquivalence:
    """Both grids' lattice and every consumer that reads it reproduce the
    per-class code bit for bit."""

    def test_points_and_shape(self, g):
        want = _oracle_points(g)
        assert _same_array(g.points(), want)
        assert g.shape == want.shape[:-1] == (_oracle_per_axis(g),) * g.d
        if isinstance(g, TorusGrid):
            assert g.npoints == want[..., 0].size
        assert _same_array(g.axis(), want[(slice(None),) + (0,) * (g.d - 1) + (0,)])
        assert g.cells == _oracle_cells(g)

    def test_norms_read_the_riemann_cells(self, g):
        rng = np.random.default_rng(g.d * 100 + g.n)
        for comp in ((), (2,)):
            u = GridFunction(g, rng.standard_normal(g.shape + comp))
            mag = _pointwise_abs(u.values, g)[_oracle_cells(g)]
            for p in (1.0, 2.0, 3.5):
                want = float((np.sum(mag ** p) * g.cell_volume) ** (1.0 / p))
                assert lp_norm(u, p) == want

    def test_csv_header(self, g, tmp_path):
        for comp, ncomp in (((), 1), ((2,), 2)):
            write_csv(GridFunction(g, np.zeros(g.shape + comp)), tmp_path / "u.csv")
            with open(tmp_path / "u.csv") as fh:
                head = [fh.readline(), fh.readline()]
            assert head == ["dim,n_per_axis,components\n",
                            f"{g.d},{_oracle_per_axis(g)},{ncomp}\n"]


@pytest.mark.parametrize("g", [g for g in LATTICES if isinstance(g, BoxGrid)], ids=repr)
class TestBoxLatticeEquivalence:
    """The box boundary, the Green's-function distances and the masked H1
    norm (a box-only consumer) reproduce the per-class code bit for bit."""

    def test_boundary(self, g):
        assert _same_array(g.boundary_mask(), _oracle_boundary_mask(g))
        assert _same_array(g.boundary_distance(), _oracle_boundary_distance(g))
        assert _same_array(g.points()[g.interior], _oracle_points(g)[(slice(1, -1),) * g.d])

    def test_distance_and_masked_h1(self, g):
        rng = np.random.default_rng(g.d * 100 + g.n)
        for y in ([0.5] * g.d, rng.uniform(0.1, 0.9, g.d), np.full(g.d, g.h)):
            y = np.asarray(y, float)
            assert _same_array(green_mod._distance_from(g, y), _oracle_distance_from(g, y))
        for comp in ((), (2,)):
            u = GridFunction(g, rng.standard_normal(g.shape + comp))
            gu = gradient(u)
            mask = rng.random(g.shape) < 0.7
            assert masked_h1_norm(u, mask, gu) == _oracle_masked_h1_norm(u, mask, gu)


def test_torus_and_box_of_one_size_differ():
    assert TorusGrid(2, 8) != BoxGrid(2, 8)
    assert TorusGrid(2, 8) == TorusGrid(2, 8) and BoxGrid(2, 8) == BoxGrid(2, 8)
    assert len({TorusGrid(2, 8), BoxGrid(2, 8), BoxGrid(2, 8)}) == 2


class TestGradient:
    def test_affine_exact_on_box(self):
        g = BoxGrid(2, 16)
        p = g.points()
        u = GridFunction(g, 2.0 * p[..., 0] - 3.0 * p[..., 1] + 1.0)
        gu = gradient(u).values
        assert np.allclose(gu[..., 0], 2.0, atol=1e-13)
        assert np.allclose(gu[..., 1], -3.0, atol=1e-13)

    def test_trig_second_order_on_torus(self):
        errs = []
        for n in (32, 64):
            g = TorusGrid(1, n)
            u = GridFunction(g, np.sin(2 * np.pi * g.points()[..., 0]))
            gu = gradient(u).values[..., 0]
            exact = 2 * np.pi * np.cos(2 * np.pi * g.points()[..., 0])
            errs.append(np.abs(gu - exact).max())
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)


class TestDivergence:
    """``divergence`` is bit-identical to the hand-written sums it replaced."""

    @pytest.mark.parametrize("comp", [(), (2,), (2, 2)], ids=str)
    @pytest.mark.parametrize("d,n", [(1, 9), (2, 7), (3, 5)])
    def test_matches_hand_sums(self, d, n, comp):
        rng = np.random.default_rng(10 * d + len(comp))
        torus, box = TorusGrid(d, n), BoxGrid(d, n)
        # the flux-direction axis right after the grid axes, as in E[..., l, i]
        u = rng.standard_normal(torus.shape + (d,) + comp)
        got = divergence(GridFunction(torus, np.moveaxis(u, d, -1))).values
        assert np.array_equal(got, oracles.divergence_centered(u, torus, d))
        u = rng.standard_normal(box.shape + comp + (d,))
        got = divergence(GridFunction(box, u)).values
        assert np.array_equal(got, oracles.divergence_box_sum(u, box))
        assert np.array_equal(got, oracles.divergence_box_loop(u, box))

    def test_needs_a_trailing_axis_of_length_d(self):
        g = TorusGrid(2, 8)
        with pytest.raises(GridError):
            divergence(GridFunction(g, np.zeros(g.shape + (3,))))


class TestPrincipalPart:
    def test_annihilates_affine(self):
        g = TorusGrid(2, 16)
        A = identity_coefficients(g, 2)
        u = np.ones(g.shape)
        out = principal_part_apply(A, u, g)
        assert np.abs(out).max() < 1e-13

    def test_laplacian_eigenfunction(self):
        g = TorusGrid(2, 128)
        A = identity_coefficients(g, 2)
        pts = g.points()
        u = np.sin(2 * np.pi * pts[..., 0]) * np.sin(2 * np.pi * pts[..., 1])
        out = principal_part_apply(A, u, g)
        # discrete symbol of the compact 5-point Laplacian
        lam = 2 * (2 - 2 * math.cos(2 * math.pi / g.n)) / g.h ** 2
        assert np.allclose(out, lam * u, atol=1e-10 * lam)

    def test_summation_by_parts_exact(self):
        rng = np.random.Generator(np.random.PCG64(7))
        g = TorusGrid(2, 12)
        A = identity_coefficients(g, 2) + 0.3 * rng.random(g.shape + (2, 2))
        u = rng.standard_normal(g.shape)
        v = rng.standard_normal(g.shape)
        lhs = float(np.sum(principal_part_apply(A, u, g) * v)) * g.cell_volume
        rhs = oracles.bilinear_energy(A, u, v, g)
        assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_transpose_identity(self):
        # <L u, v> with coefficients A equals <u, L v> with A transposed,
        # exactly: the discrete operator of the transposed samples is the
        # matrix transpose.
        rng = np.random.Generator(np.random.PCG64(3))
        g = TorusGrid(2, 10)
        A = identity_coefficients(g, 2) + 0.4 * rng.random(g.shape + (2, 2))
        At = np.swapaxes(A, -1, -2)
        u = rng.standard_normal(g.shape)
        v = rng.standard_normal(g.shape)
        lhs = np.sum(principal_part_apply(A, u, g) * v)
        rhs = np.sum(u * principal_part_apply(At, v, g))
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestNorms:
    def test_lp_of_constant(self):
        g = TorusGrid(2, 16)
        u = GridFunction(g, np.full(g.shape, 3.0))
        assert lp_norm(u, 2.0) == pytest.approx(3.0)
        assert lp_norm(u, 4.0) == pytest.approx(3.0)
        assert linf_norm(u) == 3.0

    def test_h1_of_linear_on_box(self):
        g = BoxGrid(1, 64)
        u = GridFunction(g, g.points()[..., 0])
        # ||u||_L2^2 = 1/3 (Riemann sum converges), |grad| = 1
        val = h1_norm(u)
        assert val == pytest.approx(math.sqrt(1 / 3 + 1), rel=0.05)

    def test_holder_sigma_one_is_lipschitz_bound(self):
        g = BoxGrid(1, 64)
        u = GridFunction(g, 2.5 * g.points()[..., 0])
        assert holder_seminorm(u, 1.0) == pytest.approx(2.5, rel=1e-10)

    @pytest.mark.parametrize("sigma", [0.25, 0.5, 1.0])
    def test_holder_of_power_cusp_is_one(self, sigma):
        # u = |x - 1/2|^sigma has Holder(sigma) seminorm 1, attained by the
        # pairs (1/2, y); BoxGrid(1, 64) has 65 points, all of them in the
        # pair sample, and every distance and power there is computed from
        # the same exact differences, so the ratio at x = 1/2 is exactly 1
        g = BoxGrid(1, 64)
        u = GridFunction(g, np.abs(g.axis() - 0.5) ** sigma)
        assert holder_seminorm(u, sigma) == 1.0

    def test_boundary_lp_scaling(self):
        g = BoxGrid(2, 16)
        nb = g.boundary_mask().sum()
        vals = np.ones(nb)
        # perimeter 4 of the unit square, sampled with weight h
        assert boundary_lp_norm(vals, g, 2.0) == pytest.approx(2.0, rel=0.1)


class TestNontangentialMax:
    def test_constant_field(self):
        g = BoxGrid(2, 12)
        u = GridFunction(g, np.full(g.shape, 2.0))
        star = nontangential_max(u, N0=2.0)
        assert np.allclose(star, 2.0)

    def test_cone_sees_interior_peak(self):
        g = BoxGrid(2, 16)
        vals = np.zeros(g.shape)
        vals[8, 8] = 5.0   # dead center: inside every cone with N0 = 2
        star = nontangential_max(GridFunction(g, vals), N0=2.0)
        assert star.max() == 5.0

    def test_aperture_guard(self):
        g = BoxGrid(2, 8)
        with pytest.raises(GridError):
            nontangential_max(GridFunction(g, np.full(g.shape, 1.0)), N0=1.0)

    def test_geometry_is_cached_read_only(self):
        g = BoxGrid(2, 10)
        u = GridFunction(g, np.random.default_rng(0).standard_normal(g.shape))
        first = nontangential_max(u, 3.0)
        hits = grid_mod._cone_geometry.cache_info().hits
        assert np.array_equal(nontangential_max(u, 3.0), first)
        assert grid_mod._cone_geometry.cache_info().hits == hits + 1
        cols, reach, bpts, batches, nearest = grid_mod._cone_geometry(
            g, 3.0, grid_mod._NTMAX_PAIRS)
        arrays = [*cols, reach, bpts, nearest, *(a for b in batches for a in b)]
        assert not any(a.flags.writeable for a in arrays)


def nontangential_max_brute(u, N0):
    """The all-pairs nontangential maximal function: every boundary point is
    tested against every interior point.  Oracle for the pruned kernel."""
    g = u.grid
    mag = _pointwise_abs(u.values, g)
    dist = g.boundary_distance()
    interior = ~g.boundary_mask()
    pts = g.points()
    int_pts = pts[interior]
    int_mag = mag[interior]
    int_dist = dist[interior]
    bpts = boundary_indices(g) * g.h
    out = np.empty(len(bpts))
    chunk = 256
    for start in range(0, len(bpts), chunk):
        qb = bpts[start:start + chunk]
        diff = int_pts[None, :, :] - qb[:, None, :]
        dd = np.sqrt(np.sum(diff ** 2, axis=-1))
        in_cone = dd <= N0 * int_dist[None, :]
        vals = np.where(in_cone, int_mag[None, :], -np.inf)
        best = vals.max(axis=1)
        empty = ~in_cone.any(axis=1)
        if np.any(empty):
            nearest = dd[empty].argmin(axis=1)
            best[empty] = int_mag[nearest]
        out[start:start + chunk] = best
    return out


APERTURES = (1.2, 2.0, 4.0)
# (d, n): odd n and every dimension.
EQUIV_GRIDS = ((1, 9), (2, 15), (2, 12), (3, 7))
# The production cap, and caps small enough that these grids take several
# boundary batches and interior blocks.
PAIR_CAPS = (grid_mod._NTMAX_PAIRS, 256, 64)


def _field(kind, g, rng):
    if kind == "random":
        return rng.standard_normal(g.shape)
    if kind == "random-vector":
        return rng.standard_normal(g.shape + (2,))
    if kind == "quantized":
        # three levels: nearly every |u| value is tied with many others
        return rng.integers(-1, 2, size=g.shape).astype(float)
    return np.full(g.shape, -1.5)


@pytest.fixture(scope="module")
def battery_fields():
    """Dirichlet solutions for battery boundary data, d = 2, 3 and m = 1, 2."""
    fields = []
    for d, n in ((2, 16), (3, 8)):
        for m in (1, 2):
            cs = builtin_family("trig", d=d, m=m)
            g = BoxGrid(d, n)
            for g_vals in boundary_data_battery(g, m, seed=d + m)[:4]:
                u, _ = solve(DirichletProblem(cs=cs, grid=g, eps=1.0, lam=1.0,
                                              g=g_vals))
                fields.append(u)
    return fields


@pytest.fixture(scope="module")
def workload_field():
    """A battery solution on the maximal workload's grid, BoxGrid(2, 96) with
    trig coefficients at eps = 1/4."""
    cs = builtin_family("trig", d=2)
    g = BoxGrid(2, 96)
    g_vals = boundary_data_battery(g, 1, seed=11)[1]
    u, _ = solve(DirichletProblem(cs=cs, grid=g, eps=0.25,
                                  lam=default_lambda(cs), g=g_vals))
    return u


class TestNontangentialMaxEquivalence:
    """The pruned kernel is bit-identical to the all-pairs oracle."""

    @staticmethod
    def assert_matches_oracle(u, monkeypatch, apertures=APERTURES):
        for N0 in apertures:
            want = nontangential_max_brute(u, N0)
            for cap in PAIR_CAPS:
                monkeypatch.setattr(grid_mod, "_NTMAX_PAIRS", cap)
                assert np.array_equal(nontangential_max(u, N0), want), (cap, N0)

    def test_battery_solutions(self, battery_fields, monkeypatch):
        for u in battery_fields:
            self.assert_matches_oracle(u, monkeypatch)

    @pytest.mark.parametrize("grid", EQUIV_GRIDS)
    @pytest.mark.parametrize("kind", ["random", "random-vector", "quantized",
                                      "constant"])
    def test_synthetic_fields(self, kind, grid, monkeypatch):
        g = BoxGrid(*grid)
        u = GridFunction(g, _field(kind, g, np.random.default_rng(grid[1])))
        self.assert_matches_oracle(u, monkeypatch)

    def test_workload_grid_and_aperture(self, workload_field, monkeypatch):
        self.assert_matches_oracle(workload_field, monkeypatch, (CONE_APERTURE,))

    def test_faces_span_several_batches(self, monkeypatch):
        # 13^2 points per face: many boundary batches at the caps 256 and 64
        g = BoxGrid(3, 12)
        u = GridFunction(g, _field("random", g, np.random.default_rng(12)))
        self.assert_matches_oracle(u, monkeypatch)

    @pytest.mark.parametrize("d", [2, 3])
    def test_corner_cones_are_empty_at_small_aperture(self, d):
        # |x - corner| >= sqrt(d) dist(x), so N0 = 1.2 leaves the corner cones
        # empty and the nearest-point fallback decides their values.
        g = BoxGrid(d, 8)
        pts = g.points()[~g.boundary_mask()]
        dist = g.boundary_distance()[~g.boundary_mask()]
        dd = np.sqrt(np.sum(pts ** 2, axis=-1))
        assert not np.any(dd <= 1.2 * dist)
        vals = np.arange(np.prod(g.shape), dtype=float).reshape(g.shape)
        star = nontangential_max(GridFunction(g, vals), 1.2)
        assert star[0] == vals[(1,) * d]   # boundary_indices starts at the origin


@pytest.fixture
def pair_sizes(monkeypatch):
    """Sizes of the (boundary point, interior point) distance arrays the
    kernel forms, recorded by wrapping ``grid._distances``."""
    sizes = []
    distances = grid_mod._distances

    def recording(cols, q):
        dd = distances(cols, q)
        sizes.append(dd.size)
        return dd
    monkeypatch.setattr(grid_mod, "_distances", recording)
    return sizes


class TestNontangentialMaxMemory:
    """No distance array of the kernel holds more than ``_NTMAX_PAIRS``
    pairs, whatever the grid size."""

    def test_production_cap_on_workload_grid(self, workload_field, pair_sizes):
        nontangential_max(workload_field, CONE_APERTURE)
        assert pair_sizes and max(pair_sizes) <= grid_mod._NTMAX_PAIRS

    @pytest.mark.parametrize("cap", PAIR_CAPS[1:])
    @pytest.mark.parametrize("grid", EQUIV_GRIDS)
    def test_small_caps(self, grid, cap, pair_sizes, monkeypatch):
        g = BoxGrid(*grid)
        u = GridFunction(g, _field("random", g, np.random.default_rng(grid[1])))
        monkeypatch.setattr(grid_mod, "_NTMAX_PAIRS", cap)
        for N0 in APERTURES:
            pair_sizes.clear()
            nontangential_max(u, N0)
            assert pair_sizes and max(pair_sizes) <= cap, N0


@pytest.mark.parametrize("e, expected", [
    (1.0, True), (0.5, True), (1 / 64, True), (2.0 ** -40, True),
    (0.3, False), (0.75, False), (0.0, False), (-0.5, False), (2.0, False),
])
def test_is_dyadic(e, expected):
    assert is_dyadic(e) is expected


@pytest.mark.parametrize("family,params", [("trig", {}), ("nonsymmetric-system", {}),
                                           ("laminate", {"m": 2})])
@pytest.mark.parametrize("d,n", [(1, 64), (2, 48), (3, 16)])
def test_precond_scale_matches_block_copies(family, params, d, n):
    # bit for bit against the mean over copied a_ii blocks, for sampled
    # coefficients and their adjoint (a strided view)
    from homogkit.bvp import sample_coefficients
    from homogkit.coefficients import transpose_a
    from homogkit.grid import coefficient_blocks

    g = BoxGrid(d, n)
    A = oracles.sample_arrays(
        sample_coefficients(builtin_family(family, d=d, **params), g, 0.25, 0.0))[0]
    for a in (A, transpose_a(A)):
        m = a.shape[-1]
        want = sum(sum(float(grid_mod._coef_block(a, d, i, i)[..., b, b].mean())
                       for b in range(m)) / m for i in range(d)) / d
        assert precond_scale(coefficient_blocks(a), g) == want


def _loop_write_csv(u: GridFunction, path) -> None:
    """The CSV writer as it was: one repr(float(x)) per value."""
    g = u.grid
    n = g.n if isinstance(g, TorusGrid) else g.n + 1
    flat = u.values.reshape(np.prod(g.shape), u.ncomp)
    with open(path, "w") as fh:
        fh.write("dim,n_per_axis,components\n")
        fh.write(f"{g.d},{n},{u.ncomp}\n")
        for row in flat:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


class TestCsv:
    @pytest.mark.parametrize("grid", [TorusGrid(2, 8), BoxGrid(2, 6), TorusGrid(3, 4),
                                      BoxGrid(1, 16)], ids=["torus2", "box2", "torus3", "box1"])
    @pytest.mark.parametrize("comp", [(), (4,), (2, 2)], ids=["m1", "ncomp4", "2x2"])
    def test_bytes_match_value_loop(self, grid, comp, tmp_path):
        rng = np.random.Generator(np.random.PCG64(6))
        vals = rng.standard_normal(grid.shape + comp)
        flat = vals.reshape(-1)
        special = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 3.0, -2.0, 1e16,
                   0.1, 1 / 3, 2.0 ** 52 + 1]
        flat[: len(special)] = special
        flat[-3:] = np.rint(flat[-3:] * 1000)   # integral floats at the end
        u = GridFunction(grid, vals)
        write_csv(u, tmp_path / "new.csv")
        _loop_write_csv(u, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_roundtrip_torus(self, tmp_path):
        g = TorusGrid(2, 8)
        rng = np.random.Generator(np.random.PCG64(5))
        u = GridFunction(g, rng.standard_normal(g.shape + (3,)))
        path = tmp_path / "field.csv"
        write_csv(u, path)
        back = read_csv(path, grid=g)
        assert np.array_equal(back.values, u.values)  # bit-exact via repr

    def test_header_check(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n1,2,3\n")
        with pytest.raises(GridError):
            read_csv(path)

    @pytest.mark.parametrize("grid", [BoxGrid(2, 10), TorusGrid(3, 9)],
                             ids=["box-finer", "torus-3d"])
    def test_grid_disagreeing_with_header(self, grid, tmp_path):
        path = tmp_path / "box.csv"
        write_csv(GridFunction(BoxGrid(2, 8), np.zeros((9, 9))), path)
        with pytest.raises(GridError, match=rf"\(2, 9\).*{re.escape(str(grid.shape))}"):
            read_csv(path, grid=grid)

    @given(seed=st.integers(0, 2 ** 31))
    @settings(max_examples=15, deadline=None)
    def test_roundtrip_is_lossless(self, seed, tmp_path_factory):
        g = TorusGrid(1, 8)
        rng = np.random.Generator(np.random.PCG64(seed))
        u = GridFunction(g, rng.standard_normal(g.shape))
        path = tmp_path_factory.mktemp("csv") / "u.csv"
        write_csv(u, path)
        assert np.array_equal(read_csv(path, grid=g).values, u.values)


class TestGridFunction:
    def test_shape_guard(self):
        g = TorusGrid(2, 8)
        with pytest.raises(GridError):
            GridFunction(g, np.zeros((4, 4)))

    def test_nonfinite_guard(self):
        g = TorusGrid(1, 8)
        vals = np.zeros(8)
        vals[3] = np.nan
        with pytest.raises(GridError):
            GridFunction(g, vals)

    def test_inner_bilinear(self):
        g = TorusGrid(1, 16)
        u = GridFunction(g, np.full(g.shape, 2.0))
        v = GridFunction(g, np.full(g.shape, 3.0))
        assert oracles.inner(u, v) == pytest.approx(6.0)
