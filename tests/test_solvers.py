import functools
import math

import numpy as np
import pytest

from homogkit.grid import BoxGrid, TorusGrid, principal_part_apply
from homogkit.solvers import (SolverError, _apply_inverse, _dense_matrix, _inverse_symbol,
                              _split_plan, kernel, poisson_periodic, solve_box_dirichlet,
                              solve_periodic)
from oracles import laplace_symbol


def identity_coefficients(grid_shape, d):
    A = np.zeros(grid_shape + (d, d))
    for i in range(d):
        A[..., i, i] = 1.0
    return A


class TestPeriodic:
    def test_laplace_eigenfunction(self):
        # -Delta_h u = lam_h u for a lattice Fourier mode, so feeding
        # lam_h * u as data must return u (mean-zero already).
        g = TorusGrid(2, 32)
        A = identity_coefficients(g.shape, 2)
        pts = g.points()
        u = np.sin(2 * np.pi * pts[..., 0])
        lam = (2 - 2 * math.cos(2 * math.pi / g.n)) / g.h ** 2
        x, _ = solve_periodic(lambda w: principal_part_apply(A, w, g),
                              lam * u, g, tol=1e-12)
        assert np.abs(x - u).max() < 1e-9

    def test_mean_zero_output(self):
        rng = np.random.Generator(np.random.PCG64(0))
        g = TorusGrid(2, 16)
        A = identity_coefficients(g.shape, 2)
        rhs = rng.standard_normal(g.shape)
        x, _ = solve_periodic(lambda w: principal_part_apply(A, w, g), rhs, g)
        assert abs(x.mean()) < 1e-12

    def test_residual_verified(self):
        g = TorusGrid(2, 16)
        A = identity_coefficients(g.shape, 2)
        rng = np.random.Generator(np.random.PCG64(1))
        rhs = rng.standard_normal(g.shape)
        x, res = solve_periodic(lambda w: principal_part_apply(A, w, g), rhs, g,
                                tol=1e-11)
        op = principal_part_apply(A, x, g)
        op -= op.mean()
        r = rhs - rhs.mean()
        recomputed = np.linalg.norm(op - r) / np.linalg.norm(r)
        assert recomputed < 1e-10
        # the returned residual is the one the solver verified, within 10 tol
        assert res <= 10 * 1e-11
        assert res == pytest.approx(recomputed, rel=1e-2)

    def test_zero_rhs(self):
        g = TorusGrid(1, 8)
        A = identity_coefficients(g.shape, 1)
        x, res = solve_periodic(lambda w: principal_part_apply(A, w, g),
                                np.zeros(g.shape), g)
        assert np.all(x == 0.0)
        assert res == 0.0

    def test_nonconvergence_raises(self):
        # the zero operator can never reach the residual target, and the
        # solver checks the residual itself rather than trusting Krylov flags
        g = TorusGrid(2, 16)
        rng = np.random.Generator(np.random.PCG64(2))
        rhs = rng.standard_normal(g.shape)
        with pytest.raises(SolverError) as err:
            solve_periodic(lambda w: np.zeros_like(w), rhs, g,
                           tol=1e-10, maxiter=5)
        assert err.value.residual == pytest.approx(1.0)   # A x = 0 for every x


class TestBoxDirichlet:
    def test_dirichlet_eigenfunction(self):
        # sin(pi x) sin(pi y) is a lattice eigenfunction of the interior
        # 5-point Laplacian with homogeneous boundary values.
        g = BoxGrid(2, 32)
        ishape = (g.n - 1, g.n - 1)
        A = identity_coefficients((g.n + 1, g.n + 1), 2)

        def apply_interior(w):
            full = np.zeros((g.n + 1, g.n + 1))
            full[1:-1, 1:-1] = w
            return principal_part_apply(A, full, g)[1:-1, 1:-1]

        pts = g.points()[1:-1, 1:-1]
        u = np.sin(np.pi * pts[..., 0]) * np.sin(np.pi * pts[..., 1])
        lam = 2 * (2 - 2 * math.cos(math.pi / g.n)) / g.h ** 2
        x, res = solve_box_dirichlet(apply_interior, lam * u, g, tol=1e-12)
        assert x.shape == ishape
        assert np.abs(x - u).max() < 1e-9
        b = lam * u
        assert res == np.linalg.norm(apply_interior(x) - b) / np.linalg.norm(b)

    def test_zero_order_shift(self):
        # (-Delta_h + lam) u = (lam_h + lam) u for the same eigenfunction
        g = BoxGrid(2, 16)
        A = identity_coefficients((g.n + 1, g.n + 1), 2)
        lam0 = 3.0

        def apply_interior(w):
            full = np.zeros((g.n + 1, g.n + 1))
            full[1:-1, 1:-1] = w
            return principal_part_apply(A, full, g)[1:-1, 1:-1] + lam0 * w

        pts = g.points()[1:-1, 1:-1]
        u = np.sin(np.pi * pts[..., 0]) * np.sin(np.pi * pts[..., 1])
        lam_h = 2 * (2 - 2 * math.cos(math.pi / g.n)) / g.h ** 2
        x, _ = solve_box_dirichlet(apply_interior, (lam_h + lam0) * u, g,
                                   lam=lam0, tol=1e-12)
        assert np.abs(x - u).max() < 1e-9

    def test_zero_rhs(self):
        g = BoxGrid(2, 8)
        x, res = solve_box_dirichlet(lambda w: w, np.zeros((7, 7)), g)
        assert np.all(x == 0.0)
        assert res == 0.0

    def test_nonconvergence_raises(self):
        g = BoxGrid(2, 16)
        rng = np.random.Generator(np.random.PCG64(3))
        with pytest.raises(SolverError):
            solve_box_dirichlet(lambda w: np.zeros_like(w),
                                rng.standard_normal((15, 15)),
                                g, tol=1e-10, maxiter=5)



class TestBreakdown:
    """A NaN residual compares False against every bound, so the driver must
    reject it explicitly instead of returning the iterate as converged."""

    @pytest.mark.parametrize("self_adjoint", [True, False], ids=["cg", "bicgstab"])
    @pytest.mark.parametrize("grid", [TorusGrid(2, 16), BoxGrid(2, 16)],
                             ids=["periodic", "box"])
    def test_nan_operator_raises(self, grid, self_adjoint):
        solver = solve_periodic if isinstance(grid, TorusGrid) else solve_box_dirichlet
        n = grid.n if isinstance(grid, TorusGrid) else grid.n - 1
        rhs = np.random.Generator(np.random.PCG64(5)).standard_normal((n, n))
        with pytest.raises(SolverError, match="broke down") as err:
            solver(lambda w: np.full_like(w, np.nan), rhs, grid,
                   self_adjoint=self_adjoint, maxiter=5)
        assert np.isnan(err.value.residual)

class TestKrylovBounds:
    """The bounds ``_krylov`` states: an iterate within 10 tol is returned,
    one above it is handed to GMRES with the preconditioner, and SolverError
    follows when GMRES leaves it above 10 tol.  The loop and GMRES are
    stubbed to return iterates of the identity operator at chosen multiples
    of tol, so each bound is read on both of its sides."""

    TOL = 1e-10

    @classmethod
    def _iterate(cls, b, k):
        """b plus a vector of norm k tol ||b||: relative residual k tol."""
        x = b.copy()
        x[0] += k * cls.TOL * np.linalg.norm(b)
        return x

    def _run(self, monkeypatch, self_adjoint, loop_k, gmres_k=None):
        import homogkit.solvers as solvers

        calls = []

        def loop(A, b, **kw):
            return self._iterate(b, loop_k), 0

        def gmres(A, b, **kw):
            calls.append((b, kw))
            return self._iterate(b, gmres_k), 0

        monkeypatch.setattr(solvers, "cg" if self_adjoint else "bicgstab", loop)
        monkeypatch.setattr(solvers, "gmres", gmres)
        rhs = np.random.Generator(np.random.PCG64(8)).standard_normal((5, 3))
        precond = lambda r: 0.5 * r   # noqa: E731
        x, res = solvers._krylov(lambda v: v, precond, rhs, self_adjoint=self_adjoint,
                                 tol=self.TOL, maxiter=7, what="stub")
        return x, res, calls, precond

    @pytest.mark.parametrize("self_adjoint", [True, False], ids=["cg", "bicgstab"])
    def test_within_ten_tol_returns(self, monkeypatch, self_adjoint):
        _, res, calls, _ = self._run(monkeypatch, self_adjoint, 5)
        assert calls == []
        assert res == pytest.approx(5 * self.TOL, rel=1e-6)

    @pytest.mark.parametrize("loop_k", [20, 200])
    @pytest.mark.parametrize("self_adjoint", [True, False], ids=["cg", "bicgstab"])
    def test_above_ten_tol_falls_back_to_preconditioned_gmres(self, monkeypatch,
                                                              self_adjoint, loop_k):
        _, res, calls, precond = self._run(monkeypatch, self_adjoint, loop_k, gmres_k=5)
        (b, kw), = calls
        v = np.arange(15.0)
        assert kw["M"] is not None and np.array_equal(kw["M"].matvec(v), precond(v))
        assert kw["rtol"] == self.TOL and kw["maxiter"] == 7
        # restarted from the loop's iterate
        assert np.array_equal(kw["x0"], self._iterate(b, loop_k))
        assert res == pytest.approx(5 * self.TOL, rel=1e-6)

    @pytest.mark.parametrize("loop_k,gmres_k", [(20, 20), (200, 200), (200, 20)])
    @pytest.mark.parametrize("self_adjoint", [True, False], ids=["cg", "bicgstab"])
    def test_gmres_above_ten_tol_raises(self, monkeypatch, self_adjoint, loop_k, gmres_k):
        with pytest.raises(SolverError, match="did not converge") as err:
            self._run(monkeypatch, self_adjoint, loop_k, gmres_k)
        assert err.value.residual == pytest.approx(gmres_k * self.TOL, rel=1e-6)


class TestKrylovLookup:
    """Both solvers reach cg, bicgstab and gmres through the names bound in
    homogkit.solvers at call time, which is where instrumentation that counts
    Krylov iterations replaces them."""

    def test_replacements_are_called(self, monkeypatch):
        import homogkit.solvers as solvers

        calls = []

        def counting(name):
            orig = getattr(solvers, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return orig(*args, **kwargs)
            return wrapper

        for name in ("cg", "bicgstab", "gmres"):
            monkeypatch.setattr(solvers, name, counting(name))
        rng = np.random.Generator(np.random.PCG64(4))
        tg = TorusGrid(2, 16)
        A = identity_coefficients(tg.shape, 2)
        apply = lambda w: principal_part_apply(A, w, tg)   # noqa: E731
        rhs = rng.standard_normal(tg.shape)
        solve_periodic(apply, rhs, tg, self_adjoint=True)
        solve_periodic(apply, rhs, tg, self_adjoint=False)
        assert calls == ["cg", "bicgstab"]
        with pytest.raises(SolverError):
            solve_periodic(lambda w: np.zeros_like(w), rhs, tg, maxiter=5)
        assert calls[2:] == ["cg", "gmres"]

        calls.clear()
        bg = BoxGrid(2, 16)
        b = rng.standard_normal((15, 15))
        solve_box_dirichlet(lambda w: 4.0 * w, b, bg, self_adjoint=True)
        solve_box_dirichlet(lambda w: 4.0 * w, b, bg, self_adjoint=False)
        assert calls == ["cg", "bicgstab"]
        with pytest.raises(SolverError):
            solve_box_dirichlet(lambda w: np.zeros_like(w), b, bg,
                                self_adjoint=False, maxiter=5)
        assert calls[2:] == ["bicgstab", "gmres"]


def _capture_precond(monkeypatch, solve, *args, **kwargs):
    """The preconditioner a solver hands to the Krylov driver, captured
    without running a solve."""
    import homogkit.solvers as solvers

    seen = {}

    def fake_krylov(matvec, precond, rhs, **_):
        seen["precond"] = precond
        return np.zeros(rhs.shape), 0.0
    monkeypatch.setattr(solvers, "_krylov", fake_krylov)
    solve(*args, **kwargs)
    return seen["precond"]


def _torus_precond_oracle(r, grid, scale):
    """The complex-FFT torus preconditioner the half-spectrum one replaced."""
    nd = grid.d
    sym = laplace_symbol(2.0 * np.pi * np.arange(grid.n) / grid.n, grid.h, nd)
    sym[(0,) * nd] = 1.0
    denom = (scale * sym).reshape(sym.shape + (1,) * (r.ndim - nd))
    zhat = np.fft.fftn(r, axes=tuple(range(nd))) / denom
    zhat[(0,) * nd] = 0.0
    return np.real(np.fft.ifftn(zhat, axes=tuple(range(nd))))


def _box_precond_oracle(r, grid, scale, lam):
    """The DST-I box preconditioner with the normalisation applied last."""
    import scipy.fft

    nd = grid.d
    sym = laplace_symbol(np.pi * np.arange(1, grid.n) / grid.n, grid.h, nd)
    denom = (scale * sym + max(lam, 0.0)).reshape(sym.shape + (1,) * (r.ndim - nd))
    axes = tuple(range(nd))
    rhat = scipy.fft.dstn(r, type=1, axes=axes)
    return scipy.fft.dstn(rhat / denom, type=1, axes=axes) / (2.0 * grid.n) ** nd


def _close(new, old):
    return np.max(np.abs(new - old)) <= 1e-13 * np.max(np.abs(old))


# The preconditioner closures transform in float32: 64 units of float32
# roundoff (2^-24) relative to the largest entry of the float64 oracle.
FLOAT32_REL = 64 * 2.0 ** -24


def _close32(new, old):
    return np.max(np.abs(new - old)) <= FLOAT32_REL * np.max(np.abs(old))


def _kernel_used(monkeypatch, solve, *args, **kwargs):
    """The kernels the preconditioner closure of a solver applies."""
    import homogkit.solvers as solvers

    apply, used = solvers._apply_inverse, []

    def recording(r, inv, grid, kern, *work):
        used.append(kern)
        return apply(r, inv, grid, kern, *work)
    monkeypatch.setattr(solvers, "_apply_inverse", recording)
    precond = _capture_precond(monkeypatch, solve, *args, **kwargs)
    return precond, used


TORUS_KERNELS = ("hartley", "rfftn")
# by d: the split plan folds 2D grids, the odd-extension DST runs along one axis
BOX_KERNELS = {1: ("sine", "dst-rfft"), 2: ("sine", "sine-split"), 3: ("sine",)}


class TestPreconditionerEquivalence:
    """Every transform kernel, with the reciprocal symbol laid out for it, in
    float64 agrees with the transforms the kernels replaced to 1e-13
    relative, which pins the symbol, the scale, the lambda shift, the
    normalisation and the split plan's row order; the float32 closure a
    solver builds applies the kernel ``kernel`` names for the shape and
    agrees with the same oracles to ``FLOAT32_REL``.  Even and odd n (odd n
    exercises the half-spectrum inverse with an explicit output shape, and
    split plans whose even rows are one product; when 4 divides n they fold
    again); the box sizes straddle every boundary of the rule."""

    # 512 / 513 are the largest Hartley torus and the smallest rfftn one in
    # 1D, 256 / 257 the same pair in 2D and 80 / 81 in 3D
    @pytest.mark.parametrize("d,n", [(1, 16), (1, 15), (2, 12), (2, 9),
                                     (3, 8), (3, 7), (2, 64), (2, 63), (2, 65),
                                     (2, 96), (2, 97), (1, 512), (1, 513),
                                     (2, 256), (2, 257), (3, 80), (3, 81)])
    @pytest.mark.parametrize("m", [1, 2])
    def test_torus(self, monkeypatch, d, n, m):
        g = TorusGrid(d, n)
        rng = np.random.Generator(np.random.PCG64(10 * d + n + m))
        shape = g.shape + ((m,) if m > 1 else ())
        rhs = rng.standard_normal(shape)
        for scale in (1.0, 2.7):
            precond, used = _kernel_used(monkeypatch, solve_periodic,
                                         lambda w: w, rhs, g, precond_scale=scale)
            r = rng.standard_normal(shape)
            want = _torus_precond_oracle(r, g, scale)
            for kern in TORUS_KERNELS:
                inv = _inverse_symbol(g, kern, scale)
                assert _close(_apply_inverse(r, inv, g, kern), want)
            assert _close32(precond(r.ravel()).reshape(shape), want)
            assert used == [kernel(g)]

    # n - 1 = 127 / 128 straddle the sine product and the split in 2D, 255 /
    # 256 the split's second level in 2D and the sine product and the
    # odd-extension DST in 1D, which 1023 / 1024 take on even and odd 2n;
    # 107 / 108 where a 2D system once took the split; 129 and 131 a split
    # plan of one fold and one that folds again, small enough for every
    # scale and shift
    @pytest.mark.parametrize("d,n", [(1, 16), (1, 15), (2, 12), (2, 9),
                                     (3, 8), (3, 7), (3, 48),
                                     (1, 128), (1, 129), (2, 128), (2, 129),
                                     (2, 108), (2, 109), (1, 256), (1, 257),
                                     (2, 256), (2, 257), (1, 1024), (1, 1025),
                                     (2, 130), (2, 132)])
    @pytest.mark.parametrize("m", [1, 2])
    def test_box(self, monkeypatch, d, n, m):
        g = BoxGrid(d, n)
        rng = np.random.Generator(np.random.PCG64(100 + 10 * d + n + m))
        shape = (n - 1,) * d + ((m,) if m > 1 else ())
        rhs = rng.standard_normal(shape)
        # the largest boxes check the path and the plan's order, with one
        # scale and shift (the oracle's DST of 256 points per axis is slow)
        combos = ((1.0, 0.0), (2.7, 0.0), (0.6, 3.5)) if n < 200 else ((0.6, 3.5),)
        for scale, lam in combos:
            precond, used = _kernel_used(monkeypatch, solve_box_dirichlet,
                                         lambda w: w, rhs, g, lam=lam,
                                         precond_scale=scale)
            r = rng.standard_normal(shape)
            want = _box_precond_oracle(r, g, scale, lam)
            for kern in BOX_KERNELS[d]:
                inv = _inverse_symbol(g, kern, scale, lam)
                assert _close(_apply_inverse(r, inv, g, kern), want)
            assert _close32(precond(r.ravel()).reshape(shape), want)
            assert used == [kernel(g)]

    # every kernel of every dimension, on a torus or box small enough to take
    # any of them; the box's 10 and 12 give split plans of one and two folds
    @pytest.mark.parametrize("grid,kern", [
        (TorusGrid(2, 12), "hartley"), (TorusGrid(3, 8), "hartley"),
        (TorusGrid(2, 9), "rfftn"), (TorusGrid(3, 8), "rfftn"),
        (BoxGrid(2, 12), "sine"), (BoxGrid(3, 8), "sine"),
        (BoxGrid(2, 10), "sine-split"), (BoxGrid(2, 12), "sine-split"),
        (TorusGrid(1, 16), "hartley"), (TorusGrid(1, 15), "rfftn"),
        (BoxGrid(1, 16), "sine"), (BoxGrid(1, 16), "dst-rfft")],
        ids=lambda p: p if isinstance(p, str) else f"{type(p).__name__}{p.d}d{p.n}")
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_components_one_at_a_time(self, grid, kern, dtype):
        """An m = 3 field gives the three applies of its components bit for
        bit."""
        box = isinstance(grid, BoxGrid)
        points = (grid.n - 1,) * grid.d if box else grid.shape
        rng = np.random.Generator(np.random.PCG64(40 + grid.d + grid.n))
        r = rng.standard_normal(points + (3,))
        inv = (_inverse_symbol(grid, kern, 1.3, 0.4) if box
               else _inverse_symbol(grid, kern, 1.3)).astype(dtype)
        z = _apply_inverse(r, inv, grid, kern)
        for c in range(3):
            assert np.array_equal(z[..., c], _apply_inverse(r[..., c], inv, grid, kern))

    @pytest.mark.parametrize("d,n", [(1, 15), (2, 12), (2, 9), (3, 7)])
    def test_poisson_periodic(self, d, n):
        g = TorusGrid(d, n)
        rng = np.random.Generator(np.random.PCG64(200 + d + n))
        rhs = rng.standard_normal(g.shape)
        x = poisson_periodic(rhs, g)
        assert abs(x.mean()) < 1e-14 * np.abs(x).max()
        assert _close(x, _torus_precond_oracle(rhs, g, 1.0))


class TestTransformPath:
    """``kernel`` is the one rule for the transforms.  Each row holds (grid,
    m, kernel) and whether the kernel is one of ``numpy.fft``'s; the rows
    cover every boundary of the rule: 512, 256 and 80 points per axis on
    the torus in 1D, 2D and 3D, for m = 1, 2; n - 1 = 127, 128, 255 and 256
    on the box, and 2D and 3D boxes that took ``scipy.fft.dstn`` before the
    rule was drawn from d and n alone.  The rule does not read m, so a row
    of m = 2 expects the kernel of its scalar grid; on 2D boxes of
    n - 1 = 108 to 127 a system once took the split.
    The second column keeps the pattern of the rule that column replaced,
    whether the solve loaded ``scipy.fft``, and so does the test's name,
    so that the ids stay: where a shape left the FFT, its row moved to a
    row of the other kind, and an FFT shape took its place."""

    @pytest.mark.parametrize("grid,needs", [
        ((TorusGrid(2, 257), 1, "rfftn"), True), ((TorusGrid(2, 257), 2, "rfftn"), True),
        ((BoxGrid(2, 128), 1, "sine"), False), ((BoxGrid(3, 48), 1, "sine"), False),
        ((TorusGrid(3, 81), 1, "rfftn"), True), ((TorusGrid(3, 81), 2, "rfftn"), True),
        ((TorusGrid(1, 8), 1, "hartley"), False), ((TorusGrid(1, 64), 1, "hartley"), False),
        ((TorusGrid(1, 513), 1, "rfftn"), True), ((TorusGrid(2, 63), 1, "hartley"), False),
        ((TorusGrid(2, 64), 1, "hartley"), False), ((BoxGrid(1, 1024), 1, "dst-rfft"), True),
        ((BoxGrid(3, 129), 1, "sine"), False), ((TorusGrid(1, 513), 2, "rfftn"), True),
        ((BoxGrid(1, 1025), 2, "dst-rfft"), True), ((TorusGrid(2, 512), 1, "rfftn"), True),
        ((BoxGrid(1, 128), 2, "sine"), False), ((BoxGrid(1, 129), 1, "sine"), False),
        ((BoxGrid(1, 256), 2, "sine"), False), ((BoxGrid(1, 257), 1, "dst-rfft"), True),
        ((BoxGrid(2, 129), 1, "sine-split"), False), ((BoxGrid(2, 200), 1, "sine-split"), False),
        ((BoxGrid(2, 256), 1, "sine-split"), False), ((BoxGrid(1, 257), 2, "dst-rfft"), True),
        ((BoxGrid(2, 64), 2, "sine"), False), ((BoxGrid(2, 512), 1, "sine-split"), False),
        ((BoxGrid(2, 108), 2, "sine"), False), ((BoxGrid(2, 109), 2, "sine"), False),
        ((BoxGrid(2, 128), 2, "sine"), False), ((BoxGrid(2, 129), 2, "sine-split"), False),
        ((BoxGrid(3, 129), 2, "sine"), False), ((TorusGrid(3, 128), 1, "rfftn"), True),
        ((TorusGrid(3, 21), 1, "hartley"), False), ((TorusGrid(2, 97), 1, "hartley"), False),
        ((BoxGrid(2, 257), 1, "sine-split"), False), ((TorusGrid(1, 65), 1, "hartley"), False),
        ((TorusGrid(2, 256), 2, "hartley"), False), ((TorusGrid(3, 80), 1, "hartley"), False),
        ((BoxGrid(2, 320), 1, "sine-split"), False), ((TorusGrid(1, 512), 1, "hartley"), False),
        ((BoxGrid(2, 257), 2, "sine-split"), False), ((TorusGrid(2, 256), 1, "hartley"), False),
        ((TorusGrid(1, 512), 2, "hartley"), False), ((TorusGrid(3, 80), 2, "hartley"), False),
        ((BoxGrid(2, 321), 1, "sine-split"), False)])
    def test_needs_scipy_fft(self, grid, needs):
        g, _m, kern = grid
        assert kernel(g) == kern
        assert (kern in ("rfftn", "dst-rfft")) is needs

    def test_sine_matrix_is_shared_and_read_only(self):
        S = _dense_matrix("sine", 16, np.dtype(np.float32))
        assert _dense_matrix("sine", 16, np.dtype(np.float32)) is S
        assert S.dtype == np.float32 and S.shape == (15, 15)
        assert not S.flags.writeable
        S64 = _dense_matrix("sine", 16, np.dtype(np.float64))
        assert S64.dtype == np.float64 and np.array_equal(S64.astype(np.float32), S)
        H = _dense_matrix("hartley", 16, np.dtype(np.float32))
        assert H.shape == (16, 16) and not H.flags.writeable
        assert np.array_equal(H, H.T)

    @pytest.mark.parametrize("n", [129, 130, 131, 132, 256])
    def test_split_plan_orders_every_row_once(self, n):
        """The split plan's rows are a permutation of the DST-I's, and its
        matrices are shared and read-only."""
        plan = _split_plan(n, np.dtype(np.float32))
        assert _split_plan(n, np.dtype(np.float32)) is plan
        assert np.array_equal(np.sort(plan.order), np.arange(1, n))
        leaves = [plan.odd, plan.even]
        while leaves:
            part = leaves.pop()
            if hasattr(part, "M"):
                assert not part.M.flags.writeable and not part.MT.flags.writeable
            else:
                leaves += [part.odd, part.even]


class TestNoDtypeProbe:
    """The Krylov methods start from x = 0 without applying the operator or
    the preconditioner to it, and the dtype the driver hands over spares the
    GMRES fallback scipy's probe apply, so neither is applied to zeros."""

    def test_no_apply_on_zeros(self, monkeypatch):
        import homogkit.solvers as solvers

        krylov = solvers._krylov
        zero_applies = []

        def watched(fn, name):
            def apply(v):
                if not np.any(v):
                    zero_applies.append(name)
                return fn(v)
            return apply

        def watching_krylov(matvec, precond, rhs, **kw):
            return krylov(watched(matvec, "matvec"), watched(precond, "precond"),
                          rhs, **kw)

        monkeypatch.setattr(solvers, "_krylov", watching_krylov)
        rng = np.random.Generator(np.random.PCG64(7))
        tg = TorusGrid(2, 16)
        A = identity_coefficients(tg.shape, 2)
        rhs = rng.standard_normal(tg.shape)
        bg = BoxGrid(2, 16)
        b = rng.standard_normal((15, 15, 2))
        for self_adjoint in (True, False):
            solve_periodic(lambda w: principal_part_apply(A, w, tg), rhs, tg,
                           self_adjoint=self_adjoint)
            solve_box_dirichlet(lambda w: 4.0 * w, b, bg, lam=1.0,
                                self_adjoint=self_adjoint)
        assert zero_applies == []


@functools.cache
def _trig_operators():
    """Self-adjoint box interior operators and torus operators (trig, d = 2):
    on the sine-matrix box and the Hartley torus, and on the split box
    (n - 1 = 128) and the rfftn torus (n = 257) as "box-split" and
    "torus-fft"."""
    from homogkit.bvp import sample_coefficients
    from homogkit.coefficients import builtin_family
    from homogkit.grid import assemble, coefficient_blocks, precond_scale

    cs = builtin_family("trig", d=2).principal_part
    out = {}
    for name, bn, tn in (("", 16, 16), ("-split", 129, None), ("-fft", None, 257)):
        if bn:
            bg = BoxGrid(2, bn)
            s = sample_coefficients(cs, bg, 1 / 4, 0.7)
            out["box" + name] = (s.apply_interior, bg,
                                 dict(lam=0.7, precond_scale=precond_scale(s.A, bg)))
        if tn:
            tg = TorusGrid(2, tn)
            A = cs.A(tg.points())
            K = assemble(coefficient_blocks(A), tg)
            out["torus" + name] = (lambda u, K=K: (K @ u.ravel()).reshape(u.shape), tg,
                                   dict(precond_scale=precond_scale(coefficient_blocks(A), tg)))
    return out


class TestScaleInvariance:
    """solve(2^k b) is 2^k solve(b) bit for bit.  ``_krylov`` hands the Krylov
    method b scaled by an exact power of two, so neither a float32 apply of
    the preconditioner nor an absolute breakdown threshold sees 2^k."""

    @pytest.mark.parametrize("k", [-130, 120])
    @pytest.mark.parametrize("self_adjoint", [True, False], ids=["cg", "bicgstab"])
    @pytest.mark.parametrize("geometry", ["box", "torus", "box-split", "torus-fft"])
    def test_power_of_two(self, geometry, self_adjoint, k):
        apply, grid, kw = _trig_operators()[geometry]
        box = isinstance(grid, BoxGrid)
        solver = solve_box_dirichlet if box else solve_periodic
        n = grid.n - 1 if box else grid.n
        rng = np.random.Generator(np.random.PCG64(20))
        b = rng.standard_normal((n, n, 1))
        x, res = solver(apply, b, grid, self_adjoint=self_adjoint, **kw)
        xk, resk = solver(apply, np.ldexp(b, k), grid, self_adjoint=self_adjoint, **kw)
        assert res <= 1e-9
        assert np.array_equal(xk, np.ldexp(x, k))
        assert resk == res


class TestPreconditionerContract:
    """Each preconditioner closure leaves its argument alone and returns a
    flat float64 array of rhs.size: the Krylov vectors stay float64, and
    the benchmark tracer wraps M with ``dtype=M.dtype``.  The shapes reach
    every kernel: the Hartley and rfftn tori, the sine, split and
    odd-extension DST boxes."""

    @pytest.mark.parametrize("d,n", [(1, 15), (2, 12), (3, 7), (2, 65), (2, 129), (1, 300),
                                     (2, 97), (2, 257)])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("geometry", ["box", "torus"])
    def test_closure(self, monkeypatch, geometry, d, n, m):
        if geometry == "box":
            g, solver, kw = BoxGrid(d, n), solve_box_dirichlet, dict(lam=0.5)
            shape = (n - 1,) * d
        else:
            g, solver, kw = TorusGrid(d, n), solve_periodic, {}
            shape = g.shape
        shape += (m,) if m > 1 else ()
        rng = np.random.Generator(np.random.PCG64(30 + d + n + m))
        rhs = rng.standard_normal(shape)
        precond = _capture_precond(monkeypatch, solver, lambda w: w, rhs, g,
                                   precond_scale=1.3, **kw)
        r = rng.standard_normal(rhs.size)
        kept = r.copy()
        z = precond(r)
        assert np.array_equal(r, kept)
        assert z.dtype == np.float64
        assert z.shape == (rhs.size,)


def _solve_trig(geometry, seed, **kw):
    """Solve the trig operator of ``geometry`` (``_trig_operators``) for a
    standard normal right-hand side drawn from ``seed``."""
    apply, grid, kw0 = _trig_operators()[geometry]
    solver = solve_box_dirichlet if geometry == "box" else solve_periodic
    n = grid.n - 1 if geometry == "box" else grid.n
    rhs = np.random.Generator(np.random.PCG64(seed)).standard_normal((n, n, 1))
    return solver(apply, rhs, grid, **kw0, **kw)


class TestScipyEquivalence:
    """``solvers.cg`` and ``solvers.bicgstab`` return what scipy's namesakes
    return, bit for bit: the same x, the same info and as many callback
    calls.  Every Krylov call of a solve runs both methods on the same
    LinearOperator A and M, wrapped the way the benchmark tracer wraps them."""

    @staticmethod
    def _record(monkeypatch, name):
        import homogkit.solvers as solvers
        from scipy.sparse import linalg

        ours, theirs = getattr(solvers, name), getattr(linalg, name)
        runs = []

        def run(fn, A, b, kw):
            calls = []
            x, info = fn(A, b.copy(), **kw, callback=lambda _: calls.append(1))
            return x.copy(), info, len(calls)

        def both(A, b, **kw):
            A = linalg.LinearOperator(A.shape, dtype=A.dtype, matvec=A.matvec)
            M = kw["M"]
            kw["M"] = linalg.LinearOperator(M.shape, dtype=M.dtype, matvec=M.matvec)
            mine = run(ours, A, b, kw)
            runs.append((mine, run(theirs, A, b, kw), A, kw["M"]))
            return mine[:2]
        monkeypatch.setattr(solvers, name, both)
        return runs

    @staticmethod
    def _assert_equal(runs):
        assert runs
        for (x, info, count), (x_ref, info_ref, count_ref), *_ in runs:
            assert np.array_equal(x, x_ref, equal_nan=True)
            assert (info, count) == (info_ref, count_ref)

    @pytest.mark.parametrize("self_adjoint", [True, False], ids=["cg", "bicgstab"])
    @pytest.mark.parametrize("geometry", ["box", "torus"])
    def test_trig(self, monkeypatch, geometry, self_adjoint):
        runs = self._record(monkeypatch, "cg" if self_adjoint else "bicgstab")
        _solve_trig(geometry, 40, self_adjoint=self_adjoint)
        self._assert_equal(runs)
        assert runs[0][0][1] == 0

    def test_nonsymmetric_system_box(self, monkeypatch):
        from homogkit.bvp import sample_coefficients
        from homogkit.coefficients import builtin_family

        runs = self._record(monkeypatch, "bicgstab")
        s = sample_coefficients(builtin_family("nonsymmetric-system", d=2),
                                BoxGrid(2, 16), 1 / 4, 0.7)
        assert not s.self_adjoint
        rng = np.random.Generator(np.random.PCG64(41))
        s.solve(rng.standard_normal((15, 15, 2)), 1e-10)
        self._assert_equal(runs)
        assert runs[0][0][1] == 0

    @pytest.mark.parametrize("self_adjoint", [True, False], ids=["cg", "bicgstab"])
    @pytest.mark.parametrize("geometry", ["box", "torus"])
    def test_stopped_by_maxiter(self, monkeypatch, geometry, self_adjoint):
        runs = self._record(monkeypatch, "cg" if self_adjoint else "bicgstab")
        _solve_trig(geometry, 42, self_adjoint=self_adjoint, maxiter=3)
        self._assert_equal(runs)
        assert runs[0][0][1:] == (3, 3)

    @pytest.mark.parametrize("self_adjoint", [True, False], ids=["cg", "bicgstab"])
    @pytest.mark.parametrize("grid", [TorusGrid(2, 16), BoxGrid(2, 16)],
                             ids=["periodic", "box"])
    def test_nan_operator(self, monkeypatch, grid, self_adjoint):
        runs = self._record(monkeypatch, "cg" if self_adjoint else "bicgstab")
        solver = solve_periodic if isinstance(grid, TorusGrid) else solve_box_dirichlet
        n = grid.n if isinstance(grid, TorusGrid) else grid.n - 1
        rhs = np.random.Generator(np.random.PCG64(5)).standard_normal((n, n))
        with pytest.raises(SolverError, match="broke down"):
            solver(lambda w: np.full_like(w, np.nan), rhs, grid,
                   self_adjoint=self_adjoint, maxiter=5)
        self._assert_equal(runs)

    @pytest.mark.parametrize("name", ["cg", "bicgstab"])
    def test_zero_rhs(self, monkeypatch, name):
        import homogkit.solvers as solvers

        runs = self._record(monkeypatch, name)
        _solve_trig("box", 43, self_adjoint=name == "cg")
        A, M = runs[0][2:]
        getattr(solvers, name)(A, np.zeros(A.shape[0]), rtol=1e-10, atol=0.0,
                               maxiter=5, M=M)
        self._assert_equal(runs)
        (x, info, count), *_ = runs[-1]
        assert not np.any(x) and (info, count) == (0, 0)


class TestGmresRescue:
    """Stopped by maxiter=3, CG leaves the trig operators short of 10 tol,
    and the GMRES fallback, restarted from its iterate, brings the returned
    residual within 10 tol."""

    @pytest.mark.parametrize("geometry", ["box", "torus"])
    def test_rescue(self, monkeypatch, geometry):
        import homogkit.solvers as solvers

        gmres, calls = solvers.gmres, []

        def counting(*args, **kwargs):
            calls.append("gmres")
            return gmres(*args, **kwargs)
        monkeypatch.setattr(solvers, "gmres", counting)
        _, res = _solve_trig(geometry, 44, tol=1e-10, maxiter=3)
        assert calls == ["gmres"]
        assert res <= 1e-9


# ---------------------------------------------------------------------------
# the two solves against their earlier closure pairs
# ---------------------------------------------------------------------------

def _oracle_periodic(apply_op, rhs, grid, *, precond_scale, self_adjoint, tol=1e-10):
    """``solve_periodic`` as it was written with its own matvec and float32
    preconditioner closures."""
    from homogkit.solvers import _krylov, _mean_zero

    shape = rhs.shape
    nd = grid.d
    kern = kernel(grid)
    inv = _inverse_symbol(grid, kern, precond_scale).astype(np.float32)

    def matvec(x):
        return apply_op(x.reshape(shape)).ravel()

    def precond(r):
        z = _apply_inverse(r.reshape(shape).astype(np.float32), inv, grid, kern)
        return z.astype(np.float64).ravel()

    maxiter = max(200, int(20 * grid.n ** (grid.d / 2)))
    x, res = _krylov(matvec, precond, _mean_zero(rhs, nd), self_adjoint=self_adjoint,
                     tol=tol, maxiter=maxiter, what="periodic cell solve")
    return _mean_zero(x, nd), res


def _oracle_box(apply_interior, rhs_interior, grid, *, lam, precond_scale,
                self_adjoint, tol=1e-10):
    """``solve_box_dirichlet`` as it was written with its own matvec and
    float32 preconditioner closures."""
    from homogkit.solvers import _krylov

    shape = rhs_interior.shape
    kern = kernel(grid)
    inv = _inverse_symbol(grid, kern, precond_scale, lam).astype(np.float32)

    def matvec(x):
        return apply_interior(x.reshape(shape)).ravel()

    def precond(r):
        z = _apply_inverse(r.reshape(shape).astype(np.float32), inv, grid, kern)
        return z.astype(np.float64).ravel()

    maxiter = max(200, 50 * grid.n)
    return _krylov(matvec, precond, rhs_interior, self_adjoint=self_adjoint, tol=tol,
                   maxiter=maxiter, what="box Dirichlet solve")


_EQUIV_N = {1: 32, 2: 16, 3: 8}


class TestSolveEquivalence:
    """Both solves return the x and the residual of their earlier closure
    pairs (``_oracle_periodic``, ``_oracle_box``) bit for bit, on trig
    operators with and without component axes, both Krylov methods, a zero
    and a positive lambda shift, and both DST paths of the box."""

    @pytest.mark.parametrize("comp", [(), (2,)], ids=["scalar", "comp2"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_torus(self, d, comp):
        from homogkit.coefficients import builtin_family
        from homogkit.grid import assemble, coefficient_blocks, precond_scale

        g = TorusGrid(d, _EQUIV_N[d])
        m = comp[0] if comp else 1
        A = builtin_family("trig", d=d, m=m).A(g.points())
        K = assemble(coefficient_blocks(A), g)

        def op(u):
            return (K @ u.ravel()).reshape(u.shape)

        rhs = np.random.Generator(np.random.PCG64(50 + d)).standard_normal(g.shape + comp)
        kw = dict(precond_scale=precond_scale(coefficient_blocks(A), g), self_adjoint=True)
        x, res = solve_periodic(op, rhs, g, **kw)
        want, want_res = _oracle_periodic(op, rhs, g, **kw)
        assert np.array_equal(x, want)
        assert res == want_res

    @staticmethod
    def _box(d, n, m, lam, self_adjoint, seed):
        from homogkit.bvp import sample_coefficients
        from homogkit.coefficients import builtin_family
        from homogkit.grid import precond_scale

        g = BoxGrid(d, n)
        s = sample_coefficients(builtin_family("trig", d=d, m=m).principal_part,
                                g, 1 / 2, lam)
        rhs = np.random.Generator(np.random.PCG64(seed)).standard_normal(
            (n - 1,) * d + (m,))
        kw = dict(lam=lam, precond_scale=precond_scale(s.A, g),
                  self_adjoint=self_adjoint)
        x, res = solve_box_dirichlet(s.apply_interior, rhs, g, **kw)
        want, want_res = _oracle_box(s.apply_interior, rhs, g, **kw)
        assert np.array_equal(x, want)
        assert res == want_res

    @pytest.mark.parametrize("self_adjoint", [True, False], ids=["cg", "bicgstab"])
    @pytest.mark.parametrize("lam", [0.0, 1.0])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_box(self, d, m, lam, self_adjoint):
        self._box(d, _EQUIV_N[d], m, lam, self_adjoint, 60 + 10 * d + m)

    # n - 1 = 127 runs the sine-matrix product and 128 the split one on a 2D
    # box, 319 the odd-extension DST on a 1D box
    @pytest.mark.parametrize("n", [128, 129, 320])
    def test_box_dst_paths(self, n):
        self._box(1 if n == 320 else 2, n, 1, 0.0, True, 70 + n)
