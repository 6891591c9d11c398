import math

import numpy as np
import pytest

from dataclasses import replace

from homogkit.bvp import (CoefficientSamples, DirichletProblem, ProblemError,
                          coercivity_constant_bound, coercivity_margin,
                          default_lambda, estimate_lambda0, sample_coefficients,
                          solve)
from homogkit.coefficients import builtin_family
from homogkit.grid import BoxGrid, precond_scale
from homogkit.solvers import solve_box_dirichlet


class TestLambdaBookkeeping:
    def test_no_lower_order_terms(self):
        cs = builtin_family("laminate", d=2)
        assert estimate_lambda0(cs) == 0.0
        assert default_lambda(cs) == 1.0

    def test_formula(self):
        cs = builtin_family("trig", d=2, alpha=2.0, beta=0.5, lower=0.3)
        kap, mu = cs.kappa, cs.mu
        assert estimate_lambda0(cs) == pytest.approx(kap + 2 * kap ** 2 / mu)

    def test_guard_below_threshold(self):
        cs = builtin_family("trig", d=2, alpha=2.0, beta=0.5, lower=0.3)
        g = BoxGrid(2, 16)
        with pytest.raises(ProblemError):
            DirichletProblem(cs=cs, grid=g, eps=1.0, lam=0.0)
        # the override admits it for probes that need lam = 0
        DirichletProblem(cs=cs, grid=g, eps=1.0, lam=0.0, lambda_override=True)

    def test_resolution_guard(self):
        cs = builtin_family("trig", d=2, alpha=2.0, beta=0.5)
        with pytest.raises(ProblemError):
            DirichletProblem(cs=cs, grid=BoxGrid(2, 32), eps=1 / 8)
        DirichletProblem(cs=cs, grid=BoxGrid(2, 128), eps=1 / 8)


class TestSolve:
    def test_boundary_trace_exact(self):
        cs = builtin_family("trig", d=2, alpha=2.0, beta=0.5, lower=0.2)
        g = BoxGrid(2, 64)
        pts = g.points()
        bd = np.sin(3 * pts[..., 0]) + pts[..., 1] ** 2
        prob = DirichletProblem(cs=cs, grid=g, eps=1 / 4,
                                g=bd[..., None])
        u, info = solve(prob, tol=1e-11)
        bmask = g.boundary_mask()
        assert np.array_equal(u.values[bmask][:, 0], bd[bmask])
        assert info["residual"] < 1e-10

    def test_manufactured_second_order(self):
        # L = -Delta + 1 with u = sin(pi x) sin(pi y):
        # data (2 pi^2 + 1) u, error O(h^2)
        cs = builtin_family("constant", d=2, a0=1.0)
        errs = []
        for n in (32, 64):
            g = BoxGrid(2, n)
            pts = g.points()
            u_ex = np.sin(np.pi * pts[..., 0]) * np.sin(np.pi * pts[..., 1])
            F = (2 * np.pi ** 2 + 1.0) * u_ex
            prob = DirichletProblem(cs=cs, grid=g, eps=1.0, lam=1.0,
                                    F=F[..., None])
            u, _ = solve(prob, tol=1e-12)
            errs.append(np.abs(u.values[..., 0] - u_ex).max())
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)

    def test_affine_exact(self):
        # constant coefficients make the flux of an affine field constant, so
        # the affine function solves the homogeneous equation to stencil
        # exactness and the solve reproduces it to solver tolerance
        cs = builtin_family("constant", d=2, a0=1.4)
        g = BoxGrid(2, 32)
        pts = g.points()
        aff = 1.0 + 2.0 * pts[..., 0] - 0.5 * pts[..., 1]
        prob = DirichletProblem(cs=cs, grid=g, eps=1.0, lam=0.0,
                                g=aff[..., None])
        u, _ = solve(prob, tol=1e-12)
        assert np.abs(u.values[..., 0] - aff).max() < 1e-9

    def test_divergence_form_source(self):
        # div(f) with f = (x, 0) equals the constant load 1
        cs = builtin_family("constant", d=2, a0=1.0)
        g = BoxGrid(2, 32)
        pts = g.points()
        f = np.zeros(g.shape + (1, 2))
        f[..., 0, 0] = pts[..., 0]
        F = np.ones(g.shape + (1,))
        ua, _ = solve(DirichletProblem(cs=cs, grid=g, eps=1.0, lam=1.0, f=f),
                      tol=1e-12)
        ub, _ = solve(DirichletProblem(cs=cs, grid=g, eps=1.0, lam=1.0, F=F),
                      tol=1e-12)
        assert np.abs(ua.values - ub.values).max() < 1e-9

    def test_presampled_operator_is_bit_identical(self):
        cs = builtin_family("trig", d=2, alpha=2.0, beta=0.5, lower=0.2)
        g = BoxGrid(2, 32)
        pts = g.points()
        prob = DirichletProblem(cs=cs, grid=g, eps=1 / 2,
                                g=np.cos(3 * pts[..., :1]))
        u, info = solve(prob)
        v, info_v = solve(prob, samples=prob.samples())
        assert np.array_equal(u.values, v.values)
        assert info == info_v

    def test_symmetry_check_runs_once(self, monkeypatch):
        cs = builtin_family("trig", d=2, alpha=2.0, beta=0.5, lower=0.2)
        samples = DirichletProblem(cs=cs, grid=BoxGrid(2, 16), eps=1.0).samples()
        calls = []
        allclose = np.allclose
        monkeypatch.setattr(np, "allclose",
                            lambda *a, **k: calls.append(1) or allclose(*a, **k))
        assert samples.is_symmetric is False   # B != V^T
        checks = len(calls)
        assert checks > 0
        assert samples.is_symmetric is False
        assert len(calls) == checks
        sym = DirichletProblem(cs=builtin_family("laminate", d=2),
                               grid=BoxGrid(2, 16), eps=1.0).samples()
        assert sym.is_symmetric is True
        assert sym.adjoint().is_symmetric is True


class TestSamplesSolve:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("family,params", [
        ("trig", {"alpha": 2.0, "beta": 0.5}),                 # symmetric: CG
        ("trig", {"alpha": 2.0, "beta": 0.5, "lower": 0.3}),   # BiCGStab
        ("nonsymmetric-system", {}),
    ])
    def test_matches_explicit_solver_call(self, family, params, adjoint, d):
        cs = builtin_family(family, d=d, **params)
        g = BoxGrid(d, 32 if d == 2 else 16)
        samples = sample_coefficients(cs, g, 1 / 2, default_lambda(cs))
        op = samples.adjoint() if adjoint else samples
        rng = np.random.Generator(np.random.PCG64(5))
        rhs = rng.standard_normal((g.n - 1,) * d + (cs.m,))
        u, res = op.solve(rhs, 1e-10)
        want, _ = solve_box_dirichlet(op.apply_interior, rhs, g, lam=op.lam,
                                      tol=1e-10,
                                      precond_scale=precond_scale(op.A, g),
                                      symmetric=op.is_symmetric)
        assert np.array_equal(u, want)
        assert res == np.linalg.norm(op.apply_interior(u) - rhs) / np.linalg.norm(rhs)
        assert res <= 1e-9

    def test_solve_assembles_once_after_symmetry_check(self, monkeypatch):
        # peak memory: the symmetry check's temporaries are gone before K_ii
        # is assembled, and K_ii exists before the first Krylov matvec
        import homogkit.bvp as bvp
        import homogkit.solvers as solvers

        cs = builtin_family("trig", d=2, alpha=2.0, beta=0.5, lower=0.3)
        g = BoxGrid(2, 16)
        samples = sample_coefficients(cs, g, 1 / 2, default_lambda(cs))
        events = []
        assemble = bvp.assemble_box

        def recording_assemble(*args):
            events.append(("assemble", "_symmetric" in samples.__dict__))
            return assemble(*args)

        krylov = solvers._krylov

        def recording_krylov(matvec, precond, rhs, **kw):
            def first_matvec(x):
                events.append(("matvec", None))
                return matvec(x)
            return krylov(first_matvec, precond, rhs, **kw)

        monkeypatch.setattr(bvp, "assemble_box", recording_assemble)
        monkeypatch.setattr(solvers, "_krylov", recording_krylov)
        rhs = np.random.Generator(np.random.PCG64(6)).standard_normal((15, 15, 1))
        samples.solve(rhs, 1e-10)
        samples.solve(rhs, 1e-10)
        assert events[0] == ("assemble", True)
        assert events.count(("assemble", True)) == 1
        assert len(events) > 2 and all(e == ("matvec", None) for e in events[1:])


class TestSymmetryCheck:
    """``_allclose_blockwise`` returns what ``np.allclose(x, y, atol=1e-13,
    rtol=0)`` returns, whatever the block size."""

    @staticmethod
    def _cases():
        from homogkit.coefficients import transpose_a, transpose_m

        rng = np.random.Generator(np.random.PCG64(8))
        a = rng.standard_normal((9, 9, 2, 2, 2, 2))
        sym = a + transpose_a(a)
        yield sym, transpose_a(sym)                    # symmetric
        yield a, transpose_a(a)                        # nonsymmetric
        v = rng.standard_normal((9, 9, 2, 2, 2))
        yield v, transpose_m(v)
        for delta in (1e-13, np.nextafter(1e-13, 1.0), 1e-13 / 2):
            # a difference exactly at, just above and below the tolerance,
            # in the last row so that every earlier block passes
            x = np.zeros((9, 9, 2, 2))
            y = x.copy()
            y[-1, -1, 0, 1] = delta
            yield x, y
        for bad in (np.nan, np.inf, -np.inf):
            x = sym.copy()
            x[4, 3, 0, 0, 1, 1] = bad
            yield x, transpose_a(x)                    # non-finite on the diagonal
            y = sym.copy()
            y[4, 3, 0, 1, 1, 0] = bad
            yield y, transpose_a(y)                    # off the diagonal
        inf = np.full((3, 2, 2), np.inf)
        yield inf, inf.copy()                          # equal infinities are close

    @pytest.mark.parametrize("block", [1, 7, 1 << 16])
    def test_matches_allclose(self, monkeypatch, block):
        import homogkit.bvp as bvp

        monkeypatch.setattr(bvp, "_BLOCK_ELEMENTS", block)
        for x, y in self._cases():
            want = bool(np.allclose(x, y, atol=1e-13, rtol=0.0))
            assert bvp._allclose_blockwise(x, y) is want

    @pytest.mark.parametrize("family,params", [
        ("trig", {"alpha": 2.0, "beta": 0.5}),
        ("trig", {"alpha": 2.0, "beta": 0.5, "lower": 0.3}),
        ("nonsymmetric-system", {}),
        ("oscillating-potential", {"amp": 0.5}),
    ])
    def test_samples_match_allclose(self, family, params):
        from homogkit.coefficients import transpose_a, transpose_m

        cs = builtin_family(family, d=2, **params)
        samples = sample_coefficients(cs, BoxGrid(2, 16), 1 / 2, 1.0)
        want = all(np.allclose(x, y, atol=1e-13, rtol=0.0)
                   for x, y in ((samples.A, transpose_a(samples.A)),
                                (samples.V, transpose_m(samples.B)),
                                (samples.c, transpose_m(samples.c))))
        assert samples.is_symmetric is want


class TestDuality:
    def test_adjoint_identity(self):
        # <L u, v> = <u, L* v> for interior-supported fields, many pairs
        cs = builtin_family("trig", d=2, alpha=2.0, beta=0.5, lower=0.3)
        g = BoxGrid(2, 32)
        prob = DirichletProblem(cs=cs, grid=g, eps=1 / 2)
        s = prob.samples()
        sa = s.adjoint()
        rng = np.random.Generator(np.random.PCG64(11))
        for _ in range(20):
            u = np.zeros(g.shape + (1,))
            v = np.zeros(g.shape + (1,))
            u[g.interior] = rng.standard_normal(u[g.interior].shape)
            v[g.interior] = rng.standard_normal(v[g.interior].shape)
            lhs = float(np.sum(s.apply_full(u)[g.interior] * v[g.interior]))
            rhs = float(np.sum(u[g.interior] * sa.apply_full(v)[g.interior]))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_solve_adjoint_consistency(self):
        # <u, G> = <F, v> when L u = F and L* v = G with zero boundary data
        cs = builtin_family("trig", d=2, alpha=2.0, beta=0.5, lower=0.3)
        g = BoxGrid(2, 32)
        rng = np.random.Generator(np.random.PCG64(4))
        F = np.zeros(g.shape + (1,))
        G = np.zeros(g.shape + (1,))
        F[g.interior] = rng.standard_normal(F[g.interior].shape)
        G[g.interior] = rng.standard_normal(G[g.interior].shape)
        u, _ = solve(DirichletProblem(cs=cs, grid=g, eps=1 / 2, F=F), tol=1e-12)
        adj = DirichletProblem(cs=cs, grid=g, eps=1 / 2, F=G)
        v, _ = solve(adj, tol=1e-12, samples=adj.samples().adjoint())
        lhs = float(np.sum(u.values * G)) * g.cell_volume
        rhs = float(np.sum(F * v.values)) * g.cell_volume
        assert lhs == pytest.approx(rhs, rel=1e-9)


class TestCoercivity:
    def test_garding_at_threshold(self):
        # at lam = lambda_0 the form dominates c0 ||u||_{H1}^2 for every
        # boundary-vanishing field
        cs = builtin_family("trig", d=2, alpha=2.0, beta=0.5, lower=0.3)
        g = BoxGrid(2, 32)
        prob = DirichletProblem(cs=cs, grid=g, eps=1 / 2,
                                lam=estimate_lambda0(cs))
        s = prob.samples()
        c0 = coercivity_constant_bound(cs, g)
        rng = np.random.Generator(np.random.PCG64(21))
        for _ in range(25):
            u = np.zeros(g.shape + (1,))
            u[g.interior] = rng.standard_normal(u[g.interior].shape)
            form, h1sq = coercivity_margin(s, u)
            assert form >= c0 * h1sq - 1e-10 * h1sq

    def test_constant_bound_formula(self):
        cs = builtin_family("constant", d=2, a0=2.0)
        g = BoxGrid(2, 16)
        diam2 = 2.0  # unit square
        assert coercivity_constant_bound(cs, g) == pytest.approx(
            0.5 * 2.0 * min(1.0, 1.0 / (1.0 + diam2)))


# ---------------------------------------------------------------------------
# homogenized and principal-part operators against the sampler branches and
# solve helpers they replace
# ---------------------------------------------------------------------------

# The code paths under test: the only calls into homogkit that change when the
# sampler or the solve entry point change.

def _homogenized_samples(cs, hats, grid, lam):
    return sample_coefficients(hats.coefficients(cs), grid, 1.0, lam)


def _principal_samples(cs, grid, eps):
    return sample_coefficients(replace(cs, V=None, B=None, c=None), grid, eps, 0.0)


def _homogenized_solve(cs, hats, lam, grid, F, g, tol):
    return solve(DirichletProblem(cs=hats.coefficients(cs), grid=grid, lam=lam,
                                  F=F, g=g), tol=tol)


def _adjoint_solve(problem, tol):
    return solve(problem, tol=tol, samples=problem.samples().adjoint())


# Oracles: the removed branches of the sampler and the removed solve helpers,
# copied as they were.

def _oracle_homogenized_samples(hats, grid, lam, m):
    shape = grid.shape
    A, V, B, c = (np.broadcast_to(t, shape + t.shape).copy()
                  for t in (hats.A_hat, hats.V_hat, hats.B_hat, hats.c_hat))
    return CoefficientSamples(grid=grid, A=A, V=V, B=B, c=c, lam=float(lam), m=m)


def _oracle_samples(cs, grid, eps, lam, principal_only=False):
    shape, m = grid.shape, cs.m
    y = np.mod(grid.points() / float(eps), 1.0)
    A = cs.A(y)
    if principal_only:
        V = np.zeros(shape + (grid.d, m, m))
        B = V.copy()
        c = np.zeros(shape + (m, m))
    else:
        V, B, c = cs.V(y), cs.B(y), cs.c(y)
    return CoefficientSamples(grid=grid, A=A, V=V, B=B, c=c, lam=float(lam), m=m)


def _oracle_solve(samples, m, F, g_vals, tol):
    grid = samples.grid
    rhs = np.zeros(grid.shape + (m,))
    rhs += F
    rhs = rhs[grid.interior].copy()
    rhs -= samples.lift(np.asarray(g_vals, float))
    u_int, residual = samples.solve(rhs, tol)
    full = np.zeros(grid.shape + (m,))
    full[grid.interior] = u_int
    bmask = grid.boundary_mask()
    full[bmask] = np.asarray(g_vals, float)[bmask]
    return full, residual


def _same_bits(got, want):
    return (got.shape == want.shape and got.dtype == want.dtype
            and np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


def _hats(cs):
    from homogkit.cell import homogenize, solve_correctors
    from homogkit.grid import TorusGrid
    return homogenize(cs, solve_correctors(cs, TorusGrid(cs.d, 8), tol=1e-10))


def _operator_cases():
    cases = []
    for d in (1, 2, 3):
        for m in (1, 2):
            cases += [("constant", dict(d=d, m=m, a0=1.5, v0=0.3, b0=-0.2, c0=0.7)),
                      ("laminate", dict(d=d, m=m)),
                      ("laminate-step", dict(d=d, m=m)),
                      ("trig", dict(d=d, m=m)),
                      ("trig", dict(d=d, m=m, lower=0.3)),
                      ("oscillating-potential", dict(d=d, m=m, amp=0.6))]
        cases.append(("nonsymmetric-system", dict(d=d)))
    return cases


def _operator_case_id(case):
    name, params = case
    return name + "-" + "-".join(f"{k}{v}" for k, v in params.items())


def _boundary_data(grid, m, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    return (rng.standard_normal(grid.shape + (m,)),
            rng.standard_normal(grid.shape + (m,)))


class TestOperatorEquivalence:
    """Homogenized and principal-part samples, and the homogenized and
    adjoint solves, are bit-identical to the code they replace."""

    @pytest.mark.parametrize("case", _operator_cases(), ids=_operator_case_id)
    def test_samples_bit_identical(self, case):
        name, params = case
        cs = builtin_family(name, **params)
        grid = BoxGrid(cs.d, 8)
        hats = _hats(cs)
        lam = default_lambda(cs)
        for got, want in (
                (_homogenized_samples(cs, hats, grid, lam),
                 _oracle_homogenized_samples(hats, grid, lam, cs.m)),
                (_principal_samples(cs, grid, 1 / 4),
                 _oracle_samples(cs, grid, 1 / 4, 0.0, principal_only=True))):
            for field in ("A", "V", "B", "c"):
                assert _same_bits(getattr(got, field), getattr(want, field)), field
            assert got.lam == want.lam and got.m == want.m and got.grid == want.grid

    def test_homogenized_set_keeps_lambda_threshold(self):
        cs = builtin_family("trig", d=2, lower=0.3)
        hom = _hats(cs).coefficients(cs)
        assert (hom.mu, hom.kappa, hom.d, hom.m) == (cs.mu, cs.kappa, cs.d, cs.m)
        problem = DirichletProblem(cs=hom, grid=BoxGrid(2, 8))
        assert problem.lam == default_lambda(cs)

    @pytest.mark.parametrize("name,params", [
        ("trig", dict(d=2, lower=0.3)),
        ("nonsymmetric-system", dict(d=2)),
        ("constant", dict(d=1, m=2, a0=1.5, v0=0.3, b0=-0.2, c0=0.7)),
        ("oscillating-potential", dict(d=3, amp=0.6)),
    ])
    def test_homogenized_solve_bit_identical(self, name, params):
        cs = builtin_family(name, **params)
        grid = BoxGrid(cs.d, 8 if cs.d == 3 else 16)
        hats = _hats(cs)
        lam = default_lambda(cs)
        F, g_vals = _boundary_data(grid, cs.m, 3)
        u, info = _homogenized_solve(cs, hats, lam, grid, F, g_vals, 1e-10)
        want, residual = _oracle_solve(
            _oracle_homogenized_samples(hats, grid, lam, cs.m), cs.m, F, g_vals, 1e-10)
        assert _same_bits(u.values, want)
        assert info == {"residual": residual}

    @pytest.mark.parametrize("name,params", [
        ("trig", dict(d=2, lower=0.3)),
        ("nonsymmetric-system", dict(d=2)),
        ("oscillating-potential", dict(d=3, amp=0.6)),
    ])
    def test_adjoint_solve_bit_identical(self, name, params):
        cs = builtin_family(name, **params)
        eps, grid = (1.0, BoxGrid(3, 12)) if cs.d == 3 else (1 / 2, BoxGrid(cs.d, 32))
        lam = default_lambda(cs)
        F, g_vals = _boundary_data(grid, cs.m, 4)
        problem = DirichletProblem(cs=cs, grid=grid, eps=eps, lam=lam, F=F, g=g_vals)
        u, info = _adjoint_solve(problem, 1e-10)
        want, residual = _oracle_solve(_oracle_samples(cs, grid, eps, lam).adjoint(),
                                       cs.m, F, g_vals, 1e-10)
        assert _same_bits(u.values, want)
        assert info == {"residual": residual}
