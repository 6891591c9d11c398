import math
from dataclasses import replace

import numpy as np
import pytest

from homogkit import bvp
from homogkit.bvp import default_lambda
from homogkit.coefficients import builtin_family
from homogkit.green import (GreenError, _ball_mask, approx_green,
                            boundary_data_battery, decay_fit, decay_shell,
                            direct_solve, maximal_function_probe,
                            reciprocity_residual, representation_value)
from homogkit.grid import (BoxGrid, boundary_lp_norm, linf_norm,
                           nontangential_max)
from oracles import boundary_weighted_ratio, poisson_kernel_boundary_rep


@pytest.fixture(scope="module")
def const3d_sample():
    cs = builtin_family("constant", d=3, a0=1.0)
    g = BoxGrid(3, 48)
    sample = approx_green(cs, 0.25, 0.0, g, y=[0.5, 0.5, 0.5], tol=1e-9)
    return cs, g, sample


class TestDistanceFields:
    """The distance fields around a point, built from per-axis arrays, are
    bit-identical to the expressions over the full (*shape, d) point array."""

    @pytest.mark.parametrize("d,n", [(1, 9), (1, 16), (2, 7), (2, 12),
                                     (3, 9), (3, 16)])
    def test_match_point_array(self, d, n):
        g = BoxGrid(d, n)
        pts = g.points()
        for idx in ([n // 2] * d, [2, n - 3, 3][:d], [n - 2, 1, n // 2][:d]):
            y = np.array(idx) * g.h
            for rho in (g.h, 2 * g.h, 0.3):
                r = np.sqrt(np.sum((pts - y) ** 2, axis=-1))
                d_y = float(np.minimum(y, 1.0 - y).min())
                adm = (r >= 4 * g.h) & (r <= 0.5 * d_y) & (rho < r / 4)
                got_r, got_adm = decay_shell(g, y, rho)
                assert np.array_equal(got_r, r) and np.array_equal(got_adm, adm)
                assert np.array_equal(_ball_mask(g, y, rho), r <= rho + 1e-12)

    def test_shell_starts_four_spacings_out(self):
        """With a small rho only the grid-scale bound r >= 4h cuts the shell
        near y: a point 3h away on an axis is out, one 5h away is in."""
        g = BoxGrid(3, 48)
        c = g.n // 2
        _, adm = decay_shell(g, np.full(3, c * g.h), 0.1 * g.h)
        for ax in range(3):
            near, far = [c] * 3, [c] * 3
            near[ax], far[ax] = c + 3, c - 5
            assert not adm[tuple(near)] and adm[tuple(far)]


class TestGuards:
    def test_boundary_source_rejected(self):
        cs = builtin_family("constant", d=2, a0=1.0)
        g = BoxGrid(2, 16)
        with pytest.raises(GreenError):
            approx_green(cs, 0.5, 0.0, g, y=[0.0, 0.5])

    def test_rho_floor(self):
        cs = builtin_family("constant", d=2, a0=1.0)
        g = BoxGrid(2, 16)
        for rho in (g.h, math.nan):
            with pytest.raises(GreenError, match="floor"):
                approx_green(cs, 0.5, 0.0, g, y=[0.5, 0.5], rho=rho)

    def test_decay_fit_needs_3d(self):
        cs = builtin_family("constant", d=2, a0=1.0)
        g = BoxGrid(2, 32)
        sample = approx_green(cs, 0.5, 0.0, g, y=[0.5, 0.5])
        with pytest.raises(GreenError, match="d = 3"):
            decay_fit(sample)

    def test_decay_fit_needs_pairs(self):
        # near-boundary source: the admissible shell r <= d_y / 2 is empty
        cs = builtin_family("constant", d=3, a0=1.0)
        g = BoxGrid(3, 16)
        sample = approx_green(cs, 0.5, 0.0, g, y=[g.h, g.h, g.h])
        with pytest.raises(GreenError, match="admissible"):
            decay_fit(sample)

    def test_battery_minimum_size(self):
        cs = builtin_family("constant", d=2, a0=1.0)
        g = BoxGrid(2, 16)
        battery = boundary_data_battery(g, 1)[:3]
        with pytest.raises(GreenError, match="10"):
            maximal_function_probe(cs, 1.0, 1.0, g, battery)


class TestColumns:
    def test_zero_boundary_trace(self, const3d_sample):
        _, g, sample = const3d_sample
        bmask = g.boundary_mask()
        assert np.abs(sample.columns[0][bmask]).max() == 0.0

    def test_residuals_small(self, const3d_sample):
        _, _, sample = const3d_sample
        assert max(sample.residuals) < 1e-8

    def test_free_space_magnitude_near_source(self, const3d_sample):
        # close to the source (r well below the boundary distance) the
        # magnitude tracks the whole-space kernel 1 / (4 pi r); the box
        # boundary depresses it by an O(r / d_y) amount, bounded here by 30%
        _, g, sample = const3d_sample
        pts = g.points()
        r = np.sqrt(np.sum((pts - sample.y) ** 2, axis=-1))
        mag = sample.magnitude
        shell = (r > 0.06) & (r < 0.1) & (mag > 0)
        vals = mag[shell] * 4.0 * math.pi * r[shell]
        assert np.all(vals < 1.05)
        assert np.all(vals > 0.6)
        assert np.median(vals) > 0.75


    def test_decay_fit_leaves_the_cached_shell_intact(self, const3d_sample):
        # fit_shell and magnitude are computed once per sample and are
        # read-only; decay_fit drops the zero-magnitude points of the shell
        # on a copy of its mask, so a second fit and the shell are unchanged
        _, g, sample = const3d_sample
        columns = sample.columns.copy()
        columns[..., : g.n // 2, :] = 0.0   # zero on the half shell below y
        zeroed = replace(sample, columns=columns)
        first = decay_fit(zeroed)
        assert decay_fit(zeroed) == first
        r, adm = zeroed.fit_shell
        want_r, want_adm = decay_shell(g, zeroed.y, zeroed.rho)
        assert np.array_equal(r, want_r) and np.array_equal(adm, want_adm)
        assert first.n_pairs < int(adm.sum())
        mag = zeroed.magnitude
        assert zeroed.fit_shell[1] is adm and zeroed.magnitude is mag
        assert not (r.flags.writeable or adm.flags.writeable or mag.flags.writeable)


class TestReciprocity:
    def test_transpose_identity(self):
        # nonsymmetric coefficients make the forward and adjoint kernels
        # genuinely different; their ball-averaged transposition agrees to
        # solver tolerance
        cs = builtin_family("nonsymmetric-system", d=2, delta=0.3)
        g = BoxGrid(2, 48)
        res = reciprocity_residual(cs, 0.25, 1.0, g,
                                   y=[0.375, 0.375], x=[0.625, 0.6875],
                                   tol=1e-11)
        assert res < 1e-8


class TestRepresentation:
    def test_ball_averaged_solution(self):
        # pairing the kernel columns with a load reproduces the ball average
        # of the forward solution at the source, exactly up to solver error
        cs = builtin_family("trig", d=2, alpha=2.0, beta=0.5, lower=0.2)
        g = BoxGrid(2, 48)
        lam = 2.0
        rng = np.random.Generator(np.random.PCG64(8))
        F = np.zeros(g.shape + (1,))
        F[g.interior] = rng.standard_normal(F[g.interior].shape)
        sample = approx_green(cs, 0.25, lam, g, y=[0.5, 0.5], tol=1e-11)
        u = direct_solve(cs, 0.25, lam, g, F, tol=1e-11)
        got = representation_value(sample, F)[0]
        want = float(np.mean(
            u[np.sqrt(np.sum((g.points() - sample.y) ** 2, axis=-1))
              <= sample.rho + 1e-12, 0]))
        assert got == pytest.approx(want, rel=1e-7)

    def test_source_linearity(self, const3d_sample):
        _, g, sample = const3d_sample
        rng = np.random.Generator(np.random.PCG64(9))
        F1 = rng.standard_normal(g.shape + (1,))
        F2 = rng.standard_normal(g.shape + (1,))
        v1 = representation_value(sample, F1)
        v2 = representation_value(sample, F2)
        v12 = representation_value(sample, 2.0 * F1 - 3.0 * F2)
        assert np.allclose(v12, 2.0 * v1 - 3.0 * v2, rtol=1e-12)


class TestDecay:
    def test_power_law_window(self, const3d_sample):
        # the admissible shell of a box-confined kernel mixes the 1/r core
        # with the boundary falloff; the fitted exponent lands between the
        # whole-space -1 and the image-dominated -2
        _, _, sample = const3d_sample
        fit = decay_fit(sample)
        assert fit.n_pairs >= 10
        assert -2.2 < fit.exponent < -1.0
        assert fit.prefactor > 0

    def test_weighted_boundary_ratio_finite(self, const3d_sample):
        _, _, sample = const3d_sample
        assert boundary_weighted_ratio(sample) < 10.0


class TestPoissonKernel:
    def test_constant_data_reproduced(self):
        # the operator annihilates constants (V = c = lam = 0), so u = g0 and
        # the boundary representation must return g0 up to quadrature error
        cs = builtin_family("constant", d=2, a0=1.3)
        g = BoxGrid(2, 64)
        sample = approx_green(cs, 1.0, 0.0, g, y=[0.5, 0.5], tol=1e-11)
        g_vals = np.full(g.shape + (1,), 0.7)
        probe = poisson_kernel_boundary_rep([sample], cs, g_vals)
        assert probe[0, 0] == pytest.approx(0.7, rel=0.05)

    def test_affine_data_reproduced(self):
        cs = builtin_family("constant", d=2, a0=1.0)
        g = BoxGrid(2, 64)
        sample = approx_green(cs, 1.0, 0.0, g, y=[0.25, 0.5], tol=1e-11)
        pts = g.points()
        aff = 0.3 + 1.2 * pts[..., 0] - 0.4 * pts[..., 1]
        probe = poisson_kernel_boundary_rep([sample], cs, aff[..., None])
        want = 0.3 + 1.2 * 0.25 - 0.4 * 0.5
        assert probe[0, 0] == pytest.approx(want, rel=0.05)

    def test_oscillatory_vs_direct(self):
        # trig coefficients: the kernel representation of smooth boundary
        # data matches the direct Dirichlet solve at the probe point
        cs = builtin_family("trig", d=2, alpha=2.0, beta=0.5)
        g = BoxGrid(2, 64)
        eps = 0.25
        sample = approx_green(cs, eps, 0.0, g, y=[0.5, 0.5], tol=1e-11)
        pts = g.points()
        bd = np.cos(2 * pts[..., 0]) + 0.5 * pts[..., 1]
        probe = poisson_kernel_boundary_rep([sample], cs, bd[..., None])

        from homogkit.bvp import DirichletProblem, solve
        prob = DirichletProblem(cs=cs, grid=g, eps=eps, lam=0.0,
                                g=bd[..., None], lambda_override=True)
        u, _ = solve(prob, tol=1e-11)
        want = u.values[32, 32, 0]
        assert probe[0, 0] == pytest.approx(want, rel=0.10)

    def test_empty_samples_rejected(self):
        cs = builtin_family("constant", d=2)
        with pytest.raises(GreenError):
            poisson_kernel_boundary_rep([], cs, np.zeros((3, 3, 1)))

    @pytest.mark.parametrize("family,params,lam,n,eps", [
        ("trig", {"d": 2}, 0.0, 64, 0.25),
        ("trig", {"d": 2, "lower": 0.5}, 3.0, 64, 0.25),
        ("nonsymmetric-system", {"d": 2}, 1.0, 64, 0.25),
        ("oscillating-potential", {"d": 3}, 3.0, 32, 0.5),
    ], ids=["trig", "trig-lower", "nonsymmetric-system", "oscillating-potential-3d"])
    def test_equals_ball_average_of_solve(self, family, params, lam, n, eps):
        # -h^d K_ib^T G paired with g is, by discrete transposition, the
        # ball average of the solve with boundary data g: exact to solver
        # tolerance, for systems and lower-order terms alike
        cs = builtin_family(family, **params)
        g = BoxGrid(cs.d, n)
        y = [0.5] * cs.d
        sample = approx_green(cs, eps, lam, g, y=y, tol=1e-12)
        pts = g.points()
        bd = np.stack([np.cos(2 * pts[..., 0] + k) + 0.5 * (k + 1) * pts[..., -1]
                       for k in range(cs.m)], axis=-1)
        probe = poisson_kernel_boundary_rep([sample], cs, bd)
        u, _ = bvp.solve(bvp.DirichletProblem(cs=cs, grid=g, eps=eps, lam=lam,
                                              g=bd), tol=1e-12)
        want = u.values[_ball_mask(g, sample.y, sample.rho)].mean(axis=0)
        assert np.abs(probe[0] - want).max() <= 1e-8 * np.abs(want).max()


class TestMaximalBattery:
    def test_deterministic(self):
        g = BoxGrid(2, 16)
        b1 = boundary_data_battery(g, 1, seed=3)
        b2 = boundary_data_battery(g, 1, seed=3)
        for u, v in zip(b1, b2):
            assert np.array_equal(u, v)

    def test_all_zero_battery_rejected(self):
        cs = builtin_family("constant", d=2)
        g = BoxGrid(2, 8)
        battery = [np.zeros(g.shape + (1,))] * 10
        with pytest.raises(GreenError, match="zero boundary data"):
            maximal_function_probe(cs, 1.0, 0.0, g, battery)

    def test_max_principle_for_laplacian(self):
        # -Delta obeys the discrete maximum principle: sup |u| <= sup |g|
        cs = builtin_family("constant", d=2, a0=1.0)
        g = BoxGrid(2, 32)
        battery = boundary_data_battery(g, 1, seed=5)
        out = maximal_function_probe(cs, 1.0, 0.0, g, battery, tol=1e-11)
        assert out.max_principle_ratio <= 1.0 + 1e-9
        assert out.C_p < 10.0
        assert len(out.ratios) == 10

    @pytest.mark.parametrize("family, params", [
        ("trig", {"d": 2, "lower": 0.3}),
        ("nonsymmetric-system", {"d": 2}),
    ])
    def test_shared_operator_matches_per_field_problems(self, family, params,
                                                         monkeypatch):
        cs = builtin_family(family, **params)
        g = BoxGrid(2, 32)
        eps, lam, p, N0 = 0.5, default_lambda(cs), 2.0, 2.0
        battery = boundary_data_battery(g, cs.m, seed=7)
        calls = []
        sample = bvp.sample_coefficients
        monkeypatch.setattr(bvp, "sample_coefficients",
                            lambda *a, **k: calls.append(1) or sample(*a, **k))
        out = maximal_function_probe(cs, eps, lam, g, battery, p=p)
        assert len(calls) == 1
        # the path with one DirichletProblem, one sampling and one assembly
        # per field, rebuilt by hand
        ratios, mp = [], 0.0
        bmask = g.boundary_mask()
        for g_vals in battery:
            u, _ = bvp.solve(bvp.DirichletProblem(cs=cs, grid=g, eps=eps,
                                                  lam=lam, g=g_vals))
            g_on_b = g_vals[bmask]
            ratios.append(boundary_lp_norm(nontangential_max(u, N0), g, p)
                          / boundary_lp_norm(g_on_b, g, p))
            mp = max(mp, linf_norm(u) / float(np.abs(g_on_b).max()))
        assert len(calls) == 11
        assert out.ratios == ratios
        assert out.C_p == max(ratios)
        assert out.max_principle_ratio == mp
