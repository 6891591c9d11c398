from dataclasses import replace

import numpy as np
import pytest

from homogkit.cell import _source_k, build_flux_correctors, homogenize, solve_correctors
from homogkit.coefficients import CoefficientSet, builtin_family
from homogkit.grid import (GridFunction, TorusGrid, assemble, coefficient_blocks,
                           divergence, precond_scale)
from homogkit.solvers import solve_periodic
from oracles import divergence_centered as oracle_divergence


def laminate_harmonic_mean():
    """Exact effective coefficient of a(y) = 1/(2 + cos 2 pi y1) in the
    lamination direction: the harmonic mean 1 / <1/a> = 1 / <2 + cos> = 1/2."""
    return 0.5


class TestCorrectors:
    def test_constant_correctors_vanish(self):
        cs = builtin_family("constant", d=2, a0=1.7)
        g = TorusGrid(2, 32)
        cor = solve_correctors(cs, g)
        assert np.abs(cor.chi0).max() == 0.0
        for ck in cor.chi:
            assert np.abs(ck).max() < 1e-12

    def test_zero_cell_means(self):
        cs = builtin_family("trig", d=2, alpha=2.0, beta=0.5, lower=0.3)
        g = TorusGrid(2, 32)
        cor = solve_correctors(cs, g)
        for arr in [cor.chi0] + cor.chi:
            assert np.abs(arr.mean(axis=(0, 1))).max() < 1e-10

    @pytest.mark.parametrize("mean,raises", [(2e-10, True), (5e-11, False)])
    def test_cell_mean_bound(self, monkeypatch, mean, raises):
        # a corrector whose cell mean exceeds MEAN_TOL = 1e-10 is rejected
        import homogkit.cell as cell

        monkeypatch.setattr(cell, "solve_periodic",
                            lambda op, rhs, grid, **kw: (np.full(rhs.shape, mean), 0.0))
        cs = builtin_family("trig", d=1)
        if raises:
            with pytest.raises(cell.CellError, match="cell mean"):
                solve_correctors(cs, TorusGrid(1, 16))
        else:
            cor = solve_correctors(cs, TorusGrid(1, 16))
            assert np.all(cor.chi0 == mean)

    def test_laminate_closed_form_gradient(self):
        # for a 1D laminate the cell problem integrates exactly:
        # chi1' = a_hat / a - 1 with a_hat the harmonic mean.
        cs = builtin_family("laminate", d=1)
        g = TorusGrid(1, 256)
        cor = solve_correctors(cs, g, tol=1e-12)
        _, gk = cor.gradients()
        dchi = gk[0][..., 0, 0, 0]
        y = g.points()[..., 0]
        a = 1.0 / (2.0 + np.cos(2 * np.pi * y))
        exact = laminate_harmonic_mean() / a - 1.0
        assert np.abs(dchi - exact).max() < 5e-4  # centered-difference error

    @pytest.mark.parametrize("family,params", [
        ("trig", {"d": 2, "alpha": 2.0, "beta": 0.5, "lower": 0.3}),
        ("nonsymmetric-system", {"d": 2}),
        ("laminate", {"d": 1}),
        ("trig", {"d": 3, "lower": 0.3}),
        ("oscillating-potential", {"d": 2, "m": 2}),
    ])
    def test_matches_direct_solver_calls(self, family, params):
        # the reference is the parent's layout rebuilt from its parts: one
        # assembled operator, chi_0 driven by the hand-summed div(V e_beta),
        # chi_k by _source_k, one solve per column
        cs = builtin_family(family, **params)
        g, tol = TorusGrid(cs.d, 16 if cs.d == 3 else 32), 1e-10
        cor = solve_correctors(cs, g, tol=tol)
        y = g.points()
        A, V = cs.A(y), cs.V(y)
        K = assemble(coefficient_blocks(A), g)

        def op(u):
            return (K @ u.ravel()).reshape(u.shape)

        kw = {"tol": tol, "precond_scale": precond_scale(coefficient_blocks(A), g),
              "self_adjoint": replace(cs, V=None, B=None, c=None).self_adjoint}
        residuals = {}
        for k, got in enumerate([cor.chi0, *cor.chi]):
            worst = []
            for beta in range(cs.m):
                rhs = (oracle_divergence(V[..., beta], g, g.d) if k == 0
                       else _source_k(A, k, g)[..., :, beta])
                want, res = solve_periodic(op, rhs, g, **kw)
                assert np.array_equal(got[..., :, beta], want)
                worst.append(res)
            residuals[f"chi{k}"] = max(worst)
        assert cor.residuals == residuals
        assert max(cor.residuals.values()) <= 10 * tol

    def test_undeclared_nonsymmetric_set_runs_bicgstab(self, monkeypatch):
        # a custom set carries no declaration: its nonsymmetric A alone must
        # select BiCGStab, with no CG run that ends in the GMRES fallback
        import homogkit.solvers as solvers

        calls = []
        for name in ("cg", "bicgstab", "gmres"):
            def counting(*args, _name=name, _fn=getattr(solvers, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(solvers, name, counting)
        A = builtin_family("nonsymmetric-system", d=2).A
        cor = solve_correctors(CoefficientSet(d=2, m=2, A=A, mu=1.0), TorusGrid(2, 32))
        assert calls == ["bicgstab"] * 4   # chi_1, chi_2; chi_0 has a zero source
        assert max(cor.residuals.values()) <= 1e-9

    def test_residuals_reported(self):
        cs = builtin_family("laminate", d=2)
        g = TorusGrid(2, 32)
        cor = solve_correctors(cs, g, tol=1e-11)
        assert set(cor.residuals) == {"chi0", "chi1", "chi2"}
        assert max(cor.residuals.values()) < 1e-9


class TestHomogenize:
    def test_constant_family_identity(self):
        cs = builtin_family("constant", d=2, a0=2.0, v0=0.3, b0=-0.1, c0=0.7)
        g = TorusGrid(2, 16)
        hats = homogenize(cs, solve_correctors(cs, g))
        assert hats.A_hat[0, 0, 0, 0] == pytest.approx(2.0, abs=1e-12)
        assert hats.A_hat[0, 1, 0, 0] == pytest.approx(0.0, abs=1e-12)
        assert hats.V_hat[0, 0, 0] == pytest.approx(0.3, abs=1e-12)
        assert hats.B_hat[1, 0, 0] == pytest.approx(-0.1, abs=1e-12)
        assert hats.c_hat[0, 0] == pytest.approx(0.7, abs=1e-12)

    def test_laminate_harmonic_vs_arithmetic(self):
        # lamination direction gets the harmonic mean, the transverse
        # direction the arithmetic mean <a> = 1/sqrt(3).
        cs = builtin_family("laminate", d=2)
        g = TorusGrid(2, 256)
        hats = homogenize(cs, solve_correctors(cs, g, tol=1e-12))
        assert hats.A_hat[0, 0, 0, 0] == pytest.approx(0.5, abs=2e-5)
        assert hats.A_hat[1, 1, 0, 0] == pytest.approx(1 / np.sqrt(3), abs=2e-5)
        assert abs(hats.A_hat[0, 1, 0, 0]) < 1e-10

    def test_ellipticity_margin_positive(self):
        cs = builtin_family("trig", d=2, alpha=2.0, beta=0.5)
        g = TorusGrid(2, 64)
        hats = homogenize(cs, solve_correctors(cs, g))
        assert hats.ellipticity_margin(cs.mu) > 0.0


@pytest.fixture(scope="module")
def trig_setup():
    cs = builtin_family("trig", d=2, alpha=2.0, beta=0.5, lower=0.3)
    g = TorusGrid(2, 64)
    cor = solve_correctors(cs, g, tol=1e-11)
    hats = homogenize(cs, cor)
    flux = build_flux_correctors(cs, cor)
    return cs, g, cor, hats, flux


class TestFluxCorrectors:
    def test_antisymmetry_exact(self, trig_setup):
        _, _, _, _, flux = trig_setup
        E = flux.E
        F = flux.F
        assert np.array_equal(E, -np.swapaxes(E, 2, 3))
        assert np.array_equal(F, -np.swapaxes(F, 2, 3))

    def test_zero_means(self, trig_setup):
        _, g, _, _, flux = trig_setup
        for fld in (flux.b, flux.U, flux.W, flux.Z):
            assert np.abs(fld.mean(axis=(0, 1))).max() < 1e-9

    def test_divergence_identity_refines(self, trig_setup):
        # d_l E[l, i, j] recovers b_ij up to the discretization mismatch of
        # two difference stencils; the defect shrinks by ~4x per refinement.
        cs, _, _, hats, _ = trig_setup

        defects = []
        for n in (32, 64):
            g = TorusGrid(2, n)
            cor = solve_correctors(cs, g, tol=1e-11)
            flux = build_flux_correctors(cs, cor)
            E = np.moveaxis(flux.E[..., :, :, 0, 0], 2, -1)
            div = divergence(GridFunction(g, E)).values
            defects.append(np.abs(div - flux.b[..., 0, 0]).max())
        assert defects[0] / defects[1] > 3.0

    def test_constant_flux_potentials_vanish(self):
        cs = builtin_family("constant", d=2, a0=1.3)
        g = TorusGrid(2, 16)
        cor = solve_correctors(cs, g)
        flux = build_flux_correctors(cs, cor)
        for fld in (flux.b, flux.E, flux.U, flux.F, flux.W, flux.Z):
            assert np.abs(fld).max() < 1e-10
