import numpy as np
import pytest

from homogkit.bvp import DirichletProblem, solve
from homogkit.cell import solve_correctors
from homogkit.coefficients import builtin_family
from homogkit.dirichlet import solve_dirichlet_correctors
from homogkit.grid import BoxGrid, GridFunction, read_csv
from homogkit.rates import (ConvergenceReport, SweepConfig, SweepError,
                            expansion_error, fit_rate, load_field, restrict,
                            run_sweep, uniform_constant_probe)
from oracles import triangle_defects


class TestConfig:
    def test_dyadic_guard(self):
        with pytest.raises(SweepError, match="dyadic"):
            SweepConfig(family="laminate", eps_list=(0.1, 0.05))

    def test_monotone_guard(self):
        with pytest.raises(SweepError, match="decreasing"):
            SweepConfig(family="laminate", eps_list=(1 / 16, 1 / 8))

    def test_grid_sizes_follow_divisor(self):
        cfg = SweepConfig(family="laminate", eps_list=(1 / 8, 1 / 16),
                          divisor=16)
        assert cfg.grid_for(1 / 8).n == 128
        assert cfg.grid_for(1 / 16).n == 256


class TestLoadField:
    def test_kinds(self):
        g = BoxGrid(2, 16)
        one = load_field("one", g, 1)
        assert np.all(one[..., 0] == 1.0)
        sine = load_field("sine", g, 1)
        assert sine[0, 0, 0] == pytest.approx(0.0, abs=1e-14)
        bump = load_field("bump", g, 1, seed=2)
        assert bump.max() <= 1.0
        with pytest.raises(SweepError):
            load_field("noise", g, 1)

    def test_bump_seeded(self):
        g = BoxGrid(2, 16)
        assert np.array_equal(load_field("bump", g, 1, seed=7),
                              load_field("bump", g, 1, seed=7))


class TestRestrict:
    def test_strided_subsample(self):
        fine = BoxGrid(2, 32)
        coarse = BoxGrid(2, 8)
        vals = fine.points()[..., 0]
        got = restrict(vals, fine, coarse)
        assert np.array_equal(got, coarse.points()[..., 0])

    def test_nesting_guard(self):
        with pytest.raises(SweepError, match="nest"):
            restrict(np.zeros((25, 25)), BoxGrid(2, 24), BoxGrid(2, 9))


class TestFitRate:
    def test_exact_slope_one(self):
        pairs = [(2.0 ** -j, 2.0 ** -j) for j in range(3, 7)]
        fit = fit_rate(pairs)
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.residual < 1e-12
        assert fit.dropped == 0

    def test_exact_slope_two(self):
        pairs = [(e, e ** 2) for e in (1 / 8, 1 / 16, 1 / 32)]
        assert fit_rate(pairs).slope == pytest.approx(2.0, abs=1e-12)

    def test_jittered_slope(self):
        rng = np.random.Generator(np.random.PCG64(13))
        pairs = [(2.0 ** -j, 2.0 ** -j * np.exp(0.05 * rng.standard_normal()))
                 for j in range(3, 9)]
        fit = fit_rate(pairs)
        assert 0.93 < fit.slope < 1.07

    def test_nonpositive_dropped(self):
        pairs = [(1 / 8, 1e-3), (1 / 16, 0.0), (1 / 32, 1e-4), (1 / 64, 3e-5)]
        fit = fit_rate(pairs)
        assert fit.dropped == 1
        assert fit.n_used == 3

    def test_too_few_pairs(self):
        with pytest.raises(SweepError, match="3"):
            fit_rate([(1 / 8, 0.1), (1 / 16, 0.0), (1 / 32, 0.01)])


class TestExpansionError:
    def test_constant_family_identically_zero(self):
        # constant coefficients: u_eps = u, Phi_0 = I, Phi_k = P_k, so the
        # corrected expansion error is the zero field to solver accuracy
        cs = builtin_family("constant", d=2, a0=1.0)
        g = BoxGrid(2, 32)
        F = load_field("sine", g, 1)
        lam = 1.0
        u, _ = solve(DirichletProblem(cs=cs, grid=g, eps=1.0, lam=lam, F=F),
                     tol=1e-12)
        phis = solve_dirichlet_correctors(cs, 1 / 2, g, tol=1e-12)
        exp = expansion_error(u, u, phis)
        assert exp.h1_norm < 1e-8
        assert exp.h1_norm_corner_excluded <= exp.h1_norm + 1e-15

    def test_w_vanishes_on_boundary(self):
        # u_eps and Phi_0 u + (Phi_k - P_k) du share the boundary trace of u
        # exactly, by the corrector construction
        cs = builtin_family("trig", d=2, alpha=2.0, beta=0.5)
        g = BoxGrid(2, 64)
        F = load_field("one", g, 1)
        lam = 1.0
        eps = 1 / 4
        u_eps, _ = solve(DirichletProblem(cs=cs, grid=g, eps=eps, lam=lam, F=F),
                         tol=1e-11)
        u, _ = solve(DirichletProblem(cs=cs, grid=g, eps=1.0, lam=lam, F=F),
                     tol=1e-11)
        phis = solve_dirichlet_correctors(cs, eps, g, tol=1e-11)
        exp = expansion_error(u_eps, u, phis)
        bmask = g.boundary_mask()
        assert np.abs(exp.w.values[bmask]).max() < 1e-12

    def test_grid_mismatch_guard(self):
        cs = builtin_family("constant", d=2)
        g1, g2 = BoxGrid(2, 32), BoxGrid(2, 64)
        F = load_field("one", g1, 1)
        u1, _ = solve(DirichletProblem(cs=cs, grid=g1, eps=1.0, F=F), tol=1e-10)
        u2, _ = solve(DirichletProblem(cs=cs, grid=g2, eps=1.0,
                                       F=load_field("one", g2, 1)), tol=1e-10)
        phis = solve_dirichlet_correctors(cs, 1 / 2, g1)
        with pytest.raises(SweepError, match="grid"):
            expansion_error(u2, u1, phis)


@pytest.fixture(scope="module")
def small_sweep():
    cfg = SweepConfig(family="laminate", params={"d": 2},
                      eps_list=(1 / 4, 1 / 8, 1 / 16), divisor=16,
                      n_cell=64, tol=1e-10)
    return run_sweep(cfg)


class TestRunSweep:
    def test_complete_and_shaped(self, small_sweep):
        rep = small_sweep
        assert rep.complete
        assert len(rep.rows) == 3
        assert [r["n"] for r in rep.rows] == [64, 128, 256]
        assert max(r["residual"] for r in rep.rows) < 1e-9

    def test_corrected_beats_uncorrected(self, small_sweep):
        for row in small_sweep.rows:
            assert row["w_h1"] <= row["err_h1_uncorrected"]

    def test_corrected_h1_rate(self, small_sweep):
        assert small_sweep.slopes["w_h1"].slope > 0.8

    def test_triangle_defects_nonnegative(self, small_sweep):
        for slack in triangle_defects(small_sweep):
            assert slack > -1e-10

    def test_csv_roundtrip_values(self, small_sweep, tmp_path):
        path = tmp_path / "report.csv"
        small_sweep.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 4
        header = lines[0].split(",")
        assert header[0] == "eps" and "w_h1" in header
        # shortest round-trip floats: rereading reproduces the rows exactly
        for line, row in zip(lines[1:], small_sweep.rows):
            cells = line.split(",")
            assert float(cells[header.index("w_h1")]) == row["w_h1"]

    def test_constant_family_slopes_skipped(self):
        # with constant coefficients the finest row coincides with the
        # reference exactly (error 0), so no slope is fitted and the report
        # says why in its notes instead of inventing a rate
        cfg = SweepConfig(family="constant", params={"d": 2},
                          eps_list=(1 / 4, 1 / 8, 1 / 16), divisor=16,
                          n_cell=64, tol=1e-10)
        rep = run_sweep(cfg)
        assert rep.complete
        assert "w_h1" not in rep.slopes
        assert rep.notes  # every skipped fit is explained
        assert rep.rows[-1]["w_h1"] == 0.0


class TestUniformProbes:
    def test_unknown_kind(self):
        cfg = SweepConfig(family="laminate", eps_list=(1 / 4,))
        with pytest.raises(SweepError, match="probe kind"):
            uniform_constant_probe("Hessian", cfg)

    def test_w1p_dispersion_small(self):
        cfg = SweepConfig(family="laminate", params={"d": 2},
                          eps_list=(1 / 4, 1 / 8), divisor=16, n_cell=64)
        res = uniform_constant_probe("W1p", cfg)
        assert res.dispersion < 1.5
        assert len(res.per_eps) == 2
