"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Criteria that share an expensive sweep reuse a module-scoped fixture so the
whole suite stays within desk-scale runtimes.
"""

import filecmp
import math

import numpy as np
import pytest

from homogkit.bvp import (DirichletProblem, coercivity_constant_bound,
                          coercivity_margin, estimate_lambda0, solve)
from homogkit.cell import build_flux_correctors, homogenize, solve_correctors
from homogkit.cli import parse_config, run
from homogkit.coefficients import builtin_family
from homogkit.dirichlet import solve_dirichlet_correctors
from homogkit.grid import BoxGrid, GridFunction, TorusGrid, divergence
from homogkit.green import (approx_green, decay_fit, direct_solve,
                            maximal_function_probe, reciprocity_residual,
                            representation_value)
from homogkit.rates import (SweepConfig, expansion_error, load_field,
                            run_sweep, uniform_constant_probe)

SOLVER_TOL = 1e-10


def _verdict(num: int, desc: str, ok: bool, detail: str = ""):
    tail = f"  ({detail})" if detail else ""
    print(f"\ncriterion {num:02d} [{'PASS' if ok else 'FAIL'}] {desc}{tail}")
    assert ok, f"criterion {num} failed: {desc}{tail}"


# ---------------------------------------------------------------------------
# shared trig sweep (criteria 8, 9, 10)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def trig_sweep():
    cfg = SweepConfig(
        family="trig",
        params={"d": 2, "alpha": 2.0, "beta": 0.5, "lower": 0.5},
        eps_list=(1 / 8, 1 / 16, 1 / 32),
        divisor=16,
        data="one",
        n_cell=64,
        tol=SOLVER_TOL,
    )
    return run_sweep(cfg)


def test_criterion_01_constant_coefficient_exactness():
    cs = builtin_family("constant", d=2, a0=2.0, v0=0.3, b0=-0.2, c0=0.4)
    tol = 1e-9
    issues = []

    tor = TorusGrid(2, 64)
    cor = solve_correctors(cs, tor, tol=SOLVER_TOL)
    if max(np.abs(c).max() for c in [cor.chi0] + cor.chi) > tol:
        issues.append("correctors not identically zero")

    hats = homogenize(cs, cor)
    y = tor.points()
    for name, got, want in (("A", hats.A_hat, cs.A(y)[0, 0]),
                            ("V", hats.V_hat, cs.V(y)[0, 0]),
                            ("B", hats.B_hat, cs.B(y)[0, 0]),
                            ("c", hats.c_hat, cs.c(y)[0, 0])):
        if np.abs(got - want).max() > tol:
            issues.append(f"{name}_hat differs from the constant tensor")

    g = BoxGrid(2, 64)
    phis = solve_dirichlet_correctors(cs, 1 / 4, g, tol=SOLVER_TOL)
    pts = g.points()
    if np.abs(phis.phi0[..., 0, 0] - 1.0).max() > tol:
        issues.append("Phi_0 deviates from the identity")
    for k, phik in enumerate(phis.phi, start=1):
        if np.abs(phik[..., 0, 0] - pts[..., k - 1]).max() > tol:
            issues.append(f"Phi_{k} deviates from the coordinate monomial")

    lam = 1.0
    F = load_field("sine", g, 1)
    u_eps, _ = solve(DirichletProblem(cs=cs, grid=g, eps=1 / 4, lam=lam, F=F),
                     tol=SOLVER_TOL)
    u_hom, _ = solve(DirichletProblem(cs=hats.coefficients(cs), grid=g, lam=lam,
                                      F=F), tol=SOLVER_TOL)
    if np.abs(u_eps.values - u_hom.values).max() > tol:
        issues.append("oscillatory and homogenized solves differ")

    exp = expansion_error(u_eps, u_hom, phis)
    if exp.h1_norm > tol:
        issues.append(f"expansion error {exp.h1_norm:.2e} above {tol}")

    _verdict(1, "constant-coefficient exactness suite", not issues,
             "; ".join(issues))


def test_criterion_02_1d_harmonic_mean():
    cs = builtin_family("laminate", d=1)
    g = TorusGrid(1, 512)
    hats = homogenize(cs, solve_correctors(cs, g, tol=SOLVER_TOL))
    a_hat = float(hats.A_hat[0, 0, 0, 0])
    ok = 0.4999 <= a_hat <= 0.5001
    _verdict(2, "1D laminate effective coefficient is the harmonic mean", ok,
             f"a_hat = {a_hat:.7f}")


def test_criterion_03_2d_laminate_oracle():
    # independent quadrature oracle on a dense 1D lattice
    yq = np.linspace(0.0, 1.0, 100001)
    aq = 1.0 / (2.0 + np.cos(2.0 * np.pi * yq))
    harmonic = 1.0 / np.trapezoid(1.0 / aq, yq)
    arithmetic = np.trapezoid(aq, yq)

    cs = builtin_family("laminate", d=2)
    g = TorusGrid(2, 256)
    hats = homogenize(cs, solve_correctors(cs, g, tol=SOLVER_TOL))
    a11 = float(hats.A_hat[0, 0, 0, 0])
    a22 = float(hats.A_hat[1, 1, 0, 0])
    ok = (abs(a11 - harmonic) <= 0.02 * harmonic
          and abs(a22 - arithmetic) <= 0.02 * arithmetic)
    _verdict(3, "2D laminate diagonal matches quadrature oracles", ok,
             f"a11 = {a11:.5f} vs {harmonic:.5f}, "
             f"a22 = {a22:.5f} vs {arithmetic:.5f}")


def test_criterion_04_flux_identities():
    cs = builtin_family("trig", d=2, alpha=2.0, beta=0.5, lower=0.3)
    issues = []
    defect_E = []
    defect_F = []
    for n in (64, 128):
        g = TorusGrid(2, n)
        cor = solve_correctors(cs, g, tol=1e-11)
        flux = build_flux_correctors(cs, cor)
        if not np.array_equal(flux.E, -np.swapaxes(flux.E, 2, 3)):
            issues.append(f"E antisymmetry broken at n = {n}")
        if not np.array_equal(flux.F, -np.swapaxes(flux.F, 2, 3)):
            issues.append(f"F antisymmetry broken at n = {n}")
        divE = divergence(GridFunction(g, np.moveaxis(flux.E[..., :, :, 0, 0], 2, -1))).values
        dE = math.sqrt(float(np.mean((divE - flux.b[..., 0, 0]) ** 2)))
        divF = np.stack([
            divergence(GridFunction(g, np.moveaxis(flux.F[..., :, i, 0, 0], 2, -1))).values
            for i in range(2)], axis=-1)
        dF = math.sqrt(float(np.mean((divF - flux.U[..., :, 0, 0]) ** 2)))
        defect_E.append(dE)
        defect_F.append(dF)
    for name, d in (("E", defect_E), ("F", defect_F)):
        ratio = d[0] / d[1]
        if not 4.0 * 0.7 <= ratio <= 4.0 * 1.3:
            issues.append(f"{name} divergence defect ratio {ratio:.2f} "
                          "outside 4x +/- 30%")
    _verdict(4, "flux potential antisymmetry and divergence identities",
             not issues, "; ".join(issues) or
             f"shrink ratios E {defect_E[0] / defect_E[1]:.2f}, "
             f"F {defect_F[0] / defect_F[1]:.2f}")


def test_criterion_05_coercivity_battery():
    families = [
        ("constant", {"d": 2, "a0": 1.5, "v0": 0.3, "b0": -0.2, "c0": 0.1}),
        ("laminate", {"d": 2}),
        ("laminate-step", {"d": 2}),
        ("trig", {"d": 2, "alpha": 2.0, "beta": 0.5, "lower": 0.4}),
        ("oscillating-potential", {"d": 2, "amp": 0.8}),
        ("nonsymmetric-system", {"d": 2, "delta": 0.3}),
    ]
    violations = 0
    total = 0
    for name, params in families:
        cs = builtin_family(name, **params)
        lam0 = estimate_lambda0(cs)
        for eps in (1 / 4, 1 / 8):
            grid = BoxGrid(2, 128)
            samples = DirichletProblem(cs=cs, grid=grid, eps=eps,
                                       lam=lam0).samples()
            c0 = coercivity_constant_bound(cs, grid)
            rng = np.random.Generator(np.random.PCG64(17))
            for _ in range(100):
                u = np.zeros(grid.shape + (cs.m,))
                u[grid.interior] = rng.standard_normal(u[grid.interior].shape)
                form, h1sq = coercivity_margin(samples, u)
                total += 1
                if form < c0 * h1sq - 1e-10 * h1sq:
                    violations += 1
    _verdict(5, "coercivity at lambda_0 across all families", violations == 0,
             f"{violations} violations in {total} trials")


def test_criterion_06_duality_identity():
    cs = builtin_family("trig", d=2, alpha=2.0, beta=0.5, lower=0.4)
    g = BoxGrid(2, 64)
    s = DirichletProblem(cs=cs, grid=g, eps=1 / 4).samples()
    sa = s.adjoint()
    rng = np.random.Generator(np.random.PCG64(23))
    worst = 0.0
    for _ in range(20):
        u = np.zeros(g.shape + (1,))
        v = np.zeros(g.shape + (1,))
        u[g.interior] = rng.standard_normal(u[g.interior].shape)
        v[g.interior] = rng.standard_normal(v[g.interior].shape)
        lhs = float(np.sum(s.apply_full(u)[g.interior] * v[g.interior]))
        rhs = float(np.sum(u[g.interior] * sa.apply_full(v)[g.interior]))
        nu = math.sqrt(float(np.sum(u ** 2)))
        nv = math.sqrt(float(np.sum(v ** 2)))
        worst = max(worst, abs(lhs - rhs) / (nu * nv))
    _verdict(6, "duality pairing of the operator and its adjoint",
             worst <= 1e-12, f"worst relative defect {worst:.2e}")


def test_criterion_07_manufactured_order():
    cs = builtin_family("constant", d=2, a0=1.0)
    hs, errs = [], []
    for n in (32, 64, 128, 256):
        g = BoxGrid(2, n)
        pts = g.points()
        u_ex = np.sin(np.pi * pts[..., 0]) * np.sin(np.pi * pts[..., 1])
        F = (2 * np.pi ** 2 + 1.0) * u_ex
        u, _ = solve(DirichletProblem(cs=cs, grid=g, eps=1.0, lam=1.0,
                                      F=F[..., None]), tol=1e-12)
        hs.append(g.h)
        errs.append(np.abs(u.values[..., 0] - u_ex).max())
    slope, _ = np.polyfit(np.log(hs), np.log(errs), 1)
    ok = 1.8 <= slope <= 2.2
    _verdict(7, "manufactured-solution convergence order", ok,
             f"order {slope:.3f}")


def test_criterion_08_l2_convergence_rate(trig_sweep):
    ok = trig_sweep.complete and "err_l2" in trig_sweep.slopes
    slope = trig_sweep.slopes["err_l2"].slope if ok else math.nan
    ok = ok and 0.85 <= slope <= 1.15
    _verdict(8, "L2 rate of the oscillatory-to-homogenized error", ok,
             f"slope {slope:.3f}")


def test_criterion_09_corrected_expansion(trig_sweep):
    issues = []
    ratios = [row["w_h1_corner"] / row["eps"] for row in trig_sweep.rows]
    disp = max(ratios) / min(ratios)
    if disp > 2.0:
        issues.append(f"corner-excluded H1/eps dispersion {disp:.2f} > 2")
    for row in trig_sweep.rows:
        if row["w_h1"] > row["err_h1_uncorrected"]:
            issues.append(f"corrected H1 above uncorrected at eps = {row['eps']}")
    _verdict(9, "corrected expansion error: O(eps) and below uncorrected",
             not issues, "; ".join(issues) or f"dispersion {disp:.3f}")


def test_criterion_10_dirichlet_corrector_bounds(trig_sweep):
    r0 = [row["phi0_dev_sup"] / row["eps"] for row in trig_sweep.rows]
    rk = [row["phik_dev_sup"] / row["eps"] for row in trig_sweep.rows]
    d0 = max(r0) / min(r0)
    dk = max(rk) / min(rk)
    ok = d0 <= 2.0 and dk <= 2.0
    _verdict(10, "Dirichlet corrector sup-norm deviation scales like eps", ok,
             f"dispersions {d0:.3f} (Phi_0), {dk:.3f} (Phi_k)")


def test_criterion_11_green_decay_reciprocity_representation():
    issues = []
    details = []
    grid = BoxGrid(3, 48)
    y0 = [0.5, 0.5, 0.5]
    pts = grid.points()
    F_smooth = np.prod(np.sin(np.pi * pts), axis=-1)[..., None]

    for fam, params in (("constant", {"d": 3, "a0": 1.0}),
                        ("trig", {"d": 3, "alpha": 2.0, "beta": 0.5})):
        cs = builtin_family(fam, **params)
        for eps in (1 / 4, 1 / 8):
            sample = approx_green(cs, eps, 0.0, grid, y0, tol=SOLVER_TOL)
            fit = decay_fit(sample)
            if not -1.25 <= fit.exponent <= -0.80:
                issues.append(f"{fam} eps={eps}: exponent {fit.exponent:.3f} "
                              "outside [-1.25, -0.80]")
            details.append(f"{fam}/{eps}: exp {fit.exponent:.2f}")

            u = direct_solve(cs, eps, 0.0, grid, F_smooth, tol=SOLVER_TOL)
            r = np.sqrt(np.sum((pts - sample.y) ** 2, axis=-1))
            ball = r <= sample.rho + 1e-12
            want = float(u[ball, 0].mean())
            got = float(representation_value(sample, F_smooth)[0])
            rel = abs(got - want) / abs(want)
            if rel > 0.05:
                issues.append(f"{fam} eps={eps}: representation off by "
                              f"{100 * rel:.2f}%")

        rec = reciprocity_residual(cs, 1 / 4, 0.0, grid,
                                   y=[0.375, 0.5, 0.5], x=[0.625, 0.5, 0.5],
                                   tol=SOLVER_TOL)
        if rec > 2 * SOLVER_TOL:
            issues.append(f"{fam}: reciprocity defect {rec:.2e} above "
                          f"{2 * SOLVER_TOL:.0e}")
    _verdict(11, "kernel decay exponent, reciprocity and representation",
             not issues, "; ".join(issues) or "; ".join(details))


def test_criterion_12_maximal_function_uniformity():
    issues = []
    cfg = SweepConfig(family="trig",
                      params={"d": 2, "alpha": 2.0, "beta": 0.5},
                      eps_list=(1 / 4, 1 / 8, 1 / 16), n_fixed=256,
                      tol=SOLVER_TOL)
    res = uniform_constant_probe("MaxPrinciple", cfg)
    if res.dispersion > 2.0:
        issues.append(f"C_2 dispersion {res.dispersion:.2f} > 2")

    # scalar Laplacian with nonnegative boundary data: discrete max principle
    cs = builtin_family("constant", d=2, a0=1.0)
    g = BoxGrid(2, 256)
    from homogkit.green import boundary_data_battery
    battery = [np.abs(b) for b in boundary_data_battery(g, 1, seed=2)]
    probe = maximal_function_probe(cs, 1.0, 0.0, g, battery, tol=SOLVER_TOL)
    bound = 1.0 + 10 * g.h
    if probe.max_principle_ratio > bound:
        issues.append(f"max principle ratio {probe.max_principle_ratio:.4f} "
                      f"> {bound:.4f}")
    _verdict(12, "uniform maximal-function constant and maximum principle",
             not issues, "; ".join(issues) or
             f"dispersion {res.dispersion:.3f}, "
             f"ratio {probe.max_principle_ratio:.4f}")


def test_criterion_13_determinism(tmp_path):
    text = ("subcommand: rates\nfamily: trig\n"
            "params: {d: 2, alpha: 2.0, beta: 0.5, lower: 0.5}\n"
            "eps: [0.25, 0.125, 0.0625]\ndivisor: 16\nn_cell: 64\nseed: 1\n")
    cfg = parse_config(text)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    m1 = run(cfg, str(out1))
    m2 = run(cfg, str(out2))
    same = filecmp.cmp(out1 / "rates_report.csv", out2 / "rates_report.csv",
                       shallow=False)
    ok = m1["ok"] and m2["ok"] and same
    _verdict(13, "bit-identical CSV output for identical config and seed", ok,
             "reruns match" if same else "CSV outputs differ between reruns")
