"""Equivalence of the Dirichlet-corrector path with its earlier formulation.

The oracles below are the corrector solves, the Psi diagnostics, the
expansion error and the sweep's triangle-term bookkeeping as they were
written before ``solve_dirichlet_correctors`` became one loop over
k = 0..d and the deviations Phi_k - P_k were formed in one place, and the
per-column source expressions of both corrector loops as they were written
before the sources were formed for all m columns at once.  The current code
must reproduce them bit for bit, signed zeros included.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from homogkit.bvp import (DirichletProblem, check_lambda, pullback,
                          sample_coefficients, solve)
from homogkit.cell import homogenize, solve_correctors
from homogkit.coefficients import CoefficientSet, builtin_family
from homogkit.dirichlet import (PROFILE_BINS, psi_diagnostics,
                                sample_periodic_field,
                                solve_dirichlet_correctors)
from homogkit.grid import (BoxGrid, GridFunction, TorusGrid, _centered_box,
                           _centered_periodic, _coef_block, divergence, gradient,
                           h1_norm, linf_norm, lp_norm)
from homogkit.rates import (CORNER_MARGIN, SweepConfig, expansion_error,
                            load_field, masked_h1_norm, restrict, run_sweep)

TOL = 1e-10
N_CELL = 16

CASES = [
    ("constant", dict(d=2, m=2, a0=1.5, v0=0.3, b0=-0.2, c0=0.1)),
    ("laminate", dict(d=1, m=1)),
    ("laminate", dict(d=3, m=1)),
    ("trig", dict(d=2, m=1, lower=0.5)),
    ("trig", dict(d=1, m=2, lower=0.3)),
    ("oscillating-potential", dict(d=2, m=1, amp=0.5)),
    ("nonsymmetric-system", dict(d=2)),
    ("nonsymmetric-system", dict(d=1)),
    ("nonsymmetric-system", dict(d=3)),
]


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def _old_phi0(cs, eps, samples, tol):
    grid = samples.grid
    m = cs.m
    V = cs.V(pullback(grid, eps))
    phi0 = np.zeros(grid.shape + (m, m))
    residuals = []
    for beta in range(m):
        rhs = np.zeros(grid.shape + (m,))
        for i in range(grid.d):
            rhs += _centered_box(V[..., i, :, beta], i, grid.h)
        w, res = samples.solve(rhs[grid.interior], tol)
        residuals.append(res)
        full = np.zeros(grid.shape + (m,))
        full[grid.interior] = w
        full[..., beta] += 1.0
        phi0[..., :, beta] = full
    return phi0, max(residuals)


def _old_phik(samples, k, tol):
    grid = samples.grid
    m = samples.m
    x = grid.points()
    phik = np.zeros(grid.shape + (m, m))
    residuals = []
    for beta in range(m):
        pk = np.zeros(grid.shape + (m,))
        pk[..., beta] = x[..., k - 1]
        w, res = samples.solve(-samples.apply_full(pk)[grid.interior], tol)
        residuals.append(res)
        pk[grid.interior] += w
        phik[..., :, beta] = pk
    return phik, max(residuals)


def _old_correctors(cs, eps, grid, tol):
    """(phi0, [phi_1..phi_d], residuals)."""
    samples = sample_coefficients(replace(cs, V=None, B=None, c=None), grid, eps, 0.0)
    phi0, r0 = _old_phi0(cs, eps, samples, tol)
    phis, res = [], {"phi0": r0}
    for k in range(1, cs.d + 1):
        pk, rk = _old_phik(samples, k, tol)
        phis.append(pk)
        res[f"phi{k}"] = rk
    return phi0, phis, res


def _old_psi(phi0, phis, correctors, eps, grid):
    """(psis, sup_norms, grad_sup_norms, profile_bins, profile_max_grad)."""
    m = phi0.shape[-1]
    cell = correctors.grid
    chi_all = [correctors.chi0] + list(correctors.chi)
    phi_all = [phi0] + list(phis)
    pts = grid.points()
    dist = grid.boundary_distance()
    psis, sup_norms, grad_sups, grad_mags = [], [], [], []
    eye = np.eye(m)
    for k, (phi, chi) in enumerate(zip(phi_all, chi_all)):
        chi_pulled = sample_periodic_field(chi, cell, grid, eps)
        base = np.broadcast_to(eye, grid.shape + (m, m)).copy()
        if k > 0:
            base = np.zeros(grid.shape + (m, m))
            for a in range(m):
                base[..., a, a] = pts[..., k - 1]
        psi = phi - base - eps * chi_pulled
        psis.append(psi)
        sup_norms.append(float(np.abs(psi).max()))
        gpsi = gradient(GridFunction(grid, psi)).values
        nd = grid.d
        gmag = np.sqrt(np.sum(gpsi ** 2, axis=tuple(range(nd, gpsi.ndim))))
        grad_sups.append(float(gmag.max()))
        grad_mags.append(gmag)
    interior = dist > 0
    dmin = max(grid.h, 1e-12)
    dmax = float(dist.max())
    edges = np.geomspace(dmin, dmax * 1.0001, PROFILE_BINS + 1)
    prof = np.zeros(PROFILE_BINS)
    gstack = np.maximum.reduce(grad_mags)
    for b in range(PROFILE_BINS):
        mask = interior & (dist >= edges[b]) & (dist < edges[b + 1])
        prof[b] = float(gstack[mask].max()) if mask.any() else math.nan
    return psis, sup_norms, grad_sups, edges, prof


def _old_expansion(u_eps, u, phi0, phis):
    """(w, h1, h1 corner-excluded, l2, deviations Phi_k - P_k for k = 1..d)."""
    grid = u_eps.grid
    m = phi0.shape[-1]
    uv = u.values
    du = gradient(u).values
    w = u_eps.values - np.einsum("...ab,...b->...a", phi0, uv)
    pts = grid.points()
    devs = []
    for k in range(grid.d):
        dev = phis[k].copy()
        for a in range(m):
            dev[..., a, a] -= pts[..., k]
        w -= np.einsum("...ab,...b->...a", dev, du[..., k])
        devs.append(dev)
    wf = GridFunction(grid, w)
    mask = grid.boundary_distance() >= CORNER_MARGIN
    return (wf, h1_norm(wf), masked_h1_norm(wf, mask, gradient(wf)), lp_norm(wf, 2.0), devs)


def _old_rows(config):
    """The rows of ``run_sweep`` with the oracle correctors, expansion error
    and triangle-term block."""
    cs = builtin_family(config.family, **config.params)
    lam = check_lambda(cs, config.lam)
    correctors = solve_correctors(cs, TorusGrid(cs.d, config.n_cell), tol=config.tol)
    hats = homogenize(cs, correctors)
    grids = [config.grid_for(e) for e in config.eps_list]
    fine = max(grids, key=lambda g: g.n)
    F_fine = load_field(config.data, fine, cs.m, config.seed)
    u_hom_fine, _ = solve(DirichletProblem(cs=hats.coefficients(cs), grid=fine,
                                           lam=lam, F=F_fine), tol=config.tol)
    rows = []
    for eps, grid in zip(config.eps_list, grids):
        F = restrict(F_fine, fine, grid)
        u_eps, info = solve(DirichletProblem(cs=cs, grid=grid, eps=eps, lam=lam, F=F),
                            tol=config.tol)
        u_hom = GridFunction(grid, restrict(u_hom_fine.values, fine, grid))
        phi0, phis, _ = _old_correctors(cs, eps, grid, config.tol)
        _, w_h1, w_h1c, w_l2, devs = _old_expansion(u_eps, u_hom, phi0, phis)
        diff = GridFunction(grid, u_eps.values - u_hom.values)
        m = cs.m
        eye_dev = phi0 - np.eye(m)
        phik_dev = 0.0
        phi_u = np.einsum("...ab,...b->...a", eye_dev, u_hom.values)
        du = gradient(u_hom).values
        tri_term2 = lp_norm(GridFunction(grid, phi_u), 2.0)
        tri3_sq = np.zeros(grid.shape + (m,))
        for k, dev in enumerate(devs):
            phik_dev = max(phik_dev, float(np.abs(dev).max()))
            tri3_sq += np.einsum("...ab,...b->...a", dev, du[..., k])
        tri_term3 = lp_norm(GridFunction(grid, tri3_sq), 2.0)
        rows.append({
            "eps": eps, "n": grid.n,
            "err_l2": lp_norm(diff, 2.0), "err_linf": linf_norm(diff),
            "err_h1_uncorrected": h1_norm(diff),
            "w_h1": w_h1, "w_h1_corner": w_h1c, "w_l2": w_l2,
            "phi0_dev_sup": float(np.abs(eye_dev).max()),
            "phik_dev_sup": phik_dev,
            "norm_phi0_u_l2": tri_term2, "norm_phik_du_l2": tri_term3,
            "residual": info["residual"],
        })
    return rows


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------

def _assert_identical(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def _same_value(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def _case_id(case):
    family, params = case
    return family + "-" + "-".join(f"{k}{v}" for k, v in params.items())


@pytest.fixture(scope="module", params=CASES, ids=_case_id)
def case(request):
    family, params = request.param
    cs = builtin_family(family, **params)
    # d = 3 keeps 16 points per period on a 16^3 box
    eps, grid = (1.0, BoxGrid(3, 16)) if cs.d == 3 else (1 / 2, BoxGrid(cs.d, 32))
    return cs, eps, grid, _old_correctors(cs, eps, grid, TOL)


def test_dirichlet_correctors_match(case):
    cs, eps, grid, (phi0, phis, res) = case
    got = solve_dirichlet_correctors(cs, eps, grid, tol=TOL)
    _assert_identical(got.phi0, phi0)
    assert len(got.phi) == len(phis) == cs.d
    for a, b in zip(got.phi, phis):
        _assert_identical(a, b)
    assert got.residuals == res


def test_psi_diagnostics_match(case):
    cs, eps, grid, (phi0, phis, _) = case
    correctors = solve_correctors(cs, TorusGrid(cs.d, N_CELL), tol=TOL)
    got = psi_diagnostics(solve_dirichlet_correctors(cs, eps, grid, tol=TOL),
                          correctors)
    psis, sups, grad_sups, edges, prof = _old_psi(phi0, phis, correctors, eps, grid)
    assert len(got.psi) == len(psis) == cs.d + 1
    for a, b in zip(got.psi, psis):
        _assert_identical(a, b)
    assert got.sup_norms == sups
    assert got.grad_sup_norms == grad_sups
    _assert_identical(got.profile_bins, edges)
    assert all(_same_value(a, b) for a, b in zip(got.profile_max_grad, prof))


def test_expansion_error_matches(case):
    cs, eps, grid, (phi0, phis, _) = case
    lam = check_lambda(cs, None)
    F = load_field("bump", grid, cs.m, seed=4)
    u_eps, _ = solve(DirichletProblem(cs=cs, grid=grid, eps=eps, lam=lam, F=F), tol=TOL)
    u, _ = solve(DirichletProblem(cs=cs, grid=grid, eps=1.0, lam=lam, F=F), tol=TOL)
    got = expansion_error(u_eps, u, solve_dirichlet_correctors(cs, eps, grid, tol=TOL))
    w, h1, h1c, l2, _ = _old_expansion(u_eps, u, phi0, phis)
    _assert_identical(got.w.values, w.values)
    assert (got.h1_norm, got.h1_norm_corner_excluded, got.l2_norm) == (h1, h1c, l2)


_SWEEP_CASES = [case for case in CASES if case[1]["d"] < 3]


@pytest.mark.parametrize("family,params", _SWEEP_CASES,
                         ids=[_case_id(case) for case in _SWEEP_CASES])
def test_sweep_rows_match(family, params):
    eps_list = (1 / 2, 1 / 4, 1 / 8) if params["d"] == 1 else (1 / 2, 1 / 4)
    config = SweepConfig(family=family, params=params, eps_list=eps_list,
                         divisor=16, n_cell=N_CELL, data="bump", seed=3, tol=TOL)
    report = run_sweep(config)
    want = _old_rows(config)
    assert report.complete
    assert len(report.rows) == len(want)
    for got_row, want_row in zip(report.rows, want):
        assert got_row.keys() == want_row.keys()
        for key in want_row:
            assert got_row[key] == want_row[key], key


# ---------------------------------------------------------------------------
# corrector sources against the per-column expressions
# ---------------------------------------------------------------------------

def _old_source_k(A, k, grid, beta):
    """-L(P_k e_beta) on the torus, one column, as it was written."""
    nd, h, ki = grid.d, grid.h, k - 1
    akk = _coef_block(A, nd, ki, ki)[..., :, beta]
    half = 0.5 * (akk + np.roll(akk, -1, axis=ki))
    rhs = (half - np.roll(half, 1, axis=ki)) / h
    for i in range(nd):
        if i == ki:
            continue
        aik = _coef_block(A, nd, i, ki)[..., :, beta]
        rhs += _centered_periodic(aik, i, h)
    return rhs


def _old_div_v(V, grid, beta):
    """div(V e_beta), one column, as both corrector loops wrote it."""
    return divergence(GridFunction(grid, np.moveaxis(V[..., beta], -2, -1))).values


def _random_full_set(d, m, seed):
    """Independent standard normal A, V, B, c at every point (every a_ij^{ab}
    nonzero, which no built-in family has for i != j); not elliptic, so it
    feeds the sources only, with no solve."""
    def field(tail, offset):
        def fn(y):
            rng = np.random.Generator(np.random.PCG64(seed + offset))
            return rng.standard_normal(y.shape[:-1] + tail)
        return fn

    return CoefficientSet(d=d, m=m, A=field((d, d, m, m), 0), V=field((d, m, m), 1),
                          B=field((d, m, m), 2), c=field((m, m), 3), mu=1.0)


SOURCE_CASES = (
    [(name, dict(params, d=d, m=m)) for d in (1, 2, 3)
     for name, params in [("constant", dict(a0=1.5, v0=0.3, b0=-0.2, c0=0.1)),
                          ("laminate", {}), ("laminate-step", {}),
                          ("trig", dict(lower=0.4)),
                          ("oscillating-potential", dict(amp=0.8)),
                          ("random", {})]
     for m in (1, 2)]
    + [("nonsymmetric-system", dict(d=d, delta=0.3)) for d in (1, 2, 3)])
SOURCE_IDS = [f"{name}-d{p['d']}-m{p.get('m', 2)}" for name, p in SOURCE_CASES]


def _source_set(name, params):
    if name == "random":
        return _random_full_set(params["d"], params["m"], seed=10 * params["d"] + params["m"])
    return builtin_family(name, **params)


@pytest.mark.parametrize("name,params", SOURCE_CASES, ids=SOURCE_IDS)
def test_cell_sources_match(monkeypatch, name, params):
    """The right-hand sides ``solve_correctors`` hands to ``solve_periodic``,
    in solve order, are the per-column expressions bit for bit."""
    import homogkit.cell as cell

    cs = _source_set(name, params)
    grid = TorusGrid(cs.d, {1: 32, 2: 16, 3: 8}[cs.d])
    seen = []

    def capture(op, rhs, g, **kw):
        seen.append(rhs.copy())
        return np.zeros(rhs.shape), 0.0
    monkeypatch.setattr(cell, "solve_periodic", capture)
    solve_correctors(cs, grid)
    y = grid.points()
    A, V = cs.A(y), cs.V(y)
    want = [_old_div_v(V, grid, beta) if k == 0 else _old_source_k(A, k, grid, beta)
            for k in range(cs.d + 1) for beta in range(cs.m)]
    assert len(seen) == len(want)
    for got, ref in zip(seen, want):
        _assert_identical(got, ref)


@pytest.mark.parametrize("name,params", SOURCE_CASES, ids=SOURCE_IDS)
def test_dirichlet_sources_match(monkeypatch, name, params):
    """The right-hand sides ``solve_dirichlet_correctors`` hands to the box
    solve, in solve order: div(V_eps e_beta) for k = 0 and -L_0(P_k e_beta)
    for k >= 1, on the interior, bit for bit.  A set without lower-order
    terms has V = 0 and no k = 0 solve."""
    from homogkit.bvp import CoefficientSamples
    from homogkit.dirichlet import affine_data

    cs = _source_set(name, params)
    eps, grid = (1 / 2, BoxGrid(1, 32)) if cs.d == 1 else (1.0, BoxGrid(cs.d, 16))
    seen = []

    def capture(self, rhs_int, tol):
        seen.append(rhs_int.copy())
        return np.zeros(rhs_int.shape), 0.0
    monkeypatch.setattr(CoefficientSamples, "solve", capture)
    solve_dirichlet_correctors(cs, eps, grid)
    samples = sample_coefficients(cs.principal_part, grid, eps, 0.0)
    V = cs.V(pullback(grid, eps))
    want = [(_old_div_v(V, grid, beta) if k == 0 else
             -samples.apply_full(affine_data(grid, k, cs.m)[..., :, beta]))[grid.interior]
            for k in range(0 if cs.lower_order else 1, cs.d + 1) for beta in range(cs.m)]
    assert len(seen) == len(want)
    for got, ref in zip(seen, want):
        _assert_identical(got, ref)
