from dataclasses import replace

import numpy as np
import pytest

from homogkit import dirichlet
from homogkit.bvp import sample_coefficients
from homogkit.cell import solve_correctors
from homogkit.coefficients import builtin_family
from homogkit.dirichlet import (CommensurabilityError, psi_diagnostics,
                                sample_periodic_field, solve_dirichlet_correctors)
from homogkit.grid import BoxGrid, TorusGrid, _centered_box, precond_scale
from homogkit.solvers import solve_box_dirichlet
from oracles import phi_inverse


class TestConstantExactness:
    def test_phi_equals_monomials(self):
        # constant A makes the corrector problems trivial: Phi_0 = I and
        # Phi_k = P_k, to solver tolerance
        cs = builtin_family("constant", d=2, a0=1.5)
        g = BoxGrid(2, 32)
        phis = solve_dirichlet_correctors(cs, 1 / 2, g, tol=1e-12)
        assert np.abs(phis.phi0[..., 0, 0] - 1.0).max() < 1e-10
        pts = g.points()
        for k, phik in enumerate(phis.phi, start=1):
            assert np.abs(phik[..., 0, 0] - pts[..., k - 1]).max() < 1e-10


def _per_k_correctors(cs, eps, grid, tol):
    """Phi_0 and Phi_k as separate solves, each sampling the principal part
    afresh: the corrector path before the operator was shared."""
    m, x, h = cs.m, grid.points(), grid.h

    def box_solve(samples, rhs_int):
        w, _ = solve_box_dirichlet(samples.apply_interior, rhs_int, grid,
                                   lam=0.0, tol=tol,
                                   precond_scale=precond_scale(samples.A, grid),
                                   self_adjoint=samples.is_symmetric)
        rn = np.linalg.norm(samples.apply_interior(w) - rhs_int)
        bn = np.linalg.norm(rhs_int)
        return w, rn / bn if bn > 0 else 0.0

    principal = replace(cs, V=None, B=None, c=None)
    samples = sample_coefficients(principal, grid, eps, 0.0)
    V = cs.V(np.mod(x / eps, 1.0))
    phi0 = np.zeros(grid.shape + (m, m))
    res = {"phi0": []}
    for beta in range(m):
        rhs = np.zeros(grid.shape + (m,))
        for i in range(grid.d):
            rhs += _centered_box(V[..., i, :, beta], i, h)
        w, r = box_solve(samples, rhs[grid.interior])
        res["phi0"].append(r)
        full = np.zeros(grid.shape + (m,))
        full[grid.interior] = w
        full[..., beta] += 1.0
        phi0[..., :, beta] = full
    phis = []
    for k in range(1, cs.d + 1):
        samples = sample_coefficients(principal, grid, eps, 0.0)
        phik = np.zeros(grid.shape + (m, m))
        res[f"phi{k}"] = []
        for beta in range(m):
            pk = np.zeros(grid.shape + (m,))
            pk[..., beta] = x[..., k - 1]
            w, r = box_solve(samples, -samples.apply_full(pk)[grid.interior])
            res[f"phi{k}"].append(r)
            full = pk.copy()
            full[grid.interior] += w
            phik[..., :, beta] = full
        phis.append(phik)
    return phi0, phis, {key: max(v) for key, v in res.items()}


class TestSharedOperator:
    @pytest.mark.parametrize("family,params", [
        ("trig", {"d": 2, "alpha": 2.0, "beta": 0.5, "lower": 0.3}),
        ("nonsymmetric-system", {"d": 2}),
    ])
    def test_one_sampling_matches_per_k_path(self, family, params, monkeypatch):
        cs = builtin_family(family, **params)
        g, eps, tol = BoxGrid(2, 32), 1 / 2, 1e-10
        phi0, phis, res = _per_k_correctors(cs, eps, g, tol)
        calls = []
        monkeypatch.setattr(dirichlet, "sample_coefficients",
                            lambda *a, **k: calls.append(1) or sample_coefficients(*a, **k))
        got = solve_dirichlet_correctors(cs, eps, g, tol)
        assert len(calls) == 1
        assert np.array_equal(got.phi0, phi0)
        assert len(got.phi) == len(phis)
        for a, b in zip(got.phi, phis):
            assert np.array_equal(a, b)
        assert got.residuals == res
        assert max(res.values()) <= 10 * tol


class TestPrincipalPart:
    def test_self_adjoint_check_runs_once_per_set(self):
        # the cell solve and three eps of Dirichlet correctors share one
        # principal-part set, so its lattice check evaluates A once; the
        # lattice is the only flat (points, d) argument A receives here
        base = builtin_family("trig", d=2, alpha=2.0, beta=0.5, lower=0.3)
        lattice_calls = []

        def A(y):
            if y.ndim == 2:
                lattice_calls.append(y.shape)
            return base.A(y)

        cs = replace(base, A=A)
        solve_correctors(cs, TorusGrid(2, 32), tol=1e-10)
        for eps in (1.0, 1 / 2, 1 / 4):
            solve_dirichlet_correctors(cs, eps, BoxGrid(2, 64), tol=1e-10)
        assert lattice_calls == [(16 ** 2, 2)]
        assert cs.principal_part is cs.principal_part


class TestGuards:
    def test_resolution_guard(self):
        cs = builtin_family("trig", d=2, alpha=2.0, beta=0.5)
        with pytest.raises(ValueError, match="resolution"):
            solve_dirichlet_correctors(cs, 1 / 8, BoxGrid(2, 64))

    def test_commensurability(self):
        cell = TorusGrid(2, 50)   # 50 * 4/64 = 3.125: off the box lattice
        box = BoxGrid(2, 64)
        arr = np.zeros(cell.shape)
        with pytest.raises(CommensurabilityError):
            sample_periodic_field(arr, cell, box, 1 / 4)

    def test_phi_inverse_guard(self):
        bad = np.eye(1).reshape(1, 1) * 1.6
        with pytest.raises(ValueError, match="1/2"):
            phi_inverse(bad[None])

    def test_phi_inverse_near_identity(self):
        phi = np.broadcast_to(np.eye(2), (5, 2, 2)).copy()
        phi[:, 0, 1] = 0.1
        inv = phi_inverse(phi)
        prod = np.einsum("xab,xbc->xac", phi, inv)
        assert np.allclose(prod, np.eye(2), atol=1e-12)


class TestSamplePeriodic:
    def test_exact_pullback(self):
        # with n_box * eps = multiple of 1 the lattice x/eps mod 1 lands on
        # the cell lattice and sampling is an index gather, exact
        cell = TorusGrid(2, 64)
        box = BoxGrid(2, 128)
        eps = 1 / 4
        pts_c = cell.points()
        arr = np.sin(2 * np.pi * pts_c[..., 0]) * np.cos(2 * np.pi * pts_c[..., 1])
        got = sample_periodic_field(arr, cell, box, eps)
        x = box.points()
        want = np.sin(2 * np.pi * x[..., 0] / eps) * np.cos(2 * np.pi * x[..., 1] / eps)
        assert np.abs(got - want).max() < 1e-12


@pytest.fixture(scope="module")
def diag_pair():
    cs = builtin_family("trig", d=2, alpha=2.0, beta=0.5)
    out = {}
    for eps, n in ((1 / 4, 64), (1 / 8, 128)):
        cor = solve_correctors(cs, TorusGrid(2, 64), tol=1e-11)
        phis = solve_dirichlet_correctors(cs, eps, BoxGrid(2, n), tol=1e-11)
        out[eps] = psi_diagnostics(phis, cor)
    return out


class TestPsiBoundaryLayer:
    def test_sup_norm_order_eps(self, diag_pair):
        # sup |Psi| = O(eps): the ratio between eps = 1/4 and 1/8 stays
        # within a factor-of-two window around the linear prediction
        s_coarse = max(diag_pair[1 / 4].sup_norms)
        s_fine = max(diag_pair[1 / 8].sup_norms)
        assert s_fine < s_coarse
        assert 1.2 < s_coarse / s_fine < 4.0

    def test_grad_profile_decays(self, diag_pair):
        prof = diag_pair[1 / 8].profile_max_grad
        vals = prof[np.isfinite(prof)]
        # near-boundary bins dominate the deep-interior bins
        assert vals[0] > 2.0 * vals[-1]

    def test_grad_envelope(self, diag_pair):
        # |grad Psi| is bounded by a moderate constant times min(1, eps/d_x)
        d = diag_pair[1 / 8]
        edges = d.profile_bins
        mids = np.sqrt(edges[:-1] * edges[1:])
        env = np.minimum(1.0, d.eps / mids)
        ok = np.isfinite(d.profile_max_grad)
        assert np.all(d.profile_max_grad[ok] <= 10.0 * env[ok])
