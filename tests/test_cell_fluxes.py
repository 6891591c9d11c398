"""Bit-for-bit equivalence of the homogenized tensors and the flux potentials
with the two-pass formulation they replaced.

The oracle below is the earlier code, kept verbatim: ``homogenize`` wrote the
four corrector-flux integrands once for the cell means, and
``flux_correctors`` / ``lower_flux_correctors`` wrote them again for the
zero-mean remainders.  The module under test defines them once; every tensor
(from ``homogenize`` and as ``FluxCorrectorSet.hats``) and every flux field
must agree with ``np.array_equal``.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from homogkit.cell import (CorrectorSet, HomogenizedCoefficients,
                           _poisson_components, build_flux_correctors,
                           homogenize, solve_correctors)
from homogkit.coefficients import builtin_family
from homogkit.grid import TorusGrid
from homogkit.solvers import _mean_zero

# ---------------------------------------------------------------------------
# oracle: the two-pass formulation
# ---------------------------------------------------------------------------


def _torus_gradient(v, grid):
    parts = [
        (np.roll(v, -1, axis=ax) - np.roll(v, 1, axis=ax)) / (2.0 * grid.h)
        for ax in range(grid.d)
    ]
    return np.stack(parts, axis=-1)


def _cell_mean(v, grid):
    return v.mean(axis=tuple(range(grid.d)))


def _gradients(correctors):
    grid = correctors.grid
    return _torus_gradient(correctors.chi0, grid), [
        _torus_gradient(ck, grid) for ck in correctors.chi
    ]


def oracle_homogenize(cs, correctors):
    grid = correctors.grid
    y = grid.points()
    A = cs.A(y)
    V = cs.V(y)
    B = cs.B(y)
    c = cs.c(y)
    g0, gk = _gradients(correctors)
    grad_chi = np.stack(gk, axis=-4)
    corr = np.einsum("...ikag,...jgbk->...ijab", A, grad_chi, optimize=True)
    A_hat = _cell_mean(A + corr, grid)
    V_hat = _cell_mean(V, grid) + _cell_mean(
        np.einsum("...ijab,...bgj->...iag", A, g0, optimize=True), grid)
    B_hat = _cell_mean(B, grid) + _cell_mean(
        np.einsum("...jab,...ibgj->...iag", B, grad_chi, optimize=True), grid)
    c_hat = _cell_mean(c, grid) + _cell_mean(
        np.einsum("...iab,...bgi->...ag", B, g0, optimize=True), grid)
    return HomogenizedCoefficients(A_hat=A_hat, V_hat=V_hat, B_hat=B_hat, c_hat=c_hat)


def oracle_flux_correctors(cs, correctors, A_hat):
    grid = correctors.grid
    y = grid.points()
    A = cs.A(y)
    _, gk = _gradients(correctors)
    grad_chi = np.stack(gk, axis=-4)
    corr = np.einsum("...ikag,...jgbk->...ijab", A, grad_chi, optimize=True)
    b = A_hat - A - corr
    assert np.abs(_cell_mean(b, grid)).max() <= 1e-6
    b = _mean_zero(b, grid.d)
    pi = _poisson_components(b, grid)
    d = grid.d
    dpi = _torus_gradient(pi, grid)
    E = np.empty(grid.shape + (d, d, d) + b.shape[grid.d + 2:])
    for l in range(d):
        for i in range(d):
            for j in range(d):
                E[..., l, i, j, :, :] = dpi[..., i, j, :, :, l] - dpi[..., l, j, :, :, i]
    return b, E


def oracle_lower_flux_correctors(cs, correctors, hats):
    grid = correctors.grid
    y = grid.points()
    A = cs.A(y)
    V = cs.V(y)
    B = cs.B(y)
    c = cs.c(y)
    g0, gkl = _gradients(correctors)
    grad_chi = np.stack(gkl, axis=-4)
    U = hats.V_hat - V - np.einsum("...ijab,...bgj->...iag", A, g0, optimize=True)
    W = hats.B_hat - B - np.einsum("...jab,...ibgj->...iag", B, grad_chi, optimize=True)
    Z = hats.c_hat - c - np.einsum("...iab,...bgi->...ag", B, g0, optimize=True)
    for fld in (U, W, Z):
        assert np.abs(_cell_mean(fld, grid)).max() <= 1e-6
    U = _mean_zero(U, grid.d)
    W = _mean_zero(W, grid.d)
    Z = _mean_zero(Z, grid.d)
    theta = _poisson_components(U, grid)
    vartheta = _poisson_components(W, grid)
    zeta = _poisson_components(Z, grid)
    d = grid.d
    dtheta = _torus_gradient(theta, grid)
    F = np.empty(grid.shape + (d, d) + U.shape[grid.d + 1:])
    for k in range(d):
        for i in range(d):
            F[..., k, i, :, :] = dtheta[..., i, :, :, k] - dtheta[..., k, :, :, i]
    return U, theta, F, W, vartheta, Z, zeta


def oracle_fields(cs, correctors, hats):
    b, E = oracle_flux_correctors(cs, correctors, hats.A_hat)
    U, theta, F, W, vartheta, Z, zeta = oracle_lower_flux_correctors(cs, correctors, hats)
    return dict(b=b, E=E, U=U, theta=theta, F=F, W=W, vartheta=vartheta, Z=Z,
                zeta=zeta)


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------

HATS = ("A_hat", "V_hat", "B_hat", "c_hat")
FIELDS = ("b", "E", "U", "theta", "F", "W", "vartheta", "Z", "zeta")
CELL_N = {1: 32, 2: 16, 3: 8}


def assert_equivalent(cs, correctors):
    hats = homogenize(cs, correctors)
    want_hats = oracle_homogenize(cs, correctors)
    for name in HATS:
        assert np.array_equal(getattr(hats, name), getattr(want_hats, name)), name
    flux = build_flux_correctors(cs, correctors)
    for name in HATS:
        assert np.array_equal(getattr(flux.hats, name), getattr(want_hats, name)), name
    want = oracle_fields(cs, correctors, want_hats)
    for name in FIELDS:
        got = getattr(flux, name)
        assert got.shape == want[name].shape, name
        assert np.array_equal(got, want[name]), name


def _family_cases():
    params = {
        "constant": dict(a0=1.3, v0=0.2, b0=-0.1, c0=0.4),
        "laminate": {},
        "laminate-step": {},
        "trig": dict(alpha=2.0, beta=0.5, lower=0.3),
        "oscillating-potential": {},
    }
    for name, extra in params.items():
        for d in (1, 2, 3):
            for m in (1, 2):
                yield pytest.param(name, dict(d=d, m=m, **extra),
                                   id=f"{name}-d{d}-m{m}")
    for d in (1, 2, 3):
        yield pytest.param("nonsymmetric-system", dict(d=d),
                           id=f"nonsymmetric-system-d{d}-m2")


@pytest.mark.parametrize("family,params", _family_cases())
def test_builtin_families_bit_identical(family, params):
    cs = builtin_family(family, **params)
    grid = TorusGrid(cs.d, CELL_N[cs.d])
    assert_equivalent(cs, solve_correctors(cs, grid))


def _random_set(d, m, seed):
    """Full-tensor coefficient callables and corrector arrays of no solve:
    hat minus integrand is zero-mean by construction, so the oracle's mean
    guards hold for arbitrary data."""
    rng = np.random.default_rng(seed)
    grid = TorusGrid(d, CELL_N[d])
    s = grid.shape
    arrays = dict(A=rng.standard_normal(s + (d, d, m, m)),
                  V=rng.standard_normal(s + (d, m, m)),
                  B=rng.standard_normal(s + (d, m, m)),
                  c=rng.standard_normal(s + (m, m)))

    def sampler(arr):
        def f(y):
            assert y.shape == s + (d,)
            return arr.copy()
        return f

    cs = SimpleNamespace(d=d, m=m, **{k: sampler(v) for k, v in arrays.items()})
    correctors = CorrectorSet(
        grid=grid, chi0=rng.standard_normal(s + (m, m)),
        chi=[rng.standard_normal(s + (m, m)) for _ in range(d)], residuals={})
    return cs, correctors


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_random_full_tensors_bit_identical(d, m):
    cs, correctors = _random_set(d, m, seed=10 * d + m)
    assert_equivalent(cs, correctors)

