"""Identities of homogenization that hold for every admissible coefficient
set, checked over random smooth elliptic full-tensor sets.

``elliptic_sets`` draws d = 1..3, m = 1, 2 and a set whose A is mu I plus
trigonometric modes with a symmetric and a skew part, full in (i, j) and
(a, b), so that the cross terms a_ik (i != k) of the corrector sources run;
V, B and c are small trigonometric fields.  The built-in families all have
a diagonal A.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from homogkit.cell import homogenize, solve_correctors
from homogkit.coefficients import CoefficientSet, transpose_a
from homogkit.dirichlet import solve_dirichlet_correctors
from homogkit.grid import BoxGrid, TorusGrid

MODES = 2          # trigonometric modes of each coefficient
LOWER_AMP = 0.2    # amplitude of V, B and c against mu = 1


def _smooth_set(d: int, m: int, seed: int) -> CoefficientSet:
    """A = mu I + sum_k [cos(2 pi q_k . y + p_k) S_k + sin(2 pi q_k . y + p_k) K_k]
    as a (d m) x (d m) matrix, S_k symmetric and K_k skew, each of norm at
    most mu / 4, so the set is elliptic with constant mu / 2 (A xi . xi >=
    mu / 2 |xi|^2 and |A| <= 2 / mu); V, B and c are LOWER_AMP-sized modes
    of the same kind."""
    rng = np.random.Generator(np.random.PCG64(seed))
    mu, n = 1.0, d * m
    q = rng.integers(-1, 2, size=(MODES, d))
    q[:, 0] = np.where(q.any(axis=1), q[:, 0], 1)   # no constant mode
    p = rng.uniform(0.0, 2.0 * np.pi, MODES)
    sym, skew = [], []
    for _ in range(MODES):
        g = rng.standard_normal((n, n))
        unit = 0.125 * mu / np.linalg.norm(g)   # |g +- g^T| <= 2 |g|_F
        sym.append(unit * (g + g.T))
        skew.append(unit * (g - g.T))
    tails = {"V": (d, m, m), "B": (d, m, m), "c": (m, m)}
    lower = {key: LOWER_AMP * rng.standard_normal((MODES,) + tail)
             for key, tail in tails.items()}

    def phases(y):
        return 2.0 * np.pi * np.tensordot(y, q.T, axes=1) + p   # (..., MODES)

    def A(y):
        t = phases(y)[..., None, None]
        big = (mu * np.eye(n) + (np.cos(t) * np.array(sym)).sum(axis=-3)
               + (np.sin(t) * np.array(skew)).sum(axis=-3))
        # rows (i, a), columns (j, b) -> a_ij^{ab}
        return big.reshape(y.shape[:-1] + (d, m, d, m)).swapaxes(-3, -2)

    def field(coef):
        def fn(y):
            c = np.cos(phases(y)).reshape(y.shape[:-1] + (MODES,) + (1,) * (coef.ndim - 1))
            return (c * coef).sum(axis=len(y.shape) - 1)
        return fn

    return CoefficientSet(d=d, m=m, A=A, mu=mu / 2, V=field(lower["V"]),
                          B=field(lower["B"]), c=field(lower["c"]),
                          kappa=max(float(np.abs(v).sum(axis=0).max())
                                    for v in lower.values()))


@st.composite
def elliptic_sets(draw):
    return _smooth_set(draw(st.integers(1, 3)), draw(st.integers(1, 2)),
                       draw(st.integers(0, 2 ** 32 - 1)))


def _doubled(cs: CoefficientSet) -> CoefficientSet:
    """(2A, 2V, 2B, 2c); mu halves, because it also bounds |A| by 1 / mu."""
    A, V, B, c = cs.A, cs.V, cs.B, cs.c
    return replace(cs, A=lambda y: 2.0 * A(y), V=lambda y: 2.0 * V(y),
                   B=lambda y: 2.0 * B(y), c=lambda y: 2.0 * c(y),
                   mu=cs.mu / 2, kappa=2.0 * cs.kappa)


@given(cs=elliptic_sets())
@settings(max_examples=24, deadline=None, derandomize=True, database=None)
def test_power_of_two_scaling(cs):
    """(2A, 2V, 2B, 2c) gives the same chi_0..chi_d and Dirichlet correctors
    Phi_k bit for bit and exactly twice every hat: every step is linear and
    ``_krylov`` rescales the right-hand side by an exact power of two."""
    twice = _doubled(cs)
    torus = TorusGrid(cs.d, 8 if cs.d == 3 else 16)
    cor, cor2 = solve_correctors(cs, torus), solve_correctors(twice, torus)
    for chi, chi2 in zip([cor.chi0, *cor.chi], [cor2.chi0, *cor2.chi]):
        assert np.array_equal(chi, chi2)
    hats, hats2 = homogenize(cs, cor), homogenize(twice, cor2)
    for name in ("A_hat", "V_hat", "B_hat", "c_hat"):
        assert np.array_equal(getattr(hats2, name), 2.0 * getattr(hats, name)), name
    eps, box = (1 / 2, BoxGrid(1, 32)) if cs.d == 1 else (1.0, BoxGrid(cs.d, 16))
    phis = solve_dirichlet_correctors(cs, eps, box)
    phis2 = solve_dirichlet_correctors(twice, eps, box)
    for phi, phi2 in zip([phis.phi0, *phis.phi], [phis2.phi0, *phis2.phi]):
        assert np.array_equal(phi, phi2)


TOL = 1e-10   # the relative residual every corrector solve stops at


@given(cs=elliptic_sets())
@settings(max_examples=24, deadline=None, derandomize=True, database=None)
def test_adjoint_homogenizes_to_transpose(cs):
    """Homogenizing the formal adjoint gives the transposed tensor,
    A*_hat = transpose_a(A_hat) (Bensoussan, Lions and Papanicolaou,
    *Asymptotic Analysis for Periodic Structures*, 1978, ch. 1).

    The assembled adjoint is the transpose of the assembled operator, so
    the identity holds for the discrete correctors as well, up to the
    solves.  Each stops at a relative residual of TOL on an operator that
    the Laplacian preconditions to a condition number of about
    max |A| / mu <= 4, so each side's corrector gradients, and with them
    each hat, carry errors of order 10 TOL relative; the bound allows
    100 TOL of max |A_hat|.  With m = 2 and a full A these are the first
    solves on tori whose operator couples components across axis pairs."""
    torus = TorusGrid(cs.d, 8 if cs.d == 3 else 16)
    adj = cs.adjoint()
    hat = homogenize(cs, solve_correctors(cs, torus, TOL)).A_hat
    hat_adj = homogenize(adj, solve_correctors(adj, torus, TOL)).A_hat
    assert np.abs(hat_adj - transpose_a(hat)).max() <= 100 * TOL * np.abs(hat).max()


def _translated(cs: CoefficientSet, s: np.ndarray) -> CoefficientSet:
    """(A, V, B, c)(. + s)."""
    A, V, B, c = cs.A, cs.V, cs.B, cs.c
    return replace(cs, A=lambda y: A(y + s), V=lambda y: V(y + s),
                   B=lambda y: B(y + s), c=lambda y: c(y + s))


@given(cs=elliptic_sets())
@settings(max_examples=24, deadline=None, derandomize=True, database=None)
def test_lattice_translation_keeps_the_hats(cs):
    """Shifting every coefficient by a vector s of the cell lattice, here
    (3, 5, 7) steps h in its first d axes, permutes the samples of the cell
    problem cyclically, so the discrete hats are those of the unshifted set
    up to the solves (homogenized coefficients do not depend on where the
    cell starts; Bensoussan, Lions and Papanicolaou, 1978, ch. 1).  The
    bound is the adjoint property's: each side's hats carry errors of order
    10 TOL relative, and every hat is compared against 100 TOL of
    max |A_hat|."""
    torus = TorusGrid(cs.d, 8 if cs.d == 3 else 16)
    shifted = _translated(cs, np.array([3, 5, 7][:cs.d]) * torus.h)
    hats = homogenize(cs, solve_correctors(cs, torus, TOL))
    hats_s = homogenize(shifted, solve_correctors(shifted, torus, TOL))
    bound = 100 * TOL * np.abs(hats.A_hat).max()
    for name in ("A_hat", "V_hat", "B_hat", "c_hat"):
        assert np.abs(getattr(hats_s, name) - getattr(hats, name)).max() <= bound, name


def _scalar_self_adjoint(cs: CoefficientSet) -> CoefficientSet:
    """The block a_ij^{11} of A made symmetric in (i, j), without V, B and
    c: a self-adjoint scalar set, elliptic with the same mu (a principal
    block of an elliptic A is elliptic, and so is its symmetric part)."""
    A = cs.A

    def A1(y):
        a = A(y)[..., :1, :1]
        return 0.5 * (a + transpose_a(a))

    return CoefficientSet(d=cs.d, m=1, A=A1, mu=cs.mu)


@given(cs=elliptic_sets())
@settings(max_examples=24, deadline=None, derandomize=True, database=None)
def test_voigt_reuss_bounds(cs):
    """For self-adjoint scalar A the harmonic mean <A^-1>^-1 is at most
    A_hat and A_hat is at most the arithmetic mean <A>, as quadratic forms
    (Jikov, Kozlov and Oleinik, *Homogenization of Differential Operators
    and Integral Functionals*, 1994, section 1.6); both means are lattice
    means of the samples.

    Allowances, fixed before the first run.  The discrete A_hat is the
    homogenized matrix of the operator's own energy Q (the cell means of
    a_ij + a_ik d_k chi_j, with the centred d_k, equal those of the
    half-point diagonal fluxes and centred cross fluxes the stencil uses),
    so A_hat xi . xi = <A> xi . xi - Q(chi_xi): the upper bound holds for
    it exactly, and is allowed only the solves' 100 TOL of max |A_hat|, as
    in the properties above.  The lower bound is proved from a pointwise
    dual, which the centred cross differences do not have (for a diagonal
    A the half-point fluxes give it exactly), so it is allowed besides the
    consistency error of the centred difference on the set's modes,
    (theta h)^2 / 6 with theta = 2 pi sqrt(d) the largest mode frequency,
    times the width of the bracket, max eig(<A> - <A^-1>^-1)."""
    ca = _scalar_self_adjoint(cs)
    torus = TorusGrid(ca.d, 8 if ca.d == 3 else 16)
    hat = homogenize(ca, solve_correctors(ca, torus, TOL)).A_hat[..., 0, 0]
    a = ca.A(torus.points())[..., 0, 0].reshape(-1, ca.d, ca.d)
    arithmetic = a.mean(axis=0)
    harmonic = np.linalg.inv(np.linalg.inv(a).mean(axis=0))
    solves = 100 * TOL * np.abs(hat).max()
    width = np.linalg.eigvalsh(arithmetic - harmonic).max()
    discrete = (2.0 * np.pi * np.sqrt(ca.d) * torus.h) ** 2 / 6 * width
    assert np.linalg.eigvalsh(arithmetic - hat).min() >= -solves
    assert np.linalg.eigvalsh(hat - harmonic).min() >= -(solves + discrete)
