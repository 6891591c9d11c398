"""The assembled operator against the stencil evaluated from the coefficient
arrays (``principal_part_apply`` and the centered lower-order terms), the
torus operator's contract with the periodic solver, and that solver against
the mean-zero-projected matvec it replaced."""

from dataclasses import replace

import numpy as np
import pytest

from homogkit.bvp import CoefficientSamples, default_lambda, sample_coefficients
from homogkit.cell import _poisson_components
from homogkit.coefficients import builtin_family
from homogkit.grid import (BoxGrid, TorusGrid, assemble, coefficient_blocks, precond_scale,
                           principal_part_apply)
from homogkit.solvers import (_apply_inverse, _inverse_symbol, _krylov, _mean_zero,
                              kernel, solve_periodic)
from oracles import (box_csr, box_precond_float64, sample_arrays, torus_csr, torus_csr_array,
                     torus_precond_float64)

REL = 1e-13

FAMILIES = [
    ("constant", dict(a0=1.5, v0=0.3, b0=-0.2, c0=0.1)),
    ("laminate", {}),
    ("laminate-step", {}),
    ("trig", dict(alpha=2.0, beta=0.5, lower=0.4)),
    ("oscillating-potential", dict(amp=0.8)),
]


def family_cases():
    for d in (1, 2, 3):
        for name, params in FAMILIES + [("random", {})]:
            for m in (1, 2):
                yield name, dict(params, d=d, m=m)
        yield "nonsymmetric-system", dict(d=d, delta=0.3)


CASES = list(family_cases())
IDS = [f"{name}-d{p['d']}-m{p.get('m', 2)}" for name, p in CASES]
SIZES = {1: 32, 2: 16, 3: 8}


def box_samples(name, params, lam=0.7, n=None) -> CoefficientSamples:
    """A built-in family at eps = 1/4, or independent random coefficient
    arrays (every a_ij^{ab} nonzero, which no built-in family has for i != j),
    on the box of ``n`` (default ``SIZES[d]``) intervals per axis."""
    d = params["d"]
    g = BoxGrid(d, n or SIZES[d])
    if name != "random":
        return sample_coefficients(builtin_family(name, **params), g, 1 / 4, lam)
    m = params["m"]
    rng = np.random.Generator(np.random.PCG64(5))
    return CoefficientSamples(
        grid=g, A=coefficient_blocks(rng.standard_normal(g.shape + (d, d, m, m))),
        V=rng.standard_normal(g.shape + (d, m, m)),
        B=rng.standard_normal(g.shape + (d, m, m)),
        c=rng.standard_normal(g.shape + (m, m)), lam=lam, m=m,
        self_adjoint=False)   # independent random arrays: B != V^T


def roll_apply_full(s: CoefficientSamples, u: np.ndarray) -> np.ndarray:
    """The operator from the coefficient arrays by rolls: valid on interior rows."""
    h = s.grid.h
    A, V, B, c = sample_arrays(s)
    out = principal_part_apply(A, u, s.grid)
    for i in range(s.grid.d):
        vu = np.einsum("...ab,...b->...a", V[..., i, :, :], u)
        out -= (np.roll(vu, -1, axis=i) - np.roll(vu, 1, axis=i)) / (2.0 * h)
        dcu = (np.roll(u, -1, axis=i) - np.roll(u, 1, axis=i)) / (2.0 * h)
        out += np.einsum("...ab,...b->...a", B[..., i, :, :], dcu)
    return out + np.einsum("...ab,...b->...a", c, u) + s.lam * u


def rel_err(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def torus_coefficients(name, params, g, rng) -> np.ndarray:
    """A of a built-in family on the cell lattice, or an independent random
    array (not elliptic) for the ``random`` case."""
    d = params["d"]
    if name == "random":
        return rng.standard_normal(g.shape + (d, d, params["m"], params["m"]))
    return builtin_family(name, **params).A(g.points())


@pytest.mark.parametrize("name,params", CASES, ids=IDS)
def test_torus_matrix_matches_stencil(name, params):
    d = params["d"]
    g = TorusGrid(d, SIZES[d])
    rng = np.random.Generator(np.random.PCG64(7))
    A = torus_coefficients(name, params, g, rng)
    K = assemble(coefficient_blocks(A), g)
    u = rng.standard_normal(g.shape + (A.shape[-1],))
    got = (K @ u.ravel()).reshape(u.shape)
    assert rel_err(got, principal_part_apply(A, u, g)) <= REL


@pytest.mark.parametrize("name,params", CASES, ids=IDS)
def test_torus_operator_contract(name, params):
    """What ``solve_periodic`` relies on instead of projecting every apply:
    K annihilates constants and its range has mean zero per component."""
    d = params["d"]
    g = TorusGrid(d, SIZES[d])
    rng = np.random.Generator(np.random.PCG64(11))
    A = torus_coefficients(name, params, g, rng)
    m = A.shape[-1]
    K = assemble(coefficient_blocks(A), g)
    constants = np.tile(np.eye(m), (g.npoints, 1))   # column b: 1 in component b
    K_constants = np.stack([K @ c for c in constants.T], axis=1)
    assert np.abs(K_constants).max() <= 1e-9 * np.abs(torus_csr(K).data).max()
    for _ in range(3):
        Kx = (K @ rng.standard_normal(K.shape[1])).reshape(g.shape + (m,))
        mean = Kx.mean(axis=tuple(range(d)))
        assert np.abs(mean).max() <= 1e-12 * np.linalg.norm(Kx)


def projected_solve(apply_op, rhs, grid, *, tol, precond_scale, self_adjoint):
    """The periodic solve with a mean-zero projection before and after every
    operator apply, as ``solve_periodic`` once ran it."""
    shape, nd = rhs.shape, grid.d
    kern = kernel(grid, rhs.size // grid.npoints)
    inv = _inverse_symbol(grid, kern, precond_scale)
    inv = inv.reshape(inv.shape + (1,) * (len(shape) - nd))

    def matvec(x):
        return _mean_zero(apply_op(_mean_zero(x.reshape(shape), nd)), nd).ravel()

    def precond(r):
        return _apply_inverse(r.reshape(shape), inv, grid, kern).ravel()

    maxiter = max(200, int(20 * grid.n ** (grid.d / 2)))
    x, res = _krylov(matvec, precond, _mean_zero(rhs, nd), self_adjoint=self_adjoint,
                     tol=tol, maxiter=maxiter, what="projected periodic solve")
    return _mean_zero(x, nd), res


def elliptic_cell_problem(name, params, g, rng):
    """(A, self_adjoint) of a cell operator: a built-in family's principal
    part, or a random full tensor (every a_ij^{ab} nonzero, nonsymmetric)
    near the identity."""
    d = params["d"]
    if name == "random":
        m = params["m"]
        eye = np.einsum("ij,ab->ijab", np.eye(d), np.eye(m))
        A = eye + 0.2 * rng.standard_normal(g.shape + (d, d, m, m))
        return A, False
    cs = builtin_family(name, **params)
    return cs.A(g.points()), replace(cs, V=None, B=None, c=None).self_adjoint


@pytest.mark.parametrize("name,params", CASES, ids=IDS)
def test_periodic_solve_matches_projected_matvec(name, params):
    d = params["d"]
    g = TorusGrid(d, SIZES[d])
    rng = np.random.Generator(np.random.PCG64(12))
    A, self_adjoint = elliptic_cell_problem(name, params, g, rng)
    K = assemble(coefficient_blocks(A), g)
    op = lambda u: (K @ u.ravel()).reshape(u.shape)   # noqa: E731
    kw = dict(tol=1e-10, precond_scale=precond_scale(coefficient_blocks(A), g),
              self_adjoint=self_adjoint)
    rhs = rng.standard_normal(g.shape + (A.shape[-1],))
    got, res = solve_periodic(op, rhs, g, **kw)
    want, want_res = projected_solve(op, rhs, g, **kw)
    assert res <= 10 * kw["tol"] and want_res <= 10 * kw["tol"]
    assert rel_err(got, want) <= 1e-12


# Solves with the solvers' own preconditioners against the same solves with
# the float64 oracle closures of tests/oracles.py.  Both end with a verified
# relative residual of at most 10 tol, so
#     ||x - x64|| <= ||A^-1|| (||r|| + ||r64||) <= 20 tol kappa(A) ||x64||
# in the 2-norm.  kappa(A) is estimated as the ratio of the extreme Laplacian
# symbols (nonzero modes on the torus; the lambda shift only lowers it) times
# the coefficient contrast max ||A(x)||_2 / min lambda_min(sym A(x)), with
# A(x) the (d m) x (d m) matrix of a_ij^{ab}.  The bound is 20 tol kappa_est.
EQUIV_TOL = 1e-10
# a reduced-precision preconditioner may take one more apply, never more
EXTRA_APPLIES = 1


def kappa_est(A: np.ndarray, theta: np.ndarray, h: float) -> float:
    d, m = A.shape[-3], A.shape[-1]
    lam1 = (2.0 - 2.0 * np.cos(theta)) / h ** 2
    sym_ratio = lam1.max() / lam1[lam1 > 0].min()   # d axes cancel: d max / d min
    M = np.swapaxes(A, -3, -2).reshape(-1, d * m, d * m)
    top = np.linalg.norm(M, 2, axis=(-2, -1)).max()
    low = np.linalg.eigvalsh(0.5 * (M + np.swapaxes(M, -1, -2)))[:, 0].min()
    assert low > 0.0
    return float(sym_ratio * top / low)


def counted_krylov(monkeypatch, oracle=None):
    """Route every solve through ``_krylov`` with its preconditioner (or
    ``oracle(rhs.shape)`` in its place) counted; returns the apply list."""
    import homogkit.solvers as solvers

    applies = []

    def run(matvec, precond, rhs, **kw):
        p = precond if oracle is None else oracle(rhs.shape)

        def counted(r):
            applies.append(1)
            return p(r)
        return _krylov(matvec, counted, rhs, **kw)
    monkeypatch.setattr(solvers, "_krylov", run)
    return applies


def assert_equivalent(got, want, kappa, applies, applies64):
    (x, res), (x64, res64) = got, want
    assert res <= 10 * EQUIV_TOL and res64 <= 10 * EQUIV_TOL
    err = np.linalg.norm(x - x64) / np.linalg.norm(x64)
    assert err <= 20 * EQUIV_TOL * kappa
    assert len(applies) <= len(applies64) + EXTRA_APPLIES


# The sizes at the boundaries of ``solvers.kernel``, beside the cases of
# ``SIZES``: the sweep's 64^2 cell torus and one point less and more, the
# tori of 96^2 and 97^2 (the Hartley cap of an earlier rule), and boxes
# with n - 1 = 128 and 255 (the split DST-I, without and with its second
# level); 2D scalar trig, as in the sweep.
TORUS_EDGES = [("trig", dict(FAMILIES)["trig"] | dict(d=2, m=1, n=n))
               for n in (63, 64, 65, 96, 97)]
BOX_EDGES = [("trig", dict(FAMILIES)["trig"] | dict(d=2, m=1, n=n)) for n in (129, 256)]


def edge_ids(cases):
    return [f"{name}-d{p['d']}-m{p['m']}-n{p['n']}" for name, p in cases]


@pytest.mark.parametrize("name,params", CASES + TORUS_EDGES, ids=IDS + edge_ids(TORUS_EDGES))
def test_periodic_solve_matches_float64_preconditioner(monkeypatch, name, params):
    d = params["d"]
    g = TorusGrid(d, params.get("n", SIZES[d]))
    # the draw of test_periodic_solve_matches_projected_matvec, whose random
    # tensors are pointwise elliptic (kappa_est needs lambda_min(sym A) > 0)
    A, self_adjoint = elliptic_cell_problem(name, {k: v for k, v in params.items() if k != "n"},
                                            g, np.random.Generator(np.random.PCG64(12)))
    rng = np.random.Generator(np.random.PCG64(14))
    K = assemble(coefficient_blocks(A), g)
    op = lambda u: (K @ u.ravel()).reshape(u.shape)   # noqa: E731
    scale = precond_scale(coefficient_blocks(A), g)
    kw = dict(tol=EQUIV_TOL, precond_scale=scale, self_adjoint=self_adjoint)
    rhs = rng.standard_normal(g.shape + (A.shape[-1],))
    applies = counted_krylov(monkeypatch)
    got = solve_periodic(op, rhs, g, **kw)
    applies64 = counted_krylov(
        monkeypatch, lambda shape: torus_precond_float64(shape, g, scale))
    want = solve_periodic(op, rhs, g, **kw)
    kappa = kappa_est(A, 2.0 * np.pi * np.arange(g.n) / g.n, g.h)
    assert_equivalent(got, want, kappa, applies, applies64)


@pytest.mark.parametrize("name,params",
                         [c for c in CASES if c[0] != "random"] + BOX_EDGES,
                         ids=[i for (name, _), i in zip(CASES, IDS) if name != "random"]
                         + edge_ids(BOX_EDGES))
def test_box_solve_matches_float64_preconditioner(monkeypatch, name, params):
    """The built-in families at their default lambda (the random box arrays
    are not elliptic)."""
    params = dict(params)
    n = params.pop("n", None)
    s = box_samples(name, params, lam=default_lambda(builtin_family(name, **params)), n=n)
    g = s.grid
    rng = np.random.Generator(np.random.PCG64(15))
    rhs = rng.standard_normal((g.n - 1,) * g.d + (s.m,))
    applies = counted_krylov(monkeypatch)
    got = s.solve(rhs, EQUIV_TOL)
    scale = precond_scale(s.A, g)
    applies64 = counted_krylov(
        monkeypatch, lambda shape: box_precond_float64(shape, g, scale, s.lam))
    want = s.solve(rhs, EQUIV_TOL)
    kappa = kappa_est(sample_arrays(s)[0], np.pi * np.arange(1, g.n) / g.n, g.h)
    assert_equivalent(got, want, kappa, applies, applies64)


def test_box_solve_on_the_fft_path_matches_float64_preconditioner(monkeypatch):
    """The cases above apply the DST-I as a sine-matrix product or its split;
    on a 1D box of n - 1 = 319 points the solve's preconditioner takes the
    FFT path, a real FFT of the odd extension.  It agrees with the
    float64-preconditioned solve to the 4e-13 relative the README states,
    in as many applies."""
    cs = builtin_family("trig", **dict(FAMILIES)["trig"], d=1)
    g = BoxGrid(1, 320)
    assert kernel(g, 1) == "dst-rfft"
    s = sample_coefficients(cs, g, 1 / 4, default_lambda(cs))
    rhs = np.random.Generator(np.random.PCG64(16)).standard_normal((g.n - 1,) + (1,))
    applies = counted_krylov(monkeypatch)
    x, res = s.solve(rhs, EQUIV_TOL)
    applies64 = counted_krylov(
        monkeypatch, lambda shape: box_precond_float64(shape, g, precond_scale(s.A, g), s.lam))
    x64, res64 = s.solve(rhs, EQUIV_TOL)
    assert res <= 10 * EQUIV_TOL and res64 <= 10 * EQUIV_TOL
    assert np.linalg.norm(x - x64) / np.linalg.norm(x64) <= 4e-13
    assert len(applies) == len(applies64)


def same_values(got, want) -> bool:
    """Equal entry for entry, the sign of a zero included; a NaN matches a
    NaN, whose sign and payload IEEE 754 leaves open."""
    nan = np.isnan(got)
    return (np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.signbit(got[~nan]), np.signbit(want[~nan])))


# n = 4, 5, 17, 64, 96 for d = 1, 2 and up to 17 for d = 3, with m = 1..3;
# and the scalar tori of 63^2, 65^2 and 16^3
PRODUCT_CASES = [(d, n, m) for d in (1, 2, 3) for n in (4, 5, 17, 64, 96)
                 for m in (1, 2, 3) if d < 3 or n < 64] + [(2, 63, 1), (2, 65, 1), (3, 16, 1)]


@pytest.mark.parametrize("d,n,m", PRODUCT_CASES)
@pytest.mark.parametrize("full", [False, True], ids=["trig", "full"])
def test_torus_product_matches_csr(d, n, m, full):
    """The product of the torus stencil is that of the CSR array built
    for every torus before (``torus_csr_array``), bit for bit, and that of
    the CSR array of its own entries (``torus_csr``): on a vector with
    signed zeros, on one of zeros alone (every product a signed zero, so
    only the order of the additions sets the signs), and on one with
    infinities and a NaN, which must reach the same entries."""
    g = TorusGrid(d, n)
    rng = np.random.Generator(np.random.PCG64(17))
    if full:
        A = rng.standard_normal(g.shape + (d, d, m, m))
    else:
        A = builtin_family("trig", d=d, m=m).A(g.points())
    K, W = assemble(coefficient_blocks(A), g), torus_csr_array(A, g)
    u = rng.standard_normal(K.shape[1])
    u[::7], u[1::7] = 0.0, -0.0
    zeros = np.copysign(0.0, rng.standard_normal(K.shape[1]))
    wild = u.copy()
    wild[rng.choice(wild.size, 3, replace=False)] = [np.inf, -np.inf, np.nan]
    for x in (u, zeros, wild):
        with np.errstate(invalid="ignore"):
            got = K @ x
            assert same_values(got, W @ x)
            assert same_values(got, torus_csr(K) @ x)


@pytest.mark.parametrize("name,params", CASES, ids=IDS)
def test_box_blocks_match_stencil(name, params):
    fwd = box_samples(name, params)
    g = fwd.grid
    rng = np.random.Generator(np.random.PCG64(8))
    for s in (fwd, fwd.adjoint()):
        u = rng.standard_normal(g.shape + (s.m,))
        want = roll_apply_full(s, u)[g.interior]
        assert rel_err(s.apply_interior(u[g.interior]) + s.lift(u), want) <= REL
        # zero boundary values: K_ii alone; zero interior values: the lifting
        inner = np.zeros_like(u)
        inner[g.interior] = u[g.interior]
        assert rel_err(s.apply_interior(u[g.interior]),
                       roll_apply_full(s, inner)[g.interior]) <= REL
        edge = u - inner
        assert rel_err(s.lift(edge), roll_apply_full(s, edge)[g.interior]) <= REL


@pytest.mark.parametrize("name", ["trig", "nonsymmetric-system", "random"])
@pytest.mark.parametrize("d", [2, 3])
def test_adjoint_assembly_is_transpose(name, d):
    params = dict(d=d, delta=0.3) if name == "nonsymmetric-system" else \
        dict(d=d, m=2, **dict(FAMILIES).get(name, {}))
    s = box_samples(name, params)
    K, Ka = (box_csr(t.stencil)[0] for t in (s, s.adjoint()))
    diff = abs(Ka.tocsr() - K.T.tocsr()).max()
    assert diff <= REL * abs(K.tocsr()).max()


def a12_only(A: np.ndarray) -> np.ndarray:
    """A copy of ``A`` with every off-diagonal block but a_12 (axes 0, 1) zeroed."""
    A = A.copy()
    d = A.shape[-3]
    for i in range(d):
        for j in range(d):
            if i != j and (i, j) != (0, 1):
                A[..., i, j, :, :] = 0.0
    return A


def test_box_stencil_stores_no_indices():
    """The box stencil (m = 1) stores one block of entries per stored
    offset on the box lattice, and no index array: the centre and +-e_i
    always, +-e_i +-e_j only for the axis pairs with a_ij or a_ji nonzero
    (none for trig, all three for a full tensor, one for a_12).  The
    self-adjoint trig operator stores the centre and +e_i alone, and reads
    -e_i from them (``grid.Stencil``)."""
    trig = sample_coefficients(builtin_family("trig", d=3), BoxGrid(3, 8), 1 / 2, 1.0)
    full = box_samples("random", dict(d=3, m=1))
    partial = replace(full, A=coefficient_blocks(a12_only(sample_arrays(full)[0])))
    for s, noff in ((trig, 4), (full, 19), (partial, 11)):
        g, K = s.grid, s.stencil
        assert K.blocks.shape == (1, noff, 1) + g.shape
        assert not any(isinstance(v, np.ndarray) and v.dtype.kind in "iu"
                       for v in vars(K).values())
        # only rows next to a face couple to the boundary
        rows = np.unique(box_csr(K)[1].nonzero()[0])
        assert rows.size == (g.n - 1) ** 3 - (g.n - 3) ** 3


def test_torus_rows_store_coupled_offsets_only():
    """Every torus row holds m * (1 + 2d + 4 * pairs) entries, where pairs
    counts the axis pairs i < j with a_ij or a_ji nonzero."""
    g = TorusGrid(3, SIZES[3])
    rng = np.random.Generator(np.random.PCG64(13))
    trig = builtin_family("trig", d=3).A(g.points())
    full = rng.standard_normal(g.shape + (3, 3, 2, 2))
    for A, pairs in ((trig, 0), (full, 3), (a12_only(full), 1)):
        K = torus_csr(assemble(coefficient_blocks(A), g))
        assert np.all(np.diff(K.indptr) == A.shape[-1] * (1 + 2 * 3 + 4 * pairs))


def test_poisson_fft_matches_krylov():
    g = TorusGrid(2, 32)
    rng = np.random.Generator(np.random.PCG64(9))
    src = rng.standard_normal(g.shape + (2, 3))
    src -= src.mean(axis=(0, 1))
    eye = np.zeros(g.shape + (2, 2))
    eye[..., 0, 0] = eye[..., 1, 1] = 1.0
    got = _poisson_components(src, g)
    assert np.abs(got.mean(axis=(0, 1))).max() < 1e-14
    flat = src.reshape(g.shape + (-1,))
    for comp in range(flat.shape[-1]):
        want, _ = solve_periodic(lambda w: principal_part_apply(eye, w, g),
                                 -flat[..., comp], g, tol=1e-12)
        assert rel_err(got.reshape(flat.shape)[..., comp], want) <= 1e-9
