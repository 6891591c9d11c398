import numpy as np
import pytest

from homogkit.bvp import ProblemError, resolution_guard, sample_coefficients
from homogkit.coefficients import (CoefficientError, FAMILY_NAMES,
                                   builtin_family)
from homogkit.grid import BoxGrid
from oracles import check_ellipticity, check_periodicity, computed_kappa, validate


class TestFamilies:
    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_validate_all(self, name):
        cs = builtin_family(name) if name != "trig" else \
            builtin_family(name, lower=0.5)
        validate(cs)

    def test_constant_mu(self):
        cs = builtin_family("constant", d=2, a0=2.5)
        assert cs.mu == 2.5
        assert cs.kappa == 0.0

    def test_laminate_bounds(self):
        cs = builtin_family("laminate", d=2)
        # a(y) = 1/(2 + cos), range [1/3, 1]
        assert cs.mu == pytest.approx(1 / 3)
        y = np.array([[0.0, 0.3], [0.5, 0.1]])
        a = cs.A(y)[..., 0, 0, 0, 0]
        assert a[0] == pytest.approx(1 / 3)
        assert a[1] == pytest.approx(1.0)

    def test_trig_mu_is_lower_bound(self):
        cs = builtin_family("trig", d=2, alpha=2.0, beta=0.5)
        assert cs.mu == pytest.approx(2.0 - 0.5 * 2)

    def test_trig_degenerate_guard(self):
        with pytest.raises(CoefficientError):
            builtin_family("trig", d=2, alpha=1.0, beta=0.5)

    @pytest.mark.parametrize("family,key", [("constant", "a0"), ("trig", "alpha"),
                                            ("laminate-step", "width")])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_parameter_named(self, family, key, value):
        with pytest.raises(CoefficientError, match=f"^{key} must be a finite number"):
            builtin_family(family, d=2, **{key: value})

    def test_unknown_family(self):
        with pytest.raises(CoefficientError):
            builtin_family("zebra")

    def test_nonsymmetric_flagged(self):
        cs = builtin_family("nonsymmetric-system")
        assert cs.m == 2
        assert cs.self_adjoint is False
        # without its skew part the system is self-adjoint
        assert builtin_family("nonsymmetric-system", delta=0.0).self_adjoint is True

    def test_oscillating_potential_kappa_positive(self):
        cs = builtin_family("oscillating-potential", d=2, amp=1.0)
        assert cs.kappa > 0
        # V and B coincide by construction
        y = np.random.default_rng(0).random((5, 2))
        assert np.allclose(cs.V(y), cs.B(y))


class TestEllipticity:
    def test_constant_margin_zero(self):
        cs = builtin_family("constant", d=2, a0=1.0)
        # a xi.xi - mu |xi|^2 = 0 identically for A = mu I
        assert abs(check_ellipticity(cs)) < 1e-12

    def test_laminate_margin_tiny(self):
        cs = builtin_family("laminate", d=2)
        margin = check_ellipticity(cs)
        assert margin >= -1e-12
        assert margin < 1e-3   # the minimizing y is on the probe lattice

    def test_periodicity(self):
        for name in FAMILY_NAMES:
            cs = builtin_family(name)
            assert check_periodicity(cs)


class TestAdjoint:
    def test_involution(self):
        cs = builtin_family("trig", d=2, alpha=2.0, beta=0.5, lower=0.4)
        cs2 = cs.adjoint().adjoint()
        y = np.random.default_rng(1).random((7, 2))
        assert np.allclose(cs.A(y), cs2.A(y))
        assert np.allclose(cs.V(y), cs2.V(y))
        assert np.allclose(cs.B(y), cs2.B(y))
        assert np.allclose(cs.c(y), cs2.c(y))

    def test_swaps_drift_terms(self):
        cs = builtin_family("trig", d=2, alpha=2.0, beta=0.5, lower=0.4)
        adj = cs.adjoint()
        y = np.random.default_rng(2).random((4, 2))
        assert np.allclose(adj.V(y), np.swapaxes(cs.B(y), -1, -2))
        assert np.allclose(adj.B(y), np.swapaxes(cs.V(y), -1, -2))

    def test_principal_block_transposed(self):
        cs = builtin_family("nonsymmetric-system")
        adj = cs.adjoint()
        y = np.random.default_rng(3).random((4, 2))
        A, Aa = cs.A(y), adj.A(y)
        assert np.allclose(Aa, np.swapaxes(np.swapaxes(A, -1, -2), -3, -4))


class TestSampling:
    def test_constant_spatially_constant(self):
        cs = builtin_family("constant", d=2, a0=2.0)
        g = BoxGrid(2, 32)
        s = sample_coefficients(cs, g, 0.25, 0.0)
        # constant in space: no variation along the two point axes
        assert np.ptp(s.A, axis=(0, 1)).max() == 0.0

    def test_resolution_guard_names_required_h(self):
        g = BoxGrid(2, 16)   # h = 1/16, eps/16 = 1/256
        with pytest.raises(ProblemError, match=r"h <= 0\.003906"):
            resolution_guard(g, 1 / 16)
        resolution_guard(BoxGrid(2, 256), 1 / 16)

    def test_kappa_covers_samples(self):
        cs = builtin_family("trig", d=2, alpha=2.0, beta=0.5, lower=0.5)
        kap = computed_kappa(cs)
        y = np.random.default_rng(4).random((100, 2))
        for field in (cs.V(y), cs.B(y), cs.c(y)):
            assert np.abs(field).max() <= kap + 1e-9


# ---------------------------------------------------------------------------
# Equivalence with the family code the coefficient table replaced.  The
# oracle below is that code, kept verbatim in its arithmetic: the families
# built one branch each, the adjoint and the two ellipticity probes.
# ---------------------------------------------------------------------------

class _OracleSet:
    def __init__(self, d, m, A, V, B, c, mu, kappa=0.0, name="custom", params=None):
        self.d, self.m, self.A, self.V, self.B, self.c = d, m, A, V, B, c
        self.mu, self.kappa, self.name = mu, kappa, name
        self.params = dict(params or {})

    def adjoint(self):
        A, V, B, c = self.A, self.V, self.B, self.c
        return _OracleSet(
            d=self.d, m=self.m,
            A=lambda y: np.swapaxes(np.swapaxes(A(y), -1, -2), -3, -4),
            V=lambda y: np.swapaxes(B(y), -1, -2),
            B=lambda y: np.swapaxes(V(y), -1, -2),
            c=lambda y: np.swapaxes(c(y), -1, -2),
            mu=self.mu, kappa=self.kappa, name=self.name + "*",
            params=dict(self.params))

    def check_ellipticity(self, n_probe=16):
        from homogkit.grid import TorusGrid
        y = TorusGrid(self.d, n_probe).points().reshape(-1, self.d)
        a = self.A(y)
        margin = np.inf
        for xi in _oracle_probe_directions(self.d, self.m):
            quad = np.einsum("nijab,ia,jb->n", a, xi, xi)
            margin = min(margin, float(np.min(quad - self.mu * np.sum(xi ** 2))))
        return margin


def _oracle_probe_directions(d, m):
    dirs = []
    for i in range(d):
        for a in range(m):
            xi = np.zeros((d, m))
            xi[i, a] = 1.0
            dirs.append(xi)
    for s in (1.0, -1.0):
        xi = np.full((d, m), s)
        xi[0, 0] = 1.0
        dirs.append(xi / np.linalg.norm(xi))
    rng = np.random.Generator(np.random.PCG64(12345))
    for _ in range(8):
        xi = rng.standard_normal((d, m))
        dirs.append(xi / np.linalg.norm(xi))
    return dirs


def _oracle_hat_margin(A_hat, mu):
    d, m = A_hat.shape[0], A_hat.shape[-1]
    margin = np.inf
    for xi in _oracle_probe_directions(d, m):
        quad = float(np.einsum("ijab,ia,jb->", A_hat, xi, xi))
        margin = min(margin, quad - mu * float(np.sum(xi ** 2)))
    return margin


def _oracle_identity(y, d, m, scale):
    base = np.zeros(y.shape[:-1] + (d, d, m, m))
    s = np.asarray(scale)
    for i in range(d):
        for a in range(m):
            base[..., i, i, a, a] = s
    return base


def _oracle_zv(y, d, m):
    return np.zeros(y.shape[:-1] + (d, m, m))


def _oracle_zs(y, m):
    return np.zeros(y.shape[:-1] + (m, m))


def _oracle_constant(d=2, m=1, a0=1.0, v0=0.0, b0=0.0, c0=0.0):
    def diag(y, value):
        out = _oracle_zv(y, d, m)
        for i in range(d):
            for a in range(m):
                out[..., i, a, a] = value
        return out

    def c(y):
        out = _oracle_zs(y, m)
        for a in range(m):
            out[..., a, a] = c0
        return out

    return _OracleSet(d, m, lambda y: _oracle_identity(y, d, m, a0),
                      lambda y: diag(y, v0), lambda y: diag(y, b0), c,
                      mu=a0, kappa=max(abs(v0), abs(b0), abs(c0)), name="constant",
                      params=dict(d=d, m=m, a0=a0, v0=v0, b0=b0, c0=c0))


def _oracle_laminate(d=2, m=1):
    def A(y):
        return _oracle_identity(y, d, m, 1.0 / (2.0 + np.cos(2.0 * np.pi * y[..., 0])))
    return _OracleSet(d, m, A, lambda y: _oracle_zv(y, d, m),
                      lambda y: _oracle_zv(y, d, m), lambda y: _oracle_zs(y, m),
                      mu=1.0 / 3.0, name="laminate", params=dict(d=d, m=m))


def _oracle_laminate_step(d=2, m=1, a1=1.0, a2=2.0, width=0.02):
    def A(y):
        y1 = y[..., 0]
        frac = 0.5 * (1.0 + np.tanh(np.sin(2.0 * np.pi * (y1 - 0.5)) / (2.0 * np.pi * width)))
        return _oracle_identity(y, d, m, a1 + (a2 - a1) * frac)
    return _OracleSet(d, m, A, lambda y: _oracle_zv(y, d, m),
                      lambda y: _oracle_zv(y, d, m), lambda y: _oracle_zs(y, m),
                      mu=min(a1, a2), name="laminate-step",
                      params=dict(d=d, m=m, a1=a1, a2=a2, width=width))


def _oracle_trig(d=2, m=1, alpha=2.0, beta=0.5, lower=0.0):
    def A(y):
        return _oracle_identity(y, d, m, alpha + beta * np.sum(np.sin(2.0 * np.pi * y), axis=-1))

    def V(y):
        out = _oracle_zv(y, d, m)
        if lower:
            for i in range(d):
                for a in range(m):
                    out[..., i, a, a] = lower * np.sin(2.0 * np.pi * y[..., i])
        return out

    def B(y):
        out = _oracle_zv(y, d, m)
        if lower:
            for i in range(d):
                for a in range(m):
                    out[..., i, a, a] = lower * np.cos(2.0 * np.pi * y[..., (i + 1) % d])
        return out

    def c(y):
        out = _oracle_zs(y, m)
        if lower:
            for a in range(m):
                out[..., a, a] = lower * np.cos(2.0 * np.pi * y[..., 0])
        return out

    return _OracleSet(d, m, A, V, B, c, mu=alpha - abs(beta) * d, kappa=abs(lower),
                      name="trig", params=dict(d=d, m=m, alpha=alpha, beta=beta, lower=lower))


def _oracle_oscillating_potential(d=2, m=1, amp=1.0):
    def grad_p(y):
        cosns = np.cos(2.0 * np.pi * y)
        sinns = np.sin(2.0 * np.pi * y)
        out = np.zeros(y.shape[:-1] + (d, m, m))
        for i in range(d):
            g = -sinns[..., i]
            for j in range(d):
                if j != i:
                    g = g * cosns[..., j]
            for a in range(m):
                out[..., i, a, a] = amp * g
        return out
    return _OracleSet(d, m, lambda y: _oracle_identity(y, d, m, 1.0), grad_p, grad_p,
                      lambda y: _oracle_zs(y, m), mu=1.0, kappa=abs(amp),
                      name="oscillating-potential", params=dict(d=d, m=m, amp=amp))


def _oracle_nonsymmetric_system(d=2, delta=0.3):
    m = 2

    def A(y):
        out = np.zeros(y.shape[:-1] + (d, d, m, m))
        s = 2.0 + np.sin(2.0 * np.pi * y[..., 0])
        skew = delta * np.cos(2.0 * np.pi * y[..., min(1, d - 1)])
        for i in range(d):
            out[..., i, i, 0, 0] = s
            out[..., i, i, 1, 1] = s
            out[..., i, i, 0, 1] = skew
            out[..., i, i, 1, 0] = -skew
        return out
    return _OracleSet(d, m, A, lambda y: _oracle_zv(y, d, m),
                      lambda y: _oracle_zv(y, d, m), lambda y: _oracle_zs(y, m),
                      mu=1.0, name="nonsymmetric-system",
                      params=dict(d=d, delta=delta))


_ORACLES = {
    "constant": _oracle_constant,
    "laminate": _oracle_laminate,
    "laminate-step": _oracle_laminate_step,
    "trig": _oracle_trig,
    "oscillating-potential": _oracle_oscillating_potential,
    "nonsymmetric-system": _oracle_nonsymmetric_system,
}


def _equivalence_cases():
    cases = []
    for d in (1, 2, 3):
        for m in (1, 2):
            cases += [("constant", dict(d=d, m=m)),
                      ("constant", dict(d=d, m=m, a0=1.5, v0=0.3, b0=-0.2, c0=0.7)),
                      ("laminate", dict(d=d, m=m)),
                      ("laminate-step", dict(d=d, m=m, a1=3.0, a2=0.5, width=0.05)),
                      ("trig", dict(d=d, m=m, alpha=3.5)),
                      ("trig", dict(d=d, m=m, alpha=3.5, beta=-0.4, lower=0.3)),
                      ("oscillating-potential", dict(d=d, m=m, amp=0.6))]
        cases.append(("nonsymmetric-system", dict(d=d, delta=0.4)))
    return cases


def _case_id(case):
    name, params = case
    return name + "-" + "-".join(f"{k}{v}" for k, v in params.items())


def _same_bits(got, want):
    return (got.shape == want.shape and np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


class TestTableEquivalence:
    """The table-built families, their adjoints and both ellipticity margins
    reproduce the per-family code bit for bit, zero signs included."""

    @pytest.mark.parametrize("case", _equivalence_cases(), ids=_case_id)
    def test_family_bit_identical(self, case):
        from homogkit.grid import TorusGrid
        name, params = case
        new, old = builtin_family(name, **params), _ORACLES[name](**params)
        d = old.d
        lattice = TorusGrid(d, 8).points()
        scattered = np.random.default_rng(7).uniform(-1.5, 2.5, size=(3, 5, d))
        for got, want in ((new, old), (new.adjoint(), old.adjoint())):
            for attr in ("d", "m", "mu", "kappa", "name"):
                assert getattr(got, attr) == getattr(want, attr), attr
            for y in (lattice, scattered):
                for field in ("A", "V", "B", "c"):
                    assert _same_bits(getattr(got, field)(y), getattr(want, field)(y)), field
        assert check_ellipticity(new) == old.check_ellipticity()
        assert check_ellipticity(new.adjoint()) == old.adjoint().check_ellipticity()

    @pytest.mark.parametrize("d,m", [(1, 1), (2, 1), (2, 2), (3, 2)])
    def test_homogenized_margin_identical(self, d, m):
        from homogkit.cell import HomogenizedCoefficients
        rng = np.random.default_rng(d * 10 + m)
        A_hat = rng.standard_normal((d, d, m, m)) + 3.0 * _oracle_identity(
            np.zeros((d,)), d, m, 1.0)
        hats = HomogenizedCoefficients(A_hat=A_hat, V_hat=np.zeros((d, m, m)),
                                       B_hat=np.zeros((d, m, m)), c_hat=np.zeros((m, m)))
        for mu in (0.5, 1.0, 2.75):
            assert hats.ellipticity_margin(mu) == _oracle_hat_margin(A_hat, mu)
