import numpy as np
import pytest

from homogkit.bvp import ProblemError, resolution_guard, sample_coefficients
from homogkit.coefficients import (CoefficientError, FAMILY_NAMES,
                                   builtin_family)
from homogkit.grid import BoxGrid


class TestFamilies:
    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_validate_all(self, name):
        cs = builtin_family(name) if name != "trig" else \
            builtin_family(name, lower=0.5)
        cs.validate()

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

    def test_unknown_family(self):
        with pytest.raises(CoefficientError):
            builtin_family("zebra")

    def test_nonsymmetric_flagged(self):
        cs = builtin_family("nonsymmetric-system")
        assert not cs.symmetric
        assert cs.m == 2
        assert not cs.check_symmetry()

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
        assert abs(cs.check_ellipticity()) < 1e-12

    def test_laminate_margin_tiny(self):
        cs = builtin_family("laminate", d=2)
        margin = cs.check_ellipticity()
        assert margin >= -1e-12
        assert margin < 1e-3   # the minimizing y is on the probe lattice

    def test_periodicity(self):
        for name in FAMILY_NAMES:
            cs = builtin_family(name)
            assert cs.check_periodicity()


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
        kap = cs.computed_kappa()
        y = np.random.default_rng(4).random((100, 2))
        for field in (cs.V(y), cs.B(y), cs.c(y)):
            assert np.abs(field).max() <= kap + 1e-9
