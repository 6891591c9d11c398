"""Periodic coefficient tuples (A, V, B, c) and built-in analytic families.

Coefficients are closed-form callables, not data arrays, so they can be
resampled on arbitrary grids (and at arbitrary 1/eps pullbacks) with no
interpolation error.  Shapes follow the system conventions: for points of
shape (..., d),

    A(y) -> (..., d, d, m, m)      V(y), B(y) -> (..., d, m, m)
    c(y) -> (..., m, m)

with a_ij^{ab} = A[..., i, j, a, b] etc.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grid import TorusGrid

_VALIDATION_LATTICE = 64  # per-axis density used for kappa and periodicity checks


class CoefficientError(ValueError):
    """Invalid parameters or a coefficient set failing its own declarations."""


@dataclass
class CoefficientSet:
    """A periodic coefficient tuple with its declared structure constants.

    ``mu`` is the two-sided ellipticity constant of A, ``kappa`` the sup-norm
    bound on V, B, c (computed by lattice maximization, not user-declared),
    ``tau`` the Holder exponent of the family and ``lam`` the zero-order
    shift the operator will carry by default.
    """

    d: int
    m: int
    A: Callable[[np.ndarray], np.ndarray]
    V: Callable[[np.ndarray], np.ndarray]
    B: Callable[[np.ndarray], np.ndarray]
    c: Callable[[np.ndarray], np.ndarray]
    mu: float
    kappa: float = 0.0
    tau: float = 0.5
    lam: float = 0.0
    name: str = "custom"
    symmetric: bool = True
    params: dict = field(default_factory=dict)

    def adjoint(self) -> "CoefficientSet":
        """Coefficients of the formal adjoint: a*_ij^{ab} = a_ji^{ba},
        with V and B exchanging roles (transposed in the system indices)."""
        A, V, B, c = self.A, self.V, self.B, self.c
        return CoefficientSet(
            d=self.d,
            m=self.m,
            A=lambda y: np.swapaxes(np.swapaxes(A(y), -1, -2), -3, -4),
            V=lambda y: np.swapaxes(B(y), -1, -2),
            B=lambda y: np.swapaxes(V(y), -1, -2),
            c=lambda y: np.swapaxes(c(y), -1, -2),
            mu=self.mu,
            kappa=self.kappa,
            tau=self.tau,
            lam=self.lam,
            name=self.name + "*",
            symmetric=self.symmetric,
            params=dict(self.params),
        )

    # -- validation ---------------------------------------------------------

    def check_ellipticity(self, n_probe: int = 16) -> float:
        """Worst-case margin of the declared ellipticity constant.

        Returns min over a point lattice and a deterministic set of unit
        directions xi of (a(y) xi . xi - mu |xi|^2).  Negative means the
        declared mu is invalid; returning it (rather than raising) lets the
        caller decide.
        """
        if n_probe < 8:
            raise CoefficientError("need n_probe >= 8")
        y = TorusGrid(self.d, n_probe).points().reshape(-1, self.d)
        a = self.A(y)  # (N, d, d, m, m)
        xis = _probe_directions(self.d, self.m)
        margin = np.inf
        for xi in xis:
            quad = np.einsum("nijab,ia,jb->n", a, xi, xi)
            margin = min(margin, float(np.min(quad - self.mu * np.sum(xi ** 2))))
        return margin

    def check_periodicity(self, n_probe: int = 16, tol: float = 1e-12) -> bool:
        y = TorusGrid(self.d, n_probe).points().reshape(-1, self.d)
        for fn in (self.A, self.V, self.B, self.c):
            base = fn(y)
            for k in range(self.d):
                shift = y.copy()
                shift[:, k] += 1.0
                if not np.allclose(fn(shift), base, atol=tol, rtol=0.0):
                    return False
        return True

    def computed_kappa(self, n_probe: int = _VALIDATION_LATTICE) -> float:
        """Lattice maximization of the sup-norms of V, B, c."""
        y = TorusGrid(self.d, min(n_probe, 64) if self.d == 3 else n_probe).points()
        y = y.reshape(-1, self.d)
        sup = 0.0
        for fn in (self.V, self.B, self.c):
            vals = fn(y)
            sup = max(sup, float(np.max(np.abs(vals))))
        return sup

    def check_symmetry(self, n_probe: int = 16, tol: float = 1e-12) -> bool:
        y = TorusGrid(self.d, n_probe).points().reshape(-1, self.d)
        a = self.A(y)
        at = np.swapaxes(np.swapaxes(a, -1, -2), -3, -4)
        return bool(np.allclose(a, at, atol=tol, rtol=0.0))

    def validate(self, n_probe: int = 16) -> None:
        """Raise CoefficientError if any declared structure constant fails."""
        margin = self.check_ellipticity(n_probe)
        if margin < -1e-10:
            raise CoefficientError(
                f"family {self.name!r}: ellipticity margin {margin:.3e} < 0 for mu = {self.mu}"
            )
        if not self.check_periodicity(n_probe):
            raise CoefficientError(f"family {self.name!r}: not 1-periodic")
        got = self.computed_kappa()
        if got > self.kappa + 1e-8:
            raise CoefficientError(
                f"family {self.name!r}: sup-norm of lower-order terms {got:.3g} "
                f"exceeds declared kappa = {self.kappa:.3g}"
            )
        if self.symmetric and not self.check_symmetry(n_probe):
            raise CoefficientError(f"family {self.name!r}: declared symmetric but is not")


def _probe_directions(d: int, m: int) -> list[np.ndarray]:
    """Deterministic unit xi in R^{m x d}: coordinate directions plus diagonal
    combinations (enough to expose anisotropy of the built-in families)."""
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


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------

def _broadcast_identity(y, d, m, scale):
    """A(y) = scale(y) * delta_ij * delta_ab; scale scalar array over points."""
    base = np.zeros(y.shape[:-1] + (d, d, m, m))
    s = np.asarray(scale)
    for i in range(d):
        for a in range(m):
            base[..., i, i, a, a] = s
    return base


def _zeros_vector(y, d, m):
    return np.zeros(y.shape[:-1] + (d, m, m))


def _zeros_scalar(y, m):
    return np.zeros(y.shape[:-1] + (m, m))


FAMILY_NAMES = ("constant", "laminate", "laminate-step", "trig",
                "oscillating-potential", "nonsymmetric-system")


def builtin_family(name: str, **params) -> CoefficientSet:
    """Construct a named coefficient family.

    Families:
      constant:  A = a0 * I, V, B, c constant (defaults zero).
      laminate:  scalar a(y) = 1 / (2 + cos(2 pi y1)); depends on y1 only.
      laminate-step: smoothed two-phase laminate a(y1) in {a1, a2}, smoothing
                 width ``width`` (tanh profile).
      trig:      a(y) = alpha + beta * sum_i sin(2 pi y_i); optional trig
                 lower-order terms of amplitude ``lower`` (V, B, c).
      oscillating-potential: A = I, V = B = amp * grad p for a smooth periodic
                 p (so div V realizes the rapidly oscillating potential), c = 0.
      nonsymmetric-system: m = 2 system, A = delta_ij * M(y) with a
                 nonsymmetric oscillating 2x2 block M.
    """
    if name == "constant":
        return _constant_family(**params)
    if name == "laminate":
        return _laminate_family(**params)
    if name == "laminate-step":
        return _laminate_step_family(**params)
    if name == "trig":
        return _trig_family(**params)
    if name == "oscillating-potential":
        return _oscillating_potential_family(**params)
    if name == "nonsymmetric-system":
        return _nonsymmetric_system_family(**params)
    raise CoefficientError(f"unknown family {name!r}")


def _constant_family(d: int = 2, m: int = 1, a0: float = 1.0,
                     v0: float = 0.0, b0: float = 0.0, c0: float = 0.0) -> CoefficientSet:
    if a0 <= 0:
        raise CoefficientError("constant family needs a0 > 0")

    def A(y):
        return _broadcast_identity(y, d, m, a0)

    def V(y):
        out = _zeros_vector(y, d, m)
        for i in range(d):
            for a in range(m):
                out[..., i, a, a] = v0
        return out

    def B(y):
        out = _zeros_vector(y, d, m)
        for i in range(d):
            for a in range(m):
                out[..., i, a, a] = b0
        return out

    def c(y):
        out = _zeros_scalar(y, m)
        for a in range(m):
            out[..., a, a] = c0
        return out

    mu = a0
    kappa = max(abs(v0), abs(b0), abs(c0))
    return CoefficientSet(d=d, m=m, A=A, V=V, B=B, c=c, mu=mu, kappa=kappa,
                          name="constant", params=dict(d=d, m=m, a0=a0, v0=v0, b0=b0, c0=c0))


def _laminate_family(d: int = 2, m: int = 1) -> CoefficientSet:
    # a(y) = 1/(2 + cos 2 pi y1), range [1/3, 1]: mu = 1/3, kappa = 0.
    def scale(y):
        return 1.0 / (2.0 + np.cos(2.0 * np.pi * y[..., 0]))

    def A(y):
        return _broadcast_identity(y, d, m, scale(y))

    cs = CoefficientSet(
        d=d, m=m, A=A,
        V=lambda y: _zeros_vector(y, d, m),
        B=lambda y: _zeros_vector(y, d, m),
        c=lambda y: _zeros_scalar(y, m),
        mu=1.0 / 3.0, kappa=0.0, name="laminate", params=dict(d=d, m=m),
    )
    return cs


def _laminate_step_family(d: int = 2, m: int = 1, a1: float = 1.0, a2: float = 2.0,
                          width: float = 0.02) -> CoefficientSet:
    if min(a1, a2) <= 0 or width <= 0:
        raise CoefficientError("laminate-step needs a1, a2 > 0 and width > 0")

    # tanh-smoothed square wave in y1: a ~ a1 on (0, 1/2), a2 on (1/2, 1),
    # with C-infinity periodic transitions of width ~ ``width`` at 1/2 and 1
    def scale(y):
        y1 = y[..., 0]
        frac = 0.5 * (1.0 + np.tanh(np.sin(2.0 * np.pi * (y1 - 0.5)) / (2.0 * np.pi * width)))
        return a1 + (a2 - a1) * frac

    def A(y):
        return _broadcast_identity(y, d, m, scale(y))

    lo, hi = min(a1, a2), max(a1, a2)
    return CoefficientSet(
        d=d, m=m, A=A,
        V=lambda y: _zeros_vector(y, d, m),
        B=lambda y: _zeros_vector(y, d, m),
        c=lambda y: _zeros_scalar(y, m),
        mu=lo, kappa=0.0, name="laminate-step",
        params=dict(d=d, m=m, a1=a1, a2=a2, width=width),
    )


def _trig_family(d: int = 2, m: int = 1, alpha: float = 2.0, beta: float = 0.5,
                 lower: float = 0.0) -> CoefficientSet:
    if alpha <= abs(beta) * d:
        raise CoefficientError(
            f"trig family needs alpha > |beta|*d for ellipticity, got alpha={alpha}, beta={beta}, d={d}"
        )

    def scale(y):
        return alpha + beta * np.sum(np.sin(2.0 * np.pi * y), axis=-1)

    def A(y):
        return _broadcast_identity(y, d, m, scale(y))

    mu = alpha - abs(beta) * d

    def V(y):
        out = _zeros_vector(y, d, m)
        if lower:
            for i in range(d):
                for a in range(m):
                    out[..., i, a, a] = lower * np.sin(2.0 * np.pi * y[..., i])
        return out

    def B(y):
        out = _zeros_vector(y, d, m)
        if lower:
            for i in range(d):
                for a in range(m):
                    out[..., i, a, a] = lower * np.cos(2.0 * np.pi * y[..., (i + 1) % d])
        return out

    def c(y):
        out = _zeros_scalar(y, m)
        if lower:
            for a in range(m):
                out[..., a, a] = lower * np.cos(2.0 * np.pi * y[..., 0])
        return out

    return CoefficientSet(
        d=d, m=m, A=A, V=V, B=B, c=c, mu=mu, kappa=abs(lower),
        name="trig", params=dict(d=d, m=m, alpha=alpha, beta=beta, lower=lower),
    )


def _oscillating_potential_family(d: int = 2, m: int = 1, amp: float = 1.0) -> CoefficientSet:
    # A = I, V = B = amp * grad p with p = cos(2 pi y1) * cos(2 pi y2 ...) so
    # div(V) is the rapidly oscillating potential; c = 0.
    def grad_p(y):
        # p(y) = prod_i cos(2 pi y_i) / (2 pi)
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

    return CoefficientSet(
        d=d, m=m,
        A=lambda y: _broadcast_identity(y, d, m, 1.0),
        V=grad_p, B=grad_p,
        c=lambda y: _zeros_scalar(y, m),
        mu=1.0, kappa=abs(amp), name="oscillating-potential",
        params=dict(d=d, m=m, amp=amp),
    )


def _nonsymmetric_system_family(d: int = 2, delta: float = 0.3) -> CoefficientSet:
    """m = 2 system with A = delta_ij * M(y), M nonsymmetric.

    M(y) = (2 + sin 2 pi y1) I + delta * [[0, 1], [-1, 0]] * cos(2 pi y2).
    The skew part does not affect the quadratic form, so mu comes from the
    symmetric part alone.
    """
    if not (0 <= delta < 1):
        raise CoefficientError("nonsymmetric-system needs 0 <= delta < 1")
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

    return CoefficientSet(
        d=d, m=m, A=A,
        V=lambda y: _zeros_vector(y, d, m),
        B=lambda y: _zeros_vector(y, d, m),
        c=lambda y: _zeros_scalar(y, m),
        mu=1.0, kappa=0.0, symmetric=False,
        name="nonsymmetric-system", params=dict(d=d, delta=delta),
    )
