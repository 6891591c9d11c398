"""Periodic coefficient tuples (A, V, B, c) and built-in analytic families.

Coefficients are closed-form callables, not data arrays, so they can be
resampled on arbitrary grids (and at arbitrary 1/eps pullbacks) with no
interpolation error.  Shapes follow the system conventions: for points of
shape (..., d),

    A(y) -> (..., d, d, m, m)      V(y), B(y) -> (..., d, m, m)
    c(y) -> (..., m, m)

with a_ij^{ab} = A[..., i, j, a, b] etc.  The formal adjoint has
a*_ij^{ab} = a_ji^{ba} (``transpose_a``), with V and B exchanging roles and
V, B, c transposed in the system indices (``transpose_m``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np
from numpy.random import PCG64, Generator

from .grid import TorusGrid

_VALIDATION_LATTICE = 16  # per-axis density of the self-adjointness check


class CoefficientError(ValueError):
    """Invalid parameters or a coefficient set failing its own declarations."""


def transpose_a(a: np.ndarray) -> np.ndarray:
    """a_ij^{ab} -> a_ji^{ba}: the principal block of the adjoint."""
    return np.swapaxes(np.swapaxes(a, -1, -2), -3, -4)


def transpose_m(t: np.ndarray) -> np.ndarray:
    """Transpose in the system indices (the last two axes)."""
    return np.swapaxes(t, -1, -2)


def ellipticity_margin(a: np.ndarray, mu: float) -> float:
    """min of (a xi . xi - mu |xi|^2) over the points of ``a`` (..., d, d, m, m)
    and a deterministic set of unit directions xi.  Negative means ``mu`` is
    not an ellipticity constant of ``a``."""
    margin = np.inf
    for xi in _probe_directions(a.shape[-3], a.shape[-1]):
        quad = np.einsum("...ijab,ia,jb->...", a, xi, xi)
        margin = min(margin, float(np.min(quad - mu * np.sum(xi ** 2))))
    return margin


@dataclass
class CoefficientSet:
    """A periodic coefficient tuple with its declared structure constants.

    ``mu`` is the two-sided ellipticity constant of A and ``kappa`` the
    declared sup-norm bound on V, B, c (the tests check both against lattice
    samples).  V, B and c default to zero; ``lower_order`` records at
    construction whether any of them was given, and a set without them is
    sampled and checked without calling them.  The zero-order shift
    lambda is not part of the set: ``bvp.default_lambda`` derives it from
    ``mu`` and ``kappa``.
    """

    d: int
    m: int
    A: Callable[[np.ndarray], np.ndarray]
    mu: float
    V: Callable[[np.ndarray], np.ndarray] | None = None
    B: Callable[[np.ndarray], np.ndarray] | None = None
    c: Callable[[np.ndarray], np.ndarray] | None = None
    kappa: float = 0.0
    name: str = "custom"
    lower_order: bool = field(init=False)

    def __post_init__(self):
        if type(self.d) is not int or self.d not in (1, 2, 3):
            raise CoefficientError(f"d must be 1, 2 or 3, got {self.d!r}")
        if type(self.m) is not int or self.m < 1:
            raise CoefficientError(f"m must be a positive integer, got {self.m!r}")
        d, m = self.d, self.m
        self.lower_order = any(t is not None for t in (self.V, self.B, self.c))
        self.V = self.V or (lambda y: np.zeros(y.shape[:-1] + (d, m, m)))
        self.B = self.B or (lambda y: np.zeros(y.shape[:-1] + (d, m, m)))
        self.c = self.c or (lambda y: np.zeros(y.shape[:-1] + (m, m)))

    def adjoint(self) -> "CoefficientSet":
        """Coefficients of the formal adjoint: a*_ij^{ab} = a_ji^{ba},
        with V and B exchanging roles (transposed in the system indices)."""
        A, V, B, c = self.A, self.V, self.B, self.c
        lower = dict(V=None, B=None, c=None)
        if self.lower_order:
            lower = dict(V=lambda y: transpose_m(B(y)), B=lambda y: transpose_m(V(y)),
                         c=lambda y: transpose_m(c(y)))
        return replace(self, A=lambda y: transpose_a(A(y)), **lower, name=self.name + "*")

    @cached_property
    def principal_part(self) -> "CoefficientSet":
        """The set with V, B and c zero, built once, so that its cached
        ``self_adjoint`` check runs once however many solves use it."""
        return replace(self, V=None, B=None, c=None)

    # -- self-adjointness ---------------------------------------------------

    def _lattice(self) -> np.ndarray:
        return TorusGrid(self.d, _VALIDATION_LATTICE).points().reshape(-1, self.d)

    @cached_property
    def self_adjoint(self) -> bool:
        """Whether L = L* on the validation lattice (A = transpose_a(A),
        V = transpose_m(B), c = transpose_m(c), each to 1e-13): the Krylov
        solves run CG exactly when this holds for the operator they invert.
        Without lower-order terms only A is evaluated."""
        y = self._lattice()
        A = self.A(y)
        pairs = [(A, transpose_a(A))]
        if self.lower_order:
            c = self.c(y)
            pairs += [(self.V(y), transpose_m(self.B(y))), (c, transpose_m(c))]
        return all(np.allclose(x, z, atol=1e-13, rtol=0.0) for x, z in pairs)


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
    rng = Generator(PCG64(12345))
    for _ in range(8):
        xi = rng.standard_normal((d, m))
        dirs.append(xi / np.linalg.norm(xi))
    return dirs


# ---------------------------------------------------------------------------
# built-in families (formulas, parameters and defaults: README, "Coefficient
# families")
# ---------------------------------------------------------------------------

def _diagonal(y: np.ndarray, m: int, values, rank: int = 1) -> np.ndarray:
    """A zero field over the points ``y`` with ``values[i]`` on the delta_ab
    diagonal of slot i: at [..., i, i, a, a] for rank 2 (A), [..., i, a, a]
    for rank 1 (V, B) and [..., a, a] for rank 0 (c, one value)."""
    out = np.zeros(y.shape[:-1] + (len(values),) * rank + (m, m))
    for i, value in enumerate(values):
        for a in range(m):
            out[(..., *(i,) * rank, a, a)] = value
    return out


def _constant_family(d: int = 2, m: int = 1, a0: float = 1.0,
                     v0: float = 0.0, b0: float = 0.0, c0: float = 0.0) -> CoefficientSet:
    if a0 <= 0:
        raise CoefficientError("constant family needs a0 > 0")
    # with v0 = b0 = c0 = 0 the set has no lower-order terms
    terms = {}
    if v0 or b0 or c0:
        terms = dict(V=lambda y: _diagonal(y, m, [v0] * d), B=lambda y: _diagonal(y, m, [b0] * d),
                     c=lambda y: _diagonal(y, m, [c0], 0))
    return CoefficientSet(
        d=d, m=m, A=lambda y: _diagonal(y, m, [a0] * d, 2), mu=a0,
        kappa=max(abs(v0), abs(b0), abs(c0)), **terms, name="constant")


def _laminate_family(d: int = 2, m: int = 1) -> CoefficientSet:
    # a(y) = 1/(2 + cos 2 pi y1), range [1/3, 1]: mu = 1/3, kappa = 0.
    def A(y):
        return _diagonal(y, m, [1.0 / (2.0 + np.cos(2.0 * np.pi * y[..., 0]))] * d, 2)

    return CoefficientSet(d=d, m=m, A=A, mu=1.0 / 3.0, name="laminate")


def _laminate_step_family(d: int = 2, m: int = 1, a1: float = 1.0, a2: float = 2.0,
                          width: float = 0.02) -> CoefficientSet:
    if min(a1, a2) <= 0 or width <= 0:
        raise CoefficientError("laminate-step needs a1, a2 > 0 and width > 0")

    # tanh-smoothed square wave in y1: a ~ a1 on (0, 1/2), a2 on (1/2, 1),
    # with C-infinity periodic transitions of width ~ ``width`` at 1/2 and 1
    def A(y):
        y1 = y[..., 0]
        frac = 0.5 * (1.0 + np.tanh(np.sin(2.0 * np.pi * (y1 - 0.5)) / (2.0 * np.pi * width)))
        return _diagonal(y, m, [a1 + (a2 - a1) * frac] * d, 2)

    return CoefficientSet(d=d, m=m, A=A, mu=min(a1, a2), name="laminate-step")


def _trig_family(d: int = 2, m: int = 1, alpha: float = 2.0, beta: float = 0.5,
                 lower: float = 0.0) -> CoefficientSet:
    if alpha <= abs(beta) * d:
        raise CoefficientError(
            f"trig family needs alpha > |beta|*d for ellipticity, got alpha={alpha}, beta={beta}, d={d}"
        )

    def A(y):
        return _diagonal(y, m, [alpha + beta * np.sum(np.sin(2.0 * np.pi * y), axis=-1)] * d, 2)

    # without lower-order terms V, B, c stay the +0.0 default (lower * sin
    # would leave -0.0 entries)
    terms = {}
    if lower:
        terms = dict(
            V=lambda y: _diagonal(y, m, [lower * np.sin(2.0 * np.pi * y[..., i])
                                         for i in range(d)]),
            B=lambda y: _diagonal(y, m, [lower * np.cos(2.0 * np.pi * y[..., (i + 1) % d])
                                         for i in range(d)]),
            c=lambda y: _diagonal(y, m, [lower * np.cos(2.0 * np.pi * y[..., 0])], 0))
    return CoefficientSet(
        d=d, m=m, A=A, mu=alpha - abs(beta) * d, kappa=abs(lower), **terms, name="trig")


def _oscillating_potential_family(d: int = 2, m: int = 1, amp: float = 1.0) -> CoefficientSet:
    # A = I, V = B = amp * grad p with p = cos(2 pi y1) * cos(2 pi y2 ...) so
    # div(V) is the rapidly oscillating potential; c = 0.
    def grad_p(y):
        # p(y) = prod_i cos(2 pi y_i) / (2 pi)
        cosns = np.cos(2.0 * np.pi * y)
        sinns = np.sin(2.0 * np.pi * y)
        values = []
        for i in range(d):
            g = -sinns[..., i]
            for j in range(d):
                if j != i:
                    g = g * cosns[..., j]
            values.append(amp * g)
        return _diagonal(y, m, values)

    return CoefficientSet(
        d=d, m=m, A=lambda y: _diagonal(y, m, [1.0] * d, 2), V=grad_p, B=grad_p,
        mu=1.0, kappa=abs(amp), name="oscillating-potential")


def _nonsymmetric_system_family(d: int = 2, delta: float = 0.3) -> CoefficientSet:
    """m = 2 system with A = delta_ij * M(y), M nonsymmetric.

    M(y) = (2 + sin 2 pi y1) I + delta * [[0, 1], [-1, 0]] * cos(2 pi y2).
    The skew part does not affect the quadratic form, so mu comes from the
    symmetric part alone.
    """
    if not (0 <= delta < 1):
        raise CoefficientError("nonsymmetric-system needs 0 <= delta < 1")

    def A(y):
        out = _diagonal(y, 2, [2.0 + np.sin(2.0 * np.pi * y[..., 0])] * d, 2)
        skew = delta * np.cos(2.0 * np.pi * y[..., min(1, d - 1)])
        for i in range(d):
            out[..., i, i, 0, 1] = skew
            out[..., i, i, 1, 0] = -skew
        return out

    return CoefficientSet(d=d, m=2, A=A, mu=1.0, name="nonsymmetric-system")


FAMILIES = {
    "constant": _constant_family,
    "laminate": _laminate_family,
    "laminate-step": _laminate_step_family,
    "trig": _trig_family,
    "oscillating-potential": _oscillating_potential_family,
    "nonsymmetric-system": _nonsymmetric_system_family,
}
FAMILY_NAMES = tuple(FAMILIES)


def builtin_family(name: str, **params) -> CoefficientSet:
    """Construct the named family of ``FAMILIES`` with its keyword parameters."""
    if name not in FAMILIES:
        raise CoefficientError(f"unknown family {name!r}")
    for key, value in params.items():
        # inf passes the families' ``<=`` guards and NaN fails every comparison
        if isinstance(value, float) and not math.isfinite(value):
            raise CoefficientError(f"{key} must be a finite number, got {value!r}")
    return FAMILIES[name](**params)
