"""Dirichlet boundary-value solves on box domains.

The full operator is

    L u = -div(A grad u + V u) + B grad u + (c + lambda) u

with coefficients frozen at x/eps.  The homogenized operator and the
principal part are coefficient sets of their own
(``HomogenizedCoefficients.coefficients`` and ``cs.principal_part``), so
they are sampled and solved like any other.
Boundary data is imposed strongly at boundary points; the interior system is
solved by preconditioned Krylov iteration with the algebraic lifting of the
boundary values, so the discrete boundary trace is exact.

A box sample holds what the flux stencil reads and nothing else: the
blocks of A it uses (``grid.PrincipalBlocks``: the d diagonal blocks, and
cross blocks only for coupled axis pairs), and V, B, c only for a set with
lower-order terms.  ``sample_coefficients`` evaluates the set one slab of
whole lattice planes at a time, so no point array or full d x d x m x m
tensor of the whole box exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .coefficients import CoefficientSet, transpose_m
from .grid import (BoxGrid, GridFunction, PrincipalBlocks, Stencil, assemble,
                   coefficient_blocks, divergence, precond_scale)
from .solvers import solve_box_dirichlet


class ProblemError(ValueError):
    pass


# An oscillatory solve at period eps needs at least this many lattice spacings
# per period: h <= eps / POINTS_PER_PERIOD.
POINTS_PER_PERIOD = 16


def resolution_guard(grid: BoxGrid, eps: float) -> None:
    """Raise ProblemError, naming the required h, when ``grid`` cannot resolve
    coefficients oscillating at period ``eps``."""
    h_max = eps / POINTS_PER_PERIOD
    if grid.h > h_max + 1e-15:
        raise ProblemError(
            f"resolution guard violated: oscillatory solve at eps = {eps} "
            f"needs h <= {h_max:.4g}, grid has h = {grid.h:.4g}"
        )


def estimate_lambda0(cs: CoefficientSet) -> float:
    """Zero-order shift guaranteeing discrete coercivity.

    Young's-inequality bookkeeping for the lower-order terms gives
    lambda_0 = kappa + 2 kappa^2 / mu; kappa = 0 (no lower-order terms)
    yields 0.
    """
    return cs.kappa + 2.0 * cs.kappa ** 2 / cs.mu


def default_lambda(cs: CoefficientSet) -> float:
    # strict margin over the coercivity threshold
    return estimate_lambda0(cs) + 1.0


def check_lambda(cs: CoefficientSet, lam: float | None, override: bool = False) -> float:
    """The zero-order shift of a solve: ``default_lambda(cs)`` for None, else
    ``lam``, which must reach the coercivity threshold unless ``override``."""
    if lam is None:
        return default_lambda(cs)
    lam0 = estimate_lambda0(cs)
    if lam < lam0 - 1e-12 and not override:
        raise ProblemError(f"lam = {lam} is below the coercivity threshold {lam0}; "
                           "lambda_override forces it")
    return float(lam)


@dataclass
class CoefficientSamples:
    """Coefficients frozen on a box grid at x/eps, as the blocks the flux
    stencil reads; V, B and c are all None for a set without lower-order
    terms.  ``stencil`` assembles the operator from them once
    (``grid.assemble``), on the box lattice with the boundary layer as its
    padding: ``apply_interior`` is its product with zero boundary values
    (K_ii), ``lift`` its product with a field's boundary values alone
    (K_ib)."""

    grid: BoxGrid
    A: PrincipalBlocks       # blocks (*shape, m, m)
    V: np.ndarray | None     # (*shape, d, m, m)
    B: np.ndarray | None     # (*shape, d, m, m)
    c: np.ndarray | None     # (*shape, m, m)
    lam: float
    m: int
    self_adjoint: bool   # the sampled set's ``CoefficientSet.self_adjoint``

    def adjoint(self) -> "CoefficientSamples":
        lower = {}
        if self.V is not None:
            lower = dict(V=transpose_m(self.B), B=transpose_m(self.V), c=transpose_m(self.c))
        return replace(self, A=self.A.transposed(), **lower)

    @cached_property
    def stencil(self) -> Stencil:
        """The operator of ``grid.assemble``, assembled on first use."""
        return assemble(self.A, self.grid, self.V, self.B, self.c, self.lam)

    def apply_interior(self, u_int: np.ndarray) -> np.ndarray:
        """K_ii u for interior values (*(n-1,)*d, m), zero boundary values."""
        return (self.stencil @ u_int.ravel()).reshape(u_int.shape)

    def lift(self, u: np.ndarray) -> np.ndarray:
        """K_ib u_b: the interior rows of L applied to the boundary values of
        the full field ``u`` (*shape, m); its interior values are not read."""
        return self.stencil.lift(u)

    def apply_full(self, u: np.ndarray) -> np.ndarray:
        """Operator action on a full-grid field (*shape, m): the interior rows
        hold L u, the boundary rows are zero."""
        g = self.grid
        out = np.zeros_like(u)
        out[g.interior] = self.apply_interior(u[g.interior]) + self.lift(u)
        return out

    def bilinear(self, u: np.ndarray, v: np.ndarray) -> float:
        """B[u, v] = <L u, v> for full fields vanishing on the boundary; the
        discrete footing for the duality and coercivity tests."""
        g = self.grid
        lu = self.apply_interior(u[g.interior])
        return float(np.sum(lu * v[g.interior])) * g.cell_volume

    def solve(self, rhs_int: np.ndarray, tol: float) -> tuple[np.ndarray, float]:
        """Interior values u with K_ii u = rhs_int (zero boundary values), and
        the relative residual the solver verified.  The lambda shift and
        preconditioner scale of a box solve are chosen here and nowhere
        else; the Krylov method follows ``self_adjoint``."""
        scale = precond_scale(self.A, self.grid)
        # the stencil exists before the Krylov work vectors are allocated (peak memory)
        self.stencil
        return solve_box_dirichlet(self.apply_interior, rhs_int, self.grid,
                                   lam=self.lam, tol=tol, precond_scale=scale,
                                   self_adjoint=self.is_symmetric)

    @property
    def is_symmetric(self) -> bool:
        """Whether L equals its adjoint, as the sampled set decided it."""
        return self.self_adjoint


@dataclass
class DirichletProblem:
    """Problem data for L_eps u = div(f) + F in the box, u = g on the boundary."""

    cs: CoefficientSet
    grid: BoxGrid
    eps: float = 1.0
    lam: float | None = None
    f: np.ndarray | None = None   # (*shape, m, d) divergence-form source
    F: np.ndarray | None = None   # (*shape, m) load
    g: np.ndarray | None = None   # (*shape, m); only boundary rows are read
    lambda_override: bool = False

    def __post_init__(self):
        self.lam = check_lambda(self.cs, self.lam, self.lambda_override)
        if self.eps <= 0:
            raise ProblemError("eps must be positive")
        if self.eps < 1.0:   # exempt: at most one period spans the unit box
            resolution_guard(self.grid, self.eps)

    def samples(self) -> CoefficientSamples:
        return sample_coefficients(self.cs, self.grid, self.eps, self.lam)

    def rhs_interior(self, samples: CoefficientSamples) -> np.ndarray:
        """F + div(f) - L(g-lifting) restricted to interior points."""
        g = self.grid
        rhs = (np.zeros(g.shape + (self.cs.m,)) if self.f is None
               else divergence(GridFunction(g, self.f)).values)
        if self.F is not None:
            rhs += self.F
        rhs = rhs[g.interior].copy()
        if self.g is not None:
            rhs -= samples.lift(np.asarray(self.g, float))
        return rhs


def pullback(grid: BoxGrid, eps: float, planes: slice = slice(None)) -> np.ndarray:
    """The cell coordinates y = x/eps mod 1 of the box lattice points in the
    lattice planes ``planes`` of the first axis (all of them by default),
    shaped (planes, n + 1, ..., d).  Each axis is pulled back once and
    broadcast.  The points are >= 0, so subtracting the floor is exact and
    equals ``np.mod`` bit for bit."""
    t = grid.axis() / eps
    t -= np.floor(t)
    d = grid.d
    first = t[planes]
    y = np.empty(first.shape + grid.shape[1:] + (d,))
    for k in range(d):
        y[..., k] = (first if k == 0 else t).reshape([-1 if ax == k else 1 for ax in range(d)])
    return y


# Lattice points per call of a coefficient while a box is sampled: whole
# planes of the first axis, about this many at a time (at least one plane),
# so that the full tensor of A and the point array exist for one slab only.
_SLAB_POINTS = 1 << 15


def sample_coefficients(cs: CoefficientSet, grid: BoxGrid, eps: float,
                        lam: float) -> CoefficientSamples:
    """Coefficients frozen on the box lattice at x/eps.

    The set is evaluated one slab of lattice planes at a time, and each
    slab's A is cut into blocks by ``grid.coefficient_blocks`` and copied
    into contiguous whole-box blocks.  A cross block is allocated, as
    zeros, when a slab first shows its pair coupled.  V, B and c are
    evaluated only for a set with lower-order terms.  Every value is
    computed elementwise, so none depends on the slabs.

    No resolution guard is applied here; ``DirichletProblem`` and the
    corrector solves call ``resolution_guard``.
    """
    eps = float(eps)
    shape, m = grid.shape, cs.m
    step = max(1, _SLAB_POINTS // math.prod(shape[1:]))
    diag = tuple(np.empty(shape + (m, m)) for _ in range(grid.d))
    cross = {}
    lower = None
    if cs.lower_order:
        lower = [np.empty(shape + t) for t in ((grid.d, m, m), (grid.d, m, m), (m, m))]
    for p0 in range(0, shape[0], step):
        planes = slice(p0, p0 + step)
        y = pullback(grid, eps, planes)
        a = coefficient_blocks(cs.A(y))
        for whole, part in zip(diag, a.diag):
            whole[planes] = part
        for key, part in a.cross.items():
            if key not in cross:
                cross[key] = np.zeros(shape + (m, m))
            cross[key][planes] = part
        del a   # the slab's full tensor goes before V, B and c are evaluated
        for whole, f in zip(lower or (), (cs.V, cs.B, cs.c)):
            whole[planes] = f(y)
    V, B, c = lower or (None, None, None)
    return CoefficientSamples(grid=grid, A=PrincipalBlocks(diag, cross), V=V, B=B, c=c,
                              lam=float(lam), m=m, self_adjoint=cs.self_adjoint)


def solve(problem: DirichletProblem, tol: float = 1e-10,
          samples: CoefficientSamples | None = None) -> tuple[GridFunction, dict]:
    """Solve the Dirichlet problem; boundary values are exact by construction.

    ``samples`` reuses an operator already sampled for the same coefficients,
    grid, eps and lambda (``problem.samples()`` of a problem that differs at
    most in its data f, F, g), so that problems sharing one operator sample
    and assemble it once; ``problem.samples().adjoint()`` solves with the
    discrete adjoint operator.  Returns the solution and an info dict with
    the verified interior residual.
    """
    if samples is None:
        samples = problem.samples()
    g = problem.grid
    u_int, residual = samples.solve(problem.rhs_interior(samples), tol)
    full = np.zeros(g.shape + (problem.cs.m,))
    full[g.interior] = u_int
    if problem.g is not None:
        bmask = g.boundary_mask()
        full[bmask] = np.asarray(problem.g, float)[bmask]
    return GridFunction(g, full), {"residual": residual}


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def coercivity_margin(samples: CoefficientSamples, u_full: np.ndarray) -> tuple[float, float]:
    """(B[u,u], c0-normalized H1 energy) for a field vanishing on the boundary.

    The discrete H1 norm uses the forward differences of the energy form so
    the Garding bookkeeping transfers verbatim.
    """
    g = samples.grid
    h = g.h
    l2 = float(np.sum(u_full ** 2)) * g.cell_volume
    semi = 0.0
    for i in range(g.d):
        dpu = (np.roll(u_full, -1, axis=i) - u_full) / h
        semi += float(np.sum(dpu ** 2)) * g.cell_volume
    h1sq = l2 + semi
    return samples.bilinear(u_full, u_full), h1sq


def coercivity_constant_bound(cs: CoefficientSet, grid: BoxGrid) -> float:
    diam2 = grid.d   # the squared diameter of the unit box
    return 0.5 * cs.mu * min(1.0, 1.0 / (1.0 + diam2))
