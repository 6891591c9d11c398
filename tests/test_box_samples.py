"""Box samples and the operators built from them against the full-tensor
assembly (``oracles.box_stencil_full``, ``oracles.precond_scale_full``):
the coefficients evaluated on the whole point array at once, and the box
stencil built from the full d x d x m x m tensor and V, B, c arrays, zero
for a set without lower-order terms.

The stored entries and their offsets, the preconditioner scale and the
adjoint's stencil must be equal, whatever the number of lattice planes the
sampler evaluates at once: the default, one plane, and four, which divides
none of the plane counts here (33, 17, 9).  The entries are compared, not
products: the ``nan`` cases hold a NaN in the entries that couple to the
x_0 = 0 face."""

import numpy as np
import pytest

import homogkit.bvp as bvp
from homogkit.bvp import sample_coefficients
from homogkit.coefficients import CoefficientSet, builtin_family, transpose_a, transpose_m
from homogkit.grid import BoxGrid, precond_scale
from oracles import box_stencil_full, precond_scale_full

SIZES = {1: 32, 2: 16, 3: 8}
LAM = 0.7
FAMILIES = [
    ("constant", dict(a0=1.5, v0=0.3, b0=-0.2, c0=0.1)),
    ("constant", dict(a0=1.5)),
    ("laminate", {}),
    ("laminate-step", {}),
    ("trig", {}),
    ("trig", dict(lower=0.4)),
    ("oscillating-potential", dict(amp=0.8)),
]


def _random_set(d, m, seed, cross="all", lower=True) -> CoefficientSet:
    """Smooth periodic full tensors with random entries.  ``cross`` keeps
    every a_ij (``"all"``), only a_01 (``"a01"``), only a_10 (``"a10"``) or
    a_01 only where y_0 > 1/2 (``"late"``) or y_0 < 1/2 (``"early"``), so
    that a coupled pair first shows in a later slab or only in early ones;
    ``"nan"`` puts a NaN into a_01 at y_0 = 0."""
    rng = np.random.default_rng(seed)
    a0 = rng.standard_normal((d, d, m, m)) + 4.0 * np.einsum(
        "ij,ab->ijab", np.eye(d), np.eye(m))
    a1 = rng.standard_normal((d, d, m, m))
    v0, b0 = rng.standard_normal((2, d, m, m))
    c0 = rng.standard_normal((m, m))
    off = ~np.eye(d, dtype=bool)

    def A(y):
        w = np.cos(2.0 * np.pi * y[..., 0]) * np.sin(2.0 * np.pi * y[..., -1] + 0.3)
        out = a0 + w[..., None, None, None, None] * a1
        if cross != "all":
            keep = np.zeros((d, d), dtype=bool)
            keep[(1, 0) if cross == "a10" else (0, 1)] = True
            out[..., off & ~keep, :, :] = 0.0
            if cross in ("late", "early"):
                side = y[..., 0] > 0.5 if cross == "late" else y[..., 0] < 0.5
                out[..., 0, 1, :, :] *= side[..., None, None]
            if cross == "nan":
                out[y[..., 0] == 0.0, 0, 1, 0, 0] = np.nan
        return out

    terms = {}
    if lower:
        def field(t):
            return lambda y: t + np.sin(2.0 * np.pi * y[..., 0])[
                (...,) + (None,) * t.ndim] * t
        terms = dict(V=field(v0), B=field(b0), c=field(c0))
    return CoefficientSet(d=d, m=m, A=A, mu=1.0, kappa=1.0, name="random", **terms)


def cases():
    for d in (1, 2, 3):
        for m in (1, 2):
            for name, params in FAMILIES:
                tag = "".join(f"-{k}{v}" for k, v in params.items())
                yield f"{name}-d{d}-m{m}{tag}", (name, dict(params, d=d, m=m), 1 / 4)
            yield f"random-d{d}-m{m}", ("random", dict(d=d, m=m), 1 / 4)
            yield f"random-d{d}-m{m}-principal", ("random", dict(d=d, m=m, lower=False), 1 / 4)
            if d > 1:
                for cross in ("a01", "a10", "late", "early", "nan"):
                    yield (f"random-d{d}-m{m}-{cross}",
                           ("random", dict(d=d, m=m, cross=cross), 1.0))
        yield f"nonsymmetric-system-d{d}", ("nonsymmetric-system", dict(d=d), 1 / 4)


CASES = dict(cases())


def coefficient_set(name, params) -> CoefficientSet:
    if name != "random":
        return builtin_family(name, **params)
    d, m = params["d"], params["m"]
    return _random_set(d, m, seed=10 * d + m, cross=params.get("cross", "all"),
                       lower=params.get("lower", True))


def full_arrays(cs, grid, eps):
    """A, V, B, c of ``cs`` on all points of ``grid`` at once."""
    y = np.mod(grid.points() / eps, 1.0)
    return cs.A(y), cs.V(y), cs.B(y), cs.c(y)


def assert_same_stencil(K, want):
    blocks, offsets = want
    assert K.offsets == offsets
    assert K.blocks.shape == blocks.shape
    assert np.array_equal(K.blocks, blocks, equal_nan=True)


@pytest.mark.parametrize("planes", [None, 1, 4], ids=["default", "one-plane", "four-planes"])
@pytest.mark.parametrize("case", list(CASES.values()), ids=list(CASES))
def test_box_operator_matches_full_tensor_assembly(monkeypatch, case, planes):
    name, params, eps = case
    cs = coefficient_set(name, params)
    grid = BoxGrid(cs.d, SIZES[cs.d])
    if planes is not None:
        monkeypatch.setattr(bvp, "_SLAB_POINTS", planes * grid.shape[0] ** (cs.d - 1),
                            raising=False)
    s = sample_coefficients(cs, grid, eps, LAM)
    A, V, B, c = full_arrays(cs, grid, eps)
    assert_same_stencil(s.stencil, box_stencil_full(A, V, B, c, LAM, grid))
    assert precond_scale(s.A, grid) == precond_scale_full(A, grid)
    adj = s.adjoint()
    At = transpose_a(A)
    assert_same_stencil(adj.stencil, box_stencil_full(
        At, transpose_m(B), transpose_m(V), transpose_m(c), LAM, grid))
    assert precond_scale(adj.A, grid) == precond_scale_full(At, grid)


def test_box_sample_and_assembly_memory():
    """Sampling and assembling the 3D scalar trig box of n = 64 holds the
    blocks the stencil reads, the operator and one slab's evaluation, and
    never calls V, B or c of a set without lower-order terms.

    The bound on the traced peak, in float64 words, with P = 65^3 points,
    N = 63^3 interior points and s the points of one slab (7 planes of
    65^2), d = 3 and m = 1:

    - the diagonal blocks a_ii: d P;
    - the stencil's entries, one block per offset of the 7-point stencil on
      the padded lattice, which is the box's: 7 P;
    - the product's padded copy of x: P;
    - the stencil's row-sized arrays alive at once (the centre block, the
      two blocks of one axis and one temporary): 4 N;
    - one slab's evaluation: its points (d), the full tensor A (d^2 m^2) and
      16 words a point for the family's temporaries: s (d + d^2 + 16).

    The stencil holds no boundary numbering, index array or separate
    boundary coupling.  The terms of sampling and assembly are added,
    although the two phases do not overlap.  The bound, about 4.85 M words,
    is below the 5.12 M of the split assembly's (diagonals 7 N, the boundary
    numbering P + N and 48 (n - 1)^2 words of boundary triplets in place of
    the 8 P above).  A sample of the full tensor with V, B and c held 16 P
    words before the assembly began."""
    import tracemalloc

    cs = builtin_family("trig", d=3)
    called = []
    for name in ("V", "B", "c"):
        setattr(cs, name, lambda y, name=name: called.append(name))
    grid = BoxGrid(3, 64)
    n, d = grid.n, grid.d
    P, N = (n + 1) ** 3, (n - 1) ** 3
    s = (bvp._SLAB_POINTS // (n + 1) ** 2) * (n + 1) ** 2
    bound = 8 * (d * P + 7 * P + P + 4 * N + s * (d + d * d + 16))
    tracemalloc.start()
    try:
        samples = sample_coefficients(cs, grid, 1 / 4, 0.0)
        samples.stencil
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert called == []
    assert peak < bound, (peak, bound)
