"""Self-adjoint operators in mirrored storage against the same operators
stored in full, bit for bit, zero signs included: ``@`` and ``lift`` on
boxes, ``@`` on tori, for d = 1..3 and m = 1..3.

A stencil whose blocks are exactly symmetric and that has no lower-order
terms stores the centre and the first member of each offset pair +-s, and
reads the other member from it (``grid.Stencil``).  Full storage of the
same operator is forced here by patching ``grid._self_adjoint``, so that
both sides come from the one assembler.  Which operators are mirrored is
pinned too: the cases above, and the operators of every benchmark
workload; sets that are not symmetric, have lower-order terms or hold a
NaN keep every offset."""

import os
import sys

import numpy as np
import pytest

import homogkit.bvp as bvp
import homogkit.grid as grid
from homogkit.bvp import sample_coefficients
from homogkit import cli
from homogkit.coefficients import CoefficientSet, builtin_family, transpose_a
from homogkit.grid import BoxGrid, TorusGrid, assemble, coefficient_blocks

from test_assembly import same_values
from test_assembly_offsets import same_bits
from test_box_products import draw
from test_box_samples import SIZES, _random_set

# the symmetric built-in families of tests/test_box_samples.py, and a random
# principal part made symmetric, with every cross pair coupled
SYMMETRIC = [("constant", dict(a0=1.5)), ("laminate", {}), ("laminate-step", {}),
             ("trig", {}), ("symmetric-random", {})]


def symmetric_set(d, m, nan=False):
    """The random principal set of tests/test_box_samples.py with A
    replaced by (A + A^T) / 2, A^T of a_ij^{ab} being a_ji^{ba}; both sums
    add the same two values, so the blocks are symmetric bit for bit.
    ``nan`` puts a NaN into a_01^{00} and a_10^{00} at y_0 = 0."""
    random = _random_set(d, m, seed=10 * d + m, lower=False).A

    def A(y):
        a = random(y)
        out = 0.5 * (a + transpose_a(a))
        if nan:
            out[y[..., 0] == 0.0, 0, 1, 0, 0] = np.nan
            out[y[..., 0] == 0.0, 1, 0, 0, 0] = np.nan
        return out
    return CoefficientSet(d=d, m=m, A=A, mu=1.0, kappa=1.0, name="symmetric-random")


def family(name, params, d, m):
    if name == "symmetric-random":
        return symmetric_set(d, m, **params)
    return builtin_family(name, **params, d=d, m=m)


def mirrored(K) -> bool:
    """Whether ``K`` stores the centre and the first member of each pair
    +-s of its offsets alone, and otherwise whether it stores them all."""
    if K.stored == K.offsets:
        return False
    assert K.stored == [s for s in K.offsets if s >= tuple(-k for k in s)]
    assert K.blocks.shape[1] == (len(K.offsets) + 1) // 2
    return True


def full_storage(monkeypatch, build):
    """What ``build()`` assembles with every offset stored."""
    with monkeypatch.context() as mp:
        mp.setattr(grid, "_self_adjoint", lambda A: False, raising=False)
        return build()


def box_cases():
    for d in (1, 2, 3):
        for m in (1, 2, 3):
            for name, params in SYMMETRIC:
                yield f"{name}-d{d}-m{m}", (name, params, d, m, SIZES[d])
    # more rows than one block of the product: 199^2 and 33^3 rows
    yield "trig-d2-m1-n200", ("trig", {}, 2, 1, 200)
    yield "symmetric-random-d3-m1-n34", ("symmetric-random", {}, 3, 1, 34)


BOX_CASES = dict(box_cases())


def check_box_products(monkeypatch, s):
    rng = np.random.Generator(np.random.PCG64(31))
    g = s.grid
    for t in (s, s.adjoint()):
        K = t.stencil
        F = full_storage(monkeypatch, lambda: assemble(t.A, g, t.V, t.B, t.c, t.lam))
        assert mirrored(K) and not mirrored(F)
        for _ in range(2):
            x = draw(rng, (K.shape[1],))
            assert same_bits(K @ x, F @ x)
            u = draw(rng, g.shape + (s.m,))
            assert same_bits(K.lift(u), F.lift(u))
        zero = -np.zeros(g.shape + (s.m,))
        assert same_bits(K.lift(zero), F.lift(zero))
        assert same_bits(K @ zero[g.interior].ravel(), F @ zero[g.interior].ravel())


@pytest.mark.parametrize("planes", [None, 1], ids=["default", "one-plane"])
@pytest.mark.parametrize("case", list(BOX_CASES.values()), ids=list(BOX_CASES))
def test_box_products_match_full_storage(monkeypatch, case, planes):
    name, params, d, m, n = case
    g = BoxGrid(d, n)
    if planes is not None:
        monkeypatch.setattr(bvp, "_SLAB_POINTS", planes * g.shape[0] ** (d - 1))
    check_box_products(monkeypatch, sample_coefficients(family(name, params, d, m), g,
                                                        1 / 4, 0.7))


TORUS_CASES = [(name, params, d, n, m) for name, params in SYMMETRIC
               for d, n in ((1, 4), (1, 17), (2, 5), (2, 17), (3, 4), (3, 9))
               for m in (1, 2, 3)]
TORUS_IDS = [f"{name}-d{d}-n{n}-m{m}" for name, _, d, n, m in TORUS_CASES]


@pytest.mark.parametrize("name,params,d,n,m", TORUS_CASES, ids=TORUS_IDS)
def test_torus_products_match_full_storage(monkeypatch, name, params, d, n, m):
    """On a vector with signed zeros, on one of signed zeros alone, and on
    one with infinities and a NaN, which must reach the same entries."""
    g = TorusGrid(d, n)
    blocks = coefficient_blocks(family(name, params, d, m).A(g.points()))
    K = assemble(blocks, g)
    F = full_storage(monkeypatch, lambda: assemble(blocks, g))
    assert mirrored(K) and not mirrored(F)
    rng = np.random.Generator(np.random.PCG64(37))
    u = draw(rng, (K.shape[1],))
    zeros = np.copysign(0.0, rng.standard_normal(K.shape[1]))
    wild = u.copy()
    wild[rng.choice(wild.size, 3, replace=False)] = [np.inf, -np.inf, np.nan]
    for x in (u, zeros, wild):
        with np.errstate(invalid="ignore"):
            assert same_values(K @ x, F @ x)


def full_cases():
    for d in (1, 2, 3):
        for m in (1, 2):
            if d * m > 1:   # a scalar 1D principal part is symmetric
                yield f"random-principal-d{d}-m{m}", ("random", dict(lower=False), d, m)
            yield f"random-d{d}-m{m}", ("random", {}, d, m)
            yield f"constant-lower-d{d}-m{m}", ("constant", dict(a0=1.5, v0=0.3, b0=-0.2,
                                                                 c0=0.1), d, m)
            yield f"trig-lower-d{d}-m{m}", ("trig", dict(lower=0.4), d, m)
            yield (f"oscillating-potential-d{d}-m{m}",
                   ("oscillating-potential", dict(amp=0.8), d, m))
            if d > 1:
                yield f"symmetric-random-nan-d{d}-m{m}", ("symmetric-random", dict(nan=True),
                                                          d, m)
        yield f"nonsymmetric-system-d{d}", ("nonsymmetric-system", {}, d, None)


FULL_CASES = dict(full_cases())


@pytest.mark.parametrize("case", list(FULL_CASES.values()), ids=list(FULL_CASES))
def test_other_operators_keep_full_storage(case):
    """Sets that are not symmetric (the random principal set, the
    nonsymmetric system), sets with V, B or c, and a symmetric set with a
    NaN in a_01 and a_10 store every offset, on the box (forward and
    adjoint) and, for the principal part, on the torus."""
    name, params, d, m = case
    if name == "random":
        cs = _random_set(d, m, seed=10 * d + m, **params)
    elif m is None:
        cs = builtin_family(name, d=d)
    else:
        cs = family(name, params, d, m)
    s = sample_coefficients(cs, BoxGrid(d, SIZES[d]), 1 / 4, 0.7)
    assert not mirrored(s.stencil) and not mirrored(s.adjoint().stencil)
    if not cs.lower_order:
        g = TorusGrid(d, SIZES[d])
        assert not mirrored(assemble(coefficient_blocks(cs.A(g.points())), g))


# The storage of each workload's operators, by the homogkit function that
# assembles them: the cell correctors on the torus (``solve_correctors``),
# the Dirichlet correctors (``solve_dirichlet_correctors``), the Green
# columns (``approx_green``), the maximal-function battery
# (``maximal_function_probe``) and the sweep's homogenized and u_eps
# operators (``run_sweep``), which have lower-order terms.  The systems
# family is skew, so none of its operators is mirrored.
WORKLOAD_STORAGE = {
    "sweep": {"solve_correctors": {True}, "solve_dirichlet_correctors": {True},
              "run_sweep": {False}},
    "maximal": {"approx_green": {True}, "maximal_function_probe": {True}},
    "systems": {"solve_correctors": {False}, "solve_dirichlet_correctors": {False}},
    "green3d": {"approx_green": {True}},
}
CALLERS = {"homogkit.cell", "homogkit.dirichlet", "homogkit.green", "homogkit.rates"}


@pytest.mark.parametrize("workload", list(WORKLOAD_STORAGE))
def test_workload_operators_take_the_predicted_storage(monkeypatch, tmp_path, workload):
    """The benchmark's configs at their tiny scale (same families and
    parameters, smaller grids), run in this process with every stencil the
    assembler builds recorded under the function that asked for it."""
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench"))
    import workloads

    seen = {}

    class Recorded(grid.Stencil):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            frame = sys._getframe(1)
            while (frame.f_globals.get("__name__") not in CALLERS
                   or frame.f_code.co_name.startswith("<")):
                frame = frame.f_back
            seen.setdefault(frame.f_code.co_name, set()).add(mirrored(self))

    monkeypatch.setattr(grid, "Stencil", Recorded)
    for i, text in enumerate(workloads.configs(workload, 0, "tiny")):
        cli.run(cli.parse_config(text), str(tmp_path / str(i)))
    assert seen == WORKLOAD_STORAGE[workload]
