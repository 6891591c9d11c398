"""The box operator's products against the split assembly held as scipy
arrays (``oracles.assemble_box_full``), bit for bit, signs of zeros
included: ``apply_interior`` against K_ii as a ``dia_array`` and ``lift``
against K_ib as a ``csr_array`` on the boundary values."""

import numpy as np
import pytest

from homogkit.bvp import CoefficientSamples
from oracles import assemble_box_full, sample_arrays

from test_assembly import CASES, IDS, box_samples
from test_assembly_offsets import PARTIAL_CASES, PARTIAL_IDS, partial_box_samples, same_bits


def draw(rng, shape) -> np.ndarray:
    """Standard normal values with some exact +0.0 and -0.0 among them."""
    x = rng.standard_normal(shape).ravel()
    x[::7] = 0.0
    x[3::11] = -0.0
    return x.reshape(shape)


def check_products(s: CoefficientSamples):
    rng = np.random.Generator(np.random.PCG64(23))
    g = s.grid
    inner, bmask = (g.n - 1,) * g.d + (s.m,), g.boundary_mask()
    for t in (s, s.adjoint()):
        # the steps run in column order, the order of a CSR row's entries
        K = t.stencil
        cols = [s.m * sum(sk * (g.n + 1) ** (g.d - 1 - ax) for ax, sk in enumerate(K.offsets[k]))
                + b for b, k in K.order]
        assert cols == sorted(cols)
        K_ii, K_ib = assemble_box_full(*sample_arrays(t), t.lam, g)
        for _ in range(2):
            x = draw(rng, inner)
            assert same_bits(t.apply_interior(x).ravel(), K_ii @ x.ravel())
            # the lifting reads the boundary values of a full field only
            u = draw(rng, g.shape + (s.m,))
            assert same_bits(t.lift(u).ravel(), K_ib @ u[bmask].ravel())
        # rows without boundary neighbours and zero data give +0.0, as in scipy
        zero = -np.zeros(g.shape + (s.m,))
        assert same_bits(t.lift(zero).ravel(), K_ib @ zero[bmask].ravel())
        assert same_bits(t.apply_interior(zero[g.interior]).ravel(),
                         K_ii @ zero[g.interior].ravel())


@pytest.mark.parametrize("n", [None, 13], ids=["sizes", "n13"])
@pytest.mark.parametrize("name,params", CASES, ids=IDS)
def test_box_products_match_scipy(name, params, n):
    check_products(box_samples(name, params, lam=0.3, n=n))


@pytest.mark.parametrize("entry,m", PARTIAL_CASES, ids=PARTIAL_IDS)
def test_partially_coupled_box_products_match_scipy(entry, m):
    check_products(partial_box_samples(entry, m))


# grids with more rows than one block of the stencil product, so that its
# block seams are crossed: 199^2, 129^2 x 2 and 33^3 x 1 rows
LARGE = [("trig", dict(d=2), 200), ("nonsymmetric-system", dict(d=2, delta=0.3), 130),
         ("random", dict(d=3, m=1), 34)]


@pytest.mark.parametrize("name,params,n", LARGE, ids=[f"{c[0]}-d{c[1]['d']}" for c in LARGE])
def test_box_products_match_scipy_across_row_blocks(name, params, n):
    s = box_samples(name, params, n=n)
    assert len(s.stencil._blocks) > 1
    check_products(s)
