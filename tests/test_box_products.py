"""The box operator's products against scipy's sparse products on the same
stored arrays, bit for bit, signs of zeros included: K_ii @ x against
``scipy.sparse.dia_array((data, offsets))`` and K_ib @ u_b against a
``csr_array`` built from the (row, column, value) triplets
(``oracles.scipy_interior``, ``oracles.scipy_boundary``)."""

import numpy as np
import pytest

from homogkit.bvp import CoefficientSamples
from homogkit.grid import _ROW_BLOCK
from oracles import scipy_boundary, scipy_interior

from test_assembly import CASES, IDS, box_samples
from test_assembly_offsets import PARTIAL_CASES, PARTIAL_IDS, partial_box_samples, same_bits


def draw(rng, size: int) -> np.ndarray:
    """Standard normal values with some exact +0.0 and -0.0 among them."""
    x = rng.standard_normal(size)
    x[::7] = 0.0
    x[3::11] = -0.0
    return x


def check_products(s: CoefficientSamples):
    rng = np.random.Generator(np.random.PCG64(23))
    for t in (s, s.adjoint()):
        K_ii, K_ib = t.matrices
        dia, csr = scipy_interior(K_ii), scipy_boundary(K_ib)
        # stored in CSR order: by row, then by column within the row
        assert np.array_equal(np.lexsort((K_ib.cols, K_ib.rows)), np.arange(K_ib.rows.size))
        for _ in range(2):
            x = draw(rng, K_ii.shape[1])
            assert same_bits(K_ii @ x, dia @ x)
            ub = draw(rng, K_ib.shape[1])
            assert same_bits(K_ib @ ub, csr @ ub)
        # rows without boundary neighbours and zero data give +0.0, as in scipy
        zero = -np.zeros(K_ib.shape[1])
        assert same_bits(K_ib @ zero, csr @ zero)


@pytest.mark.parametrize("n", [None, 13], ids=["sizes", "n13"])
@pytest.mark.parametrize("name,params", CASES, ids=IDS)
def test_box_products_match_scipy(name, params, n):
    check_products(box_samples(name, params, lam=0.3, n=n))


@pytest.mark.parametrize("entry,m", PARTIAL_CASES, ids=PARTIAL_IDS)
def test_partially_coupled_box_products_match_scipy(entry, m):
    check_products(partial_box_samples(entry, m))


# grids with more rows than one block of the K_ii product, so that its
# block seams are crossed: 199^2, 129^2 x 2 and 33^3 x 1 rows
LARGE = [("trig", dict(d=2), 200), ("nonsymmetric-system", dict(d=2, delta=0.3), 130),
         ("random", dict(d=3, m=1), 34)]


@pytest.mark.parametrize("name,params,n", LARGE, ids=[f"{c[0]}-d{c[1]['d']}" for c in LARGE])
def test_box_products_match_scipy_across_row_blocks(name, params, n):
    s = box_samples(name, params, n=n)
    assert s.matrices[0].shape[0] > _ROW_BLOCK
    check_products(s)
