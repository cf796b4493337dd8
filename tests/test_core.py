import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import projlat as pl
from projlat import AlgebraShape, Element, Projection


def test_shape_parse():
    assert AlgebraShape.parse("3").blocks == (3,)
    assert AlgebraShape.parse("2,3").blocks == (2, 3)
    assert AlgebraShape.parse(" 4 , 1 ").blocks == (4, 1)
    assert AlgebraShape([2, 3]).total_dim == 5


@pytest.mark.parametrize("bad", ["", "0", "-1", "a", "3;3"])
def test_shape_parse_rejects(bad):
    with pytest.raises(ValueError):
        AlgebraShape.parse(bad)


def test_element_arithmetic(shape, rng):
    x = pl.random_element(shape, rng)
    y = pl.random_element(shape, rng)
    assert pl.distance((x + y) - y, x) < 1e-12
    assert pl.distance(2.0 * x, x + x) < 1e-12
    assert pl.distance((x * y).adjoint(), y.adjoint() * x.adjoint()) < 1e-12
    assert pl.distance(x.conj().conj(), x) == 0.0
    # transpose is conjugate of adjoint
    assert pl.distance(x.transpose(), x.adjoint().conj()) == 0.0


def test_element_shape_mismatch():
    x = Element.identity(AlgebraShape([2]))
    y = Element.identity(AlgebraShape([3]))
    with pytest.raises(pl.ShapeMismatch):
        x + y
    with pytest.raises(pl.ShapeMismatch):
        Element(AlgebraShape([2, 2]), [np.eye(2)])


def test_is_zero_reads_the_entries():
    shape = AlgebraShape([3, 2, 3])
    assert Element.zeros(shape).is_zero()
    blocks = [np.zeros((n, n)) for n in shape.blocks]
    blocks[1][0, 1] = 5e-324
    assert not Element(shape, blocks).is_zero()
    rng = np.random.default_rng(17)
    for _ in range(50):
        x = pl.random_element(shape, rng)
        keep = rng.integers(0, 2, size=len(shape.blocks))
        y = Element(shape, [a * k for a, k in zip(x.data, keep)])
        assert y.is_zero() == (y.norm() == 0.0)


def test_projection_from_basis():
    shape = AlgebraShape([2])
    p = Projection.from_basis(shape, [np.eye(2)[:, :1]])
    assert p.ranks == (1,)
    assert pl.distance(p.element * p.element, p.element) < 1e-14
    with pytest.raises(pl.ShapeMismatch):
        Projection.from_basis(shape, [np.eye(3)[:, :1]])


def test_complement(shape, rng):
    p = pl.random_projection(shape, rng)
    pc = p.complement()
    assert pl.distance(p.element + pc.element, Element.identity(shape)) < 1e-12
    assert (p.element * pc.element).norm() < 1e-12
    assert pc.ranks == tuple(n - r for n, r in zip(shape.blocks, p.ranks))


def test_supports(shape, rng):
    p = pl.random_projection(shape, rng)
    x = p.element * pl.random_element(shape, rng)
    l = pl.left_support(x)
    assert pl.distance(l.element * x, x) < 1e-10
    assert pl.leq(l, p)
    r = pl.right_support(x)
    assert pl.distance(x * r.element, x) < 1e-10


def test_support_ignores_cross_block_roundoff():
    # a block that only carries roundoff from the other blocks must not
    # be promoted to full rank by a blockwise-relative cutoff
    shape = AlgebraShape([2, 2])
    fuzz = np.full((2, 2), 1e-16, dtype=np.complex128)
    x = Element(shape, [fuzz, np.eye(2)])
    assert pl.left_support(x).ranks == (0, 2)
    v, _ = pl.polar_decompose(x)
    assert pl.left_support(v).ranks == (0, 2)


def test_polar(shape, rng):
    x = pl.random_element(shape, rng)
    v, a = pl.polar_decompose(x)
    assert pl.distance(v * a, x) < 1e-10
    assert pl.distance(v * v.adjoint(), pl.left_support(x).element) < 1e-10
    assert pl.distance(v.adjoint() * v, pl.right_support(x).element) < 1e-10
    for b in a.data:
        lam = np.linalg.eigvalsh((b + b.conj().T) / 2)
        assert lam.min() > -1e-12


def test_invert(shape, rng):
    t = pl.random_invertible(shape, rng, cond_max=50.0)
    assert pl.distance(t * pl.invert(t), Element.identity(shape)) < 1e-10
    singular = Element(shape, [np.zeros((n, n)) for n in shape.blocks])
    with pytest.raises(pl.NotInvertible) as err:
        pl.invert(singular)
    assert err.value.block == 0


def test_cond(rng):
    shape = AlgebraShape([3])
    u = pl.random_unitary(shape, rng)
    assert abs(pl.cond(u) - 1.0) < 1e-10
    t = pl.random_invertible(shape, rng, cond_max=100.0)
    assert pl.cond(t) <= 100.0 + 1e-6


def test_center_valued_norm_is_central(shape, rng):
    x = pl.random_element(shape, rng)
    c = pl.center_valued_norm(x)
    assert pl.is_central(c)
    # blockwise it is the operator norm
    for cb, xb in zip(c.data, x.data):
        assert abs(cb[0, 0].real - np.linalg.norm(xb, 2)) < 1e-12


def test_is_central(rng):
    shape = AlgebraShape([2, 3])
    a = Element.from_scalars(shape, [1.5, -2j])
    assert pl.is_central(a)
    assert not pl.is_central(pl.random_element(shape, rng))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_adjoint_is_isometric(seed):
    rng = np.random.default_rng(seed)
    shape = AlgebraShape([2, 3])
    x = pl.random_element(shape, rng)
    assert abs(x.adjoint().norm() - x.norm()) < 1e-12
    assert pl.distance(x.adjoint().adjoint(), x) == 0.0
