"""Two-projection canonical form, strong disjointness, orthogonalizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import projlat as pl
from projlat import AlgebraShape, Element, Projection


S2 = AlgebraShape([2])
HALF = np.full((2, 2), 0.5)


def pair_45():
    p = Projection.from_basis(S2, [np.array([[1.0], [0.0]])])
    q = Projection.from_basis(S2, [np.array([[1.0], [1.0]]) / np.sqrt(2)])
    return p, q


def test_frozen_45_degrees():
    p, q = pair_45()
    dec = pl.halmos_decompose(p, q)
    # all four corners vanish, e1 = p, e2 = 1 - p
    assert dec.p_and_q.rank() == 0
    assert dec.p_and_qc.rank() == 0
    assert dec.pc_and_q.rank() == 0
    assert dec.pc_and_qc.rank() == 0
    assert pl.distance(dec.e1, p) < 1e-12
    assert pl.distance(dec.e2, p.complement()) < 1e-12
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(dec.a.data[0], np.diag([inv_sqrt2, 0.0]), atol=1e-12)
    np.testing.assert_allclose(dec.b.data[0], np.diag([inv_sqrt2, 0.0]), atol=1e-12)
    np.testing.assert_allclose(
        np.abs(dec.v.data[0]), np.array([[0.0, 1.0], [0.0, 0.0]]), atol=1e-12
    )
    np.testing.assert_allclose(dec.angles[0], [np.pi / 4], atol=1e-12)
    p2, q2 = pl.reconstruct(dec)
    assert pl.distance(p, p2) < 1e-12
    assert pl.distance(q, q2) < 1e-12


def test_angles_recovered():
    shape = AlgebraShape([6])
    rng = np.random.default_rng(5)
    want = [np.array([1e-6, 0.2, 1.1])]
    p, q = pl.random_pair_with_angles(shape, rng, want)
    dec = pl.halmos_decompose(p, q)
    np.testing.assert_allclose(dec.angles[0], want[0], rtol=1e-3, atol=1e-9)


def test_commuting_pair_has_empty_generic_part(rng):
    shape = AlgebraShape([4])
    p = Projection.from_basis(shape, [np.eye(4)[:, :2]])
    q = Projection.from_basis(shape, [np.eye(4)[:, 1:3]])
    dec = pl.halmos_decompose(p, q)
    assert dec.p_and_q.ranks == (1,)
    assert dec.pc_and_qc.ranks == (1,)
    assert dec.e1.rank() == 0
    assert dec.angles[0].size == 0
    p2, q2 = pl.reconstruct(dec)
    assert max(pl.distance(p, p2), pl.distance(q, q2)) < 1e-12


def test_equal_and_orthogonal_pairs(rng):
    shape = AlgebraShape([3])
    p = pl.random_projection(shape, rng, ranks=[1])
    for other in (p, p.complement()):
        dec = pl.halmos_decompose(p, other)
        p2, q2 = pl.reconstruct(dec)
        assert pl.distance(p, p2) < 1e-10
        assert pl.distance(other, q2) < 1e-10


@pytest.mark.parametrize("blocks", [[4], [2, 3], [6]])
def test_roundtrip_random(blocks, rng):
    shape = AlgebraShape(blocks)
    for _ in range(30):
        p = pl.random_projection(shape, rng)
        q = pl.random_projection(shape, rng)
        dec = pl.halmos_decompose(p, q)
        p2, q2 = pl.reconstruct(dec)
        assert max(pl.distance(p, p2), pl.distance(q, q2)) < 1e-8


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_roundtrip_property(seed):
    rng = np.random.default_rng(seed)
    shape = AlgebraShape([5])
    p = pl.random_projection(shape, rng)
    q = pl.random_projection(shape, rng)
    dec = pl.halmos_decompose(p, q)
    p2, q2 = pl.reconstruct(dec)
    assert max(pl.distance(p, p2), pl.distance(q, q2)) < 1e-8


def test_ls_orthogonal_iff_rank_additive(rng):
    shape = AlgebraShape([2, 3])
    for _ in range(40):
        p, q = pl.random_pair_with_trivial_meet(shape, rng)
        direct = pl.ls_orthogonal(p, q)
        additive = pl.join(p, q).ranks == tuple(
            a + b for a, b in zip(p.ranks, q.ranks)
        )
        assert direct == additive
        assert pl.ls_char_minimal_cover(p, q, trials=4) == direct


@pytest.mark.parametrize("angle", [1e-8, 5e-9, 3e-9])
def test_ls_orthogonal_and_rank_additivity_agree_at_tiny_angles(angle):
    # sines this small are below what sqrt(1 - cos^2) resolves; the pair
    # is still LS-orthogonal, and its join is still rank-additive
    for blocks in ([2, 3], [3], [6]):
        shape = AlgebraShape(blocks)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            p, q = pl.random_pair_with_angles(shape, rng, [[angle]] * len(blocks))
            additive = pl.join(p, q).ranks == tuple(
                a + b for a, b in zip(p.ranks, q.ranks)
            )
            assert pl.ls_orthogonal(p, q) == additive, (blocks, seed)
            assert additive, (blocks, seed)


@pytest.mark.parametrize("seed", [13, 16])
def test_an_angle_at_the_rank_cutoff_is_a_named_refusal(seed):
    # the four corner meets disagree about an angle of 1e-9, so the
    # generic parts of p and of its complement differ in rank
    rng = np.random.default_rng(seed)
    p, q = pl.random_pair_with_angles(AlgebraShape([3]), rng, [[1e-9]])
    with pytest.raises(pl.PreconditionViolated, match="block 0"):
        pl.halmos_decompose(p, q)
    with pytest.raises(pl.NotLSOrthogonal, match="block 0"):
        pl.orthogonalizer(p, q)


def test_ls_orthogonal_fails_on_overlap(rng):
    shape = AlgebraShape([3])
    p = pl.random_projection(shape, rng, ranks=[2])
    assert not pl.ls_orthogonal(p, p)
    with pytest.raises(pl.PreconditionViolated):
        pl.ls_char_minimal_cover(p, p)


def test_orthogonalizer_frozen():
    p, q = pair_45()
    s = pl.orthogonalizer(p, q)
    np.testing.assert_allclose(
        s.data[0], np.array([[1.0, -1.0], [0.0, np.sqrt(2.0)]]), atol=1e-12
    )


def test_orthogonalizer_identities(rng):
    shape = AlgebraShape([2, 3])
    for _ in range(20):
        p, q = pl.random_pair_with_trivial_meet(shape, rng)
        s = pl.orthogonalizer(p, q)
        s_inv = pl.invert(s)
        gate = 1e-8 * max(1.0, pl.cond(s))
        top = pl.join(p, q)
        topc = top.complement()
        assert pl.distance(s * p.element, p.element) <= gate
        assert pl.distance(s * topc.element, topc.element) <= gate
        assert pl.distance(topc.element * s, topc.element) <= gate
        moved = pl.left_support(s * q.element * s_inv)
        assert pl.distance(moved, pl.canonicalize(top.element - p.element)) <= gate


def test_orthogonalizer_rejects_overlap(rng):
    shape = AlgebraShape([3])
    p = pl.random_projection(shape, rng, ranks=[2])
    with pytest.raises(pl.NotLSOrthogonal):
        pl.orthogonalizer(p, p)


def test_corner_witness_frozen():
    p = Projection.from_basis(S2, [np.array([[1.0], [0.0]])])
    q = p.complement()
    x = Element(S2, [np.array([[0.0, 0.5], [0.0, 0.0]])])
    e = pl.corner_witness_projection(x, p, q)
    np.testing.assert_allclose(e.element.data[0], HALF, atol=1e-12)


def test_corner_witness_postconditions(rng):
    shape = AlgebraShape([5])
    u = pl.random_unitary(shape, rng)
    p = Projection.from_basis(shape, [u.data[0][:, :2]])
    q = Projection.from_basis(shape, [u.data[0][:, 2:4]])
    x = p.element * pl.random_element(shape, rng) * q.element
    x = (0.4 / x.norm()) * x
    e = pl.corner_witness_projection(x, p, q)
    assert pl.distance(p.element * e.element * q.element, x) < 1e-10
    assert pl.leq(e, pl.join(p, q))


def test_corner_witness_preconditions(rng):
    shape = AlgebraShape([4])
    u = pl.random_unitary(shape, rng)
    p = Projection.from_basis(shape, [u.data[0][:, :2]])
    q = Projection.from_basis(shape, [u.data[0][:, 2:4]])
    big = p.element * pl.random_element(shape, rng) * q.element
    big = (0.9 / big.norm()) * big
    with pytest.raises(pl.PreconditionViolated):
        pl.corner_witness_projection(big, p, q)
    with pytest.raises(pl.PreconditionViolated):
        pl.corner_witness_projection(0.1 * big, p, p)
