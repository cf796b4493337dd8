import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import projlat as pl
from projlat import AlgebraShape, Element, Projection


def test_canonicalize_exact():
    shape = AlgebraShape([2])
    p = pl.canonicalize(Element(shape, [np.diag([1.0, 0.0])]))
    assert p.ranks == (1,)


def test_canonicalize_forbidden_band():
    shape = AlgebraShape([2])
    with pytest.raises(pl.NotAProjection):
        pl.canonicalize(Element(shape, [np.diag([0.5, 1.0])]))
    with pytest.raises(pl.NotAProjection):
        pl.canonicalize(Element(shape, [np.array([[0.0, 1.0], [0.0, 0.0]])]))


def test_leq_basics(shape, rng):
    p = pl.random_projection(shape, rng)
    assert pl.leq(Projection.zero(shape), p)
    assert pl.leq(p, Projection.identity(shape))
    assert pl.leq(p, p)


def test_meet_join_commute(shape, rng):
    p, q = pl.random_overlapping_pair(shape, rng)
    assert pl.distance(pl.meet(p, q), pl.meet(q, p)) < 1e-10
    assert pl.distance(pl.join(p, q), pl.join(q, p)) < 1e-10


def test_meet_rank_asymmetry(rng):
    # regression: rank(p) > rank(q) once crashed meet
    shape = AlgebraShape([3])
    p = Projection.identity(shape)
    q = pl.random_projection(shape, rng, ranks=[1])
    m = pl.meet(p, q)
    assert m.ranks == (1,)
    assert pl.distance(m, q) < 1e-10


def test_absorption(shape, rng):
    p, q = pl.random_overlapping_pair(shape, rng)
    assert pl.distance(pl.meet(p, pl.join(p, q)), p) < 1e-10
    assert pl.distance(pl.join(p, pl.meet(p, q)), p) < 1e-10


def test_de_morgan(shape, rng):
    p, q = pl.random_overlapping_pair(shape, rng)
    lhs = pl.join(p, q).complement()
    rhs = pl.meet(p.complement(), q.complement())
    assert pl.distance(lhs, rhs) < 1e-10


def test_dimension_formula(shape, rng):
    p, q = pl.random_overlapping_pair(shape, rng)
    m, j = pl.meet(p, q), pl.join(p, q)
    for rm, rj, rp, rq in zip(m.ranks, j.ranks, p.ranks, q.ranks):
        assert rm + rj == rp + rq


def test_meet_resolves_tiny_angles():
    # a pair at principal angle 1e-6 has trivial meet; the sine test
    # must not confuse the angle with an intersection.  RANK_REL = 1e-9
    # is the cut: 1e-8 is still an angle, 1e-10 a shared direction
    shape = AlgebraShape([4])
    rng = np.random.default_rng(0)
    p, q = pl.random_pair_with_angles(shape, rng, [[1e-6, 0.4]])
    assert pl.meet(p, q).rank() == 0
    for angle, rank in ((1e-8, 0), (1e-10, 1)):
        p, q = pl.random_pair_with_angles(shape, rng, [[angle, 0.4]])
        assert pl.meet(p, q).rank() == rank
    # and an honest shared direction still shows up
    shared = Projection.from_basis(shape, [p.basis[0][:, :1]])
    q2 = pl.join(q, shared)
    assert pl.meet(pl.join(p, shared), q2).rank() >= 1


@pytest.mark.parametrize("blocks", [[3], [2, 3], [3, 6, 3]])
def test_meet_matches_the_null_space_reference(blocks):
    # per block, range(p) ∩ range(q) is U_p a over the null space (a, b)
    # of [U_p, -U_q]; pairs of unequal rank included
    shape = AlgebraShape(blocks)
    rng = np.random.default_rng(19)
    for _ in range(60):
        p, q = pl.random_overlapping_pair(shape, rng)
        m = pl.meet(p, q)
        for up, uq, mb, r in zip(p.basis, q.basis, m.element.data, m.ranks):
            _, s, vh = np.linalg.svd(np.hstack([up, -uq]))
            null = vh[np.count_nonzero(s > 1e-9) :].conj().T
            assert r == null.shape[1]
            w, _ = np.linalg.qr(up @ null[: up.shape[1]])
            assert np.linalg.norm(mb - w @ w.conj().T, 2) <= 1e-10
        assert pl.leq(m, p) and pl.leq(m, q)


def test_mv_equivalent(rng):
    shape = AlgebraShape([2, 3])
    p = pl.random_projection(shape, rng, ranks=[1, 2])
    q = pl.random_projection(shape, rng, ranks=[1, 2])
    v = pl.mv_equivalent(p, q)
    assert v is not None
    assert pl.distance(v * v.adjoint(), p.element) < 1e-10
    assert pl.distance(v.adjoint() * v, q.element) < 1e-10
    r = pl.random_projection(shape, rng, ranks=[2, 2])
    assert pl.mv_equivalent(p, r) is None


def test_central_support(rng):
    shape = AlgebraShape([2, 3])
    p = pl.random_projection(shape, rng, ranks=[1, 0])
    z = pl.central_support(p)
    assert z.ranks == (2, 0)
    assert pl.is_central_projection(z)
    assert not pl.is_central_projection(p)
    assert pl.leq(p, z)


@pytest.mark.parametrize("blocks", [[3], [2, 3]])
def test_principal_ideal_vs_lstsq(blocks, rng):
    shape = AlgebraShape(blocks)
    for k in range(60):
        p = pl.random_projection(shape, rng)
        a = p.element * pl.random_element(shape, rng)
        if k % 2 == 0:
            x = a * pl.random_element(shape, rng)
        else:
            x = a * pl.random_element(shape, rng) + p.complement().element * pl.random_element(shape, rng)
        oracle = True
        for ab, xb in zip(a.data, x.data):
            sol, *_ = np.linalg.lstsq(ab, xb, rcond=None)
            if np.linalg.norm(ab @ sol - xb, 2) > 1e-8 * max(1.0, np.linalg.norm(xb, 2)):
                oracle = False
        assert pl.principal_ideal_leq(x, a) == oracle


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_order_consistency(seed):
    rng = np.random.default_rng(seed)
    shape = AlgebraShape([2, 3])
    p, q = pl.random_overlapping_pair(shape, rng)
    assert pl.leq(pl.meet(p, q), p)
    assert pl.leq(p, pl.join(p, q))
    if pl.leq(p, q):
        assert pl.distance(pl.meet(p, q), p) < 1e-9
        assert pl.distance(pl.join(p, q), q) < 1e-9


def test_overlapping_pairs_share_subspaces():
    shape = AlgebraShape([3, 4])
    rng = np.random.default_rng(5)
    shared = 0
    for _ in range(20):
        p, q = pl.random_overlapping_pair(shape, rng)
        m, j = pl.meet(p, q), pl.join(p, q)
        assert all(a + b == c + d for a, b, c, d in zip(m.ranks, j.ranks, p.ranks, q.ranks))
        shared += m.rank()
    assert shared > 0
