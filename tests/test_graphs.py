"""Graph projections over an order-3 frame and operator transport."""

import re

import numpy as np
import pytest

import projlat as pl
from projlat import AlgebraShape, Element, Projection, ThreeFrame
from projlat.coordinatize import _CornerMap


S3 = AlgebraShape([3])


def conjugated_frame(shape, seed):
    rng = np.random.default_rng(seed)
    base = ThreeFrame.standard(shape)
    u = pl.random_unitary(shape, rng)
    ps = [
        Projection.from_basis(shape, [ub @ eb for ub, eb in zip(u.data, p.basis)])
        for p in base.projections
    ]
    w12 = u * base.units[0][1] * u.adjoint()
    w13 = u * base.units[0][2] * u.adjoint()
    return ThreeFrame.from_projections(ps[0], ps[1], ps[2], w12, w13)


def test_standard_frame_structure():
    fr = ThreeFrame.standard(S3)
    np.testing.assert_allclose(fr.e1.element.data[0], np.diag([1.0, 0, 0]), atol=0)
    np.testing.assert_allclose(fr.e2.element.data[0], np.diag([0, 1.0, 0]), atol=0)
    np.testing.assert_allclose(fr.e3.element.data[0], np.diag([0, 0, 1.0]), atol=0)
    assert fr.corner_shape.blocks == (1,)


def test_standard_frame_rejects_bad_sizes():
    with pytest.raises(pl.NotAFrame):
        ThreeFrame.standard(AlgebraShape([4]))
    with pytest.raises(pl.NotAFrame):
        ThreeFrame.standard(AlgebraShape([3, 2]))


def test_frozen_graph_projections():
    fr = ThreeFrame.standard(S3)
    one = Element.identity(fr.corner_shape)
    p1 = pl.graph_projection(fr, one, 12)
    np.testing.assert_allclose(
        p1.element.data[0],
        np.array([[0.5, 0.5, 0], [0.5, 0.5, 0], [0, 0, 0]]),
        atol=1e-14,
    )
    p2 = pl.graph_projection(fr, 2.0 * one, 12)
    np.testing.assert_allclose(
        p2.element.data[0],
        np.array([[0.2, 0.4, 0], [0.4, 0.8, 0], [0, 0, 0]]),
        atol=1e-14,
    )


def test_graph_slots_land_in_right_corners():
    fr = ThreeFrame.standard(S3)
    one = Element.identity(fr.corner_shape)
    # slot 13 graph lives in coordinates 1 and 3
    p13 = pl.graph_projection(fr, one, 13)
    m = p13.element.data[0]
    assert abs(m[1, 1]) < 1e-14 and abs(m[0, 0] - 0.5) < 1e-14


@pytest.mark.parametrize("blocks", [[3], [6], [3, 6]])
def test_product_and_sum_identities(blocks):
    shape = AlgebraShape(blocks)
    fr = ThreeFrame.standard(shape)
    rng = np.random.default_rng(7)
    for _ in range(15):
        x = pl.random_element(fr.corner_shape, rng, norm_bound=10.0)
        y = pl.random_element(fr.corner_shape, rng, norm_bound=10.0)
        prod = pl.lattice_product(fr, x, y)
        assert pl.distance(prod, pl.graph_projection(fr, x * y, 13)) < 1e-7
        tot = pl.lattice_sum(fr, x, y)
        assert pl.distance(tot, pl.graph_projection(fr, x + y, 12)) < 1e-7


def test_transport_invariance():
    # the identities do not care which frame realizes the order-3 structure
    fr = conjugated_frame(AlgebraShape([6]), seed=3)
    rng = np.random.default_rng(8)
    x = pl.random_element(fr.corner_shape, rng, norm_bound=4.0)
    y = pl.random_element(fr.corner_shape, rng, norm_bound=4.0)
    assert pl.distance(
        pl.lattice_product(fr, x, y), pl.graph_projection(fr, x * y, 13)
    ) < 1e-8
    got = pl.recover_operator(fr, pl.graph_projection(fr, x, 12), 12)
    assert pl.distance(got, x) < 1e-8


def test_recover_operator_roundtrip():
    fr = ThreeFrame.standard(AlgebraShape([6]))
    rng = np.random.default_rng(1)
    for slot in (12, 13, 23, 21):
        x = pl.random_element(fr.corner_shape, rng, norm_bound=3.0)
        q = pl.graph_projection(fr, x, slot)
        assert pl.is_slot_graph_projection(fr, q, slot)
        assert pl.distance(pl.recover_operator(fr, q, slot), x) < 1e-9


def test_recover_operator_rejects_non_graphs(rng):
    fr = ThreeFrame.standard(AlgebraShape([6]))
    wrong_rank = pl.random_projection(fr.shape, rng, ranks=[3])
    with pytest.raises(pl.NotAGraphProjection):
        pl.recover_operator(fr, wrong_rank, 12)
    # e2 has the slot rank but is not a slot-12 graph
    with pytest.raises(pl.NotAGraphProjection):
        pl.recover_operator(fr, fr.e2, 12)
    # a projection of another algebra is refused as such, before its ranks
    other = pl.random_projection(AlgebraShape([6, 6]), rng, ranks=[3, 2])
    with pytest.raises(pl.ShapeMismatch):
        pl.recover_operator(fr, other, 12)


def _residuals(p, q, b):
    """Spectral and Frobenius norm of block b of p - q."""
    r = p.element.data[b] - q.element.data[b]
    return np.linalg.norm(r, 2), np.linalg.norm(r)


def _tilted(p, b, target, frobenius):
    """p, a slot-12 graph projection over the standard frame, with the
    range of block b tilted into the third slot until the spectral (or
    Frobenius) residual against p is target.  Its slot-12 ratio is still
    the operator of p, so recovery rebuilds p."""
    u = p.basis[b]
    k = u.shape[1]
    tilt = np.zeros_like(u)
    tilt[2 * k :] = np.random.default_rng(7).standard_normal((k, k))

    def forged(eps):
        bases = list(p.basis)
        bases[b] = np.linalg.qr(u + eps * tilt)[0]
        return Projection.from_basis(p.shape, bases)

    eps = 1e-6
    for _ in range(4):
        eps *= target / _residuals(p, forged(eps), b)[frobenius]
    return forged(eps)


def test_forged_corner_just_above_check_tol_is_refused_by_name(rng):
    shape = AlgebraShape([3, 6, 6])
    fr = ThreeFrame.standard(shape)
    rows = [[pl.random_element(fr.corner_shape, rng) for _ in range(3)] for _ in range(3)]
    p = pl.graph_projection(fr, rows[1][2], 12)
    forged = _tilted(p, 2, 1.05 * pl.CHECK_TOL, frobenius=False)
    calls = []

    def apply(q):
        calls.append(q)
        return forged if len(calls) == 6 else q  # the sixth corner, (1, 2)

    corner_map = _CornerMap(pl.LatticeMap(shape, shape, apply), fr, fr)
    with pytest.raises(pl.NotAGraphProjection) as info:
        corner_map.grid(rows)
    assert info.value.block == 2
    message = re.fullmatch(
        r"corner \(1, 2\): not a slot-12 graph projection \(residual (\S+)\) on block 2",
        str(info.value),
    )
    assert message and abs(float(message.group(1)) - 1.05 * pl.CHECK_TOL) < 1e-9


def test_frobenius_residual_above_half_check_tol_falls_back_to_the_spectral_norm(
    monkeypatch, rng
):
    fr = ThreeFrame.standard(AlgebraShape([3, 6, 6]))
    x = pl.random_element(fr.corner_shape, rng)
    p = pl.graph_projection(fr, x, 12)
    forged = _tilted(p, 2, 0.75 * pl.CHECK_TOL, frobenius=True)
    spectral, frobenius = _residuals(p, forged, 2)
    assert pl.CHECK_TOL / 2 < frobenius <= pl.CHECK_TOL and spectral < frobenius
    svds = []
    svd = pl.graphs._singular_values
    monkeypatch.setattr(pl.graphs, "_singular_values", lambda a: svds.append(a.shape) or svd(a))
    assert pl.distance(pl.recover_operator(fr, forged, 12), x) < 1e-10
    assert svds == [(1, 6, 6)]  # the tilted block, and it alone
    # an exact graph projection passes on the Frobenius bound everywhere
    svds.clear()
    pl.recover_operator(fr, p, 12)
    assert svds == []


def test_graph_projection_rejects_wrong_corner():
    fr = ThreeFrame.standard(S3)
    with pytest.raises(pl.ShapeMismatch):
        pl.graph_projection(fr, Element.identity(AlgebraShape([2])), 12)
    with pytest.raises(ValueError):
        pl.graph_projection(fr, Element.identity(fr.corner_shape), 11)


def test_inverse_coincidence():
    fr = ThreeFrame.standard(AlgebraShape([6]))
    rng = np.random.default_rng(2)
    for _ in range(10):
        u = pl.random_unitary(fr.corner_shape, rng)
        well = u + Element.from_scalars(fr.corner_shape, [2.0])
        assert pl.inverse_coincidence(fr, well)
        # slot-21 recovery of an invertible graph gives the inverse
        q = pl.graph_projection(fr, well, 12)
        back = pl.recover_operator(fr, q, 21)
        assert pl.distance(back, pl.invert(well)) < 1e-9
    singular = Element(fr.corner_shape, [np.diag([1.0, 0.0])])
    assert not pl.inverse_coincidence(fr, singular)
    assert not pl.inverse_coincidence(fr, Element.zeros(fr.corner_shape))


def test_frame_from_projections_validates(rng):
    shape = AlgebraShape([6])
    fr = ThreeFrame.standard(shape)
    with pytest.raises(pl.NotAFrame):
        ThreeFrame.from_projections(
            fr.e1, fr.e2, fr.e2, fr.units[0][1], fr.units[0][2]
        )


def test_to_from_coords_roundtrip(rng):
    fr = conjugated_frame(AlgebraShape([3, 6]), seed=9)
    x = pl.random_element(fr.shape, rng)
    coords = fr.to_coords(x)
    assert pl.distance(fr.from_coords(coords), x) < 1e-12
