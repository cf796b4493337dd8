"""Graph projections over a frame of order k and operator transport."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import projlat as pl
from projlat import AlgebraShape, Element, Frame, Projection
from projlat.coordinatize import _CornerMap
from projlat.core import _ct


S3 = AlgebraShape([3])

# the slots of an order-3 frame, and their 1-based names
SLOTS = [(0, 1), (0, 2), (1, 0), (1, 2)]
SLOT_IDS = ["12", "13", "21", "23"]


def slots(k):
    """Every slot (d, i) of a frame of order k."""
    return [(d, i) for d in range(k) for i in range(k) if d != i]


def conjugated_frame(shape, seed, k=3):
    """The standard frame of order k conjugated by a seeded Haar unitary."""
    rng = np.random.default_rng(seed)
    base = Frame.standard(shape, k)
    u = pl.random_unitary(shape, rng)
    ps = [
        Projection.from_basis(shape, [ub @ eb for ub, eb in zip(u.data, p.basis)])
        for p in base.projections
    ]
    return Frame.from_projections(ps, [u * w * u.adjoint() for w in base.units])


def test_standard_frame_structure():
    fr = Frame.standard(S3, 3)
    assert fr.order == 3 and len(fr.units) == 2
    for e, diag in zip(fr.projections, np.eye(3)):
        np.testing.assert_allclose(e.element.data[0], np.diag(diag), atol=0)
    assert fr.corner_shape.blocks == (1,)


def test_standard_frame_rejects_bad_sizes():
    # the message names the first block whose size the order does not divide
    with pytest.raises(pl.NotAFrame, match="by 3: block 0 has size 4$"):
        Frame.standard(AlgebraShape([4]), 3)
    with pytest.raises(pl.NotAFrame, match="by 3: block 1 has size 2$"):
        Frame.standard(AlgebraShape([3, 2]), 3)
    with pytest.raises(pl.NotAFrame, match="by 4: block 1 has size 6$"):
        Frame.standard(AlgebraShape([4, 6]), 4)


def test_frame_is_its_coordinates(rng):
    shape = AlgebraShape([6, 3])
    u = pl.random_unitary(shape, rng)
    fr = Frame(u, 3)
    assert fr.v is u and fr.corner_shape.blocks == (2, 1)
    # e_i is spanned by the i-th column group of V, bit for bit
    for i, e in enumerate(fr.projections):
        for v, basis in zip(u.data, e.basis):
            assert np.array_equal(basis, v[:, i * len(v) // 3 : (i + 1) * len(v) // 3])
    with pytest.raises(pl.NotAFrame, match="divisible by 2: block 1 has size 3$"):
        Frame(u, 2)
    # 2e-4 from unitary on block 1 is refused by name; 2e-6 passes
    with pytest.raises(pl.NotAFrame, match=r"not unitary on block 1 \(defect 2\.0"):
        Frame(Element(shape, [u.data[0], u.data[1] * (1 + 1e-4)]), 3)
    Frame(Element(shape, [u.data[0], u.data[1] * (1 + 1e-6)]), 3)


ORDER_K_FRAMES = [([8], 4), ([4, 8], 4), ([5, 10], 5)]


@pytest.mark.parametrize("blocks,k", ORDER_K_FRAMES, ids=["8-k4", "4+8-k4", "5+10-k5"])
@pytest.mark.parametrize("kind", ["standard", "seeded"])
def test_frame_relations_hold_at_order_k(blocks, k, kind):
    base = Frame.standard(AlgebraShape(blocks), k)
    if kind == "seeded":
        base = conjugated_frame(base.shape, 4, k)
    # every frame reads its projections and units off V, a direct sum too
    for fr in (base, _doubled(base)):
        assert fr.order == k and len(fr.units) == k - 1
        assert fr.corner_shape.blocks == tuple(n // k for n in fr.shape.blocks)
        total = sum((e.element for e in fr.projections[1:]), fr.projections[0].element)
        assert pl.distance(total, Element.identity(fr.shape)) < 1e-12
        for i, e in enumerate(fr.projections):
            assert e.ranks == fr.corner_shape.blocks
            for f in fr.projections[i + 1 :]:
                assert (e.element * f.element).norm() < 1e-12
        for w, e in zip(fr.units, fr.projections[1:]):
            assert pl.distance(w * w.adjoint(), fr.projections[0]) < 1e-12
            assert pl.distance(w.adjoint() * w, e) < 1e-12


def test_frozen_graph_projections():
    fr = Frame.standard(S3, 3)
    one = Element.identity(fr.corner_shape)
    p1 = pl.graph_projection(fr, one, (0, 1))
    np.testing.assert_allclose(
        p1.element.data[0],
        np.array([[0.5, 0.5, 0], [0.5, 0.5, 0], [0, 0, 0]]),
        atol=1e-14,
    )
    p2 = pl.graph_projection(fr, 2.0 * one, (0, 1))
    np.testing.assert_allclose(
        p2.element.data[0],
        np.array([[0.2, 0.4, 0], [0.4, 0.8, 0], [0, 0, 0]]),
        atol=1e-14,
    )


def test_graph_slots_land_in_right_corners():
    fr = Frame.standard(S3, 3)
    one = Element.identity(fr.corner_shape)
    # slot 13 graph lives in coordinates 1 and 3
    p13 = pl.graph_projection(fr, one, (0, 2))
    m = p13.element.data[0]
    assert abs(m[1, 1]) < 1e-14 and abs(m[0, 0] - 0.5) < 1e-14


@pytest.mark.parametrize(
    "blocks,k",
    [([3], 3), ([6], 3), ([3, 6], 3), ([8], 4), ([4, 8], 4)],
    ids=["blocks0", "blocks1", "blocks2", "8-k4", "4+8-k4"],
)
def test_product_and_sum_identities(blocks, k):
    shape = AlgebraShape(blocks)
    fr = Frame.standard(shape, k)
    rng = np.random.default_rng(7)
    for _ in range(15):
        x = pl.random_element(fr.corner_shape, rng, norm_bound=10.0)
        y = pl.random_element(fr.corner_shape, rng, norm_bound=10.0)
        prod = pl.lattice_product(fr, x, y)
        assert pl.distance(prod, pl.graph_projection(fr, x * y, (0, 2))) < 1e-7
        tot = pl.lattice_sum(fr, x, y)
        assert pl.distance(tot, pl.graph_projection(fr, x + y, (0, 1))) < 1e-7


def test_transport_invariance():
    # the identities do not care which frame realizes the order-3 structure
    fr = conjugated_frame(AlgebraShape([6]), seed=3)
    rng = np.random.default_rng(8)
    x = pl.random_element(fr.corner_shape, rng, norm_bound=4.0)
    y = pl.random_element(fr.corner_shape, rng, norm_bound=4.0)
    assert pl.distance(
        pl.lattice_product(fr, x, y), pl.graph_projection(fr, x * y, (0, 2))
    ) < 1e-8
    got = pl.recover_operator(fr, pl.graph_projection(fr, x))
    assert pl.distance(got, x) < 1e-8


def test_recover_operator_roundtrip():
    rng = np.random.default_rng(1)
    frames = [Frame.standard(AlgebraShape([6]), 3)]
    frames += [conjugated_frame(AlgebraShape(b), 5, k) for b, k in ORDER_K_FRAMES]
    for fr in frames:
        for slot in slots(fr.order):
            x = pl.random_element(fr.corner_shape, rng, norm_bound=3.0)
            q = pl.graph_projection(fr, x, slot)
            assert pl.is_slot_graph_projection(fr, q, slot)
            assert pl.distance(pl.recover_operator(fr, q, slot), x) < 1e-9


def test_recover_operator_rejects_non_graphs(rng):
    fr = Frame.standard(AlgebraShape([6]), 3)
    wrong_rank = pl.random_projection(fr.shape, rng, ranks=[3])
    with pytest.raises(pl.NotAGraphProjection):
        pl.recover_operator(fr, wrong_rank)
    # e2 has the slot rank but is not a slot-12 graph
    with pytest.raises(pl.NotAGraphProjection):
        pl.recover_operator(fr, fr.projections[1])
    # a projection of another algebra is refused as such, before its ranks
    other = pl.random_projection(AlgebraShape([6, 6]), rng, ranks=[3, 2])
    with pytest.raises(pl.ShapeMismatch):
        pl.recover_operator(fr, other)


def _residuals(p, q, b):
    """Spectral and Frobenius norm of block b of p - q."""
    r = p.element.data[b] - q.element.data[b]
    return np.linalg.norm(r, 2), np.linalg.norm(r)


def _certificate_residuals(p, q, b):
    """Spectral and Frobenius norm of the certificate recovery measures
    on block b of q over the standard frame, [W_2 - x W_1; W_3] for q's
    range basis W and the slot-12 operator x of p."""
    u, w = p.basis[b], q.basis[b]
    k = w.shape[1]
    x = u[k : 2 * k] @ np.linalg.inv(u[:k])
    r = np.concatenate([w[k : 2 * k] - x @ w[:k], w[2 * k :]])
    return np.linalg.norm(r, 2), np.linalg.norm(r)


def _tilted(p, b, target, frobenius, residuals=_residuals):
    """p, a slot-12 graph projection over the standard frame, with the
    range of block b tilted into the third slot until the spectral (or
    Frobenius) residual against p is target, measured by residuals.  Its
    slot-12 ratio is still the operator of p, so recovery rebuilds p."""
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
        eps *= target / residuals(p, forged(eps), b)[frobenius]
    return forged(eps)


def test_forged_corner_just_above_check_tol_is_refused_by_name(rng):
    shape = AlgebraShape([3, 6, 6])
    fr = Frame.standard(shape, 3)
    xs = [pl.random_element(fr.corner_shape, rng) for _ in range(2)]
    p = pl.graph_projection(fr, xs[1])
    forged = _tilted(p, 2, 1.05 * pl.CHECK_TOL, frobenius=False)
    calls = []

    def apply(q):
        calls.append(q)
        return forged if len(calls) == 2 else q  # the second corner's graph

    corner_map = _CornerMap(pl.LatticeMap(shape, shape, apply), fr, fr)
    assert pl.distance(corner_map(xs[0]), xs[0]) < 1e-12
    with pytest.raises(pl.NotAGraphProjection) as info:
        corner_map(xs[1])
    assert info.value.block == 2
    message = re.fullmatch(
        r"slot 12: not a graph projection \(residual (\S+)\) on block 2",
        str(info.value),
    )
    assert message and abs(float(message.group(1)) - 1.05 * pl.CHECK_TOL) < 1e-9


def test_frobenius_residual_above_half_check_tol_falls_back_to_the_spectral_norm(
    monkeypatch, rng
):
    fr = Frame.standard(AlgebraShape([3, 6, 6]), 3)
    x = pl.random_element(fr.corner_shape, rng)
    p = pl.graph_projection(fr, x)
    forged = _tilted(p, 2, 0.75 * pl.CHECK_TOL, frobenius=True, residuals=_certificate_residuals)
    spectral, frobenius = _certificate_residuals(p, forged, 2)
    assert pl.CHECK_TOL / 2 < frobenius <= pl.CHECK_TOL and spectral < frobenius
    svds = []
    svd = pl.graphs._singular_values
    monkeypatch.setattr(pl.graphs, "_singular_values", lambda a: svds.append(a.shape) or svd(a))
    assert pl.distance(pl.recover_operator(fr, forged), x) < 1e-10
    assert svds == [(1, 4, 2)]  # the tilted block's certificate, and it alone
    # an exact graph projection passes on the Frobenius bound everywhere
    svds.clear()
    pl.recover_operator(fr, p)
    assert svds == []


RECOVERY_SHAPES = [AlgebraShape(b) for b in ([3], [6], [9], [3, 6])]
FRAME_KINDS = ["standard", "standard doubled", "seeded", "seeded doubled", "read back"]
# (shape, order) and a slot of that order: order 3 on RECOVERY_SHAPES,
# order 4 on [8] and [4, 8]
RECOVERY_CASES = st.sampled_from(
    [(shape, 3) for shape in RECOVERY_SHAPES] + [(AlgebraShape(b), 4) for b in ([8], [4, 8])]
).flatmap(lambda c: st.tuples(st.just(c), st.sampled_from(slots(c[1]))))


def _frame(kind, shape, seed, k=3):
    if kind == "read back":
        return pl.frame_from_obj(pl.frame_to_obj(Frame.standard(shape, k)))
    if kind.startswith("standard"):
        fr = Frame.standard(shape, k)
    else:
        fr = conjugated_frame(shape, seed, k)
    return _doubled(fr) if kind.endswith("doubled") else fr


def _doubled(fr):
    """The frame of the direct sum of two copies of fr's algebra, built
    blockwise: V repeated."""
    return Frame(Element(AlgebraShape(fr.shape.blocks * 2), list(fr.v.data) * 2), fr.order)


def _graph_tilted(frame, x, slot, eps, rng):
    """The slot graph projection of x, every block's range tilted by eps
    into every slot outside (d, i) and orthonormalized again."""
    q = pl.graph_projection(frame, x, slot)
    if eps == 0:
        return q
    others = [o for o in range(frame.order) if o not in slot]
    bases = []
    for v, u in zip(frame.v.data, q.basis):
        m = u.shape[1]
        tilt = sum(v[:, o * m : (o + 1) * m] @ rng.standard_normal((m, m)) for o in others)
        bases.append(np.linalg.qr(u + eps * tilt)[0])
    return Projection.from_basis(frame.shape, bases)


def _dense_ratio(frame, q, slot):
    """The slot ratio by the dense formula: Q rotated into slot
    coordinates, V* Q V, then Q_id Q_dd^{-1} through eigh of the
    Hermitian part of Q_dd; one stack per block size."""
    d, i = slot
    out = []
    for v, m in zip(frame.v._stacks, q.element._stacks):
        m = _ct(v) @ m @ v
        k = m.shape[1] // frame.order
        qdd = m[:, d * k : (d + 1) * k, d * k : (d + 1) * k]
        qid = m[:, i * k : (i + 1) * k, d * k : (d + 1) * k]
        lam, vec = np.linalg.eigh((qdd + _ct(qdd)) / 2)
        out.append(qid @ (vec / lam[..., None, :]) @ _ct(vec))
    return out


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    case=RECOVERY_CASES,
    kind=st.sampled_from(FRAME_KINDS),
    eps=st.one_of(st.just(0.0), st.floats(min_value=1e-12, max_value=1e-8)),
)
def test_recovered_operator_agrees_with_the_dense_ratio(seed, case, kind, eps):
    # the corners read off W = V* U equal those of V* Q V up to rounding
    ((shape, k), slot) = case
    rng = np.random.default_rng(seed)
    fr = _frame(kind, shape, seed, k)
    x = pl.random_element(fr.corner_shape, rng, norm_bound=2.0)
    q = _graph_tilted(fr, x, slot, eps, rng)
    got = pl.recover_operator(fr, q, slot)
    want = _dense_ratio(fr, q, slot)
    for a, b in zip(got._stacks, want, strict=True):
        assert np.abs(a - b).max() <= 1e-13 * max(1.0, np.abs(b).max())


@pytest.mark.parametrize("blocks", [[12], [3] * 4], ids=["12", "3x4"])
def test_recovery_builds_no_dense_projection(blocks, rng):
    fr = conjugated_frame(AlgebraShape(blocks), seed=3)
    for slot in SLOTS:
        x = pl.random_element(fr.corner_shape, rng, norm_bound=2.0)
        q = _graph_tilted(fr, x, slot, 1e-9, rng)
        assert q._element is None
        assert pl.distance(pl.recover_operator(fr, q, slot), x) < 1e-7
        assert q._element is None


@pytest.mark.parametrize("scale", [1e4, 1e5, 1e9])
def test_singular_rule_boundary_on_a_two_by_two_slot(scale, rng):
    # sigma_min(W_d)^2 / sigma_max(W_d)^2 = 2 / (1 + scale^2) is no
    # refusal: the domain corner is singular only at sigma_min(W_d) = 0,
    # and the certificate alone decides the exact graph of diag(scale, 1)
    fr = Frame.standard(AlgebraShape([3, 6]), 3)
    x1 = pl.random_element(AlgebraShape([1]), rng).data[0]
    x = Element(fr.corner_shape, [x1, np.diag([scale, 1.0])])
    got = pl.recover_operator(fr, pl.graph_projection(fr, x, (0, 1)), (0, 1))
    assert pl.distance(got, x) <= 1e-7 * scale
    # the frame projection e_2 has W_d = 0 through slot 12
    with pytest.raises(pl.NotAGraphProjection) as info:
        pl.recover_operator(fr, fr.projections[1], (0, 1))
    assert (info.value.reason, info.value.block) == ("slot 12: domain corner singular", 0)


@pytest.mark.parametrize("shape", RECOVERY_SHAPES)
@pytest.mark.parametrize("slot", SLOTS, ids=SLOT_IDS)
def test_graph_projection_bits_depend_only_on_the_coordinates(shape, slot, rng):
    # the standard frame and a frame read back with the same identity V
    # give the same basis, signed zeros and Householder signs included
    fr = Frame.standard(shape, 3)
    back = _frame("read back", shape, 0)
    for _ in range(8):
        x = pl.random_element(fr.corner_shape, rng)
        for a, b in zip(
            pl.graph_projection(fr, x, slot)._stacks, pl.graph_projection(back, x, slot)._stacks
        ):
            assert a.tobytes() == b.tobytes()


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    case=RECOVERY_CASES,
    kind=st.sampled_from(FRAME_KINDS),
    log_eps=st.floats(min_value=-8.5, max_value=-5.0),
)
def test_certificate_is_never_looser_than_the_rebuilt_graph(seed, case, kind, log_eps):
    ((shape, k), slot) = case
    rng = np.random.default_rng(seed)
    fr = _frame(kind, shape, seed, k)
    x = pl.random_element(fr.corner_shape, rng, norm_bound=2.0)
    q = _graph_tilted(fr, x, slot, 10.0**log_eps, rng)
    groups = fr.corner_shape._groups
    ratio = Element._of(fr.corner_shape, list(zip(groups, _dense_ratio(fr, q, slot))))
    rebuilt = pl.graph_projection(fr, ratio, slot)
    d, i = slot
    dense, certified = [], []
    for v, u, xb, p, g in zip(
        fr.v.data, q.basis, ratio.data, q.element.data, rebuilt.element.data
    ):
        m = xb.shape[0]
        w = _ct(v) @ u
        rows = [w[j * m : (j + 1) * m] for j in range(k)]
        others = [rows[o] for o in range(k) if o not in slot]
        dense.append(np.linalg.norm(g - p, 2))
        certified.append(np.linalg.norm(np.concatenate([rows[i] - xb @ rows[d], *others]), 2))
    assert all(c >= e - 1e-14 for c, e in zip(certified, dense))
    try:
        pl.recover_operator(fr, q, slot)
        accepted = True
    except pl.NotAGraphProjection:
        accepted = False
    if all(abs(e - pl.CHECK_TOL) > 0.01 * pl.CHECK_TOL for e in dense):
        assert accepted == all(e <= pl.CHECK_TOL for e in dense)


def test_graph_projection_rejects_wrong_corner():
    fr = Frame.standard(S3, 3)
    with pytest.raises(pl.ShapeMismatch):
        pl.graph_projection(fr, Element.identity(AlgebraShape([2])))
    one = Element.identity(fr.corner_shape)
    for slot in [(0, 0), (0, 3), (-1, 0), (0, 1, 2), 12]:
        with pytest.raises(ValueError):
            pl.graph_projection(fr, one, slot)


def test_inverse_coincidence():
    rng = np.random.default_rng(2)
    # corners of size 2 at orders 3 and 4
    for fr in (Frame.standard(AlgebraShape([6]), 3), Frame.standard(AlgebraShape([8]), 4)):
        for _ in range(10):
            u = pl.random_unitary(fr.corner_shape, rng)
            well = u + Element.from_scalars(fr.corner_shape, [2.0])
            assert pl.inverse_coincidence(fr, well)
            # slot-21 recovery of an invertible graph gives the inverse
            q = pl.graph_projection(fr, well)
            back = pl.recover_operator(fr, q, (1, 0))
            assert pl.distance(back, pl.invert(well)) < 1e-9
        singular = Element(fr.corner_shape, [np.diag([1.0, 0.0])])
        assert not pl.inverse_coincidence(fr, singular)
        assert not pl.inverse_coincidence(fr, Element.zeros(fr.corner_shape))


def test_frame_from_projections_validates(rng):
    shape = AlgebraShape([6])
    fr = Frame.standard(shape, 3)
    e1, e2, _ = fr.projections
    with pytest.raises(pl.NotAFrame):
        Frame.from_projections([e1, e2, e2], fr.units)
    with pytest.raises(pl.NotAFrame):
        Frame.from_projections(fr.projections, fr.units[:1])
    uneven = [pl.random_projection(shape, rng, ranks=[r]) for r in (3, 2, 1)]
    with pytest.raises(pl.NotAFrame):
        Frame.from_projections(uneven, fr.units)
    odd = AlgebraShape([4, 3])
    halves = [pl.random_projection(odd, rng, ranks=[2, 1]) for _ in range(2)]
    with pytest.raises(pl.NotAFrame, match="divisible by 2: block 1 has size 3$"):
        Frame.from_projections(halves, [Element.identity(odd)])
    e3_elsewhere = Frame.standard(AlgebraShape([3, 3]), 3).projections[2]
    w12, w13 = fr.units
    refusals = [
        ([e1, e2, e3_elsewhere], fr.units, "live in different algebras"),
        ([e1, e2, pl.Projection.zero(shape)], fr.units, "do not sum to 1"),
        (fr.projections, [w12, 2.0 * w13], "w13 w\\* is not p1"),
        (fr.projections, [w13, w12], "w12\\* w12 is not the slot projection"),
    ]
    for ps, ws, message in refusals:
        with pytest.raises(pl.NotAFrame, match=message):
            Frame.from_projections(ps, ws)


def _rotate(fr, x):
    """x in the slot coordinates of frame fr: V* x V per block."""
    return x._like([_ct(v) @ a @ v for v, a in zip(fr.v._stacks, x._stacks)])


def test_to_from_coords_roundtrip(rng):
    fr = conjugated_frame(AlgebraShape([3, 6]), seed=9)
    x = pl.random_element(fr.shape, rng)
    assert pl.distance(fr.v * _rotate(fr, x) * fr.v.adjoint(), x) < 1e-12
