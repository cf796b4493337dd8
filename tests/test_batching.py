"""Stacked block storage and batched per-block linear algebra.

Blocks of equal shape go through one stacked numpy call.  Each batched
operation must return exactly (bit for bit) what it returns on every
block alone, where the one-block call is the plain unstacked one; and
Element/Projection keep their validation and read-only guarantees.
"""

import numpy as np
import pytest

import projlat as pl
from projlat import AlgebraShape, ConjugationRingIso, Element, Frame, Projection
from projlat.core import _batch, _ct, _left_supports, _norms
from projlat.graphs import _slot, graph_projection, recover_operator
from projlat.sampling import _cgauss, _haar_unitary

MIXED = [AlgebraShape([3, 2, 3, 3]), AlgebraShape([1, 3, 3])]
MIXED_IDS = ["3+2+3+3", "1+3+3"]
FRAMED = AlgebraShape([3, 6, 3, 3])  # frames need block sizes divisible by 3


def _one(shape, b):
    return AlgebraShape([shape.blocks[b]])


def block_element(x, b):
    return Element(_one(x.shape, b), [x.data[b]])


def block_projection(p, b):
    return Projection.from_basis(_one(p.shape, b), [p.basis[b]])


def block_frame(fr, b):
    return Frame(block_element(fr.v, b), fr.order)


def _rotate(fr, x):
    """x in the slot coordinates of frame fr: V* x V per block."""
    return x._like([_ct(v) @ a @ v for v, a in zip(fr.v._stacks, x._stacks)])


def assert_blockwise(whole, parts):
    assert len(whole) == len(parts)
    for a, b in zip(whole, parts):
        assert a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("shape", MIXED, ids=MIXED_IDS)
def test_core_ops_equal_blockwise_ops(shape):
    rng = np.random.default_rng(11)
    k = len(shape.blocks)
    x = pl.random_element(shape, rng)
    assert x.block_norms() == tuple(block_element(x, b).norm() for b in range(k))
    assert_blockwise(
        pl.invert(x).data, [pl.invert(block_element(x, b)).data[0] for b in range(k)]
    )
    for _ in range(10):
        y = pl.random_projection(shape, rng).element * x  # some blocks rank deficient
        assert_blockwise(
            pl.left_support(y).basis,
            [pl.left_support(block_element(y, b)).basis[0] for b in range(k)],
        )
    z = pl.random_element(shape, rng)
    binary = [
        lambda a, b: a + b,
        lambda a, b: a - b,
        lambda a, b: a * b,
        lambda a, b: (0.5 - 2j) * a,
        lambda a, b: a.adjoint(),
        lambda a, b: a.conj(),
        lambda a, b: a.transpose(),
    ]
    for op in binary:
        assert_blockwise(
            op(x, z).data, [op(block_element(x, b), block_element(z, b)).data[0] for b in range(k)]
        )
    # y is rank deficient on some blocks, so v's ranks differ within a size
    for whole, parts in zip(
        pl.polar_decompose(y), zip(*[pl.polar_decompose(block_element(y, b)) for b in range(k)])
    ):
        assert_blockwise(whole.data, [part.data[0] for part in parts])
    p = pl.random_projection(shape, rng)  # ranks differ within a size
    assert_blockwise(
        pl.canonicalize(p.element).basis,
        [pl.canonicalize(block_element(p.element, b)).basis[0] for b in range(k)],
    )
    for w in (x, y):
        assert pl.cond(w) == max(pl.cond(block_element(w, b)) for b in range(k))
    c = pl.center_valued_norm(x)
    off = Element(shape, [*c.data[:-1], c.data[-1] + 1e-3 * x.data[-1]])
    for w in (x, c, off):
        assert pl.is_central(w) == all(pl.is_central(block_element(w, b)) for b in range(k))
    assert pl.is_central(c) and not pl.is_central(off)


@pytest.mark.parametrize("shape", MIXED, ids=MIXED_IDS)
def test_join_and_meet_equal_blockwise(shape):
    rng = np.random.default_rng(12)
    k = len(shape.blocks)
    pairs = [pl.random_overlapping_pair(shape, rng) for _ in range(20)]
    full = [np.eye(n)[:, : (n + 1) // 2] for n in shape.blocks]
    pairs.append((Projection.from_basis(shape, full), pl.random_projection(shape, rng, [1] * k)))
    for p, q in pairs:
        for op in (pl.join, pl.meet):
            assert_blockwise(
                op(p, q).basis,
                [op(block_projection(p, b), block_projection(q, b)).basis[0] for b in range(k)],
            )


SAMPLED = MIXED + [FRAMED]
SAMPLED_IDS = MIXED_IDS + ["3+6+3+3"]


@pytest.mark.parametrize("shape", SAMPLED, ids=SAMPLED_IDS)
def test_random_projection_equals_one_qr_per_block(shape):
    """One QR per group of blocks of one size and rank gives what one QR
    per block from the same stream gives, and leaves the generator in
    the same state; drawn ranks and given ranks reach 0 and n."""
    n = list(shape.blocks)
    given = [[0] * len(n), n, [0, *n[1:-1], n[-1]], [r // 2 for r in n]]
    seen = set()
    for seed in range(12):
        for ranks in [None, *given]:
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            p = pl.random_projection(shape, rng, ranks)
            rs = ranks or [int(ref.integers(0, m + 1)) for m in n]
            bases = [
                np.linalg.qr(_cgauss(ref, m, r))[0] if r else np.zeros((m, 0))
                for m, r in zip(n, rs)
            ]
            assert_blockwise(p.basis, bases)
            assert rng.bit_generator.state == ref.bit_generator.state
            if ranks is None:
                seen.update(zip(rs, n))
    assert {(0, m) for m in n} | {(m, m) for m in n} <= seen
    with pytest.raises(pl.ShapeMismatch):
        pl.random_projection(shape, np.random.default_rng(0), n[:-1])


@pytest.mark.parametrize("shape", SAMPLED, ids=SAMPLED_IDS)
def test_random_overlapping_pair_equals_one_qr_per_block(shape):
    """One QR per block size gives the unitary one QR per block from the
    same stream gives, and leaves the generator in the same state."""
    for seed in range(8):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        p, q = pl.random_overlapping_pair(shape, rng)
        bases_p, bases_q = [], []
        for n in shape.blocks:
            u = np.linalg.qr(ref.standard_normal((n, n)) + 1j * ref.standard_normal((n, n)))[0]
            shared = int(ref.integers(0, n + 1))
            rp = shared + int(ref.integers(0, n - shared + 1))
            extra = int(ref.integers(0, n - rp + 1))
            bases_p.append(u[:, :rp])
            bases_q.append(np.concatenate([u[:, :shared], u[:, rp : rp + extra]], axis=1))
        assert_blockwise(p.basis, bases_p)
        assert_blockwise(q.basis, bases_q)
        assert rng.bit_generator.state == ref.bit_generator.state


def test_a_batch_of_no_values_gives_no_results():
    shape = AlgebraShape([3])
    assert _left_supports(shape, _batch(shape, [])) == []
    assert _norms(shape, _batch(shape, [])) == []


@pytest.mark.parametrize("shape", SAMPLED, ids=SAMPLED_IDS)
def test_random_unitary_equals_one_haar_qr_per_block(shape):
    for seed in range(4):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        u = pl.random_unitary(shape, rng)
        assert_blockwise(u.data, [_haar_unitary(ref, m) for m in shape.blocks])
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize(
    "shape,block_map,sigma",
    [
        (AlgebraShape([3, 2, 3, 3]), (3, 1, 0, 2), ("id", "conj", "conj", "id")),
        (AlgebraShape([1, 3, 3]), (0, 2, 1), "conj"),
    ],
    ids=MIXED_IDS,
)
def test_conjugation_iso_equals_blockwise(shape, block_map, sigma):
    rng = np.random.default_rng(13)
    t = pl.random_invertible(shape, rng, cond_max=50.0)
    iso = ConjugationRingIso(t, sigma, block_map=block_map)
    sigmas = iso.sigma
    x = pl.random_element(iso.source, rng)
    p = pl.random_projection(iso.source, rng)
    y, fp = iso(x), iso.lattice_map()(p)
    for b, tb in enumerate(block_map):
        one = ConjugationRingIso(block_element(t, tb), sigmas[b])
        assert_blockwise((y.data[tb],), one(block_element(x, b)).data)
        assert_blockwise((fp.basis[tb],), one.lattice_map()(block_projection(p, b)).basis)


def test_graph_ops_equal_blockwise():
    rng = np.random.default_rng(14)
    u = pl.random_unitary(FRAMED, rng)
    base = Frame.standard(FRAMED, 3)
    ps = [
        Projection.from_basis(FRAMED, [ub @ eb for ub, eb in zip(u.data, p.basis)])
        for p in base.projections
    ]
    fr = Frame.from_projections(ps, [u * w * u.adjoint() for w in base.units])
    k = len(FRAMED.blocks)
    frames = [block_frame(fr, b) for b in range(k)]
    x = pl.random_element(fr.corner_shape, rng, norm_bound=2.0)
    for slot in [(0, 1), (0, 2), (1, 2), (1, 0)]:
        q = graph_projection(fr, x, slot)
        assert_blockwise(
            q.basis,
            [graph_projection(frames[b], block_element(x, b), slot).basis[0] for b in range(k)],
        )
        assert_blockwise(
            recover_operator(fr, q, slot).data,
            [recover_operator(frames[b], block_projection(q, b), slot).data[0] for b in range(k)],
        )
    y = pl.random_element(FRAMED, rng)
    coords = _rotate(fr, y)
    assert_blockwise(
        coords.data, [_rotate(frames[b], block_element(y, b)).data[0] for b in range(k)]
    )
    # and back, V x V*
    assert_blockwise(
        (fr.v * coords * fr.v.adjoint()).data,
        [(f.v * block_element(coords, b) * f.v.adjoint()).data[0] for b, f in enumerate(frames)],
    )


@pytest.mark.parametrize(
    "shape,kind",
    [
        (AlgebraShape([12]), "conj"),
        (AlgebraShape([3, 6, 3]), "conj"),
        (AlgebraShape([6]), "semilinear"),
        (AlgebraShape([3, 3, 3, 3]), "reversal"),
    ],
    ids=["12", "3+6+3", "6-semilinear", "3+3+3+3-reversal"],
)
def test_corner_grid_equals_one_corner_at_a_time(shape, kind):
    rng = np.random.default_rng(16)
    t = pl.random_invertible(shape, rng, cond_max=50.0)
    if kind == "reversal":
        phi = pl.from_ring_iso(lambda x: Element(shape, x.data[::-1]), shape)
    elif kind == "semilinear":
        phi = pl.from_semilinear(t, "conj")
    else:
        phi = pl.from_conjugation(t)
    # the standard frames' slot coordinates are the identity, so a
    # point's corners are exactly the grid it is assembled from
    fr = Frame.standard(shape, 3)
    result = pl.coordinatize(phi, source_frame=fr, samples=2, seed=3)
    ch, zero = fr.corner_shape, Element.zeros(fr.corner_shape)
    xs = [pl.random_element(ch, rng, norm_bound=2.0) for _ in range(6)]
    # a corner that is zero on one block only
    xs[2] = Element(ch, [np.zeros_like(a) if b == 0 else a for b, a in enumerate(xs[2].data)])
    rows = [[xs[0], zero, xs[1]], [xs[2], xs[3], zero], [zero, xs[4], xs[5]]]
    blocks = range(len(shape.blocks))
    point = Element(shape, [np.block([[x.data[b] for x in r] for r in rows]) for b in blocks])
    # the compiled Psi, with the normalizer S put back, is psi corner by corner
    s0, s3 = result.normalizers
    s = s3 * s0
    y = s * result.Psi(point) * pl.invert(s)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            image = Element._of(ch, [(g, _slot(a, i, j, 3)) for g, a in y._pieces()])
            assert pl.distance(image, result.psi(x)) < 1e-9


def test_element_blocks_are_read_only_copies():
    shape = AlgebraShape([3, 2, 3, 3])
    blocks = [np.arange(n * n, dtype=float).reshape(n, n) for n in shape.blocks]
    x = Element(shape, blocks)
    for blk, a in zip(blocks, x.data):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 1.0
        blk[0, 0] = -7.0
    for a, n in zip(x.data, shape.blocks):
        assert np.array_equal(a, np.arange(n * n).reshape(n, n))


@pytest.mark.parametrize("b", range(4))
def test_element_rejects_a_bad_block_anywhere(b):
    shape = AlgebraShape([3, 2, 3, 3])
    blocks = [np.eye(n) for n in shape.blocks]
    blocks[b] = np.full((shape.blocks[b],) * 2, np.nan)
    with pytest.raises(ValueError):
        Element(shape, blocks)
    blocks[b] = np.eye(shape.blocks[b] + 1)
    with pytest.raises(pl.ShapeMismatch):
        Element(shape, blocks)
    blocks[b] = np.eye(shape.blocks[b])[:, :1]
    with pytest.raises(pl.ShapeMismatch):
        Element(shape, blocks)


def test_lazy_projection_element_is_read_only_u_u_star():
    shape = AlgebraShape([3, 2, 3, 3])
    p = pl.random_projection(shape, np.random.default_rng(15), [1, 2, 0, 1])
    dense = p.element
    assert p.element is dense
    for u, a in zip(p.basis, dense.data):
        assert not a.flags.writeable
        assert np.array_equal(a, u @ u.conj().T)


def test_projection_from_basis_validates_at_construction():
    shape = AlgebraShape([3, 2])
    basis = [np.eye(3)[:, :1], np.eye(2)[:, :1]]
    with pytest.raises(pl.ShapeMismatch):
        Projection.from_basis(shape, basis[:1])
    bad = [basis[0], np.array([[np.nan], [0.0]])]
    with pytest.raises(ValueError):
        Projection.from_basis(shape, bad)
