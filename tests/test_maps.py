"""Lattice maps, their verification, and the limits of sampling."""

import dataclasses

import numpy as np
import pytest

import projlat as pl
from projlat import AlgebraShape, Element, LatticeMap
from projlat.core import _ct
from projlat.lattice import orth
from projlat.maps import Opaque, _product_norm, _skolem_noether
from projlat.ringiso import _worst_pair


def test_from_conjugation_acts_on_ranges(shape, rng):
    t = pl.random_invertible(shape, rng, cond_max=40.0)
    phi = pl.from_conjugation(t)
    t_inv = pl.invert(t)
    for _ in range(10):
        p = pl.random_projection(shape, rng)
        img = phi(p)
        assert img.ranks == p.ranks
        assert pl.distance(img, pl.left_support(t * p.element * t_inv)) < 1e-8


def test_from_conjugation_rejects_singular(shape):
    singular = Element(shape, [np.zeros((n, n)) for n in shape.blocks])
    with pytest.raises(pl.NotInvertible):
        pl.from_conjugation(singular)


def test_from_semilinear_conj_is_transpose_map(rng):
    shape = AlgebraShape([3])
    phi = pl.from_semilinear(Element.identity(shape), "conj")
    p = pl.random_projection(shape, rng)
    # the image range is the conjugate of the range
    assert pl.distance(phi(p).element, p.element.conj()) < 1e-10
    with pytest.raises(ValueError):
        pl.from_semilinear(Element.identity(shape), "transpose")


def test_compose_and_invert(rng):
    shape = AlgebraShape([3])
    t1 = pl.random_invertible(shape, rng, cond_max=10.0)
    t2 = pl.random_invertible(shape, rng, cond_max=10.0)
    phi = pl.compose(pl.from_conjugation(t1), pl.from_conjugation(t2))
    oracle = pl.from_conjugation(t1 * t2)
    p = pl.random_projection(shape, rng)
    assert pl.distance(phi(p), oracle(p)) < 1e-8
    inv = pl.invert_map(pl.from_conjugation(t1))
    assert pl.distance(inv(pl.from_conjugation(t1)(p)), p) < 1e-8
    back = pl.invert_map(phi)  # a composite inverts part by part
    assert pl.distance(back(phi(p)), p) < 1e-8


def test_invert_map_of_a_composite_inverts_part_by_part(rng):
    shape = AlgebraShape([2, 3])
    a = pl.random_invertible(shape, rng, cond_max=10.0)
    b = pl.random_invertible(shape, rng, cond_max=10.0)
    back = pl.invert_map(pl.compose(pl.from_conjugation(a), pl.from_conjugation(b)))
    oracle = pl.from_conjugation(pl.invert(a * b))
    for _ in range(5):
        p = pl.random_projection(shape, rng)
        assert pl.distance(back(p), oracle(p)) < 1e-8
    opaque = LatticeMap(shape, shape, lambda p: p)
    for phi in (pl.compose(pl.from_conjugation(a), opaque), pl.compose(opaque, pl.from_conjugation(b))):
        with pytest.raises(pl.NotInvertibleProvenance):
            pl.invert_map(phi)


@pytest.mark.parametrize("cond", [1e2, 1e6, 5e8])
@pytest.mark.parametrize("sigma", ["id", "conj"])
def test_conjugation_images_keep_rank_and_match_the_svd_basis(cond, sigma):
    """The image basis is a QR of T sigma(U) with no rank cut: up to
    cond(T) = 5e8, just inside the invertibility cutoff, it keeps every
    rank, is orthonormal, and spans what the SVD with the RANK_REL cut
    spans."""
    rng = np.random.default_rng(int(cond))
    target = AlgebraShape([3, 6, 3])
    s = {n: np.geomspace(cond**-0.5, cond**0.5, n) for n in target.blocks}
    u, v = pl.random_unitary(target, rng), pl.random_unitary(target, rng)
    t = Element(target, [(ub * s[n]) @ vb for ub, vb, n in zip(u.data, v.data, target.blocks)])
    iso = pl.ConjugationRingIso(t, sigma, block_map=(2, 0, 1))
    phi = iso.lattice_map()
    assert iso.source == AlgebraShape([3, 3, 6])
    for ranks in ([0, 0, 0], [1, 2, 4], [0, 3, 2], [3, 3, 6]):
        p = pl.random_projection(iso.source, rng, ranks)
        img = phi(p)
        assert img.ranks == tuple(ranks[iso.block_map.index(i)] for i in range(3))
        for b, ub in enumerate(p.basis):
            got = img.basis[iso.block_map[b]]
            assert np.linalg.norm(_ct(got) @ got - np.eye(ranks[b]), 2) <= 1e-12
            if not ranks[b]:
                continue
            image = t.data[iso.block_map[b]] @ (ub.conj() if sigma == "conj" else ub)
            ((_, want),) = orth([((0,), image[None])])
            assert want.shape[2] == ranks[b]
            gap = got @ _ct(got) - want[0] @ _ct(want[0])
            assert np.linalg.norm(gap, 2) <= 1e-12 * cond


def test_invert_map_semilinear(rng):
    shape = AlgebraShape([3])
    t = pl.random_invertible(shape, rng, cond_max=10.0)
    phi = pl.from_semilinear(t, "conj")
    inv = pl.invert_map(phi)
    p = pl.random_projection(shape, rng)
    assert pl.distance(inv(phi(p)), p) < 1e-8


def test_from_ring_iso(rng):
    shape = AlgebraShape([2, 3])
    t = pl.random_invertible(shape, rng, cond_max=20.0)
    psi = pl.ConjugationRingIso(t, "id")
    phi = pl.from_ring_iso(psi, shape, shape)
    p = pl.random_projection(shape, rng)
    assert pl.distance(phi(p), pl.from_conjugation(t)(p)) < 1e-8


def test_shape_mismatch_guard(rng):
    phi = pl.from_conjugation(Element.identity(AlgebraShape([3])))
    with pytest.raises(pl.ShapeMismatch):
        phi(pl.random_projection(AlgebraShape([4]), rng))
    with pytest.raises(pl.ShapeMismatch):
        pl.compose(phi, pl.from_conjugation(Element.identity(AlgebraShape([4]))))


def _reverse_blocks(x):
    return Element(x.shape, x.data[::-1])


_PROVENANCES = {
    "conjugation": lambda t: pl.from_conjugation(t),
    "semilinear-routed": lambda t: pl.ConjugationRingIso(t, ("conj", "id", "id"), (2, 0, 1)).lattice_map(),
    "composite": lambda t: pl.compose(pl.from_semilinear(t, "conj"), pl.from_conjugation(t)),
    "ring-iso-reversal": lambda t: pl.from_ring_iso(_reverse_blocks, t.shape),
    "opaque": lambda t: LatticeMap(t.shape, t.shape, pl.from_conjugation(t)),
}


@pytest.mark.parametrize("kind", sorted(_PROVENANCES))
def test_images_are_the_maps_own_images_bit_for_bit(kind):
    """images(ps) is [phi(p) for p in ps] to the last bit for every
    provenance, ranks 0 and full included; an empty list maps to an
    empty list, and a projection of another shape is refused as a
    single call refuses it."""
    shape = AlgebraShape([3, 3, 3])
    rng = np.random.default_rng(7)
    phi = _PROVENANCES[kind](pl.random_invertible(shape, rng, cond_max=50.0))
    ps = [pl.Projection.zero(shape), pl.Projection.identity(shape)]
    ps += [pl.random_projection(shape, rng) for _ in range(6)]
    got, want = phi.images(ps), [phi(p) for p in ps]
    for a, b in zip(got, want, strict=True):
        assert a.shape == b.shape and a.ranks == b.ranks
        assert [u.tobytes() for u in a.basis] == [u.tobytes() for u in b.basis]
    assert phi.images([]) == []
    other = pl.random_projection(AlgebraShape([3, 3]), rng)
    with pytest.raises(pl.ShapeMismatch, match=r"map expects projections in \[3,3,3\], got \[3,3\]"):
        phi.images([ps[2], other])


def test_images_of_an_opaque_map_call_apply_once_per_projection_in_order(rng):
    shape = AlgebraShape([2, 3])
    phi, seen = _recorded(pl.from_conjugation(pl.random_invertible(shape, rng, cond_max=20.0)))
    ps = [pl.random_projection(shape, rng) for _ in range(5)]
    phi.images(ps)
    assert [id(p) for p in seen] == [id(p) for p in ps]


_CALLERS = {
    "coordinatize": lambda phi: [a.tobytes() for a in pl.coordinatize(phi, seed=1).Psi.T.data],
    "dye_extension": lambda phi: [a.tobytes() for a in pl.dye_extension(phi, seed=1)[0].T.data],
    "verify_lattice_iso": lambda phi: [
        (c.name, c.passed, c.max_residual) for c in pl.verify_lattice_iso(phi, samples=4, seed=1).checks
    ],
    "preserves_orthogonality": lambda phi: pl.preserves_orthogonality(phi, 4, 1),
}


@pytest.mark.parametrize("caller", sorted(_CALLERS))
def test_a_replaced_apply_sees_every_projection_the_map_is_asked_for(caller, monkeypatch):
    """dataclasses.replace(phi, apply=...) keeps phi's provenance, but
    images batches through it only while apply is the provenance's own:
    a replaced apply sees, one call each and in order, every projection
    that phi's provenance maps when phi is called as built, and the
    outcome is the same to the bit."""
    shape = AlgebraShape([3, 3])
    phi = pl.from_conjugation(pl.random_unitary(shape, np.random.default_rng(5)))
    real, batched = pl.ConjugationRingIso._images, []

    def recorded(self, ps):
        if self is phi.provenance:
            batched.extend(ps)
        return real(self, ps)

    monkeypatch.setattr(pl.ConjugationRingIso, "_images", recorded)
    want = _CALLERS[caller](phi)
    mapped, seen = list(batched), []

    def counting(p):
        seen.append(p)
        return phi(p)

    assert _CALLERS[caller](dataclasses.replace(phi, apply=counting)) == want
    assert len(seen) == len(mapped) > 0
    for a, b in zip(seen, mapped):
        assert [u.tobytes() for u in a.basis] == [u.tobytes() for u in b.basis]


def test_verify_lattice_iso_passes_conjugations(shape, rng):
    t = pl.random_invertible(shape, rng, cond_max=60.0)
    ver = pl.verify_lattice_iso(pl.from_conjugation(t), samples=12, seed=0)
    assert ver.passed, [c.name for c in ver.checks if not c.passed]
    names = {c.name for c in ver.checks}
    assert "order-preservation" in names or len(names) >= 3


def test_preserves_orthogonality_unitary(rng):
    shape = AlgebraShape([2, 3])
    u = pl.random_unitary(shape, rng)
    ok, witness = pl.preserves_orthogonality(pl.from_conjugation(u), samples=16, seed=0)
    assert ok and witness is None


def test_shear_breaks_orthogonality():
    shape = AlgebraShape([2])
    shear = Element(shape, [np.array([[1.0, 1.0], [0.0, 1.0]])])
    ok, witness = pl.preserves_orthogonality(pl.from_conjugation(shear), samples=16, seed=0)
    assert not ok
    assert witness is not None and witness["residual"] > 1e-3
    # replay the witness: the claimed pair really is mapped wrong
    phi = pl.from_conjugation(shear)
    p = pl.projection_from_obj(witness["p"])
    q = pl.projection_from_obj(witness["q"])
    before = (p.element * q.element).norm()
    after = (phi(p).element * phi(q).element).norm()
    assert (before < 1e-8) != (after < 1e-8)


@pytest.mark.parametrize("blocks", [[2], [6], [2, 3], [3, 3, 4]])
@pytest.mark.parametrize("seed", [0, 7])
def test_shear_witness_carries_the_probe_product(blocks, seed):
    # no orthogonal probe is skipped, so the witness carries the pair's
    # own product: within PROJ_TOL for a sound sampler
    shape = AlgebraShape(blocks)
    shear = [np.eye(n, dtype=complex) for n in blocks]
    shear[int(np.argmax(blocks))][0, 1] = 1.0
    phi = pl.from_conjugation(Element(shape, shear))
    ok, witness = pl.preserves_orthogonality(phi, 8, seed)
    assert not ok and witness["kind"] == "orthogonal-pair-mapped-to-overlapping"
    assert witness["probe_product"] <= pl.PROJ_TOL
    p, q = pl.projection_from_obj(witness["p"]), pl.projection_from_obj(witness["q"])
    assert abs((p.element * q.element).norm() - witness["probe_product"]) <= 1e-15
    # the residual, read off range bases, replays as the dense image product
    assert abs((phi(p).element * phi(q).element).norm() - witness["residual"]) <= 1e-14


def _recorded(phi):
    """phi as a LatticeMap that records each projection it maps, in order."""
    seen = []

    def apply(p):
        seen.append(p)
        return phi(p)

    return LatticeMap(phi.source, phi.target, apply), seen


@pytest.mark.parametrize("blocks", [[12], [3] * 6])
def test_orthogonality_sampler_maps_each_projection_once(blocks):
    """Two images per orthogonal pair, the halves probe included, and
    none for the overlapping pairs, which are the sampled p's taken
    cyclically."""
    shape = AlgebraShape(blocks)
    phi, seen = _recorded(pl.from_conjugation(pl.random_unitary(shape, np.random.default_rng(1))))
    ok, witness = pl.preserves_orthogonality(phi, 12, 1)
    assert ok and witness is None
    assert len(seen) == 26


@pytest.mark.parametrize("blocks", [[3], [2, 3]])
def test_a_halves_refusal_maps_two_projections_and_draws_nothing(blocks):
    """The suite's shear is refused by the halves probe, which is mapped
    and checked before any draw: phi sees the two halves alone, and a
    Generator passed as seed is left where it was."""
    shape = AlgebraShape(blocks)
    shear = [np.eye(n, dtype=complex) for n in blocks]
    shear[int(np.argmax(blocks))][0, 1] = 1.0
    phi, seen = _recorded(pl.from_conjugation(Element(shape, shear)))
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    ok, witness = pl.preserves_orthogonality(phi, 8, rng)
    assert not ok and witness["kind"] == "orthogonal-pair-mapped-to-overlapping"
    halves = [[np.eye(n)[:, : n // 2] for n in blocks], [np.eye(n)[:, n // 2 :] for n in blocks]]
    assert [[u.tolist() for u in p.basis] for p in seen] == [[u.tolist() for u in h] for h in halves]
    assert rng.bit_generator.state == state


def _span(w):
    """The projection basis onto the column space of w, rank cut as in orth."""
    ((_, u),) = orth([((0,), w[None])])
    return u[0]


@pytest.mark.parametrize("blocks", [[12], [3] * 4, [3, 6, 3]])
@pytest.mark.parametrize("seed", [1, 4242])
def test_sampled_orthogonal_pairs_span_two_draws_pushed_apart(blocks, seed):
    """Each sampled pair (p, q) is orthogonal to 1e-15 on its range bases,
    p spans the first of two random_projection draws and q the second
    pushed below 1 - p, from the same stream."""
    shape = AlgebraShape(blocks)
    phi, seen = _recorded(pl.from_conjugation(pl.random_unitary(shape, np.random.default_rng(1))))
    ok, _ = pl.preserves_orthogonality(phi, 8, seed)
    assert ok and len(seen) == 2 + 2 * 8
    rng = np.random.default_rng(seed)
    for p, q in zip(seen[2::2], seen[3::2]):  # after the halves probe
        for up, uq in zip(p.basis, q.basis):
            if up.size and uq.size:
                assert np.linalg.norm(_ct(up) @ uq, 2) <= 1e-15
        first = pl.random_projection(shape, rng)
        room = [int(rng.integers(0, n - r + 1)) for r, n in zip(first.ranks, blocks)]
        second = pl.random_projection(shape, rng, room)
        pushed = [w - up @ (_ct(up) @ w) for up, w in zip(first.basis, second.basis)]
        want = pl.Projection.from_basis(shape, [_span(w) for w in pushed])
        assert p.ranks == first.ranks and q.ranks == want.ranks
        assert pl.distance(p, first) <= 1e-12 and pl.distance(q, want) <= 1e-12


def _halves_fixing(shape, rng):
    """Ad(T) with T_b = diag(A_b, B_b) on the coordinate halves of each
    block, A_b and B_b invertible of cond 100: not unitary."""
    t = []
    for n in shape.blocks:
        h = n // 2
        a, b = (pl.random_invertible(AlgebraShape([m]), rng, 100.0).data[0] for m in (h, n - h))
        t.append(np.block([[a, np.zeros((h, n - h))], [np.zeros((n - h, h)), b]]))
    return pl.from_conjugation(Element(shape, t))


@pytest.mark.parametrize(
    ("blocks", "seed", "ranks_p", "ranks_q"),
    [
        ([12], 1, [6], [3]),
        ([24], 4242, [11], [10]),
        ([3, 6, 3], 1, [1, 3, 3], [2, 1, 0]),
        ([3] * 4, 4242, [1, 3, 3, 2], [0, 0, 0, 1]),
        ([3, 3], 1, [1, 2], [1, 0]),
    ],
)
def test_halves_fixing_map_is_caught_by_a_sampled_pair(blocks, seed, ranks_p, ranks_q):
    """A non-unitary map that fixes the coordinate halves passes the
    halves probe; a sampled pair refuses it, with the witness kind and
    ranks the complement-push sampler gave."""
    shape = AlgebraShape(blocks)
    phi = _halves_fixing(shape, np.random.default_rng(seed))
    halves = [[np.eye(n)[:, : n // 2] for n in blocks], [np.eye(n)[:, n // 2 :] for n in blocks]]
    for half in halves:
        p = pl.Projection.from_basis(shape, half)
        assert pl.distance(phi(p), p) <= 1e-12
    ok, witness = pl.preserves_orthogonality(phi, 8, seed)
    assert not ok and witness["kind"] == "orthogonal-pair-mapped-to-overlapping"
    assert (witness["ranks_p"], witness["ranks_q"]) == (ranks_p, ranks_q)
    assert witness["residual"] > 0.5 and witness["probe_product"] <= pl.PROJ_TOL


def _block_reversal(shape):
    """The lattice map of Ad(1) with source block b routed to k - 1 - b."""
    k = len(shape.blocks)
    return pl.ConjugationRingIso(Element.identity(shape), "id", range(k)[::-1]).lattice_map()


@pytest.mark.parametrize("variant", ["conj", "reversed"])
@pytest.mark.parametrize("seed", [1, 4242])
@pytest.mark.parametrize("blocks", [[6], [12], [3, 3], [3] * 4], ids=str)
def test_dye_refuses_a_halves_fixing_map_with_a_witness_that_replays(blocks, seed, variant):
    """A halves-fixing map passes dye_extension's halves probe; T refuses
    it with the orthogonal pair whose images overlap most, and the
    witness replays through phi to Wielandt's (1 - r^2) / (1 + r^2),
    r = 1 / cond(T)."""
    shape = AlgebraShape(blocks)
    phi = _halves_fixing(shape, np.random.default_rng(seed))
    if variant == "conj":
        phi = pl.from_semilinear(phi.provenance.T, "conj")
    else:
        phi = pl.compose(_block_reversal(shape), phi)
    assert pl.preserves_orthogonality(phi, 0, seed) == (True, None)
    with pytest.raises(pl.OrthogonalityNotPreserved) as exc_info:
        pl.dye_extension(phi, samples=6, seed=seed)
    w = exc_info.value.witness
    assert w["kind"] == "orthogonal-pair-mapped-to-overlapping"
    # the stored pair is the one dye_extension replayed: rebuilt off the
    # same Psi it stores as the witness and maps to its residual exactly
    psi = pl.coordinatize(phi, samples=6, seed=seed).Psi
    p, q = _worst_pair(psi)
    assert (pl.projection_to_obj(p), pl.projection_to_obj(q)) == (w["p"], w["q"])
    assert _product_norm(p, q) <= 1e-15
    assert _product_norm(phi(p), phi(q)) == w["residual"]
    r = 1.0 / pl.cond(psi.T)
    assert abs(w["residual"] - (1 - r * r) / (1 + r * r)) <= 1e-12
    # loaded back, the pair is still orthogonal and replays to rounding
    p, q = (pl.projection_from_obj(w[k]) for k in "pq")
    assert _product_norm(p, q) <= 1e-15 and w["probe_product"] <= 1e-15
    assert abs(_product_norm(phi(p), phi(q)) - w["residual"]) <= 1e-14


def test_zero_map_sends_an_overlapping_pair_to_orthogonal_images():
    shape = AlgebraShape([6])
    zero = LatticeMap(shape, shape, lambda p: pl.Projection.zero(shape), Opaque("zero"))
    ok, witness = pl.preserves_orthogonality(zero, 8, 0)
    assert not ok and witness["kind"] == "overlapping-pair-mapped-to-orthogonal"
    # the witness replays: the pair overlaps densely as claimed, and
    # its images are zero
    p, q = pl.projection_from_obj(witness["p"]), pl.projection_from_obj(witness["q"])
    assert witness["overlap"] > 1e-2
    assert abs((p.element * q.element).norm() - witness["overlap"]) <= 1e-12
    assert witness["residual"] == 0.0


def test_rank_one_permutation_passes_sampling_but_is_out_of_scope(rng):
    """On a single 2x2 block every bijection of the rank-one projections
    extends to a lattice automorphism, induced by nothing.  Sampled
    verification cannot see this; the coordinatization scope rule
    (order-3 structure) is what rules it out."""
    shape = AlgebraShape([2])

    def complement_on_rank_one(p):
        return p.complement() if p.ranks == (1,) else p

    rogue = LatticeMap(shape, shape, complement_on_rank_one, Opaque("rank-1 flip"))
    ver = pl.verify_lattice_iso(rogue, samples=20, seed=1)
    assert ver.passed
    with pytest.raises(pl.NotOrderThree):
        pl.coordinatize(rogue, samples=2, seed=0)


def test_serialization_of_maps_roundtrips(rng):
    shape = AlgebraShape([2, 3])
    t = pl.random_invertible(shape, rng, cond_max=30.0)
    for phi in (pl.from_conjugation(t), pl.from_semilinear(t, "conj")):
        back = pl.map_from_obj(pl.map_to_obj(phi))
        p = pl.random_projection(shape, rng)
        assert pl.distance(back(p), phi(p)) < 1e-12
    rogue = LatticeMap(shape, shape, lambda p: p, Opaque("no provenance"))
    with pytest.raises(ValueError):
        pl.map_to_obj(rogue)


def test_order_residual_measures_the_complement_map(rng):
    """p -> 1 - p reverses the order, so pairs a <= b leave a residual
    ||f(a) - f(b) f(a)|| of order one in the order check."""
    shape = AlgebraShape([3])
    flip = LatticeMap(shape, shape, lambda p: p.complement(), Opaque("complement"))
    ver = pl.verify_lattice_iso(flip, samples=12, seed=0)
    order = {c.name: c for c in ver.checks}["order-both-directions"]
    assert not order.passed
    assert order.max_residual > pl.CHECK_TOL


def test_conjugation_ring_iso_routes_blocks(rng):
    shape = AlgebraShape([3, 3])
    t = pl.random_invertible(shape, rng, cond_max=20.0)
    iso = pl.ConjugationRingIso(t, ["id", "conj"], (1, 0))
    assert iso.source == shape and iso.block_map == (1, 0)
    x = pl.random_element(shape, rng)
    t_inv = pl.invert(t)
    y = iso(x)
    assert np.allclose(y.data[1], t.data[1] @ x.data[0] @ t_inv.data[1], atol=1e-10)
    assert np.allclose(y.data[0], t.data[0] @ x.data[1].conj() @ t_inv.data[0], atol=1e-10)
    assert pl.distance(iso.inverse()(y), x) < 1e-10 * pl.cond(t) ** 2

    phi = iso.lattice_map()
    assert phi.provenance is iso
    back = pl.invert_map(phi)
    for _ in range(5):
        p = pl.random_projection(shape, rng)
        assert pl.distance(phi(p), pl.left_support(iso(p.element))) < 1e-8
        assert pl.distance(back(phi(p)), p) < 1e-8


def test_conjugation_ring_iso_rejects_bad_routing():
    t = Element.identity(AlgebraShape([3, 3]))
    for bad in ((0, 0), (0, 1, 2), (1, 2)):
        with pytest.raises(ValueError):
            pl.ConjugationRingIso(t, "id", bad)
    with pytest.raises(pl.ShapeMismatch):
        pl.ConjugationRingIso(t)(Element.identity(AlgebraShape([2, 3])))


def test_rank_profile_check_reports_no_residual(rng):
    shape = AlgebraShape([3])
    t = pl.random_invertible(shape, rng, cond_max=20.0)
    ver = pl.verify_lattice_iso(pl.from_conjugation(t), samples=8, seed=0)
    checks = {c.name: c for c in ver.checks}
    assert checks["rank-profile-constancy"].passed
    assert checks["rank-profile-constancy"].max_residual is None
    others = [c for name, c in checks.items() if name != "rank-profile-constancy"]
    assert all(isinstance(c.max_residual, float) for c in others)


S3, S33 = AlgebraShape([3]), AlgebraShape([3, 3])


def _real_part(x):
    return Element(x.shape, [a.real for a in x.data])


def _trace_scalar(x):
    return Element(x.shape, [np.trace(a) / len(a) * np.eye(len(a)) for a in x.data])


def _diagonal(x):
    return Element(S33, [x.data[0], x.data[0]])


@pytest.mark.parametrize(
    "psi, shape, error, reason",
    [
        (_diagonal, S33, pl.NotRingIso, "not a bijection"),
        (_real_part, S3, pl.NotRingIso, "image of i on block 0 is neither i nor -i"),
        (_trace_scalar, S3, pl.DegenerateWitness, "singular on block 0"),
        (_diagonal, S3, pl.NotRingIso, "block counts differ"),
    ],
    ids=["routing", "image-of-i", "singular-t", "block-counts"],
)
def test_skolem_noether_refuses_non_isomorphisms_by_name(psi, shape, error, reason):
    # each is refused earlier by inner_factor's multiplicativity check,
    # so the probes are called directly
    with pytest.raises(error, match=reason):
        _skolem_noether(psi, shape)


def test_skolem_noether_reads_a_routed_iso_in_one_probe_round(rng):
    t = pl.random_invertible(AlgebraShape([2, 3, 3]), rng, cond_max=20.0)
    iso = pl.ConjugationRingIso(t, ("id", "conj", "id"), (0, 2, 1))
    calls = []

    def psi(x):
        calls.append(x)
        return iso(x)

    got = _skolem_noether(psi, iso.source)
    # max_b n_b + 2: one round of probes, not n_b + 2 per block (14)
    assert len(calls) == 5
    assert got.block_map == (0, 2, 1) and got.sigma == ("id", "conj", "id")
    for _ in range(8):
        x = pl.random_element(iso.source, rng)
        assert pl.distance(got(x), iso(x)) <= 1e-12
