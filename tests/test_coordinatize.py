"""The lattice-to-ring pipeline: frames, normalization, reconstruction."""

import numpy as np
import pytest

import projlat as pl
from projlat import AlgebraShape, Element, Frame
from projlat.coordinatize import _CornerMap, normalize_map
from projlat.core import PROJ_TOL, _ct
from projlat.graphs import _slot
from projlat.maps import Composite


S3 = AlgebraShape([3])
S6 = AlgebraShape([6])
S8 = AlgebraShape([8])


def test_normalize_map_lands_on_target_frame(rng):
    t = pl.random_invertible(S6, rng, cond_max=50.0)
    phi = pl.from_conjugation(t)
    fr = Frame.standard(S6, 3)
    phi3, target, normalizers = normalize_map(phi, fr)
    assert len(normalizers) == 2
    for e_src, e_tgt in zip(fr.projections, target.projections):
        assert pl.distance(phi3(e_src), e_tgt) < 1e-8
    # all three units transport to the target units
    one = Element.identity(fr.corner_shape)
    for slot in ((0, 1), (0, 2)):
        img = phi3(pl.graph_projection(fr, one, slot))
        assert pl.distance(img, pl.graph_projection(target, one, slot)) < 1e-7


@pytest.mark.parametrize("blocks", [[3], [6], [3, 3]])
def test_coordinatize_conjugation(blocks, rng):
    shape = AlgebraShape(blocks)
    t = pl.random_invertible(shape, rng, cond_max=100.0)
    result = pl.coordinatize(pl.from_conjugation(t), samples=4, seed=5)
    t_inv = pl.invert(t)
    gate = 1e-6 * pl.cond(t)
    for _ in range(25):
        x = pl.random_element(shape, rng)
        assert pl.distance(result.Psi(x), t * x * t_inv) <= gate
    # corner map multiplies
    ch = result.source_frame.corner_shape
    a = pl.random_element(ch, rng)
    b = pl.random_element(ch, rng)
    assert pl.distance(result.psi(a * b), result.psi(a) * result.psi(b)) < 1e-6


def test_corner_grid_names_the_corner_whose_recovery_fails(rng):
    shape = AlgebraShape([3, 6])
    phi = pl.from_conjugation(pl.random_invertible(shape, rng, cond_max=50.0))
    result = pl.coordinatize(phi, samples=2, seed=5)
    phi_norm = result.psi.phi
    calls = []

    def apply(p):
        img = phi_norm(p)
        calls.append(p)
        if len(calls) == 3:  # the third call, through slot 23: rank 6 on block 1
            return pl.Projection.from_basis(shape, [img.basis[0], np.eye(6)])
        return img

    bad = _CornerMap(pl.LatticeMap(shape, shape, apply), result.source_frame, result.target_frame)
    x = pl.random_element(result.source_frame.corner_shape, rng)
    # each one-corner call applies phi once; the first two recover
    for slot in ((0, 1), (0, 2)):
        assert pl.distance(bad(x, slot), result.psi(x, slot)) == 0.0
    with pytest.raises(pl.NotAGraphProjection) as info:
        bad(x, (1, 2))
    assert len(calls) == 3
    assert info.value.block == 1
    assert str(info.value) == "slot 23: rank 6 does not match the slot rank 2 on block 1"


def test_one_corner_call_names_its_slot(rng):
    shape = AlgebraShape([3, 6])
    phi = pl.from_conjugation(pl.random_invertible(shape, rng, cond_max=50.0))
    result = pl.coordinatize(phi, samples=2, seed=5)
    phi_norm = result.psi.phi

    def apply(p):
        img = phi_norm(p)
        return pl.Projection.from_basis(shape, [img.basis[0], np.eye(6)])

    bad = _CornerMap(pl.LatticeMap(shape, shape, apply), result.source_frame, result.target_frame)
    with pytest.raises(pl.NotAGraphProjection) as info:
        bad(pl.random_element(result.source_frame.corner_shape, rng), (0, 2))
    assert str(info.value) == "slot 13: rank 6 does not match the slot rank 2 on block 1"


@pytest.mark.parametrize("other", [[6, 3], [3]], ids=["swapped", "one-block"])
def test_corner_grid_refuses_an_image_of_another_shape(other, rng):
    shape = AlgebraShape([3, 6])
    phi = pl.from_conjugation(pl.random_invertible(shape, rng, cond_max=50.0))
    result = pl.coordinatize(phi, samples=2, seed=5)
    phi_norm = result.psi.phi
    calls = []

    def apply(p):
        calls.append(p)
        if len(calls) == 2:  # the second corner's image lives in another algebra
            return pl.Projection.identity(AlgebraShape(other))
        return phi_norm(p)

    bad = _CornerMap(pl.LatticeMap(shape, shape, apply), result.source_frame, result.target_frame)
    x = pl.random_element(result.source_frame.corner_shape, rng)
    bad(x)
    with pytest.raises(pl.ShapeMismatch):
        bad(x, (0, 2))
    assert len(calls) == 2


def test_coordinatize_result_keeps_no_c_fold_tiles(rng):
    shape = AlgebraShape([3, 3])
    phi = pl.from_conjugation(pl.random_invertible(shape, rng, cond_max=50.0))
    result = pl.coordinatize(phi, samples=2, seed=5)
    assert set(vars(result.psi)) == {"phi", "source", "target"}
    # the compiled Psi is psi assembled entrywise, undoing S
    s0, s3 = result.normalizers
    s = s3 * s0
    x = pl.random_element(shape, rng)
    by_corner = _psi_by_corner(result.psi, x, s, pl.invert(s))
    assert pl.distance(result.Psi(x), by_corner) < 1e-10


def _rotate(fr, x):
    """x in the slot coordinates of frame fr: V* x V per block."""
    return x._like([_ct(v) @ a @ v for v, a in zip(fr.v._stacks, x._stacks)])


def _psi_by_corner(psi, x, s, s_inv):
    """Psi re-derived at x one slot corner at a time: psi at each
    nonzero corner alone, the zero ones left zero."""
    fr, target, k = psi.source, psi.target, psi.source.order
    coords = _rotate(fr, x)._pieces()
    out = [np.zeros_like(v) for v in target.v._stacks]
    for i in range(k):
        for j in range(k):
            corner = Element._of(fr.corner_shape, [(g, _slot(a, i, j, k)) for g, a in coords])
            if corner.is_zero():
                continue
            for o, a in zip(out, psi(corner)._stacks):
                _slot(o, i, j, k)[...] = a
    return s_inv * target.v._like(out) * s


def test_coordinatize_transpose(rng):
    phi = pl.from_semilinear(Element.identity(S3), "conj")
    result = pl.coordinatize(phi, samples=4, seed=5)
    for _ in range(25):
        x = pl.random_element(S3, rng)
        assert pl.distance(result.Psi(x), x.conj()) < 1e-8


def test_coordinatize_with_explicit_frame(rng):
    t = pl.random_invertible(S6, rng, cond_max=30.0)
    fr = Frame.standard(S6, 3)
    result = pl.coordinatize(pl.from_conjugation(t), source_frame=fr, samples=4, seed=0)
    t_inv = pl.invert(t)
    x = pl.random_element(S6, rng)
    assert pl.distance(result.Psi(x), t * x * t_inv) < 1e-6


def _order_four_frame(seed):
    """The standard order-4 frame of [8] conjugated by a seeded Haar
    unitary."""
    base = Frame.standard(S8, 4)
    u = pl.random_unitary(S8, np.random.default_rng(seed))
    ps = [
        pl.Projection.from_basis(S8, [ub @ eb for ub, eb in zip(u.data, p.basis)])
        for p in base.projections
    ]
    return Frame.from_projections(ps, [u * w * u.adjoint() for w in base.units])


@pytest.mark.parametrize("kind", ["conj", "transpose"])
def test_coordinatize_with_an_order_four_frame(kind, rng):
    # the criterion-05 gates: 1e-6 cond(T) for a conjugation, 1e-8 for the transpose map
    if kind == "conj":
        t = pl.random_invertible(S8, rng, cond_max=100.0)
        t_inv = pl.invert(t)
        phi, gate, truth = pl.from_conjugation(t), 1e-6 * pl.cond(t), lambda x: t * x * t_inv
    else:
        phi, gate, truth = pl.from_semilinear(Element.identity(S8), "conj"), 1e-8, Element.conj
    result = pl.coordinatize(phi, source_frame=_order_four_frame(11), samples=4, seed=5)
    assert result.target_frame.order == 4
    assert result.Psi.sigma == ("id" if kind == "conj" else "conj",)
    assert result.diagnostics["projection_intertwining"] <= 1e-8
    for _ in range(25):
        x = pl.random_element(S8, rng)
        assert pl.distance(result.Psi(x), truth(x)) <= gate
    # the compiled Psi agrees with psi read off the 4 x 4 corners
    s0, sk = result.normalizers
    s = sk * s0
    for _ in range(3):
        x = pl.random_element(S8, rng)
        assert pl.distance(result.Psi(x), _psi_by_corner(result.psi, x, s, pl.invert(s))) <= gate


def test_coordinatize_rejects_non_order3_shapes(rng):
    # the message names the first block whose size 3 does not divide
    for blocks, b in (([2], 0), ([4], 0), ([3, 4], 1)):
        shape = AlgebraShape(blocks)
        t = pl.random_invertible(shape, rng, cond_max=10.0)
        with pytest.raises(pl.NotOrderThree, match=f"by 3: block {b} has size {blocks[b]}$"):
            pl.coordinatize(pl.from_conjugation(t), samples=2, seed=0)


def test_uniqueness_across_seeds(rng):
    t = pl.random_invertible(S3, rng, cond_max=50.0)
    phi = pl.from_conjugation(t)
    r_a = pl.coordinatize(phi, samples=4, seed=31)
    r_b_inv = pl.coordinatize(pl.invert_map(phi), samples=4, seed=77)
    rep = pl.uniqueness_residual(lambda x: r_b_inv.Psi(r_a.Psi(x)), S3, samples=32)
    assert rep.support_ok
    assert rep.residual <= 1e-7


def test_uniqueness_residual_flags_support_breakage(rng):
    # Ad_T for non-central T moves supports, so the identity-lemma
    # premise fails and the report must say so
    t = pl.random_invertible(S3, rng, cond_max=40.0)
    t_inv = pl.invert(t)
    rep = pl.uniqueness_residual(lambda x: t * x * t_inv, S3, samples=16)
    assert not rep.support_ok
    assert rep.witness is not None and "support_distance" in rep.witness


@pytest.mark.parametrize("kind", ["conjugation", "scaling"])
def test_uniqueness_residual_equals_the_per_probe_loop(kind):
    """The batched supports and distances give the per-probe loop's
    report bit for bit, and the witness is its first sample over
    PROJ_TOL."""
    shape = AlgebraShape([2, 3, 3])
    t = pl.random_invertible(shape, np.random.default_rng(4), cond_max=40.0)
    t_inv = pl.invert(t)
    psi = (lambda x: t * x * t_inv) if kind == "conjugation" else (lambda x: 2.0 * x)
    rep = pl.uniqueness_residual(psi, shape, samples=16, seed=9)
    rng = np.random.default_rng(9)
    probes = [Element.identity(shape)] + [pl.random_element(shape, rng) for _ in range(16)]
    probes += [pl.random_projection(shape, rng).element for _ in range(4)]
    support = [pl.distance(pl.left_support(psi(x)), pl.left_support(x)) for x in probes]
    bad = [k for k, d in enumerate(support) if d > PROJ_TOL]
    assert bool(bad) == (kind == "conjugation")
    assert rep.residual == max(pl.distance(psi(x), x) for x in probes)
    assert rep.support_residual == max(support)
    assert rep.support_ok == (not bad)
    assert rep.witness == ({"sample": bad[0], "support_distance": support[bad[0]]} if bad else None)
    assert rep.samples == len(probes)


def test_normalizers_compose_to_the_returned_map(rng):
    t = pl.random_invertible(S3, rng, cond_max=20.0)
    phi = pl.from_conjugation(t)
    result = pl.coordinatize(phi, samples=4, seed=13)
    s0, s3 = result.normalizers
    s = s3 * s0
    s_inv = pl.invert(s)
    # Psi = Ad_{s^-1} after the normalized recovery; sanity: supports match
    x = pl.random_element(S3, rng)
    assert pl.distance(
        pl.left_support(result.Psi(x)), phi(pl.left_support(x))
    ) < 1e-8
    assert pl.distance(s * s_inv, Element.identity(S3)) < 1e-10


def _maps_of(blocks, rng):
    """A conjugation, a semilinear map and, where two blocks share a
    size, a block reversal, on the given shape."""
    shape = AlgebraShape(blocks)
    t = pl.random_invertible(shape, rng, cond_max=50.0)
    maps = {
        "conj": pl.from_conjugation(t),
        "semilinear": pl.from_semilinear(t, "conj"),
    }
    if blocks[::-1] == blocks and len(blocks) > 1:
        reversal = pl.ConjugationRingIso(t, "id", block_map=range(len(blocks))[::-1])
        maps["reversal"] = reversal.lattice_map()
    return maps


@pytest.mark.parametrize("blocks", [[3], [6], [3, 6, 3]])
def test_normalized_map_is_one_conjugation_after_phi(blocks, rng):
    """phi' is Ad(S) after phi with S = S3 S0, the S behind the
    compiled Psi, and it agrees with the chain of the two normalizer
    maps."""
    shape = AlgebraShape(blocks)
    for name, phi in _maps_of(blocks, rng).items():
        result = pl.coordinatize(phi, samples=2, seed=5)
        s0, s3 = result.normalizers
        s = s3 * s0
        prov = result.psi.phi.provenance
        assert isinstance(prov, Composite), name
        assert prov.inner is phi, name
        outer = prov.outer.provenance
        assert isinstance(outer, pl.ConjugationRingIso), name
        assert all(np.array_equal(a, b) for a, b in zip(outer.T.data, s.data)), name
        chain = phi
        for si in (s0, s3):
            chain = pl.compose(pl.from_conjugation(si), chain)
        gate = 1e-10 * pl.cond(s)
        for _ in range(8):
            p = pl.random_projection(shape, rng)
            assert pl.distance(result.psi.phi(p), chain(p)) <= gate, name


def _conditioned(shape, c, rng):
    """T = U diag(s) V per block with cond(T) = c exactly, as
    bench/envelope.py builds it."""
    u, v = pl.random_unitary(shape, rng), pl.random_unitary(shape, rng)
    return Element(
        shape,
        [
            (ub * np.geomspace(c**-0.5, c**0.5, n)) @ vb
            for ub, vb, n in zip(u.data, v.data, shape.blocks)
        ],
    )


@pytest.mark.parametrize("c", [1e2, 1e4, 1e5, 1e6, 1e7])
def test_conditioning_envelope_holds_on_six(c):
    """bench/envelope.py's runs, at cond(T) up to 1e7 and at its two
    seeds, reconstruct within the criterion-05 gate of 1e-6 cond(T)."""
    for seed in (1, 4242):
        rng = np.random.default_rng(seed)
        t = _conditioned(S6, c, rng)
        t_inv = pl.invert(t)
        result = pl.coordinatize(pl.from_conjugation(t), seed=seed)
        for _ in range(8):
            x = pl.random_element(S6, rng)
            assert pl.distance(result.Psi(x), t * x * t_inv) <= 1e-6 * c, seed


# the Raises list of coordinatize's docstring
_REFUSALS = (
    pl.NotOrderThree,
    pl.FrameAssemblyFailed,
    pl.NotAGraphProjection,
    pl.SlotMismatch,
    pl.NotRingIso,
    pl.DegenerateWitness,
    pl.IntertwiningFailure,
)


@pytest.mark.parametrize("blocks", [[6], [3, 3]])
@pytest.mark.parametrize("sigma", ["id", "conj"])
@pytest.mark.parametrize("c", [1e2, 1e4, 1e6, 1e8])
def test_conditioned_maps_reconstruct_or_refuse_by_name(c, sigma, blocks):
    """Across the conditioning envelope coordinatize either meets the
    criterion-05 gate of 1e-6 cond(T) or raises an error its docstring
    names; [6] must reconstruct at cond 1e4, within 1e-7, and at 1e6."""
    shape = AlgebraShape(blocks)
    rng = np.random.default_rng(1)
    t = _conditioned(shape, c, rng)
    t_inv = pl.invert(t)
    pinned = blocks == [6] and c in (1e4, 1e6) and sigma == "id"
    try:
        result = pl.coordinatize(pl.from_semilinear(t, sigma), seed=1)
    except _REFUSALS:
        if pinned:
            raise
        return
    err = 0.0
    for _ in range(8):
        x = pl.random_element(shape, rng)
        truth = t * (x.conj() if sigma == "conj" else x) * t_inv
        err = max(err, pl.distance(result.Psi(x), truth))
    assert err <= (1e-7 if pinned and c == 1e4 else 1e-6 * c)


def test_a_map_that_switches_conjugations_by_rank_parity_is_refused():
    """Ad(T) on projections whose block ranks are all even, Ad(T2)
    otherwise: the frame, its slot graphs and the two-slot meets all
    have even ranks, so the map passes normalization and the corner
    checks, and only phi(p) = range Psi(p) at odd ranks refuses it."""
    rng = np.random.default_rng(3)
    even, odd = (pl.from_conjugation(pl.random_invertible(S6, rng, cond_max=10.0)) for _ in range(2))

    def apply(p):
        return (even if all(r % 2 == 0 for r in p.ranks) else odd)(p)

    with pytest.raises(pl.IntertwiningFailure) as info:
        pl.coordinatize(pl.LatticeMap(S6, S6, apply), seed=1)
    assert info.value.residual > 0.5
    # the message names the identity, not one half of its certificate
    assert str(info.value) == (
        f"range intertwining failed: ||phi(p) - range Psi(p)|| = {info.value.residual:.3e}"
    )


def test_a_map_that_keeps_only_the_frame_is_refused_as_no_graph():
    """Ad(T1) on the seeded frame and its two unit graphs, Ad(T2)
    elsewhere: normalization passes, and the first sampled slot-12
    graph maps to no graph, a refusal coordinatize's docstring names."""
    rng = np.random.default_rng(3)
    t1, t2 = (pl.random_invertible(S6, rng, cond_max=10.0) for _ in range(2))
    first, rest = pl.from_conjugation(t1), pl.from_conjugation(t2)
    fr = Frame(pl.random_unitary(S6, np.random.default_rng(1)), 3)  # the frame seed 1 draws
    one = Element.identity(fr.corner_shape)
    kept = [*fr.projections, *(pl.graph_projection(fr, one, s) for s in ((0, 1), (0, 2)))]

    def apply(p):
        return (first if any(pl.distance(p, e) < 1e-9 for e in kept) else rest)(p)

    with pytest.raises(_REFUSALS) as info:
        pl.coordinatize(pl.LatticeMap(S6, S6, apply), seed=1)
    assert type(info.value) is pl.NotAGraphProjection
    assert str(info.value) == "slot 12: not a graph projection (residual 7.755e-01) on block 0"


def _routed_conjugation(shape, rng):
    t = pl.random_invertible(shape, rng, cond_max=50.0)
    return pl.ConjugationRingIso(t, "conj", block_map=(1, 0)).lattice_map()


def _semilinear(shape, rng):
    return pl.from_semilinear(pl.random_invertible(shape, rng, cond_max=50.0), "conj")


def _block_reversal(shape, rng):
    def reverse(x):
        return Element(x.shape, x.data[::-1])

    return pl.from_ring_iso(reverse, shape, shape, psi_inverse=reverse)


INTERTWINING_CASES = {
    "3+3-routed-conj": ([3, 3], _routed_conjugation, 21),
    "12-id": ([12], lambda shape, rng: pl.from_conjugation(pl.random_invertible(shape, rng)), 3),
    "3+6+3-semilinear": ([3, 6, 3], _semilinear, 5),
    "3x6-reversal": ([3] * 6, _block_reversal, 7),
}


@pytest.mark.parametrize("samples", [0, 8, 12])  # 0 reaches coordinatize from the CLI
@pytest.mark.parametrize("case", list(INTERTWINING_CASES))
def test_intertwining_is_measured_on_the_documented_draws(case, samples):
    """The three intertwining diagnostics equal, bit for bit, the
    per-probe loop on the draws rebuilt from the seed: the frame's
    unitary, the max(2, samples // 4) pairs (x, y) of corner elements,
    then per sample a projection p and a support l(x p'); the frame
    points P_12[y], P_12[x + y], P_12[x y] and the two-slot
    P_{x,y} = (P_12[x] v e3) ^ (P_13[y] v e2) of each pair take no
    draws."""
    blocks, make, seed = INTERTWINING_CASES[case]
    shape = AlgebraShape(blocks)
    phi = make(shape, np.random.default_rng(8))
    result = pl.coordinatize(phi, samples=samples, seed=seed)
    psi_map = result.Psi.lattice_map()
    rng = np.random.default_rng(seed)
    pl.random_unitary(shape, rng)
    fr = result.source_frame
    e1, e2, e3 = fr.projections
    points = []
    for _ in range(max(2, samples // 4)):
        x, y = (pl.random_element(fr.corner_shape, rng, norm_bound=2.0) for _ in range(2))
        points += [pl.graph_projection(fr, z) for z in (y, x + y, x * y)]
        left = pl.join(pl.graph_projection(fr, x, (0, 1)), e3)
        points.append(pl.meet(left, pl.join(pl.graph_projection(fr, y, (0, 2)), e2)))
    proj = sup = 0.0
    ranks = set()
    for _ in range(samples):
        p = pl.random_projection(shape, rng)
        proj = max(proj, pl.distance(phi(p), psi_map(p)))
        x = pl.random_element(shape, rng)
        p2 = pl.random_projection(shape, rng)
        q = pl.left_support(x * p2)
        sup = max(sup, pl.distance(phi(q), psi_map(q)))
        ranks.update((r, n) for pp in (p, p2) for r, n in zip(pp.ranks, blocks))
    assert result.diagnostics["projection_intertwining"] == proj
    assert result.diagnostics["support_intertwining"] == sup
    assert result.diagnostics["frame_intertwining"] == max(
        pl.distance(phi(q), psi_map(q)) for q in points
    )
    assert set(result.diagnostics) == {
        "unit", "slot_agreement", "seed", "samples",
        "projection_intertwining", "support_intertwining", "frame_intertwining",
    }
    if case == "3+6+3-semilinear" and samples:  # the draws reach both ends of every block size
        assert {(0, n) for n in blocks} | {(n, n) for n in blocks} <= ranks


@pytest.mark.parametrize(
    "blocks, samples, calls",
    [([12], 8, 20), ([24], 8, 24), ([3] * 4, 8, 17), ([3] * 6, 8, 17), ([12], 12, 26)],
)
def test_each_corner_draw_is_mapped_once(blocks, samples, calls, monkeypatch):
    """The corner points of one coordinatize, counted at the corner
    map's batched entry (its call is the one-point case): normalization's
    two slot units; per pair (x, y), psi(x) and slots 13 and 23 at x;
    the compilation's max_b n_b/3 + 2.  `calls` counts the corner points
    read through phi: those points, and per pair the slot-12 graphs
    P_12[y], P_12[x + y] and P_12[x y] that the certificate maps as
    probes, with no psi call.  phi is applied once per corner point,
    once per frame projection and once per certificate probe: 2 samples
    random ones and four frame points per pair."""
    shape = AlgebraShape(blocks)
    t = pl.random_invertible(shape, np.random.default_rng(1), cond_max=50.0)
    real, seen = _CornerMap.images, []

    def counted(self, points):
        points = list(points)
        seen.extend(slot for _, slot in points)
        return real(self, points)

    conj, applied = pl.from_conjugation(t), []

    def apply(p):
        applied.append(p)
        return conj(p)

    monkeypatch.setattr(_CornerMap, "images", counted)
    pl.coordinatize(pl.LatticeMap(shape, shape, apply), samples=samples, seed=1)
    pairs = max(2, samples // 4)
    assert len(seen) + 3 * pairs == calls
    assert len(seen) == 2 + 3 * pairs + max(blocks) // 3 + 2
    assert seen.count((0, 2)) - 1 == seen.count((1, 2)) == pairs  # less the slot-13 unit
    assert len(applied) == 3 + len(seen) + 4 * pairs + 2 * samples


@pytest.mark.parametrize("blocks, calls, mapped", [([12], 21, 79), ([3] * 4, 15, 73)])
def test_each_batch_is_one_conjugation_call(blocks, calls, mapped, monkeypatch):
    """ConjugationRingIso._images calls of one coordinatize of Ad(T):
    phi's frame projections and phi's certificate probes, one each; each
    of the two slot units, the slot stage and each of the compilation's
    max_b n_b/3 + 2 corner points, two each (phi, then Ad(S_k S0));
    Psi's probes, one.  The projections mapped stay one per probe."""
    shape = AlgebraShape(blocks)
    t = pl.random_invertible(shape, np.random.default_rng(1), cond_max=100.0)
    real, seen = pl.ConjugationRingIso._images, []

    def counted(self, ps):
        seen.append(len(ps))
        return real(self, ps)

    monkeypatch.setattr(pl.ConjugationRingIso, "_images", counted)
    pl.coordinatize(pl.from_conjugation(t), seed=1)
    assert len(seen) == calls == 9 + 2 * (max(blocks) // 3 + 2)
    assert sum(seen) == mapped


def _forged_slot13(shape, eps):
    """Ad(T), except on the projections under e1 v e3 of the standard
    frame other than e1, e3 and P_13[1], where the third index group is
    first scaled by 1 + eps: slot 13 reads (1 + eps) psi(x), and the
    frame and slot units stay exact."""
    t = pl.random_invertible(shape, np.random.default_rng(1), cond_max=50.0)
    fr = Frame.standard(shape, 3)
    e1, _, e3 = fr.projections
    top = pl.join(e1, e3)
    kept = (e1, e3, pl.graph_projection(fr, Element.identity(fr.corner_shape), (0, 2)))
    d = Element(shape, [np.diag(np.repeat([1.0, 1.0, 1.0 + eps], n // 3)) for n in shape.blocks])
    exact, forged = pl.from_conjugation(t), pl.from_conjugation(t * d)

    def apply(p):
        under = pl.leq(p, top) and all(pl.distance(p, e) > 1e-12 for e in kept)
        return (forged if under else exact)(p)

    return pl.LatticeMap(shape, shape, apply), fr


@pytest.mark.parametrize("blocks", [[6], [3, 3]])
def test_a_forged_slot_13_is_refused_with_a_replayable_witness(blocks):
    """SlotMismatch carries the slot, the residual and the corner
    element x, and ||psi(x) - psi(x, slot)|| replays to the residual."""
    phi, fr = _forged_slot13(AlgebraShape(blocks), 1e-3)
    with pytest.raises(pl.SlotMismatch) as info:
        pl.coordinatize(phi, source_frame=fr, seed=1)
    exc = info.value
    assert exc.slot == (0, 2)
    assert 1e-4 < exc.residual < 2e-3
    assert str(exc).startswith(f"slot 13 recovery disagrees with slot 12 (residual {exc.residual:.3e})")
    phi_norm, target, _ = normalize_map(phi, fr)
    psi = _CornerMap(phi_norm, fr, target)
    assert pl.distance(psi(exc.x), psi(exc.x, exc.slot)) == exc.residual


def test_a_slot_unit_that_does_not_recover_is_named_as_such():
    """phi(p) = range((T + eps Re<G_0, p_0> G) p) conjugates by an
    operator that depends on p, so the slot-12 unit's image is no graph:
    normalization says recovery failed, not inversion."""
    rng = np.random.default_rng(1)
    t, g = pl.random_invertible(S6, rng, cond_max=50.0), pl.random_element(S6, rng)

    def apply(p):
        c = np.vdot(g.data[0], p.element.data[0]).real
        return pl.left_support((t + 1e-6 * c * g) * p.element)

    with pytest.raises(pl.FrameAssemblyFailed) as info:
        pl.coordinatize(pl.LatticeMap(S6, S6, apply), seed=1)
    assert str(info.value).startswith("slot unit does not recover: slot 12: not a graph projection")
    assert isinstance(info.value.__cause__, pl.NotAGraphProjection)


def _logged(shape, apply):
    """An opaque LatticeMap of apply that logs each projection it maps."""
    log = []

    def logging(p):
        log.append(p)
        return apply(p)

    return pl.LatticeMap(shape, shape, logging), log


def _bits(ps):
    return [[u.tobytes() for u in p.basis] for p in ps]


def test_a_slot_unit_refusal_maps_the_frame_and_that_unit_alone():
    """The slot units are read one at a time: when the slot-12 unit
    does not recover, phi has seen the frame projections and that
    unit's graph, and nothing else."""
    rng = np.random.default_rng(1)
    t, g = pl.random_invertible(S6, rng, cond_max=50.0), pl.random_element(S6, rng)

    def apply(p):
        c = np.vdot(g.data[0], p.element.data[0]).real
        return pl.left_support((t + 1e-6 * c * g) * p.element)

    phi, log = _logged(S6, apply)
    fr = Frame.standard(S6, 3)
    with pytest.raises(pl.FrameAssemblyFailed, match="slot unit does not recover: slot 12"):
        pl.coordinatize(phi, source_frame=fr, seed=1)
    unit = pl.graph_projection(fr, Element.identity(fr.corner_shape), (0, 1))
    assert _bits(log) == _bits([*fr.projections, unit])


@pytest.mark.parametrize("blocks", [[6], [3, 3]])
def test_a_slot_stage_refusal_comes_after_the_whole_stage_is_mapped(blocks):
    """The slot stage maps x at slots 12, 13 and 23 for every pair in
    one batch, then recovers in that order: phi maps a slot-13 graph to
    a projection of the wrong rank, and the refusal names slot 13 after
    phi has seen the frame, the two slot units and every graph of the
    stage, in the order of the draws."""
    shape = AlgebraShape(blocks)
    fr = Frame.standard(shape, 3)
    e1, _, e3 = fr.projections
    top, one = pl.join(e1, e3), Element.identity(fr.corner_shape)
    kept = (e1, e3, pl.graph_projection(fr, one, (0, 2)))
    exact = pl.from_conjugation(pl.random_invertible(shape, np.random.default_rng(1), cond_max=50.0))

    def apply(p):
        under = pl.leq(p, top) and all(pl.distance(p, e) > 1e-12 for e in kept)
        return exact(top if under else p)

    phi, log = _logged(shape, apply)
    with pytest.raises(pl.NotAGraphProjection, match="^slot 13: rank"):
        pl.coordinatize(phi, source_frame=fr, samples=8, seed=1)
    rng = pl.rng_from(1)
    xs = [[pl.random_element(fr.corner_shape, rng, norm_bound=2.0) for _ in range(2)][0] for _ in range(2)]
    points = [(one, (0, 1)), (one, (0, 2))] + [(x, s) for x in xs for s in ((0, 1), (0, 2), (1, 2))]
    assert _bits(log) == _bits([*fr.projections, *(pl.graph_projection(fr, x, s) for x, s in points)])


def _rank_dependent_conjugation(shape, rng):
    """Ad(U_r) then Ad(T), U_r a unitary seeded by the rank profile r."""
    t = pl.from_conjugation(pl.random_invertible(shape, rng, cond_max=50.0))

    def apply(p):
        u = pl.random_unitary(shape, np.random.default_rng(list(p.ranks)))
        return t(pl.from_conjugation(u)(p))

    return pl.LatticeMap(shape, shape, apply)


def _odd_rank_transpose(shape, rng):
    """Ad(T) on projections of even total rank, Ad(T) after the
    transpose on odd ones."""
    t = pl.random_invertible(shape, rng, cond_max=50.0)
    even, odd = pl.from_conjugation(t), pl.from_semilinear(t, "conj")
    return pl.LatticeMap(shape, shape, lambda p: (odd if sum(p.ranks) % 2 else even)(p))


@pytest.mark.parametrize("blocks", [[6], [3, 3]])
@pytest.mark.parametrize("make", [_rank_dependent_conjugation, _odd_rank_transpose])
def test_rank_dependent_maps_are_refused_by_the_certificate(make, blocks):
    shape = AlgebraShape(blocks)
    phi = make(shape, np.random.default_rng(1))
    with pytest.raises(pl.IntertwiningFailure) as info:
        pl.coordinatize(phi, seed=1)
    exc = info.value
    assert exc.residual > 0.5
    # the failure carries its witness: the worst probe and Psi's image of it
    assert pl.distance(phi(exc.probe), exc.image) == exc.residual


def test_psi_is_a_compiled_conjugation_ring_iso(rng):
    t = pl.random_invertible(S6, rng, cond_max=100.0)
    result = pl.coordinatize(pl.from_conjugation(t), samples=4, seed=5)
    psi = result.Psi
    assert isinstance(psi, pl.ConjugationRingIso)
    assert psi.sigma == ("id",) and psi.block_map == (0,)
    diag = result.diagnostics
    assert diag["projection_intertwining"] <= 1e-8
    assert diag["support_intertwining"] <= 1e-8
    back = psi.inverse()
    for _ in range(5):
        x = pl.random_element(S6, rng)
        assert pl.distance(back(psi(x)), x) <= 1e-8


def test_compiled_psi_of_the_transpose_map_conjugates_every_block():
    shape = AlgebraShape([3, 6])
    phi = pl.from_semilinear(Element.identity(shape), "conj")
    result = pl.coordinatize(phi, samples=4, seed=5)
    assert result.Psi.sigma == ("conj", "conj")
    assert result.diagnostics["projection_intertwining"] <= 1e-8


def test_compiled_psi_routes_reversed_blocks(rng):
    shape = AlgebraShape([3, 3, 3, 3])

    def reverse(x):
        return Element(x.shape, x.data[::-1])

    phi = pl.from_ring_iso(reverse, shape, shape, psi_inverse=reverse)
    result = pl.coordinatize(phi, samples=4, seed=5)
    assert result.Psi.block_map == (3, 2, 1, 0)
    x = pl.random_element(shape, rng)
    assert pl.distance(result.Psi(x), reverse(x)) <= 1e-8
