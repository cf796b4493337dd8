"""Factoring ring isomorphisms into a linear/conjugate-linear core and Ad_y."""

import numpy as np
import pytest

import projlat as pl
from projlat import AlgebraShape, Element, LatticeMap
from projlat.maps import Opaque


S3 = AlgebraShape([3])
S23 = AlgebraShape([2, 3])
S22 = AlgebraShape([2, 2])
S33 = AlgebraShape([3, 3])


def _ad(t):
    t_inv = pl.invert(t)
    return lambda x: t * x * t_inv


def test_inner_factor_conjugation(rng):
    t = pl.random_invertible(S3, rng, cond_max=50.0)
    fac = pl.inner_factor(_ad(t), S3)
    assert fac.iso.sigma == ("id",)
    assert fac.residual <= 1e-7 * pl.cond(fac.y)
    # y is collinear with t: |<y, t>| close to ||y|| ||t||
    yb, tb = fac.y.data[0].ravel(), t.data[0].ravel()
    overlap = abs(np.vdot(yb, tb)) / (np.linalg.norm(yb) * np.linalg.norm(tb))
    assert overlap >= 1.0 - 1e-8


def test_inner_factor_keeps_digits_when_a_probe_column_is_small(rng):
    # psi(E_00) = T E_00 T^-1 has column k proportional to (T^-1)_{0k};
    # evaluated with roundoff, a tiny (0, 0) entry leaves column 0 with
    # few correct digits, so probing with it would spoil y
    tinv = pl.random_invertible(S3, rng, cond_max=10.0).data[0].copy()
    tinv[0, 0] = 1e-7
    t = Element(S3, [np.linalg.inv(tinv)])
    u = pl.random_unitary(S3, rng)
    inner, outer = pl.ConjugationRingIso(u), pl.ConjugationRingIso(t * u.adjoint())
    fac = pl.inner_factor(lambda x: outer(inner(x)), S3)
    y, tb = fac.y.data[0], t.data[0]
    scale = np.vdot(tb, y) / np.vdot(tb, tb)
    assert np.linalg.norm(y - scale * tb, 2) <= 1e-13 * np.linalg.norm(y, 2)
    assert fac.residual <= 1e-12


def test_inner_factor_entrywise_conjugation(rng):
    fac = pl.inner_factor(lambda x: x.conj(), S3)
    assert fac.iso.sigma == ("conj",)
    assert pl.distance(fac.y, Element.identity(S3)) < 1e-8


def test_inner_factor_mixed_sum(rng):
    t = pl.random_invertible(S23, rng, cond_max=30.0)
    t_inv = pl.invert(t)

    def psi(x):
        twisted = Element(S23, [x.data[0], x.data[1].conj()])
        return t * twisted * t_inv

    fac = pl.inner_factor(psi, S23)
    assert fac.iso.sigma == ("id", "conj")
    assert fac.residual <= 1e-7 * pl.cond(fac.y)
    for _ in range(20):
        x = pl.random_element(S23, rng)
        assert pl.distance(psi(x), fac.iso(x)) <= 1e-6 * pl.cond(fac.y)


def test_inner_factor_q_matches_kinds(rng):
    def psi(x):
        return Element(S23, [x.data[0], x.data[1].conj()])

    fac = pl.inner_factor(psi, S23)
    # q carries exactly the complex-linear blocks
    assert fac.q.ranks == (2, 0)


def test_inner_factor_q_follows_block_routing(rng):
    # source block 0 lands linearly on target block 1, source block 1
    # conjugated on target block 0, so q sits on target block 1 only
    t = pl.random_invertible(S33, rng, cond_max=30.0)
    psi = pl.ConjugationRingIso(t, ("id", "conj"), block_map=(1, 0))
    fac = pl.inner_factor(psi, S33)
    assert fac.iso.sigma == ("id", "conj") and fac.iso.block_map == (1, 0)
    assert fac.q.ranks == (0, 3)
    assert fac.residual <= 1e-7 * pl.cond(fac.y)


def test_inner_factor_phase_normalization(rng):
    t = pl.random_invertible(S3, rng, cond_max=10.0)
    fac = pl.inner_factor(_ad(t), S3)
    flat = np.concatenate([b.ravel() for b in fac.y.data])
    pivot = flat[np.argmax(np.abs(flat))]
    assert abs(np.angle(pivot)) < 1e-8


def test_inner_factor_block_swap(rng):
    # swapping two same-size blocks is a ring automorphism; the
    # factorization must route the blocks, not force identity routing
    psi = lambda x: Element(S22, [x.data[1], x.data[0]])
    fac = pl.inner_factor(psi, S22)
    assert fac.iso.block_map == (1, 0)
    for _ in range(10):
        x = pl.random_element(S22, rng)
        assert pl.distance(psi(x), fac.iso(x)) < 1e-8


def test_inner_factor_rejects_adjoint(rng):
    # x -> x* is real-linear but anti-multiplicative
    with pytest.raises(pl.NotRingIso):
        pl.inner_factor(lambda x: x.adjoint(), S3)
    # x -> diag(1, 1, 2) x is complex-linear but not multiplicative,
    # and it sends i1 to a non-central element
    t = Element(S3, [np.diag([1.0, 1.0, 2.0]).astype(complex)])
    with pytest.raises(pl.NotRingIso):
        pl.inner_factor(lambda x: t * x, S3)


def test_inner_factor_rejects_nonadditive(rng):
    with pytest.raises(pl.NotRealLinear):
        pl.inner_factor(lambda x: x * x.norm(), S3)


@pytest.mark.parametrize("samples, calls", [(4, 34), (16, 86)])
def test_multiplicativity_reads_the_real_linearity_pairs(samples, calls):
    """psi is called three times per real-linearity pair, once per
    multiplicativity pair (psi(x y)), max_b n_b + 2 times by the
    Skolem-Noether round and once per residual draw."""
    shape = AlgebraShape([12])
    iso = pl.ConjugationRingIso(
        pl.random_invertible(shape, np.random.default_rng(1), cond_max=50.0), "conj"
    )
    seen = []

    def psi(x):
        seen.append(x)
        return iso(x)

    fac = pl.inner_factor(psi, shape, samples=samples, seed=1)
    assert fac.iso.sigma == ("conj",)
    assert len(seen) == calls == 3 * max(4, samples) + max(4, samples // 2) + 14 + samples


def test_factorization_survives_serialization(rng):
    t = pl.random_invertible(S3, rng, cond_max=10.0)
    fac = pl.inner_factor(_ad(t), S3)
    obj = pl.ring_iso_to_obj(fac.y, fac.iso.sigma)
    rebuilt = pl.ring_iso_from_obj(obj)
    assert rebuilt.sigma == ("id",)
    x = pl.random_element(S3, rng)
    assert pl.distance(rebuilt(x), t * x * pl.invert(t)) <= 1e-7 * pl.cond(t)


class TestDyeExtension:
    def test_unitary_map_certifies(self, rng):
        u = pl.random_unitary(S3, rng)
        psi, cert = pl.dye_extension(pl.from_conjugation(u), samples=6, seed=3)
        assert cert["preserves_orthogonality"] is True
        names = {c["name"] for c in cert["checks"]}
        assert "projection-extension" in names
        assert "star-preservation" in names
        assert "hermitian-order" in names
        assert all(c["max_residual"] <= 1e-8 for c in cert["checks"])
        x = pl.random_element(S3, rng)
        assert pl.distance(psi(x), u * x * u.adjoint()) < 1e-8

    @pytest.mark.parametrize("sigma", ["id", "conj"])
    def test_certificate_is_read_off_t_and_the_coordinatization(self, sigma, rng):
        u = pl.random_unitary(S33, rng)
        psi, cert = pl.dye_extension(pl.from_semilinear(u, sigma), samples=6, seed=3)
        res = {c["name"]: c["max_residual"] for c in cert["checks"]}
        defect = 1.0 - pl.cond(psi.T) ** -2
        assert res["star-preservation"] == res["hermitian-order"] == defect
        assert res["projection-extension"] == cert["coordinatization"]["projection_intertwining"]
        assert res["unit"] == cert["coordinatization"]["unit"]
        assert res["unit"] == pl.distance(psi(Element.identity(S33)), Element.identity(S33))

    def test_transpose_map_certifies(self, rng):
        phi = pl.from_semilinear(Element.identity(S3), "conj")
        psi, cert = pl.dye_extension(phi, samples=6, seed=3)
        assert cert["preserves_orthogonality"] is True
        x = pl.random_element(S3, rng)
        assert pl.distance(psi(x), x.conj()) < 1e-8

    def test_nonunitary_map_is_rejected_with_witness(self, rng):
        t = pl.random_invertible(S3, rng, cond_max=40.0)
        # make sure t is honestly far from unitary
        u, _ = pl.polar_decompose(t)
        assert pl.distance(t, u) > 1e-3
        with pytest.raises(pl.OrthogonalityNotPreserved) as exc_info:
            pl.dye_extension(pl.from_conjugation(t), samples=12, seed=3)
        w = exc_info.value.witness
        p = pl.projection_from_obj(w["p"])
        q = pl.projection_from_obj(w["q"])
        phi = pl.from_conjugation(t)
        zero = Element.zeros(S3)
        before = pl.distance(p.element * q.element, zero)
        after = pl.distance(phi(p).element * phi(q).element, zero)
        # one side orthogonal, the other not
        assert (before < 1e-8) != (after < 1e-8)

    @pytest.mark.parametrize("blocks", [[12], [3] * 4], ids=str)
    def test_refusal_witness_is_the_halves_probe(self, blocks):
        # a cond-100 conjugation, as the benchmark's refused input
        shape = AlgebraShape(blocks)
        t = pl.random_invertible(shape, np.random.default_rng(1), cond_max=100.0)
        phi = pl.from_conjugation(t)
        with pytest.raises(pl.OrthogonalityNotPreserved) as exc_info:
            pl.dye_extension(phi, seed=1)
        ok, witness = pl.preserves_orthogonality(phi, 0, 1)
        assert not ok and exc_info.value.witness == witness

    def test_dye_maps_four_projections_beyond_coordinatize(self, rng):
        # two for the halves probe and two for the replayed worst pair
        u = pl.random_unitary(S33, rng)
        phi, calls = pl.from_conjugation(u), []
        counted = LatticeMap(S33, S33, lambda p: calls.append(p) or phi(p), Opaque("counted"))
        pl.coordinatize(counted, samples=6, seed=3)
        engine = len(calls)
        calls.clear()
        pl.dye_extension(counted, samples=6, seed=3)
        assert len(calls) == engine + 4

    def test_certificate_is_pinned(self):
        # the values dye_extension returned when it sampled
        # preserves_orthogonality(phi, max(8, samples), seed) first
        u = pl.random_unitary(S33, np.random.default_rng(7))
        _, cert = pl.dye_extension(pl.from_semilinear(u, "conj"), samples=4, seed=1)
        assert [s["name"] for s in cert.pop("stages")] == [
            "orthogonality-preservation", "coordinatization",
        ]
        for check in cert["checks"]:
            assert check.pop("seconds") > 0
        assert cert == {
            "preserves_orthogonality": True,
            "checks": [
                {"name": "projection-extension", "max_residual": 1.4172200739932882e-15},
                {"name": "star-preservation", "max_residual": 2.220446049250313e-15},
                {"name": "unit", "max_residual": 2.7916341487006796e-16},
                {"name": "hermitian-order", "max_residual": 2.220446049250313e-15},
            ],
            "coordinatization": {
                "unit": 2.7916341487006796e-16,
                "support_intertwining": 8.785393043338453e-16,
                "projection_intertwining": 1.4172200739932882e-15,
                "frame_intertwining": 6.799484899477185e-16,
                "slot_agreement": 2.391493584112727e-15,
                "seed": 1,
                "samples": 4,
            },
            "seed": 1,
            "samples": 4,
        }

    def test_rejection_happens_before_coordinatization(self, rng):
        # a non-unitary map on a shape coordinatize cannot handle still
        # gets the orthogonality verdict, not NotOrderThree
        shape = AlgebraShape([4])
        t = pl.random_invertible(shape, rng, cond_max=40.0)
        u, _ = pl.polar_decompose(t)
        assert pl.distance(t, u) > 1e-3
        with pytest.raises(pl.OrthogonalityNotPreserved):
            pl.dye_extension(pl.from_conjugation(t), samples=12, seed=3)
