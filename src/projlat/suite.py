"""Verification suite: every lemma-level property family, one report.

Each check family draws fresh seeded instances, measures a worst-case
residual, and grades it against its gate; a yes/no family has neither
(None) and fails only with a counterexample.  Families that need a
frame of the pipeline's order (coordinatize.ORDER) are marked
SKIPPED(NotOrderThree) on shapes with a block size not divisible by it
rather than silently dropped.
"""

from __future__ import annotations

import numpy as np

from .core import (
    CHECK_TOL,
    AlgebraShape,
    Element,
    Projection,
    center_valued_norm,
    cond,
    distance,
    invert,
    left_support,
    polar_decompose,
)
from .coordinatize import ORDER, coordinatize, uniqueness_residual
from .errors import NotAFrame, NotOrderThree, OrthogonalityNotPreserved
from .graphs import (
    Frame,
    graph_projection,
    inverse_coincidence,
    lattice_product,
    lattice_sum,
    recover_operator,
)
from .halmos import (
    corner_witness_projection,
    halmos_decompose,
    ls_char_minimal_cover,
    ls_orthogonal,
    orthogonalizer,
    reconstruct,
)
from .lattice import (
    canonicalize,
    is_central_projection,
    join,
    leq,
    meet,
    principal_ideal_leq,
)
from .maps import (
    ConjugationRingIso,
    from_conjugation,
    from_ring_iso,
    from_semilinear,
    invert_map,
    preserves_orthogonality,
    verify_lattice_iso,
)
from .report import Report, run_check
from .ringiso import dye_extension, inner_factor
from .sampling import (
    random_element,
    random_invertible,
    random_overlapping_pair,
    random_pair_with_angles,
    random_pair_with_trivial_meet,
    random_projection,
    random_unitary,
    rng_from,
)

__all__ = ["verify_suite"]


def _skip_not_order3(shape: AlgebraShape) -> Frame:
    try:
        return Frame.standard(shape, ORDER)
    except NotAFrame as exc:
        # only this instance skips; NotOrderThree from elsewhere is a FAIL
        err = NotOrderThree(str(exc))
        err.skip_reason = "NotOrderThree"
        raise err from exc


def _check_lattice_axioms(shape, seed, samples):
    rng = rng_from(seed)
    worst, ce = 0.0, None
    for k in range(samples):
        p, q = random_overlapping_pair(shape, rng)
        r = random_projection(shape, rng)
        worst = max(worst, distance(meet(p, q), meet(q, p)))
        worst = max(worst, distance(join(p, q), join(q, p)))
        worst = max(
            worst,
            distance(meet(meet(p, q), r), meet(p, meet(q, r))),
        )
        worst = max(
            worst,
            distance(join(join(p, q), r), join(p, join(q, r))),
        )
        worst = max(worst, distance(meet(p, join(p, q)), p))
        worst = max(worst, distance(join(p, meet(p, q)), p))
        pc = p.complement()
        worst = max(worst, distance(join(p, pc), Projection.identity(shape)))
        worst = max(worst, float(meet(p, pc).rank()))
        worst = max(
            worst,
            distance(join(p, q).complement(), meet(pc, q.complement())),
        )
        if not (leq(meet(p, q), p) and leq(p, join(p, q))):
            ce = {"sample": k, "check": "order-consistency"}
        mr, jr = meet(p, q).ranks, join(p, q).ranks
        if any(
            mj + mm != rp + rq for mj, mm, rp, rq in zip(jr, mr, p.ranks, q.ranks)
        ):
            ce = {"sample": k, "check": "dimension-formula"}
    return worst, ce


def _check_principal_ideal(shape, seed, samples):
    rng = rng_from(seed)
    ce = None
    for k in range(samples):
        p = random_projection(shape, rng)
        a = p.element * random_element(shape, rng)
        if k % 2 == 0:
            x = a * random_element(shape, rng)
        else:
            x = a * random_element(shape, rng) + p.complement().element * random_element(
                shape, rng
            )
        claimed = principal_ideal_leq(x, a)
        oracle = True
        for ab, xb in zip(a.data, x.data):
            sol, *_ = np.linalg.lstsq(ab, xb, rcond=None)
            res = np.linalg.norm(ab @ sol - xb, 2)
            if res > 1e-8 * max(1.0, np.linalg.norm(xb, 2)):
                oracle = False
        if claimed != oracle:
            ce = {"sample": k, "claimed": claimed, "oracle": oracle}
    return None, ce


def _check_halmos(shape, seed, samples):
    rng = rng_from(seed)
    worst = 0.0
    for k in range(samples):
        if k % 3 == 0:
            angles = [
                np.sort(rng.uniform(1e-6, np.pi / 2, size=max(1, n // 3)))
                for n in shape.blocks
            ]
            try:
                p, q = random_pair_with_angles(shape, rng, angles)
            except ValueError:
                p, q = random_overlapping_pair(shape, rng)
        else:
            p, q = random_overlapping_pair(shape, rng)
        dec = halmos_decompose(p, q)
        p2, q2 = reconstruct(dec)
        worst = max(worst, distance(p, p2), distance(q, q2))
    return worst, None


def _check_ls_equivalence(shape, seed, samples):
    rng = rng_from(seed)
    ce = None
    for k in range(samples):
        p, q = random_pair_with_trivial_meet(shape, rng)
        direct = ls_orthogonal(p, q)
        additive = join(p, q).ranks == tuple(
            rp + rq for rp, rq in zip(p.ranks, q.ranks)
        )
        cover = ls_char_minimal_cover(p, q, trials=6, seed=int(rng.integers(2**31)))
        if not (direct == additive == cover):
            ce = {
                "sample": k,
                "ls_orthogonal": direct,
                "rank_additive": additive,
                "minimal_cover": cover,
            }
    return None, ce


def _check_orthogonalizer(shape, seed, samples):
    rng = rng_from(seed)
    worst = 0.0
    for _ in range(samples):
        p, q = random_pair_with_trivial_meet(shape, rng)
        s = orthogonalizer(p, q)
        s_inv = invert(s)
        scale = max(1.0, cond(s))
        top = join(p, q)
        topc = top.complement()
        res = max(
            distance(s * p.element, p.element),
            distance(s * topc.element, topc.element),
            distance(topc.element * s, topc.element),
            distance(
                left_support(s * q.element * s_inv),
                canonicalize(top.element - p.element),
            ),
        )
        worst = max(worst, res / scale)
    return worst, None


def _check_corner_witness(shape, seed, samples):
    rng = rng_from(seed)
    worst = 0.0
    for _ in range(samples):
        u = random_unitary(shape, rng)
        ranks = [int(rng.integers(0, n // 2 + 1)) for n in shape.blocks]
        pb = [ub[:, :r] for ub, r in zip(u.data, ranks)]
        qb = [ub[:, r : 2 * r] for ub, r in zip(u.data, ranks)]
        p = Projection.from_basis(shape, pb)
        q = Projection.from_basis(shape, qb)
        x = p.element * random_element(shape, rng) * q.element
        nx = x.norm()
        if nx > 0:
            x = (0.5 * float(rng.uniform(0.1, 1.0)) / nx) * x
        e = corner_witness_projection(x, p, q)
        worst = max(worst, distance(p.element * e.element * q.element, x))
        worst = max(worst, distance(meet(e, join(p, q)), e))
    return worst, None


def _check_graph_identities(shape, seed, samples):
    frame = _skip_not_order3(shape)
    rng = rng_from(seed)
    worst, ce = 0.0, None
    for k in range(samples):
        x = random_element(frame.corner_shape, rng, norm_bound=10.0)
        y = random_element(frame.corner_shape, rng, norm_bound=10.0)
        worst = max(
            worst,
            distance(
                lattice_product(frame, x, y),
                graph_projection(frame, x * y, (0, 2)),
            ),
        )
        worst = max(
            worst,
            distance(
                lattice_sum(frame, x, y),
                graph_projection(frame, x + y, (0, 1)),
            ),
        )
        worst = max(
            worst,
            distance(
                recover_operator(frame, graph_projection(frame, x)),
                x,
            )
            / max(1.0, x.norm()),
        )
        # invertibility coincides with the slot-21 graph test
        sing = x * x.adjoint()  # hermitian, then kill the top eigenvector
        blocks = []
        for b in sing.data:
            if b.shape[0] == 0:
                blocks.append(b)
                continue
            vals, vecs = np.linalg.eigh(b)
            vals[-1] = 0.0
            blocks.append(vecs @ np.diag(vals) @ vecs.conj().T)
        singular = Element(frame.corner_shape, blocks)
        u = random_unitary(frame.corner_shape, rng)
        well = u + Element.from_scalars(
            frame.corner_shape, [2.0] * len(frame.corner_shape.blocks)
        )
        if inverse_coincidence(frame, singular):
            ce = {"sample": k, "check": "singular-claimed-invertible"}
        if not inverse_coincidence(frame, well):
            ce = {"sample": k, "check": "invertible-claimed-singular"}
    return worst, ce


def _check_center_valued_norm(shape, seed, samples):
    rng = rng_from(seed)
    worst = 0.0
    eye = Element.identity(shape)

    def min_eig(el: Element) -> float:
        vals = [
            float(np.linalg.eigvalsh((b + b.conj().T) / 2)[0]) if b.size else 0.0
            for b in el.data
        ]
        return min(vals)

    for _ in range(samples):
        x = random_element(shape, rng)
        y = random_element(shape, rng)
        scalars = rng.standard_normal(len(shape.blocks)) + 1j * rng.standard_normal(
            len(shape.blocks)
        )
        a = Element.from_scalars(shape, scalars)
        cx, cy = center_valued_norm(x), center_valued_norm(y)
        _, absx = polar_decompose(x)
        # (i) faithfulness and domination |x| <= |||x|||, with minimality
        if cx.is_zero() and not x.is_zero():
            worst = max(worst, 1.0)
        worst = max(worst, -min_eig(cx - absx))
        shrunk = cx - (1e-6 * max(cx.norm(), 1e-12)) * Element.identity(shape)
        if x.norm() > 1e-6 and min_eig(shrunk - absx) > 0:
            worst = max(worst, 1.0)  # |||x||| was not minimal
        # (ii) triangle inequality
        worst = max(worst, -min_eig(cx + cy - center_valued_norm(x + y)))
        # (iii) central elements: |||a||| = |a|
        abs_a = Element.from_scalars(shape, np.abs(scalars))
        worst = max(worst, distance(center_valued_norm(a), abs_a))
        # (iv) homogeneity over the center
        worst = max(worst, distance(center_valued_norm(a * x), abs_a * cx))
        # (v) submultiplicativity
        worst = max(worst, -min_eig(cx * cy - center_valued_norm(x * y)))
    return worst, None


def _check_map_family(shape, seed, samples):
    rng = rng_from(seed)
    t = random_invertible(shape, rng)
    phi = from_conjugation(t)
    ver = verify_lattice_iso(phi, samples=max(8, samples // 2), seed=seed)
    if not ver.passed:
        bad = [c.name for c in ver.checks if not c.passed]
        return None, {"failed_checks": bad}
    worst = max(c.max_residual for c in ver.checks if c.max_residual is not None)
    for _ in range(max(4, samples // 4)):
        z = random_projection(shape, rng)
        if is_central_projection(z) and not is_central_projection(phi(z)):
            return None, {"check": "central-projection-transport"}
    u = random_unitary(shape, rng)
    ok, _ = preserves_orthogonality(from_conjugation(u), 8, seed)
    if not ok:
        return None, {"check": "unitary-map-should-preserve-orthogonality"}
    if max(shape.blocks) >= 2:
        shear = [np.eye(n, dtype=np.complex128) for n in shape.blocks]
        big = int(np.argmax(shape.blocks))
        shear[big][0, 1] = 1.0
        ok, witness = preserves_orthogonality(from_conjugation(Element(shape, shear)), 8, seed)
        if ok:
            return None, {"check": "shear-map-should-break-orthogonality"}
        res = witness["residual"]
        if res <= CHECK_TOL:
            return None, {"check": "witness-not-verified", "residual": res}
    return worst, None


def _check_coordinatize(shape, seed, samples):
    _skip_not_order3(shape)
    rng = rng_from(seed)
    t = random_invertible(shape, rng, cond_max=100.0)
    t_inv = invert(t)
    result = coordinatize(from_conjugation(t), samples=6, seed=seed)
    worst = 0.0
    for _ in range(samples):
        x = random_element(shape, rng)
        worst = max(worst, distance(result.Psi(x), t * x * t_inv) / max(1.0, cond(t)))
    return worst, None


def _check_coordinatize_transpose(shape, seed, samples):
    _skip_not_order3(shape)
    rng = rng_from(seed)
    phi = from_semilinear(Element.identity(shape), "conj")
    result = coordinatize(phi, samples=6, seed=seed)
    worst = 0.0
    for _ in range(samples):
        x = random_element(shape, rng)
        worst = max(worst, distance(result.Psi(x), x.conj()))
    return worst, None


def _check_uniqueness(shape, seed, samples):
    _skip_not_order3(shape)
    rng = rng_from(seed)
    t = random_invertible(shape, rng, cond_max=50.0)
    phi = from_conjugation(t)
    r2 = coordinatize(phi, samples=4, seed=seed + 1)
    r1_inv = coordinatize(invert_map(phi), samples=4, seed=seed)
    rep = uniqueness_residual(
        lambda x: r1_inv.Psi(r2.Psi(x)), shape, samples=samples, seed=seed
    )
    if not rep.support_ok:
        return rep.residual, {"support_witness": rep.witness}
    return rep.residual, None


def _check_round_trips(shape, seed, samples):
    _skip_not_order3(shape)
    rng = rng_from(seed)
    t = random_invertible(shape, rng, cond_max=50.0)
    worst = 0.0
    # ring iso -> lattice map -> ring iso
    for sigma in ("id", "conj"):
        psi = ConjugationRingIso(t, sigma)
        phi = from_ring_iso(psi, shape, shape)
        result = coordinatize(phi, samples=4, seed=seed)
        for _ in range(samples // 2):
            x = random_element(shape, rng)
            worst = max(
                worst, distance(result.Psi(x), psi(x)) / max(1.0, cond(t))
            )
        # lattice map -> ring iso -> lattice map
        phi2 = from_ring_iso(result.Psi, shape, shape)
        for _ in range(samples // 2):
            p = random_projection(shape, rng)
            worst = max(worst, distance(phi2(p), phi(p)))
    return worst, None


def _check_dye(shape, seed, samples):
    _skip_not_order3(shape)
    rng = rng_from(seed)
    u = random_unitary(shape, rng)
    _, cert = dye_extension(from_conjugation(u), samples=6, seed=seed)
    worst = max(c["max_residual"] for c in cert["checks"])
    t = random_invertible(shape, rng, cond_max=30.0)
    v, _ = polar_decompose(t)
    if distance(t, v) > 1e-3:  # honestly non-unitary
        try:
            dye_extension(from_conjugation(t), samples=6, seed=seed)
            return 1.0, {"check": "non-unitary-map-not-rejected"}
        except OrthogonalityNotPreserved as exc:
            if exc.witness is None or exc.witness.get("residual", 0.0) <= CHECK_TOL:
                return 1.0, {"check": "witness-not-verified"}
    return worst, None


def _check_inner_factor(shape, seed, samples):
    rng = rng_from(seed)
    worst = 0.0
    sigmas = ["id"] * len(shape.blocks)
    if len(shape.blocks) > 1:
        sigmas[-1] = "conj"
    for sigma in ("id", "conj", tuple(sigmas)):
        t = random_invertible(shape, rng, cond_max=50.0)
        psi = ConjugationRingIso(t, sigma)
        fac = inner_factor(psi, shape, samples=max(6, samples // 2), seed=seed)
        worst = max(worst, fac.residual / max(1.0, cond(fac.y)))
        for yb, tb in zip(fac.y.data, t.data):
            inner = abs(np.vdot(yb, tb))
            denom = np.linalg.norm(yb) * np.linalg.norm(tb)
            worst = max(worst, 1.0 - inner / denom)
    return worst, None


_FAMILIES = [
    ("lattice-axioms", "projection lattice axiom family", _check_lattice_axioms, 1e-8),
    (
        "principal-ideal",
        "principal right ideal membership identity",
        _check_principal_ideal,
        None,
    ),
    ("halmos-roundtrip", "two-projection canonical form round trip", _check_halmos, 1e-8),
    (
        "ls-equivalence",
        "LS-orthogonality rank characterization",
        _check_ls_equivalence,
        None,
    ),
    ("orthogonalizer", "orthogonalizer identities", _check_orthogonalizer, 1e-8),
    ("corner-witness", "corner witness projection", _check_corner_witness, 1e-8),
    (
        "graph-identities",
        "graph projection product and sum identities",
        _check_graph_identities,
        1e-7,
    ),
    (
        "center-valued-norm",
        "center-valued norm properties",
        _check_center_valued_norm,
        1e-9,
    ),
    ("lattice-maps", "lattice isomorphism sampling checks", _check_map_family, CHECK_TOL),
    (
        "coordinatize-conjugation",
        "lattice-to-ring reconstruction",
        _check_coordinatize,
        1e-6,
    ),
    (
        "coordinatize-transpose",
        "semilinear reconstruction",
        _check_coordinatize_transpose,
        1e-8,
    ),
    ("uniqueness", "identity-lemma residual", _check_uniqueness, 1e-7),
    ("round-trips", "ring-iso and lattice-map round trips", _check_round_trips, 1e-7),
    ("dye", "orthogonality-preserving extension", _check_dye, 1e-8),
    (
        "inner-factor",
        "inner factorization of ring isomorphisms",
        _check_inner_factor,
        1e-7,
    ),
]


def verify_suite(shape: AlgebraShape, seed: int = 0, samples: int = 25) -> Report:
    """Run every property family against fresh seeded instances."""
    report = Report(command="verify-suite", shape=list(shape.blocks), seed=seed, samples=samples)
    for i, (name, anchor, fn, gate) in enumerate(_FAMILIES):
        family_seed = seed + 1000 * i
        report.checks.append(
            run_check(
                name,
                anchor,
                lambda fn=fn, s=family_seed: fn(shape, s, samples),
                gate,
            )
        )
    return report
