"""Acceptance gate: eleven headline contracts, one verdict line each.

Every test prints exactly one line of the form

    [criterion NN] PASS <label>: <measured numbers vs the gate>

through the capture-disabled announcer, so the verdicts stay visible in
a normal pytest run.  A FAIL line is followed by the assert with the
same text.
"""

import time

import numpy as np
import pytest

import projlat as pl
from projlat import AlgebraShape, Element, Projection


@pytest.fixture
def announce(capsys):
    def _print(line):
        with capsys.disabled():
            print(line)

    return _print


def _verdict(announce, num, label, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {label}: {detail}"
    announce(line)
    assert ok, line


def _haar_block(rng, n):
    q, r = np.linalg.qr(
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    )
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _overlapping_pair(shape, rng):
    """Pair sharing at least one basis vector in every block."""
    p_bases, q_bases = [], []
    for n in shape.blocks:
        u = _haar_block(rng, n)
        rp = int(rng.integers(1, n + 1))
        s = int(rng.integers(1, rp + 1))
        rq = int(rng.integers(s, n - rp + s + 1))
        p_bases.append(u[:, :rp])
        q_bases.append(u[:, rp - s : rp - s + rq])
    return (
        Projection.from_basis(shape, p_bases),
        Projection.from_basis(shape, q_bases),
    )


def test_01_halmos_roundtrip(announce):
    shape = AlgebraShape([6])
    rng = np.random.default_rng(100)
    gate, budget = 1e-8, 5.0
    menu = [
        [1e-6, 0.3, 1.2],
        [1e-6, 1e-3, np.pi / 4],
        [np.pi / 4, np.pi / 2 - 1e-6],
        [0.7],
    ]
    worst = 0.0
    angles_ok = True
    t0 = time.perf_counter()
    for k in range(500):
        if k % 5 == 0:
            prescribed = sorted(menu[(k // 5) % len(menu)])
            p, q = pl.random_pair_with_angles(shape, rng, [prescribed])
        else:
            prescribed = None
            p, q = pl.random_projection(shape, rng), pl.random_projection(shape, rng)
        dec = pl.halmos_decompose(p, q)
        p2, q2 = pl.reconstruct(dec)
        worst = max(worst, pl.distance(p, p2), pl.distance(q, q2))
        if prescribed is not None:
            angles_ok = angles_ok and np.allclose(
                dec.angles[0], prescribed, rtol=1e-3, atol=1e-9
            )
    dt = time.perf_counter() - t0
    ok = worst <= gate and angles_ok and dt < budget
    _verdict(
        announce, 1, "two-projection canonical form round trip", ok,
        f"worst residual {worst:.2e} over 500 pairs on [6] in {dt:.2f}s "
        f"(gate {gate:.0e}, budget {budget:.0f}s, prescribed angles down to 1e-6 "
        f"{'recovered' if angles_ok else 'NOT recovered'})",
    )


def test_02_ls_orthogonality_is_rank_additivity(announce):
    rng = np.random.default_rng(200)
    mismatches, total = 0, 0
    for blocks in ([4], [2, 3]):
        shape = AlgebraShape(blocks)
        for k in range(250):
            if k % 2 == 0:
                p, q = pl.random_pair_with_trivial_meet(shape, rng)
            else:
                p, q = _overlapping_pair(shape, rng)
            ls = pl.ls_orthogonal(p, q)
            additive = sum(pl.join(p, q).ranks) == sum(p.ranks) + sum(q.ranks)
            mismatches += int(ls != additive)
            total += 1
    ok = mismatches == 0
    _verdict(
        announce, 2, "LS-orthogonality matches rank additivity", ok,
        f"{total - mismatches}/{total} pairs agree on shapes [4] and [2,3] "
        f"(integer ranks, no tolerance)",
    )


def test_03_orthogonalizer_identities(announce):
    rng = np.random.default_rng(300)
    worst = 0.0
    for blocks in ([4], [2, 3]):
        shape = AlgebraShape(blocks)
        for _ in range(100):
            p, q = pl.random_pair_with_trivial_meet(shape, rng)
            s = pl.orthogonalizer(p, q)
            s_inv = pl.invert(s)
            scale = max(1.0, pl.cond(s))
            top = pl.join(p, q)
            topc = top.complement()
            res = max(
                pl.distance(s * p.element, p.element),
                pl.distance(s * topc.element, topc.element),
                pl.distance(topc.element * s, topc.element),
                pl.distance(
                    pl.left_support(s * q.element * s_inv),
                    pl.canonicalize(top.element - p.element),
                ),
            )
            worst = max(worst, res / scale)
    ok = worst <= 1e-8
    _verdict(
        announce, 3, "orthogonalizer identities", ok,
        f"worst scaled residual {worst:.2e} over 200 LS-orthogonal pairs "
        f"(gate 1e-8 x cond(S))",
    )


def test_04_graph_identities_and_inverse_coincidence(announce):
    rng = np.random.default_rng(400)
    worst = 0.0
    for blocks in ([3], [6]):
        fr = pl.Frame.standard(AlgebraShape(blocks), 3)
        ch = fr.corner_shape
        for _ in range(100):
            x = pl.random_element(ch, rng, norm_bound=10.0)
            y = pl.random_element(ch, rng, norm_bound=10.0)
            worst = max(
                worst,
                pl.distance(
                    pl.lattice_product(fr, x, y),
                    pl.graph_projection(fr, x * y, (0, 2)),
                ),
                pl.distance(
                    pl.lattice_sum(fr, x, y),
                    pl.graph_projection(fr, x + y, (0, 1)),
                ),
            )
    false_calls, checked = 0, 0
    for blocks in ([3], [6]):
        fr = pl.Frame.standard(AlgebraShape(blocks), 3)
        ch = fr.corner_shape
        n = ch.blocks[0]
        for k in range(50):
            u = pl.random_unitary(ch, rng)
            well = u + 2.0 * Element.identity(ch)
            smin = min(
                np.linalg.svd(b, compute_uv=False)[-1] for b in well.data
            )
            # rescale so the smallest singular value walks down to 1e-3
            c = 10.0 ** rng.uniform(np.log10(1e-3 / smin), 0.0)
            well = c * well
            if not pl.inverse_coincidence(fr, well):
                false_calls += 1
            if n == 1:
                sing = Element.zeros(ch)
            else:
                a = rng.standard_normal((n, n - 1)) + 1j * rng.standard_normal((n, n - 1))
                b = rng.standard_normal((n - 1, n)) + 1j * rng.standard_normal((n - 1, n))
                sing = Element(ch, [a @ b])
            if pl.inverse_coincidence(fr, sing):
                false_calls += 1
            checked += 2
    ok = worst <= 1e-7 and false_calls == 0
    _verdict(
        announce, 4, "graph product/sum identities and invertibility detection", ok,
        f"worst identity residual {worst:.2e} over 200 samples with norms up to 10 "
        f"(gate 1e-7); {checked - false_calls}/{checked} invertibility verdicts "
        f"correct down to smin 1e-3",
    )


def test_05_conjugation_reconstruction(announce):
    rng = np.random.default_rng(500)
    pieces = []
    ok = True
    for blocks in ([3], [6]):
        shape = AlgebraShape(blocks)
        t = pl.random_invertible(shape, rng, cond_max=100.0)
        cond_t = pl.cond(t)
        t0 = time.perf_counter()
        result = pl.coordinatize(pl.from_conjugation(t), samples=8, seed=50)
        dt = time.perf_counter() - t0
        t_inv = pl.invert(t)
        worst = 0.0
        for _ in range(100):
            x = pl.random_element(shape, rng)
            worst = max(worst, pl.distance(result.Psi(x), t * x * t_inv))
        gate = 1e-6 * cond_t
        ok = ok and worst <= gate and dt < 10.0
        pieces.append(f"[{','.join(map(str, blocks))}] {worst:.2e} vs {gate:.2e} in {dt:.2f}s")
    t0 = time.perf_counter()
    result = pl.coordinatize(
        pl.from_semilinear(Element.identity(AlgebraShape([3])), "conj"),
        samples=8, seed=51,
    )
    dt = time.perf_counter() - t0
    worst_conj = 0.0
    for _ in range(100):
        x = pl.random_element(AlgebraShape([3]), rng)
        worst_conj = max(worst_conj, pl.distance(result.Psi(x), x.conj()))
    ok = ok and worst_conj <= 1e-8 and dt < 10.0
    pieces.append(f"transpose {worst_conj:.2e} vs 1e-08 in {dt:.2f}s")
    _verdict(
        announce, 5, "lattice map to conjugation reconstruction", ok,
        "; ".join(pieces) + " (100 probes each, budget 10s per case)",
    )


def test_06_reconstruction_is_unique(announce):
    rng = np.random.default_rng(600)
    shape = AlgebraShape([3])
    t = pl.random_invertible(shape, rng, cond_max=50.0)
    phi = pl.from_conjugation(t)
    r1 = pl.coordinatize(phi, samples=6, seed=61)
    r2 = pl.coordinatize(phi, samples=6, seed=62)
    fac1 = pl.inner_factor(r1.Psi, shape, seed=63)
    y_inv = pl.invert(fac1.y)
    kinds_ok = fac1.iso.sigma == ("id",)

    def psi1_inverse_after_psi2(x):
        return y_inv * r2.Psi(x) * fac1.y

    rep = pl.uniqueness_residual(psi1_inverse_after_psi2, shape, samples=64)
    ok = kinds_ok and rep.support_ok and rep.residual <= 1e-7
    _verdict(
        announce, 6, "uniqueness across seeds", ok,
        f"residual of Psi1^-1 Psi2 from the identity {rep.residual:.2e} "
        f"over {rep.samples} probes (gate 1e-7, support condition "
        f"{'holds' if rep.support_ok else 'fails'})",
    )


def test_07_round_trips_with_ring_isos(announce):
    rng = np.random.default_rng(700)
    shape = AlgebraShape([3])
    t = pl.random_invertible(shape, rng, cond_max=10.0)
    t_inv = pl.invert(t)
    generators = [
        ("conjugation", lambda x: t * x * t_inv),
        ("entrywise conjugate", lambda x: x.conj()),
        ("their composition", lambda x: t * x.conj() * t_inv),
    ]
    worst_ring, worst_lattice = 0.0, 0.0
    for _, psi in generators:
        phi = pl.from_ring_iso(psi, shape)
        result = pl.coordinatize(phi, samples=6, seed=70)
        for _ in range(50):
            x = pl.random_element(shape, rng)
            worst_ring = max(worst_ring, pl.distance(result.Psi(x), psi(x)))
        phi_back = pl.from_ring_iso(result.Psi, shape)
        for _ in range(50):
            p = pl.random_projection(shape, rng)
            worst_lattice = max(worst_lattice, pl.distance(phi_back(p), phi(p)))
    ok = worst_ring <= 1e-7 and worst_lattice <= 1e-7
    _verdict(
        announce, 7, "round trips between ring isos and lattice maps", ok,
        f"coordinatize(induced map) vs generator {worst_ring:.2e}, induced map of "
        f"the reconstruction vs original {worst_lattice:.2e} on Ad_T, conj, and "
        f"their composition (gate 1e-7)",
    )


def test_08_orthogonality_dichotomy(announce):
    rng = np.random.default_rng(800)
    shape = AlgebraShape([3])
    worst_cert, cert_errors = 0.0, 0
    for k in range(50):
        u = pl.random_unitary(shape, rng)
        phi = (
            pl.from_conjugation(u) if k % 2 == 0 else pl.from_semilinear(u, "conj")
        )
        try:
            _, cert = pl.dye_extension(phi, samples=6, seed=80)
        except pl.ProjlatError:
            cert_errors += 1
            continue
        worst_cert = max(
            worst_cert, max(c["max_residual"] for c in cert["checks"])
        )
    rejected, witnesses_ok, count = 0, 0, 0
    while count < 50:
        t = pl.random_invertible(shape, rng, cond_max=50.0)
        u0, _ = pl.polar_decompose(t)
        if pl.distance(t, u0) < 1e-2:
            continue
        count += 1
        phi = pl.from_conjugation(t)
        try:
            pl.dye_extension(phi, samples=10, seed=81)
        except pl.OrthogonalityNotPreserved as exc:
            rejected += 1
            w = exc.witness
            p = pl.projection_from_obj(w["p"])
            q = pl.projection_from_obj(w["q"])
            zero = Element.zeros(shape)
            before = pl.distance(p.element * q.element, zero) < 1e-8
            after = pl.distance(phi(p).element * phi(q).element, zero) < 1e-8
            witnesses_ok += int(before != after)
    ok = (
        cert_errors == 0
        and worst_cert <= 1e-8
        and rejected == 50
        and witnesses_ok == 50
    )
    _verdict(
        announce, 8, "star-isomorphism extension dichotomy", ok,
        f"50/50 unitary-induced maps certified (worst residual {worst_cert:.2e}, "
        f"gate 1e-8); {rejected}/50 non-unitary maps rejected with "
        f"{witnesses_ok}/50 verified witnesses",
    )


def test_09_inner_factorization(announce):
    rng = np.random.default_rng(900)
    worst_res, worst_defect = 0.0, 0.0
    for k in range(100):
        kind = k % 3
        if kind == 0:
            shape = AlgebraShape([3])
            t = pl.random_invertible(shape, rng, cond_max=50.0)
            t_inv = pl.invert(t)
            psi = lambda x, t=t, t_inv=t_inv: t * x * t_inv
        elif kind == 1:
            shape = AlgebraShape([3])
            t = pl.random_invertible(shape, rng, cond_max=50.0)
            t_inv = pl.invert(t)
            psi = lambda x, t=t, t_inv=t_inv: t * x.conj() * t_inv
        else:
            shape = AlgebraShape([2, 3])
            t = pl.random_invertible(shape, rng, cond_max=50.0)
            t_inv = pl.invert(t)

            def psi(x, t=t, t_inv=t_inv):
                twisted = Element(x.shape, [x.data[0], x.data[1].conj()])
                return t * twisted * t_inv

        fac = pl.inner_factor(psi, shape, seed=90 + k)
        worst_res = max(worst_res, fac.residual / max(1.0, pl.cond(fac.y)))
        for yb, tb in zip(fac.y.data, t.data):
            overlap = abs(np.vdot(yb.ravel(), tb.ravel())) / (
                np.linalg.norm(yb) * np.linalg.norm(tb)
            )
            worst_defect = max(worst_defect, 1.0 - overlap)
    ok = worst_res <= 1e-7 and worst_defect <= 1e-8
    _verdict(
        announce, 9, "inner factorization of ring isomorphisms", ok,
        f"worst scaled residual {worst_res:.2e} (gate 1e-7 x cond(y)) and worst "
        f"collinearity defect {worst_defect:.2e} (gate 1e-8) over 100 maps",
    )


def test_10_center_valued_norm(announce):
    shape = AlgebraShape([2, 3, 4])
    rng = np.random.default_rng(1000)
    gate = 1e-9
    worst = 0.0

    def min_eig(el):
        return min(
            float(np.linalg.eigvalsh((b + b.conj().T) / 2)[0]) for b in el.data
        )

    for _ in range(500):
        x = pl.random_element(shape, rng)
        y = pl.random_element(shape, rng)
        scalars = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        a = Element.from_scalars(shape, scalars)
        cx, cy = pl.center_valued_norm(x), pl.center_valued_norm(y)
        _, absx = pl.polar_decompose(x)
        # (i) dominates |x| and is minimal among central dominants
        worst = max(worst, -min_eig(cx - absx))
        shrunk = cx - (1e-6 * max(cx.norm(), 1e-12)) * Element.identity(shape)
        if x.norm() > 1e-6 and min_eig(shrunk - absx) > 0:
            worst = max(worst, 1.0)
        # (ii) faithful
        if cx.norm() == 0.0 and x.norm() != 0.0:
            worst = max(worst, 1.0)
        # (iii) agrees with the modulus on the center
        worst = max(
            worst,
            pl.distance(
                pl.center_valued_norm(a), Element.from_scalars(shape, np.abs(scalars))
            ),
        )
        # (iv) homogeneous over the center
        worst = max(
            worst,
            pl.distance(
                pl.center_valued_norm(a * x),
                Element.from_scalars(shape, np.abs(scalars)) * cx,
            ),
        )
        # (v) triangle inequality and submultiplicativity
        worst = max(worst, -min_eig(cx + cy - pl.center_valued_norm(x + y)))
        worst = max(worst, -min_eig(cx * cy - pl.center_valued_norm(x * y)))
    ok = worst <= gate
    _verdict(
        announce, 10, "center-valued norm laws", ok,
        f"worst violation {worst:.2e} over 500 samples on [2,3,4] (gate {gate:.0e})",
    )


def test_11_lattice_axioms_and_ideal_oracle(announce):
    rng = np.random.default_rng(1100)
    shapes = [AlgebraShape([3]), AlgebraShape([2, 3]), AlgebraShape([4])]
    worst = 0.0
    dim_failures = 0
    for k in range(1000):
        shape = shapes[k % 3]
        p = pl.random_projection(shape, rng)
        q = pl.random_projection(shape, rng)
        r = pl.random_projection(shape, rng)
        pq_meet, pq_join = pl.meet(p, q), pl.join(p, q)
        worst = max(
            worst,
            pl.distance(pq_meet, pl.meet(q, p)),
            pl.distance(pq_join, pl.join(q, p)),
            pl.distance(pl.meet(p, pl.meet(q, r)), pl.meet(pq_meet, r)),
            pl.distance(pl.meet(p, pq_join), p),
            pl.distance(pl.join(p, pq_meet), p),
            pl.distance(
                pq_meet.complement(),
                pl.join(p.complement(), q.complement()),
            ),
        )
        if sum(pq_meet.ranks) + sum(pq_join.ranks) != sum(p.ranks) + sum(q.ranks):
            dim_failures += 1
    mismatches = 0
    for k in range(1000):
        shape = shapes[k % 3]
        a_blocks = []
        for n in shape.blocks:
            rk = int(rng.integers(0, n + 1))
            left = rng.standard_normal((n, rk)) + 1j * rng.standard_normal((n, rk))
            right = rng.standard_normal((rk, n)) + 1j * rng.standard_normal((rk, n))
            a_blocks.append(left @ right)
        a = Element(shape, a_blocks)
        if k % 2 == 0:
            x = a * pl.random_element(shape, rng)
        else:
            x = pl.random_element(shape, rng)
        claimed = pl.principal_ideal_leq(x, a)
        residual = 0.0
        for ab, xb in zip(a.data, x.data):
            z, *_ = np.linalg.lstsq(ab, xb, rcond=None)
            residual = max(residual, float(np.linalg.norm(ab @ z - xb, 2)))
        solvable = residual <= 1e-8 * max(1.0, x.norm())
        mismatches += int(claimed != solvable)
    ok = worst <= 1e-8 and dim_failures == 0 and mismatches == 0
    _verdict(
        announce, 11, "lattice axioms and principal ideal order", ok,
        f"worst axiom residual {worst:.2e} over 1000 triples (gate 1e-8, "
        f"{1000 - dim_failures}/1000 dimension formulas exact); "
        f"{1000 - mismatches}/1000 ideal memberships match the least-squares oracle",
    )
