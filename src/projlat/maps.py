"""Lattice maps: total maps on projections with typed provenance.

A LatticeMap is a pure function P(M) -> P(N) tagged with how it arose
(ring isomorphism, a ConjugationRingIso x -> T sigma(x) T^{-1},
composition, or opaque).  Provenance is what makes inversion possible;
verification is always sampled, never symbolic.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import (
    CHECK_TOL,
    EQ_TOL,
    RANK_REL,
    AlgebraShape,
    Element,
    Projection,
    _bases,
    _batch,
    _cogroups,
    _ct,
    _left_supports,
    _regroup,
    _require_invertible,
    _singular_values,
    distance,
)
from .errors import (
    DegenerateWitness,
    NotInvertibleProvenance,
    NotRingIso,
    ShapeMismatch,
)
from .lattice import join, leq, meet
from .sampling import _draw_projection, _orthonormalize, random_overlapping_pair, rng_from

__all__ = [
    "FromRingIso",
    "ConjugationRingIso",
    "Composite",
    "Opaque",
    "LatticeMap",
    "from_ring_iso",
    "from_conjugation",
    "from_semilinear",
    "compose",
    "invert_map",
    "MapCheck",
    "MapVerification",
    "verify_lattice_iso",
    "preserves_orthogonality",
]


class _Batched:
    """A provenance that maps a list of projections at once, _images(ps);
    _apply, its one-value case, is the apply of the maps built on it."""

    def _apply(self, p: Projection) -> Projection:
        return self._images([p])[0]


@dataclass(frozen=True)
class FromRingIso(_Batched):
    """psi and its inverse, if known."""

    psi: Callable[[Element], Element]
    psi_inverse: Callable[[Element], Element] | None = None

    def _images(self, ps) -> list[Projection]:
        """left_support(psi(p)) for each p of ps, one thin SVD per size group."""
        xs = [self.psi(p.element) for p in ps]
        return _left_supports(xs[0].shape, _batch(xs[0].shape, xs)) if xs else []


@dataclass(frozen=True)
class Composite(_Batched):
    outer: "LatticeMap"
    inner: "LatticeMap"

    def _images(self, ps) -> list[Projection]:
        return self.outer.images(self.inner.images(ps))


@dataclass(frozen=True)
class Opaque:
    note: str = ""


@dataclass(frozen=True)
class LatticeMap:
    """Total map on projections with provenance.

    apply must be pure and deterministic; by construction every map
    built here sends 0 to 0 and 1 to 1.  images batches by provenance,
    as invert_map inverts, while apply is the provenance's own _apply:
    a ring-iso one maps all projections through _images, a composite
    part by part.  Any other apply is called once per projection.
    """

    source: AlgebraShape
    target: AlgebraShape
    apply: Callable[[Projection], Projection]
    provenance: object = field(default_factory=Opaque)

    def __call__(self, p: Projection) -> Projection:
        return self.images([p])[0]

    def images(self, ps) -> list[Projection]:
        """The image of each projection of ps, in order, in one batched
        application; a p of another shape raises ShapeMismatch."""
        ps, prov = list(ps), self.provenance
        for p in ps:
            if p.shape != self.source:
                raise ShapeMismatch(f"map expects projections in [{self.source}], got [{p.shape}]")
        if isinstance(prov, _Batched) and self.apply == prov._apply:
            return prov._images(ps)
        return [self.apply(p) for p in ps]


def from_ring_iso(
    psi: Callable[[Element], Element],
    source: AlgebraShape,
    target: AlgebraShape | None = None,
    psi_inverse: Callable[[Element], Element] | None = None,
) -> LatticeMap:
    """Lattice map induced by a ring isomorphism: p -> left support of
    psi(p)."""
    target = target or source
    prov = FromRingIso(psi, psi_inverse)
    return LatticeMap(source, target, prov._apply, prov)


def _sigma(a: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """a, a fresh stack, with the slices mask selects complex conjugated
    in place."""
    return np.conjugate(a, out=a, where=mask)


class ConjugationRingIso(_Batched):
    """Ring isomorphism x -> T sigma(x) T^{-1}, with blocks routed.

    sigma applies the identity ("id") or entrywise complex conjugation
    ("conj") to each source block; one string means the same for every
    block.  Source block b goes to target block block_map[b] (identity
    routing by default), so T lives in the target algebra and block
    t = block_map[b] of the image is T_t sigma(x_b) T_t^{-1}.  Without
    type II summands every ring isomorphism of block algebras has this
    form.  The value also serves as the provenance of its lattice map.

    Raises:
        ValueError: sigma or block_map is malformed.
        NotInvertible: T has a singular block.
    """

    def __init__(self, T: Element, sigma="id", block_map=None):
        k = len(T.shape.blocks)
        if isinstance(sigma, str):
            sigma = (sigma,) * k
        sigma = tuple(sigma)
        if len(sigma) != k or any(s not in ("id", "conj") for s in sigma):
            raise ValueError(f"bad sigma spec {sigma!r}")
        if block_map is None:
            block_map = range(k)
        block_map = tuple(operator.index(t) for t in block_map)
        if sorted(block_map) != list(range(k)):
            raise ValueError(
                f"block_map {block_map!r} is not a permutation of {k} blocks"
            )
        self.T = T
        self.sigma = sigma
        self.block_map = block_map
        self.source = AlgebraShape(T.shape.blocks[t] for t in block_map)
        self._conj = np.array([s == "conj" for s in sigma])
        self._conjugated = frozenset(b for b, s in enumerate(sigma) if s == "conj")
        # per size group of T: the source blocks routed onto its blocks, the
        # source size group holding them, their positions in it and sigma's mask
        back = sorted(range(k), key=block_map.__getitem__)
        at = {b: (g, j) for g, idx in enumerate(self.source._groups) for j, b in enumerate(idx)}
        self._feeds = []
        for idx in T._groups:
            src = [back[t] for t in idx]
            pos = np.array([at[b][1] for b in src])
            self._feeds.append((tuple(src), at[src[0]][0], pos, self._mask(src)))
        _require_invertible(T)

    def _mask(self, idx) -> np.ndarray:
        """Which of the source blocks idx sigma conjugates, shaped to
        select the slices of a stack over them."""
        return self._conj[list(idx), None, None]

    @functools.cached_property
    def _tinvs(self) -> list[np.ndarray]:
        """T^-1's stacks, built on first use (a lattice map never reads
        them); the constructor has checked that T is invertible."""
        return [np.linalg.inv(a) for a in self.T._stacks]

    def __call__(self, x: Element) -> Element:
        if x.shape != self.source:
            raise ShapeMismatch(
                f"iso expects elements of [{self.source}], got [{x.shape}]"
            )
        images = [
            (t @ _sigma(x._stacks[g].take(pos, axis=0), mask)) @ ti
            for (_, g, pos, mask), t, ti in zip(self._feeds, self.T._stacks, self._tinvs)
        ]
        return self.T._like(images)

    def inverse(self) -> "ConjugationRingIso":
        """y -> sigma(T^{-1} y T) per block, routed back: again of this
        form, with T^{-1} (conjugated on "conj" blocks) in the source."""
        k = len(self.block_map)
        sigma, back = [None] * k, [0] * k
        for b, (s, t) in enumerate(zip(self.sigma, self.block_map)):
            sigma[t] = s
            back[t] = b
        feeds = zip(self._feeds, self._tinvs)
        tinvs = [(src, _sigma(ti.copy(), m)) for (src, _, _, m), ti in feeds]
        return ConjugationRingIso(Element._of(self.source, tinvs), sigma, back)

    def lattice_map(self) -> LatticeMap:
        """The induced map p -> projection onto T sigma(range p), its
        images read by _images."""
        return LatticeMap(self.source, self.T.shape, self._apply, self)

    def _images(self, ps) -> list[Projection]:
        """The lattice map's image of each projection of ps: the range of
        T sigma(U), U the range basis of p, through core._bases.  No rank
        is decided: T passed _require_invertible, and for orthonormal U
        the singular values of T_b sigma(U) lie in [s_min(T_b), s_max(T_b)]."""
        spans = []
        for p in ps:
            routed = [tuple([self.block_map[b] for b in idx]) for idx in p._groups]
            pieces = zip(p._pieces(), _regroup(self.T._pieces(), routed), routed)
            spans.append([(out, t @ self._sigma_of(i, u)) for (i, u), t, out in pieces])
        return _bases(self.T.shape, spans)

    def _sigma_of(self, idx, u: np.ndarray) -> np.ndarray:
        """sigma of a stack u over the source blocks idx: u itself where
        sigma conjugates none of them, else a conjugated copy."""
        if self._conjugated.isdisjoint(idx):
            return u
        return _sigma(u.copy(), self._mask(idx))


def _skolem_noether(psi: Callable[[Element], Element], shape: AlgebraShape) -> ConjugationRingIso:
    """Read a ring isomorphism off one round of probes.

    A ring isomorphism fixes integers and sends the units of a block to
    one target block, so the probes of all blocks are summed.  The image
    of w = sum_b (b + 1) z_b, z_b the central projection of block b,
    gives the target shape and on each target block t the weight b + 1
    of the source block routed there; the image of i w is there +i or
    -i times that weight, which gives sigma_b.  Column j of T_t is block
    t of the image of sum_b E_j0 (over blocks with n_b > j) applied to
    one probe vector, the standard basis vector that the image of E_00
    stretches most.  T is normalized so its largest entry is real
    positive (it is only determined up to a central scalar).  Costs
    max_b n_b + 2 calls of psi.  The central and image-of-i probes must
    hold within CHECK_TOL times the block's weight.

    Raises:
        NotRingIso: block counts differ, or a target block is not the
            weight of a source block of its size, or the weights do not
            route blocks bijectively, or the image of i on a block is
            neither i nor -i.
        DegenerateWitness: the image of a minimal idempotent kills
            every probe vector, or T comes out singular.
    """
    k = len(shape.blocks)
    w = Element.from_scalars(shape, range(1, k + 1))
    fw = psi(w)
    target = fw.shape
    if len(target.blocks) != k:
        raise NotRingIso(f"block counts differ: source {shape}, target {target}")
    block_map = [-1] * k
    for t, (a, m) in enumerate(zip(fw.data, target.blocks)):
        c = float(np.rint(np.trace(a).real / m))
        if not (
            1 <= c <= k
            and shape.blocks[int(c) - 1] == m
            and np.linalg.norm(a - c * np.eye(m), 2) <= CHECK_TOL * c
        ):
            raise NotRingIso(f"target block {t} reads no weight of a source block of its size")
        block_map[int(c) - 1] = t
    if -1 in block_map:
        raise NotRingIso("central routing of blocks is not a bijection")

    fiw = psi(1j * w)
    sigma: list[str] = []
    for b, t in enumerate(block_map):
        ic = 1j * (b + 1) * np.eye(shape.blocks[b])
        d_lin, d_conj = (np.linalg.norm(fiw.data[t] - s * ic, 2) for s in (1, -1))
        if min(d_lin, d_conj) > CHECK_TOL * (b + 1):
            raise NotRingIso(f"image of i on block {b} is neither i nor -i")
        sigma.append("id" if d_lin <= d_conj else "conj")

    t_blocks = [np.zeros((m, m), dtype=np.complex128) for m in target.blocks]
    probes = [0] * k
    for j in range(max(shape.blocks)):
        units = [np.zeros((n, n), dtype=np.complex128) for n in shape.blocks]
        for u in units:
            if j < len(u):
                u[j, 0] = 1.0
        image = psi(Element(shape, units)).data
        for b, t in enumerate(block_map):
            if j == 0:
                # probe with the largest column: psi's error is absolute, so
                # a small column would carry it into T at a large relative size
                col_norms = np.linalg.norm(image[t], axis=0)
                probes[b] = int(np.argmax(col_norms))
                if not col_norms[probes[b]] > 0:
                    raise DegenerateWitness(
                        f"image of the minimal idempotent on block {b} kills all probes"
                    )
            if j < shape.blocks[b]:
                t_blocks[t][:, j] = image[t][:, probes[b]]
    for b, t in enumerate(block_map):
        sv = np.linalg.svd(t_blocks[t], compute_uv=False)
        if sv[-1] <= RANK_REL * sv[0]:
            raise DegenerateWitness(f"conjugating element singular on block {b}")
    T = Element(target, t_blocks)
    flat = np.concatenate([blk.ravel() for blk in T.data])
    top = flat[np.argmax(np.abs(flat))]
    T = (top.conjugate() / abs(top)) * T
    return ConjugationRingIso(T, sigma, block_map)


def from_conjugation(T: Element) -> LatticeMap:
    """Lattice map p -> projection onto T(range p), for invertible T.

    Images keep p's ranks; their bases are QR factors of T U, U the
    range basis of p (see ConjugationRingIso.lattice_map).

    Raises:
        NotInvertible: T has a singular block.
    """
    return ConjugationRingIso(T, "id").lattice_map()


def from_semilinear(T: Element, sigma="id") -> LatticeMap:
    """Lattice map of an invertible semilinear operator T compose sigma,
    where sigma is the identity or entrywise complex conjugation (per
    block, or one string for all blocks).

    With sigma = "id" this is the same map as from_conjugation(T); with
    T = 1 and sigma = "conj" it is p -> transpose(p).  Images keep p's
    ranks, as in from_conjugation.

    Raises:
        ValueError: sigma is malformed.
        NotInvertible: T has a singular block.
    """
    return ConjugationRingIso(T, sigma).lattice_map()


def compose(outer: LatticeMap, inner: LatticeMap) -> LatticeMap:
    """outer after inner."""
    if inner.target != outer.source:
        raise ShapeMismatch("inner target does not match outer source")
    prov = Composite(outer, inner)
    return LatticeMap(inner.source, outer.target, prov._apply, prov)


def invert_map(phi: LatticeMap) -> LatticeMap:
    """Inverse lattice map, available when provenance carries one.

    A composite inverts part by part, in reverse order.

    Raises:
        NotInvertibleProvenance: opaque provenance (also as a part of a
            composite), or a ring-iso provenance without an inverse
            function.
    """
    prov = phi.provenance
    if isinstance(prov, ConjugationRingIso):
        return prov.inverse().lattice_map()
    if isinstance(prov, FromRingIso):
        if prov.psi_inverse is None:
            raise NotInvertibleProvenance("ring-iso provenance has no inverse")
        return from_ring_iso(prov.psi_inverse, phi.target, phi.source, prov.psi)
    if isinstance(prov, Composite):
        return compose(invert_map(prov.inner), invert_map(prov.outer))
    raise NotInvertibleProvenance(f"cannot invert provenance {type(prov).__name__}")


@dataclass(frozen=True)
class MapCheck:
    """One sampled check; max_residual is None for a yes/no check."""

    name: str
    passed: bool
    max_residual: float | None
    counterexample: dict | None = None


@dataclass(frozen=True)
class MapVerification:
    passed: bool
    checks: tuple[MapCheck, ...]
    seed: int
    samples: int


def verify_lattice_iso(phi: LatticeMap, samples: int = 32, seed: int = 0) -> MapVerification:
    """Sampled verification that phi is a lattice isomorphism.

    Checks endpoints (0 and 1), order preservation in both directions,
    meet/join preservation on pairs with nontrivial intersections, and
    a bijectivity proxy: the image rank profile is a function of the
    input rank profile.  The order check's residual is the worst
    ||phi(a) - phi(b) phi(a)|| over sampled pairs with a <= b; the
    rank-profile check is yes/no and has no residual (None).  The
    endpoint and meet/join residuals pass at or below CHECK_TOL.
    """
    rng = rng_from(seed)
    shape = phi.source
    checks: list[MapCheck] = []

    pairs = [random_overlapping_pair(shape, rng) for _ in range(samples)]
    points = [Projection.zero(shape), Projection.identity(shape)]
    points += [x for p, q in pairs for x in (p, q, meet(p, q), join(p, q))]
    zero_img, one_img, *images = phi.images(points)  # all source-side: one batch
    res = max(
        distance(zero_img, Projection.zero(phi.target)),
        distance(one_img, Projection.identity(phi.target)),
    )
    checks.append(MapCheck("endpoints", res <= CHECK_TOL, res))

    worst_order, order_ok, order_ce = 0.0, True, None
    worst_mj, mj_ok, mj_ce = 0.0, True, None
    profile_map: dict[tuple, tuple] = {}
    profile_ok, profile_ce = True, None

    for k, (p, q) in enumerate(pairs):
        fp, fq, f_meet, f_join = images[4 * k : 4 * k + 4]

        for a, b, fa, fb in ((p, q, fp, fq), (q, p, fq, fp)):
            # back is leq(fa, fb), kept as its residual
            res = distance(fa.element, fb.element * fa.element)
            fwd, back = leq(a, b), res <= EQ_TOL
            if fwd:
                worst_order = max(worst_order, res)
            if fwd != back:
                order_ok = False
                order_ce = order_ce or {
                    "check": "order",
                    "sample": k,
                    "leq_source": fwd,
                    "leq_target": back,
                }

        fm = distance(f_meet, meet(fp, fq))
        fj = distance(f_join, join(fp, fq))
        worst_mj = max(worst_mj, fm, fj)
        if fm > CHECK_TOL or fj > CHECK_TOL:
            mj_ok = False
            mj_ce = mj_ce or {"check": "meet-join", "sample": k, "residual": max(fm, fj)}

        key = p.ranks
        img_profile = fp.ranks
        if key in profile_map and profile_map[key] != img_profile:
            profile_ok = False
            profile_ce = profile_ce or {
                "check": "rank-profile",
                "profile": list(key),
                "images": [list(profile_map[key]), list(img_profile)],
            }
        profile_map.setdefault(key, img_profile)

    checks.append(MapCheck("order-both-directions", order_ok, worst_order, order_ce))
    checks.append(MapCheck("meet-join-preservation", mj_ok, worst_mj, mj_ce))
    checks.append(MapCheck("rank-profile-constancy", profile_ok, None, profile_ce))

    return MapVerification(
        passed=all(c.passed for c in checks),
        checks=tuple(checks),
        seed=seed if isinstance(seed, int) else -1,
        samples=samples,
    )


def _product_norm(p: Projection, q: Projection) -> float:
    """||p q||, read off the range bases as max_b ||U_p* U_q||."""
    pairs = [(up, uq) for _, up, uq in _cogroups(p, q) if up.shape[2] and uq.shape[2]]
    return max((float(_singular_values(_ct(up) @ uq).max()) for up, uq in pairs), default=0.0)


def _overlap_witness(p: Projection, q: Projection, residual: float) -> dict:
    """The witness of an orthogonal pair p, q whose images overlap by
    residual, as storable objects; it carries the pair's own product,
    probe_product, so that a sampler fault shows as one."""
    from .serialize import projection_to_obj  # deferred: serialize imports us

    return {
        "kind": "orthogonal-pair-mapped-to-overlapping",
        "residual": float(residual),
        "probe_product": float((p.element * q.element).norm()),
        "ranks_p": list(p.ranks),
        "ranks_q": list(q.ranks),
        "p": projection_to_obj(p),
        "q": projection_to_obj(q),
    }


def preserves_orthogonality(
    phi: LatticeMap,
    samples: int = 32,
    seed: int = 0,
) -> tuple[bool, dict | None]:
    """Sampled biconditional test: p q = 0 iff phi(p) phi(q) = 0, where
    an image product counts as zero at or below CHECK_TOL.  Products
    are read off range bases, ||P Q|| = ||U_p* U_q||, except probe_product.

    Returns (ok, witness); the witness records the first pair on which
    the biconditional failed (as storable objects, so it can go into a
    report verbatim) with the offending residual; an orthogonal pair's
    witness also carries the pair's own product, probe_product.  The
    halves probe, the two coordinate halves of each block, is mapped
    and checked first, since it exposes most non-unitary conjugations
    at once; at samples = 0 it is the whole test.  A map it refuses pays
    no draws (a Generator passed as seed is advanced less).  A sampled
    orthogonal pair is one QR of Gaussians [G_p G_q], of ranks r and at
    most n - r, per block: p spans G_p, and q (1 - p) range(G_q).  All
    pairs are mapped in one batch, even those after the first pair whose
    images overlap; the random p's, mapped once and taken cyclically,
    are the non-orthogonal pairs.
    """
    from .serialize import projection_to_obj  # deferred: serialize imports us

    rng = rng_from(seed)
    shape = phi.source

    # Deterministic probes: disjoint halves of the standard basis.
    eyes = [np.eye(n, dtype=np.complex128) for n in shape.blocks]
    half_a = Projection.from_basis(shape, [e[:, : n // 2] for e, n in zip(eyes, shape.blocks)])
    half_b = Projection.from_basis(shape, [e[:, n // 2 :] for e, n in zip(eyes, shape.blocks)])
    res = _product_norm(*phi.images([half_a, half_b]))
    if res > CHECK_TOL:
        return False, _overlap_witness(half_a, half_b, res)
    cuts, draws = [], []
    for _ in range(samples):
        ranks, gp = _draw_projection(shape, rng)
        room = [int(rng.integers(0, n - r + 1)) for r, n in zip(ranks, shape.blocks)]
        gq = _draw_projection(shape, rng, room)[1]
        cuts.append(ranks)
        draws.append((tuple(map(operator.add, ranks, room)), list(map(np.hstack, zip(gp, gq)))))
    # one QR of [G_p G_q] per block: p is its first r columns and q the
    # rest, which span (1 - p) range(G_q)
    probes = []  # p, q of each pair in turn
    for ranks, u in zip(cuts, _orthonormalize(shape, draws)):
        cols = list(zip(u.basis, ranks))
        probes.append(Projection.from_basis(shape, [b[:, :r] for b, r in cols]))
        probes.append(Projection.from_basis(shape, [b[:, r:] for b, r in cols]))
    images = phi.images(probes)
    for p, q, fp, fq in zip(probes[::2], probes[1::2], images[::2], images[1::2]):
        res = _product_norm(fp, fq)
        if res > CHECK_TOL:
            return False, _overlap_witness(p, q, res)

    # Non-orthogonal pairs must keep overlapping images: the random p's,
    # taken cyclically, are independent Haar pairs.
    sampled = list(zip(probes[::2], images[::2]))  # (p, phi(p))
    for (p, fp), (q, fq) in zip(sampled, sampled[1:] + sampled[:1]):
        overlap = _product_norm(p, q)
        if overlap <= 1e-2:  # want a clear overlap to start from
            continue
        res = _product_norm(fp, fq)
        if res <= CHECK_TOL:
            return False, {
                "kind": "overlapping-pair-mapped-to-orthogonal",
                "residual": float(res),
                "overlap": float(overlap),
                "p": projection_to_obj(p),
                "q": projection_to_obj(q),
            }
    return True, None
