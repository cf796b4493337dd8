"""Reconstruction of a ring isomorphism from a lattice isomorphism.

The engine runs on a frame of order k (ORDER, 3, when the pipeline
seeds it): a lattice isomorphism phi between projection lattices is
first normalized by one invertible conjugation on the target side,
Ad(S_k S0), where S0 is the inverse of the frame images' concatenated
range bases and S_k a diagonal slot rescaling.  The normalized map
carries the source frame onto the standard frame of the target and
fixes the unit graph projections; the coordinate map psi is then read
off slot-12 graph projections.  The ring isomorphism Psi with
phi(l(x)) = l(Psi(x)) is psi reassembled entrywise; it is compiled
once, by Skolem-Noether on the corner algebra, to a ConjugationRingIso.
The certificate is the theorem's own identity, phi(p) = range Psi(p),
measured against the compiled Psi's lattice map on rank-deficient
projections: seeded random ones, and the frame points that carry psi's
ring axioms and a two-slot meet.  Every sample is drawn first, then each
factorization runs once per stack across all probes, and phi maps them
all in one batched application.  The diagnostics travel with the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    PROJ_TOL,
    AlgebraShape,
    Element,
    Projection,
    _batch,
    _distances,
    _left_supports,
    distance,
    invert,
)
from .errors import (
    FrameAssemblyFailed,
    IntertwiningFailure,
    NotAFrame,
    NotAGraphProjection,
    NotInvertible,
    NotOrderThree,
    ShapeMismatch,
    SlotMismatch,
)
from .graphs import Frame, _slot, graph_projection, recover_operator
from .lattice import join, meet
from .maps import (
    ConjugationRingIso,
    LatticeMap,
    _skolem_noether,
    compose,
    from_conjugation,
)
from .sampling import (
    _draw_projection,
    _orthonormalize,
    random_element,
    random_projection,
    random_unitary,
    rng_from,
)

__all__ = [
    "CoordinatizationResult",
    "UniquenessReport",
    "normalize_map",
    "coordinatize",
    "uniqueness_residual",
]

# the order of the frame coordinatize seeds when it is given none
ORDER = 3


@dataclass(frozen=True)
class CoordinatizationResult:
    """Ring isomorphism assembled from a lattice isomorphism.

    psi acts on corner elements (the coordinate algebra) and is read
    off the lattice on every call; Psi, on full elements, is compiled
    to a ConjugationRingIso; normalizers are (S0, S_k), the invertible
    operators applied to the target in that order; target_frame is the
    standard frame of the target.  diagnostics holds the sampled
    residuals: slot_agreement, the worst ||psi(x) - psi(x, slot)|| over
    slots 13 and 23 at max(2, samples // 4) corner elements x, unit
    (||Psi(1) - 1||), and the certificate of the theorem's identity
    phi(p) = range Psi(p), the worst ||phi(p) - Psi.lattice_map()(p)||
    over random projections (projection_intertwining), over supports
    l(x p') of random elements times random projections
    (support_intertwining) and over the frame points P_12[y],
    P_12[x + y], P_12[x y] and P_{x,y} of the corner pairs (x, y)
    (frame_intertwining).
    """

    psi: Callable[[Element], Element]
    Psi: ConjugationRingIso
    source_frame: Frame
    target_frame: Frame
    normalizers: tuple[Element, Element]
    diagnostics: dict


@dataclass(frozen=True)
class UniquenessReport:
    residual: float
    support_ok: bool
    support_residual: float
    witness: dict | None
    samples: int


def normalize_map(phi: LatticeMap, source_frame: Frame) -> tuple[LatticeMap, Frame, list[Element]]:
    """Normalize a lattice isomorphism onto the standard frame of its target.

    Two invertible conjugations are composed onto the target side.  S0
    is B^{-1}, B = [B1 ... Bk] per block, where B_i is the range basis
    of phi(e_i) and k the frame's order: Ad(S0) o phi carries e_i
    exactly onto the i-th index group.  The diagonal
    S_k = diag(1, c12^{-1}, ..., c1k^{-1}) then rescales the slots,
    where c1j is the slot unit read through Ad(S0) o phi, so the unit
    graph projections are fixed.  The normalizers compose as elements:
    the returned map is phi' = Ad(S) o phi with S = S_k S0, one
    conjugation after phi (a two-part Composite, whose outer provenance
    is the ConjugationRingIso of S).  phi' satisfies phi'(e_i) = f_i
    for the standard target frame (f_1, ..., f_k) and
    phi'(P_1j[1]) = P_1j[1] in the two frames' coordinates.

    Returns (phi', target_frame, [S0, S_k]).

    Raises:
        ShapeMismatch: the map's source is not the frame's algebra, or
            a frame image lives outside the map's target.
        NotOrderThree: some phi(e_i) is not a k-th of a target block,
            or B is singular at the rank cutoff, so the target has no
            order-k structure to carry over.
        FrameAssemblyFailed: a slot unit does not recover or invert, or
            S_k S0 fails the rank cutoff (the message names the step and
            the block).
    """
    if phi.source != source_frame.shape:
        raise ShapeMismatch("map source does not match the frame's algebra")
    fr, shape, k = source_frame, phi.target, source_frame.order
    images = phi.images(fr.projections)
    for i, g in enumerate(images, 1):
        if g.shape != shape:
            raise ShapeMismatch("frame images do not live in the map's target")
        for b, (r, n) in enumerate(zip(g.ranks, shape.blocks)):
            if k * r != n:
                raise NotOrderThree(
                    f"image of frame projection {i} has rank {r} on block {b} of size {n}"
                )
    # all ranks are n/k, so the k images share the layout of shape
    stacks = zip(*(g._stacks for g in images))
    b_mat = Element._of(
        shape, [(idx, np.concatenate(ps, axis=2)) for idx, ps in zip(shape._groups, stacks)]
    )
    try:
        s0 = invert(b_mat)
        phi0 = compose(from_conjugation(s0), phi)
    except NotInvertible as exc:
        raise NotOrderThree(f"frame images are not independent: {exc}") from exc

    target = Frame.standard(shape, k)
    one_hat = Element.identity(fr.corner_shape)
    slot_units = _CornerMap(phi0, fr, target)
    try:
        units = [slot_units(one_hat, (0, j)) for j in range(1, k)]  # a refusal stops the rest
    except NotAGraphProjection as exc:
        raise FrameAssemblyFailed(f"slot unit does not recover: {exc}") from exc
    try:
        inverses = [invert(c) for c in units]
    except NotInvertible as exc:
        raise FrameAssemblyFailed(f"slot unit not invertible: {exc}") from exc
    eye = Element.identity(shape)
    mats = [e.copy() for e in eye._stacks]
    for j, c in enumerate(inverses, 1):
        for d, a in zip(mats, c._stacks):
            _slot(d, j, j, k)[...] = a
    sk = eye._like(mats)
    # S = S_k S0 is the product coordinatize inverts
    try:
        phi_norm = compose(from_conjugation(sk * s0), phi)
    except NotInvertible as exc:
        raise FrameAssemblyFailed(f"normalizer S{k} S0 rejected: {exc}") from exc
    return phi_norm, target, [s0, sk]


def coordinatize(
    phi: LatticeMap,
    source_frame: Frame | None = None,
    samples: int = 8,
    seed: int = 2024,
) -> CoordinatizationResult:
    """Rebuild the ring isomorphism Psi with phi(l(x)) = l(Psi(x)).

    When no source frame is given, a standard frame of order ORDER
    conjugated by a seeded Haar unitary is used, so runs with different seeds take
    genuinely different routes through the lattice; the resulting Psi
    must nevertheless coincide, which is what uniqueness_residual
    measures.

    The rng draws the frame's unitary (when none is given), then
    max(2, samples // 4) pairs (x, y) of corner elements, every x then
    mapped through slots 12, 13 and 23 in one batch, then the
    intertwining draws.  Psi, which does not depend on the draws, is
    compiled to a ConjugationRingIso from max_b n_b/k + 2 corner-map
    calls, k the frame's order.  _verify certifies it by the theorem's
    identity: phi(p) must be within 1e-3 of Psi.lattice_map()(p), the
    projection onto range Psi(p), at `samples` random projections p, at
    the supports l(x p') of `samples` random elements x times random
    projections p', and at each pair's P_12[y], P_12[x + y], P_12[x y]
    and two-slot P_{x,y}, which carry psi's ring axioms.  All draws
    come first, then each QR and SVD runs once per stack across the
    probes, and phi maps them in one batch.  The probes are
    rank-deficient, so the identity is not vacuous, and Psi is never
    re-derived from the lattice at a full point.  The unit is read on
    Psi, which also builds the T^-1 Psi's calls read.

    Raises:
        NotOrderThree: with no frame given, some block size is not
            divisible by ORDER; or the frame images are not k
            independent k-ths of the target blocks.
        FrameAssemblyFailed: a slot unit does not recover or invert, or
            the normalizer S_k S0 fails the rank cutoff.
        NotAGraphProjection: a sampled or probed slot graph maps to
            no graph (the reason names the slot, the error the block).
        SlotMismatch: a slot-13/23 recovery is more than 1e-5 from
            slot 12's; phi is not induced by any ring isomorphism.
        NotRingIso, DegenerateWitness: the corner map does not compile
            to a conjugation.
        IntertwiningFailure: phi(p) and range Psi(p) are more than 1e-3
            apart at some probe p.
    """
    rng = rng_from(seed)
    if source_frame is None:
        try:
            source_frame = _seeded_frame(phi.source, rng)
        except NotAFrame as exc:
            raise NotOrderThree(str(exc)) from exc
    fr = source_frame

    phi_norm, target, normalizers = normalize_map(phi, fr)
    s0, sk = normalizers
    s_inv = invert(sk * s0)
    psi = _CornerMap(phi_norm, fr, target)

    # Slots 12, 13 and 23 must tell one story at every x drawn;
    # disagreement means no ring isomorphism induces phi.
    pairs, slot_res, witness = [], 0.0, None
    for _ in range(max(2, samples // 4)):
        pairs.append(tuple(random_element(fr.corner_shape, rng, norm_bound=2.0) for _ in range(2)))
    slots = ((0, 1), (0, 2), (1, 2))
    reads = iter(psi.images([(x, slot) for x, _ in pairs for slot in slots]))
    for (x, _), fx in zip(pairs, reads):  # the slot-13 and 23 reads follow fx
        for slot in slots[1:]:
            res = distance(fx, next(reads))
            if res > slot_res:
                slot_res, witness = res, (slot, x)
    if slot_res > 1e-5:
        raise SlotMismatch(witness[0], slot_res, witness[1])

    Psi = _compile(psi, s_inv)
    diagnostics = _verify(phi, Psi, fr, pairs, samples, rng)
    diagnostics["slot_agreement"] = float(slot_res)
    diagnostics["seed"] = seed
    diagnostics["samples"] = samples

    return CoordinatizationResult(
        psi=psi,
        Psi=Psi,
        source_frame=fr,
        target_frame=target,
        normalizers=(s0, sk),
        diagnostics=diagnostics,
    )


class _CornerMap:
    """The corner map psi, read off the lattice on every call.

    psi(x^) maps the slot-12 graph projection of x^ through the
    normalized map phi' = Ad(S_k S0) o phi and recovers the operator
    from the image; psi(x^, slot) takes the same road through another
    slot, which for a map induced by a ring isomorphism gives the same
    operator.  A call is one graph projection (one QR per stack), one
    application of phi' (phi, then one conjugation) and one recovery
    (one eigh per stack for the operator, certified on the image's
    range basis); images maps many points through one application of
    phi'.  It holds phi', the source frame and the standard target
    frame, and nothing else.
    """

    def __init__(self, phi: LatticeMap, source: Frame, target: Frame):
        self.phi = phi
        self.source = source
        self.target = target

    def __call__(self, xhat: Element, slot=(0, 1)) -> Element:
        """psi at one corner through the given slot; a recovery error
        names the slot."""
        return self.images([(xhat, slot)])[0]

    def images(self, points: list[tuple[Element, tuple]]) -> list[Element]:
        """psi at each (x^, slot) of points: one batch through phi', recoveries in order."""
        images = self.phi.images([graph_projection(self.source, x, s) for x, s in points])
        return [recover_operator(self.target, q, slot) for q, (_, slot) in zip(images, points)]


def _compile(psi: _CornerMap, s_inv: Element) -> ConjugationRingIso:
    """Psi as one ConjugationRingIso, read off the corner map.

    psi is x -> R sigma(x) R^{-1} with blocks routed (Skolem-Noether on
    the corner algebra), and Psi assembles psi entrywise in the source
    frame coordinates V and the standard target coordinates before
    undoing the normalizer S, so block t = block_map[b] of Psi is
    conjugation by T_t = S_t^{-1} (1_k (x) R_t) sigma_b(V_b)*, k the
    frames' order.
    """
    fr, target = psi.source, psi.target
    corner = _skolem_noether(psi, fr.corner_shape)
    blocks = [None] * len(corner.block_map)
    for b, (s, t) in enumerate(zip(corner.sigma, corner.block_map)):
        v = fr.v.data[b]
        v = v.conj() if s == "conj" else v
        r = np.kron(np.eye(fr.order), corner.T.data[t])
        blocks[t] = s_inv.data[t] @ r @ v.conj().T
    T = Element(target.shape, blocks)
    return ConjugationRingIso(T, corner.sigma, corner.block_map)


def _seeded_frame(shape: AlgebraShape, rng: np.random.Generator) -> Frame:
    """The standard frame of order ORDER conjugated by a seeded Haar
    unitary U: its slot coordinates are U itself."""
    return Frame(random_unitary(shape, rng), ORDER)


def _verify(
    phi: LatticeMap,
    Psi: ConjugationRingIso,
    frame: Frame,
    pairs: list[tuple[Element, Element]],
    samples: int,
    rng: np.random.Generator,
) -> dict:
    """The certificate of a compiled Psi, the theorem's identity
    phi(p) = range Psi(p): the worst ||phi(.) - Psi.lattice_map()(.)||
    over each group of _probes' probes, random projections, supports
    and frame points.  Psi's images take one QR per size and rank and
    the distances one SVD per size, across all probes; phi maps them
    in one batch.  Last comes Psi's unit, read on Psi itself once the
    probes have let go of their stacks.

    Raises:
        IntertwiningFailure: the worst distance over all probes exceeds
            1e-3; it carries that probe and Psi's image of it.
    """
    probes = _probes(frame, pairs, samples, rng)
    images = Psi._images(probes)
    res = _distances(zip(phi.images(probes), images))
    groups = res[:samples], res[samples : 2 * samples], res[2 * samples :]
    proj_res, sup_res, frame_res = (max(g, default=0.0) for g in groups)
    worst = int(np.argmax(res))
    if res[worst] > 1e-3:
        raise IntertwiningFailure(res[worst], probes[worst], images[worst])

    return {
        "unit": float(distance(Psi(Element.identity(phi.source)), Element.identity(phi.target))),
        "support_intertwining": float(sup_res),
        "projection_intertwining": float(proj_res),
        "frame_intertwining": float(frame_res),
    }


def _probes(
    frame: Frame, pairs: list[tuple[Element, Element]], samples: int, rng: np.random.Generator
) -> list[Projection]:
    """The certificate's probes.  Every sample's draws come first, a
    random projection p, a random element x and a random projection p',
    then one QR per size and rank orthonormalizes the p's and p''s, and
    one product and one thin SVD per size give the supports l(x p').
    The frame points of each corner pair (x, y) need no draws: the
    slot-12 graphs P_12[y], P_12[x + y] and P_12[x y], and the two-slot
    P_{x,y}, on which phi must carry psi's ring axioms and the meet
    expression of a non-graph projection.  Returns the p's, the
    supports, then the frame points."""
    shape = frame.shape
    draws, xs = [], []
    for _ in range(samples):
        draws.append(_draw_projection(shape, rng))
        xs.append(random_element(shape, rng))
        draws.append(_draw_projection(shape, rng))
    ps = _orthonormalize(shape, draws)
    products = [np.matmul(*g) for g in zip(_batch(shape, xs), _batch(shape, ps[1::2]))]
    supports = _left_supports(shape, products)
    points = []
    for x, y in pairs:
        points += [*(graph_projection(frame, z) for z in (y, x + y, x * y)), _two_slot(frame, x, y)]
    return ps[0::2] + supports + points


def _two_slot(frame: Frame, x: Element, y: Element) -> Projection:
    """The non-graph projection P_{x,y} = (P_12[x] v e3) ^ (P_13[y] v e2)."""
    e = frame.projections
    left = join(graph_projection(frame, x, (0, 1)), e[2])
    return meet(left, join(graph_projection(frame, y, (0, 2)), e[1]))


def uniqueness_residual(
    psi_full: Callable[[Element], Element],
    shape: AlgebraShape,
    samples: int = 64,
    seed: int = 0,
) -> UniquenessReport:
    """Quantitative form of the identity lemma.

    For a map claiming l(psi_full(x)) = l(x), report the worst
    ||psi_full(x) - x|| over seeded samples.  If the support condition
    fails on some sample, the residual is still reported but carries no
    certificate; the witness records the first offending input.
    """
    rng = rng_from(seed)
    probes = [Element.identity(shape)]
    for _ in range(samples):
        probes.append(random_element(shape, rng))
    # rank-deficient probes: the support premise is vacuous on invertible
    # inputs, so a few projections are needed to give it teeth
    for _ in range(max(4, samples // 4)):
        probes.append(random_projection(shape, rng).element)
    images = [psi_full(x) for x in probes]
    count = len(probes)
    supports = _left_supports(shape, _batch(shape, images + probes))
    dists = _distances(zip(supports[:count] + images, supports[count:] + probes))
    support_d, residuals = dists[:count], dists[count:]
    bad = [k for k, d in enumerate(support_d) if d > PROJ_TOL]
    return UniquenessReport(
        residual=float(max(residuals)),
        support_ok=not bad,
        support_residual=float(max(support_d)),
        witness={"sample": bad[0], "support_distance": float(support_d[bad[0]])} if bad else None,
        samples=count,
    )
