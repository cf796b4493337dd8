"""Two-projection geometry.

Any pair of projections p, q splits the space into four corners
(p^q, p^q', p'^q, p'^q') plus a generic part on which the pair sits in
the canonical two-by-two position: writing e1 = p - p^q - p^q' and
e2 = p' - p'^q - p'^q', there is a partial isometry v (e2 -> e1) and
commuting positive injective a, b on range(e1) with a^2 + b^2 = e1 such
that the generic part of q is

    [[a^2, ab], [ab, b^2]]

in the (e1, e2) frame given by v.  The eigenvalues of a are the cosines
of the principal angles between the generic parts.

Every projection built here is a span of orthonormal columns that the
layer already holds; none is snapped back from a dense sum.

The decomposition drives two constructions: the invertible operator S
(the orthogonalizer) that pushes q off p while fixing p and the
complement of p v q, and the corner witness projection that encodes an
off-diagonal contraction x as the unique projection e <= p + q with
p e q = x.  The verification suite checks both; coordinatization does
not call them, as in finite dimension one basis inverse normalizes a
frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    EQ_TOL,
    PROJ_TOL,
    RANK_REL,
    Element,
    Projection,
    _bases,
    distance,
)
from .errors import NotLSOrthogonal, PreconditionViolated, ShapeMismatch
from .lattice import join, meet

__all__ = [
    "HalmosDecomposition",
    "halmos_decompose",
    "reconstruct",
    "ls_orthogonal",
    "ls_char_minimal_cover",
    "orthogonalizer",
    "corner_witness_projection",
]


@dataclass(frozen=True)
class HalmosDecomposition:
    """Canonical position of a projection pair.

    corners: p_and_q, p_and_qc, pc_and_q, pc_and_qc (qc = complement).
    e1, e2: generic parts of p and of its complement.
    a, b: commuting positive parts supported on range(e1), a^2+b^2 = e1.
    v: partial isometry with v v* = e1 and v* v = e2.
    angles: per-block principal angles of the generic part, ascending,
        in radians (empty array on blocks without generic part).
    """

    p_and_q: Projection
    p_and_qc: Projection
    pc_and_q: Projection
    pc_and_qc: Projection
    e1: Projection
    e2: Projection
    a: Element
    b: Element
    v: Element
    angles: tuple[np.ndarray, ...]


def halmos_decompose(p: Projection, q: Projection) -> HalmosDecomposition:
    """Split a projection pair into corners and generic part.

    Raises:
        PreconditionViolated: the corner meets disagree about a principal
            angle at the rank cutoff, so the generic parts of p and of its
            complement differ in rank on the block named.
    """
    if p.shape != q.shape:
        raise ShapeMismatch("pair must live in one algebra")
    shape = p.shape
    pc, qc = p.complement(), q.complement()
    pq = meet(p, q)
    pqc = meet(p, qc)
    pcq = meet(pc, q)
    pcqc = meet(pc, qc)
    e1 = meet(p, join(pq, pqc).complement())
    e2 = meet(pc, join(pcq, pcqc).complement())

    # q's generic part, read off its range basis: both corners under q
    # are orthogonal to e1 and e2, so with g = U_e1* U_q and h = U_e2* U_q
    # it is a^2 = g g* on e1 and a b v = g h* from e2 to e1.
    a_blocks, b_blocks, v_blocks, angle_blocks = [], [], [], []
    for i, n in enumerate(shape.blocks):
        u1, u2 = e1.basis[i], e2.basis[i]
        r = u1.shape[1]
        if u2.shape[1] != r:
            raise PreconditionViolated(
                f"generic parts differ in rank on block {i} ({r} != {u2.shape[1]})"
            )
        if r == 0:
            zero = np.zeros((n, n))
            a_blocks.append(zero)
            b_blocks.append(zero)
            v_blocks.append(zero)
            angle_blocks.append(np.zeros(0))
            continue
        g, h = u1.conj().T @ q.basis[i], u2.conj().T @ q.basis[i]
        c = g @ g.conj().T
        lam, vec = np.linalg.eigh((c + c.conj().T) / 2)
        lam = np.clip(lam, 0.0, 1.0)
        a_small = (vec * np.sqrt(lam)) @ vec.conj().T
        b_small = (vec * np.sqrt(1.0 - lam)) @ vec.conj().T
        x_small = g @ h.conj().T
        uu, _, vvh = np.linalg.svd(x_small)
        v_small = uu @ vvh  # full unitary pairing of the generic parts
        a_blocks.append(u1 @ a_small @ u1.conj().T)
        b_blocks.append(u1 @ b_small @ u1.conj().T)
        v_blocks.append(u1 @ v_small @ u2.conj().T)
        theta = np.sort(np.arctan2(np.sqrt(1.0 - lam), np.sqrt(lam)))
        theta.setflags(write=False)
        angle_blocks.append(theta)

    return HalmosDecomposition(
        p_and_q=pq,
        p_and_qc=pqc,
        pc_and_q=pcq,
        pc_and_qc=pcqc,
        e1=e1,
        e2=e2,
        a=Element(shape, a_blocks),
        b=Element(shape, b_blocks),
        v=Element(shape, v_blocks),
        angles=tuple(angle_blocks),
    )


def reconstruct(d: HalmosDecomposition) -> tuple[Projection, Projection]:
    """Rebuild (p, q) from a decomposition: p spans the bases of p^q,
    p^q' and e1, q those of p^q, p'^q and the orthonormal columns of
    (a + v* b) e1 (as a^2 + b^2 = e1 and v v* = e1)."""
    w = d.a + d.v.adjoint() * d.b
    p_bases, q_bases = [], []
    for i, u1 in enumerate(d.e1.basis):
        p_bases.append(np.concatenate([d.p_and_q.basis[i], d.p_and_qc.basis[i], u1], axis=1))
        q_bases.append(np.concatenate([d.p_and_q.basis[i], d.pc_and_q.basis[i], w.data[i] @ u1], axis=1))
    shape = d.e1.shape
    return Projection.from_basis(shape, p_bases), Projection.from_basis(shape, q_bases)


def ls_orthogonal(p: Projection, q: Projection) -> bool:
    """Strong disjointness of a pair: trivial meet and invertible b.

    In finite dimension the second condition is automatic once the meet
    is trivial (every generic angle has a nonzero sine), so the test is
    meet(p, q) = 0; it agrees with rank additivity of the join (see
    ls_char_minimal_cover).
    """
    return meet(p, q).rank() == 0


def ls_char_minimal_cover(p: Projection, q: Projection, trials: int = 16, seed: int = 0) -> bool:
    """Rank-additivity characterization of LS-orthogonality.

    For a pair with trivial meet, LS-orthogonality is equivalent to the
    join having no smaller cover: rank(p v q) = rank(p) + rank(q)
    blockwise, in exact integers.  Random strict subprojections p0 < p
    are sampled as falsification attempts; if any gives the same join as
    p the characterization failed and False is returned.

    Raises:
        PreconditionViolated: meet(p, q) != 0.
    """
    if meet(p, q).rank() != 0:
        raise PreconditionViolated("minimal-cover test needs meet(p, q) = 0")
    top = join(p, q)
    result = all(
        rj == rp + rq for rj, rp, rq in zip(top.ranks, p.ranks, q.ranks)
    )
    if p.rank() == 0:
        return result
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        sub_ranks = [rng.integers(0, r + 1) if r else 0 for r in p.ranks]
        if sum(sub_ranks) == p.rank():  # force strictness
            nonzero = [i for i, r in enumerate(sub_ranks) if r > 0]
            sub_ranks[rng.choice(nonzero)] -= 1
        spans = []
        for i, (u, r0) in enumerate(zip(p.basis, sub_ranks)):
            g = rng.standard_normal((u.shape[1], r0)) + 1j * rng.standard_normal((u.shape[1], r0))
            spans.append(((i,), (u @ g)[None]))
        (p0,) = _bases(p.shape, [spans])
        smaller = join(p0, q)
        if smaller.ranks == top.ranks and distance(smaller, top) <= PROJ_TOL:
            return False
    return result


def orthogonalizer(p: Projection, q: Projection) -> Element:
    """Invertible S moving q onto the complement of p inside p v q.

    S acts as the identity on the four corners and as
    [[1, -a b^{-1}], [0, b^{-1}]] on the generic part, so that
    S (p v q)' = (p v q)' S = (p v q)', S p = p, and the left support
    of S q S^{-1} is p v q - p.

    Raises:
        NotLSOrthogonal: the pair is not LS-orthogonal, or a principal
            angle sits at the rank cutoff (see halmos_decompose).
    """
    try:
        d = halmos_decompose(p, q)
    except PreconditionViolated as exc:
        raise NotLSOrthogonal(str(exc)) from exc
    if d.p_and_q.rank() != 0:
        raise NotLSOrthogonal("pair has a nonzero meet")
    shape = p.shape
    blocks = []
    for i, n in enumerate(shape.blocks):
        u1 = d.e1.basis[i]
        r = u1.shape[1]
        s_block = np.eye(n, dtype=np.complex128) - d.e2.element.data[i]
        if r:
            bb = u1.conj().T @ d.b.data[i] @ u1
            lam, vec = np.linalg.eigh((bb + bb.conj().T) / 2)
            if lam[0] <= RANK_REL * lam[-1] or lam[-1] <= 0:
                raise NotLSOrthogonal(f"b is singular on block {i}")
            binv_small = (vec / lam) @ vec.conj().T
            binv = u1 @ binv_small @ u1.conj().T
            ab_inv = d.a.data[i] @ binv
            vb = d.v.data[i]
            s_block = s_block - ab_inv @ vb + vb.conj().T @ binv @ vb
        blocks.append(s_block)
    return Element(shape, blocks)


def corner_witness_projection(x: Element, p: Projection, q: Projection) -> Projection:
    """The projection e <= p + q with p e q = x.

    For orthogonal equivalent p, q and a contraction x = p x q with
    ||x|| <= 1/2, take the positive a on the p-side with
    sin(a) cos(a) = |x*| and ||a|| <= pi/4; then

        e = cos^2(a) + v* sin(a)cos(a) + sin(a)cos(a) v + v* sin^2(a) v

    is a projection below p + q whose (p, q)-corner is exactly x.  The
    pairing v comes from the polar part of x, extended by the kernel
    unitaries of the SVD.  With U_p* x U_q = U diag(sin t cos t) Vh,
    e spans the orthonormal columns U_p U cos t + U_q Vh* sin t.

    Raises:
        PreconditionViolated: p not orthogonal to q, ranks differ,
            p x q != x, or ||x|| > 1/2.
    """
    if x.shape != p.shape or p.shape != q.shape:
        raise ShapeMismatch("witness needs one common algebra")
    if distance(p.element * q.element, Element.zeros(p.shape)) > PROJ_TOL:
        raise PreconditionViolated("p and q must be orthogonal")
    if p.ranks != q.ranks:
        raise PreconditionViolated("p and q must be equivalent (equal ranks)")
    if distance(p.element * x * q.element, x) > EQ_TOL:
        raise PreconditionViolated("x must equal p x q")
    if x.norm() > 0.5 + EQ_TOL:
        raise PreconditionViolated(f"||x|| = {x.norm():.4f} exceeds 1/2")

    bases = []
    for i, n in enumerate(p.shape.blocks):
        up, uq = p.basis[i], q.basis[i]
        if up.shape[1] == 0:
            bases.append(np.zeros((n, 0)))
            continue
        uu, sig, vvh = np.linalg.svd(up.conj().T @ x.data[i] @ uq)
        theta = 0.5 * np.arcsin(2.0 * np.clip(sig, 0.0, 0.5))
        bases.append(up @ uu * np.cos(theta) + uq @ vvh.conj().T * np.sin(theta))
    return Projection.from_basis(p.shape, bases)
