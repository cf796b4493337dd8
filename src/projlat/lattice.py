"""Lattice operations on projections: order, meet, join, equivalence.

Meet and join are computed from range bases.  RANK_REL decides ranks
in orth (so in the join), in meet, in core.left_support and in the
invertibility check of a conjugation's T, but not in the images of a
conjugation lattice map: T's check has already fixed their ranks.

The join orthonormalizes the concatenated bases with the relative
singular-value cutoff.  The meet takes one SVD of (1 - q)U_p, whose
singular values are the *sines* of the principal angles of range(p)
against range(q).  Only directions whose sine is at or below RANK_REL
are counted as common; deliberate small angles (say 1e-6) therefore
survive into the generic part of a two-projection pair instead of
being folded into the intersection.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import (
    EQ_TOL,
    PROJ_TOL,
    RANK_REL,
    Element,
    Projection,
    _cogroups,
    _ct,
    _singular_values,
    _split,
    _thin_svd,
    distance,
    left_support,
)
from .errors import NotAProjection, ShapeMismatch

__all__ = [
    "canonicalize",
    "leq",
    "meet",
    "join",
    "mv_equivalent",
    "central_support",
    "is_central_projection",
    "principal_ideal_leq",
]

# Eigenvalues of a near-projection must fall in these bands to be
# snapped; anything in between means the input was not a perturbed
# projection and deserves a loud failure rather than silent rounding.
_ZERO_BAND = (-0.1, 0.1)
_ONE_BAND = (0.9, 1.1)


def canonicalize(x: Element) -> Projection:
    """Snap a numerically perturbed projection onto an exact one.

    The input must be Hermitian within PROJ_TOL and its eigenvalues must
    lie in [-0.1, 0.1] or [0.9, 1.1]; eigenvalues are snapped to 0/1 and
    the projection is rebuilt from the eigenvectors of the 1-cluster.

    Raises:
        NotAProjection: not Hermitian, or an eigenvalue in (0.1, 0.9).
    """
    if isinstance(x, Projection):
        x = x.element
    pieces, bad = [], []
    for idx, a in x._pieces():
        herm_defect = _singular_values(a - _ct(a))[:, 0]
        lam, vec = np.linalg.eigh((a + _ct(a)) / 2)
        in_one = (lam >= _ONE_BAND[0]) & (lam <= _ONE_BAND[1])
        banned = ~(in_one | ((lam >= _ZERO_BAND[0]) & (lam <= _ZERO_BAND[1])))
        for j in np.flatnonzero((herm_defect > PROJ_TOL) | banned.any(axis=1)):
            i = idx[j]
            if herm_defect[j] > PROJ_TOL:
                bad.append((i, f"block {i} is not Hermitian (defect {herm_defect[j]:.3e})"))
            else:
                band = lam[j][banned[j]][0]
                bad.append((i, f"block {i} has eigenvalue {band:.6f} in the forbidden band"))
        # eigenvalues ascend, so the 1-cluster is the last columns
        for r, pos, sub in _split(idx, in_one):
            pieces.append((sub, vec[pos, :, vec.shape[2] - r :]))
    if bad:
        raise NotAProjection(min(bad)[1])
    return Projection._of(x.shape, pieces)


def leq(p: Projection, q: Projection) -> bool:
    """Order test p <= q, i.e. ||p - q p|| <= EQ_TOL."""
    return distance(p.element, q.element * p.element) <= EQ_TOL


def orth(pieces: Sequence[tuple]) -> list[tuple]:
    """Orthonormal bases of the column spaces of stacked matrices.

    pieces are (block indices, (k, n, m) stack); the result is pieces
    of (k, n, r) bases, split where the ranks of one stack differ.
    Singular values at or below RANK_REL times the largest count as
    zero.  This is for spans of unknown rank, as in join; a span of
    known rank goes through core._bases.
    """
    out = []
    for idx, a in pieces:
        if not a.shape[2]:
            out.append((idx, a))
            continue
        u, s, _ = _thin_svd(a)
        for r, pos, sub in _split(idx, s > RANK_REL * s[:, :1]):
            out.append((sub, u[pos, :, :r]))
    return out


def meet(p: Projection, q: Projection) -> Projection:
    """Largest projection under both p and q (range intersection): U_p
    times the right singular vectors of (1 - q)U_p with sine <= RANK_REL."""
    if p.shape != q.shape:
        raise ShapeMismatch("meet needs projections of one shape")
    pieces = []
    for idx, up, uq in _cogroups(p, q):
        if not (up.shape[2] and uq.shape[2]):
            pieces.append((idx, up[:, :, :0]))
            continue
        # Sines decide: a true intersection has sine ~ eps, an angle theta
        # has sine theta, and their cosines both round to 1 in doubles.
        _, s, zh = _thin_svd(up - uq @ (_ct(uq) @ up))
        for r, pos, sub in _split(idx, s > RANK_REL):
            pieces.append((sub, up[pos] @ _ct(zh[pos])[:, :, r:]))
    return Projection._of(p.shape, pieces)


def join(p: Projection, q: Projection) -> Projection:
    """Smallest projection above both p and q (span of the ranges)."""
    if p.shape != q.shape:
        raise ShapeMismatch("join needs projections of one shape")
    spans = [(idx, np.concatenate([up, uq], axis=2)) for idx, up, uq in _cogroups(p, q)]
    return Projection._of(p.shape, orth(spans))


def mv_equivalent(p: Projection, q: Projection) -> Element | None:
    """Murray-von Neumann equivalence witness, or None.

    In a direct sum of matrix algebras p ~ q exactly when the ranks
    agree blockwise; the witness v = U_p U_q* satisfies v v* = p and
    v* v = q.  Returns None when some block ranks differ.  Ranks are
    compared exactly, so no tolerance enters.
    """
    if p.shape != q.shape:
        raise ShapeMismatch("equivalence needs projections of one shape")
    if p.ranks != q.ranks:
        return None
    blocks = [up @ uq.conj().T for up, uq in zip(p.basis, q.basis)]
    return Element(p.shape, blocks)


def central_support(p: Projection) -> Projection:
    """Smallest central projection above p: 1 on blocks where p != 0."""
    shape = p.shape
    bases = [
        np.eye(n, dtype=np.complex128) if r > 0 else np.zeros((n, 0), dtype=np.complex128)
        for r, n in zip(p.ranks, shape.blocks)
    ]
    return Projection.from_basis(shape, bases)


def is_central_projection(p: Projection) -> bool:
    """True when each block of p is 0 or the identity."""
    return all(r in (0, n) for r, n in zip(p.ranks, p.shape.blocks))


def principal_ideal_leq(x: Element, a: Element) -> bool:
    """Membership of x in the principal right ideal generated by a.

    x = a z is solvable exactly when left_support(x) <= left_support(a),
    which is what gets tested.
    """
    return leq(left_support(x), left_support(a))
