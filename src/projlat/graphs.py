"""Frames of k equivalent orthogonal projections and graph projections.

A Frame of order k splits every block into k equal slots, and it is
its slot coordinates: one unitary V per block whose k column groups
V_1, ..., V_k are orthonormal bases of the slots.  Its projections
e_i = V_i V_i* and matrix units w_1j = V_1 V_j* (w_1j maps the j-th
slot onto the first) are read off V, and every slot operation reduces
to the standard picture of k x k operator matrices over the corner
algebra.
A slot is a pair (d, i) of distinct zero-based indices below k, named
1-based: slot (0, 1) is slot 12.

The graph projection in slot (d, i) of a corner operator x is the
projection onto { xi in slot d, x xi in slot i }; concretely, in
standard coordinates for slot 12 of an order-3 frame,

    P_12[x] = [[c, c x*, 0], [x c, x c x*, 0], [0, 0, 0]],
    c = (1 + x* x)^{-1}.

A projection Q is such a graph exactly when Q v e_i = e_d v e_i and Q
is LS-orthogonal to e_i; the operator is then recovered from the corner
ratio Q_{id} Q_{dd}^{-1}, both corners read off Q's range basis in slot
coordinates, W = V* U: Q_dd = W_d W_d* and Q_id = W_i W_d*, W_j the
rows of slot j, so no dense Q is formed.  x is certified on W, with no
graph projection rebuilt: [W_d; x W_d; 0] lies in the graph and the
other slots are orthogonal to it, so the distance of Q from the graph
of x is at most the norm of [W_i - x W_d; W_o], W_o the rows of every
slot o outside (d, i).  Products and sums of corner operators are
realized by pure meet/join expressions on graph projections of slots
1-3, which is what makes the lattice remember the ring.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .core import (
    CHECK_TOL,
    PROJ_TOL,
    AlgebraShape,
    Element,
    Projection,
    _bases,
    _ct,
    _singular_values,
    distance,
)
from .errors import NotAFrame, NotAGraphProjection, ShapeMismatch
from .halmos import ls_orthogonal
from .lattice import join, meet

__all__ = [
    "Frame",
    "graph_projection",
    "is_slot_graph_projection",
    "recover_operator",
    "lattice_product",
    "lattice_sum",
    "inverse_coincidence",
]


def _slot(c: np.ndarray, i: int, j: int, k: int) -> np.ndarray:
    """The (i, j) slot of each k x k slot matrix of a stack, as a view."""
    m = c.shape[1] // k
    return c[:, i * m : (i + 1) * m, j * m : (j + 1) * m]


def _check_slot(frame: "Frame", slot) -> tuple[int, int]:
    """slot as (domain, image), once it is a slot of the frame."""
    k = frame.order
    pair = isinstance(slot, tuple) and len(slot) == 2
    if not (pair and slot[0] != slot[1] and all(0 <= s < k for s in slot)):
        raise ValueError(f"slot must be a pair of distinct indices below {k}, got {slot!r}")
    return slot


def _require_order(shape: AlgebraShape, k: int) -> None:
    """NotAFrame unless k >= 1 divides every block size, naming the
    first block it does not divide."""
    for b, n in enumerate(shape.blocks):
        if k < 1 or n % k:
            raise NotAFrame(f"every block size must be divisible by {k}: block {b} has size {n}")


class Frame:
    """A frame of order k, held as its slot coordinates: one unitary V
    per block whose k column groups V_1, ..., V_k are orthonormal bases
    of the slots.

    The k equivalent orthogonal projections summing to 1 are
    e_i = V_i V_i*, and the units w_1j = V_1 V_j* map the j-th slot
    onto the first; both are read off V when first asked for.  V is an
    element: one stack per block size, which the corner algebra (block
    sizes divided by k) groups the same way.
    """

    def __init__(self, v: Element, order: int):
        """The frame of the given order whose slot coordinates are v.

        Raises:
            NotAFrame: the order is below 1 or does not divide some
                block size (the first such block is named), or V is not
                unitary on some block, within 1e3 PROJ_TOL.
        """
        _require_order(v.shape, order)
        defects = []
        for idx, a in v._pieces():
            defect = _singular_values(_ct(a) @ a - np.eye(a.shape[1]))[:, 0]
            defects += [(idx[j], defect[j]) for j in np.flatnonzero(defect > 1e3 * PROJ_TOL)]
        if defects:
            b, defect = min(defects)
            raise NotAFrame(f"frame coordinates not unitary on block {b} (defect {defect:.3e})")
        self.v, self.order, self.shape = v, order, v.shape
        self.corner_shape = AlgebraShape(n // order for n in self.shape.blocks)

    def _columns(self) -> list[tuple[tuple, list[np.ndarray]]]:
        """(block indices, the k column groups of V's stack) per stack."""
        return [(idx, np.split(a, self.order, axis=2)) for idx, a in self.v._pieces()]

    @functools.cached_property
    def projections(self) -> tuple[Projection, ...]:
        """e_1, ..., e_k: e_i projects onto the span of V_i."""
        cols = self._columns()
        return tuple(
            Projection._of(self.shape, [(idx, vs[i]) for idx, vs in cols])
            for i in range(self.order)
        )

    @functools.cached_property
    def units(self) -> tuple[Element, ...]:
        """w_12, ..., w_1k: w_1j = V_1 V_j*."""
        cols = self._columns()
        return tuple(
            Element._of(self.shape, [(idx, vs[0] @ _ct(vs[j])) for idx, vs in cols])
            for j in range(1, self.order)
        )

    @classmethod
    def standard(cls, shape: AlgebraShape, k: int) -> "Frame":
        """Frame of order k from contiguous index groups of every block:
        V = 1, so no tolerance enters."""
        return cls(Element.identity(shape), k)

    @classmethod
    def from_projections(cls, ps: Sequence[Projection], ws: Sequence[Element]) -> "Frame":
        """Assemble a frame from k projections and the k - 1 isometry
        witnesses w_12, ..., w_1k.

        w_1j must be a partial isometry from the j-th slot onto the
        first: w w* = p_1 and w* w = p_j.  V is [U, w_12* U, ..., w_1k* U]
        per block, U the range basis of p_1.

        Raises:
            NotAFrame: the order does not divide some block size (the
                first such block is named), the pieces do not satisfy the
                frame relations, or V is not unitary.
        """
        ps, ws = tuple(ps), tuple(ws)
        k, shape = len(ps), ps[0].shape
        if any(p.shape != shape for p in ps):
            raise NotAFrame("frame projections live in different algebras")
        if len(ws) != k - 1:
            raise NotAFrame(f"a frame of order {k} takes {k - 1} witnesses, got {len(ws)}")
        _require_order(shape, k)
        for i in range(k):
            for j in range(i + 1, k):
                if (ps[i].element * ps[j].element).norm() > PROJ_TOL:
                    raise NotAFrame(f"projections {i + 1} and {j + 1} not orthogonal")
        total = sum((p.element for p in ps[1:]), ps[0].element)
        if distance(total, Element.identity(shape)) > PROJ_TOL:
            raise NotAFrame("frame projections do not sum to 1")
        for j, (w, target) in enumerate(zip(ws, ps[1:]), 2):
            if distance(w * w.adjoint(), ps[0]) > PROJ_TOL:
                raise NotAFrame(f"w1{j} w* is not p1")
            if distance(w.adjoint() * w, target) > PROJ_TOL:
                raise NotAFrame(f"w1{j}* w1{j} is not the slot projection")

        vmats = []
        for b, u1 in enumerate(ps[0].basis):
            vmats.append(np.concatenate([u1] + [w.data[b].conj().T @ u1 for w in ws], axis=1))
        return cls(Element(shape, vmats), k)


def graph_projection(frame: Frame, x: Element, slot=(0, 1)) -> Projection:
    """Projection onto the graph of a corner operator in the given slot,
    a span of known rank orthonormalized by core._bases; no tolerance
    enters."""
    d, im = _check_slot(frame, slot)
    if x.shape != frame.corner_shape:
        raise ShapeMismatch("graph operand must be a corner element of the frame")
    pieces = []
    for (idx, v), a in zip(frame.v._pieces(), x._stacks):
        m = a.shape[1]
        std = np.zeros((len(idx), frame.order * m, m), dtype=np.complex128)
        std[:, d * m : (d + 1) * m] = np.eye(m)
        std[:, im * m : (im + 1) * m] = a
        pieces.append((idx, v @ std))
    return _bases(frame.shape, [pieces])[0]


def is_slot_graph_projection(frame: Frame, q: Projection, slot=(0, 1)) -> bool:
    """Lattice-side recognition of slot graph projections.

    Q is the graph of some corner operator in slot (d, i) exactly when
    join(Q, e_i) = e_d v e_i and Q is LS-orthogonal to e_i.
    """
    d, im = _check_slot(frame, slot)
    ps = frame.projections
    lhs = join(q, ps[im])
    rhs = join(ps[d], ps[im])
    if lhs.ranks != rhs.ranks or distance(lhs, rhs) > PROJ_TOL:
        return False
    return ls_orthogonal(q, ps[im])


def recover_operator(frame: Frame, q: Projection, slot=(0, 1)) -> Element:
    """Read the corner operator off a slot graph projection.

    In slot coordinates the operator is the ratio x = Q_{id} Q_{dd}^{-1},
    with both corners read off Q's range basis there, W = V* U, block by
    block: Q_dd = W_d W_d* and Q_id = W_i W_d*, so neither the dense Q
    nor its rotation V* Q V is formed.  The domain corner is singular
    only when sigma_min(W_d)^2 <= 0; otherwise the certificate decides.
    x is certified on W, with no graph projection rebuilt: [W_d; x W_d; 0]
    lies in the graph of x and every slot o outside (d, i) is orthogonal
    to it, so the spectral norm of the (k - 1)m x m certificate
    [W_i - x W_d; W_o ...], which must be within CHECK_TOL, bounds the
    distance of Q from the graph projection of x (the ranks being
    equal).  A block whose certificate has Frobenius norm within
    CHECK_TOL / 2 passes on that bound, with no SVD.

    Raises:
        ShapeMismatch: q does not live in the frame's algebra.
        NotAGraphProjection: wrong rank, singular domain corner, or
            certification residual above CHECK_TOL; its reason starts
            with the slot (for example "slot 23: "), and it names the
            block.
    """
    d, im = _check_slot(frame, slot)
    if q.shape != frame.shape:
        raise ShapeMismatch("projection does not live in the frame's algebra")
    k, name = frame.order, f"slot {d + 1}{im + 1}"
    others = [o for o in range(k) if o not in (d, im)]
    for b, (r, n) in enumerate(zip(q.ranks, frame.corner_shape.blocks)):
        if r != n:
            raise NotAGraphProjection(f"{name}: rank {r} does not match the slot rank {n}", b)
    # every rank is the slot rank, so q's bases are stacked as V is;
    # _slot(w, j, 0, k) is the j-th slot's rows of the (g, km, m) bases
    corners, singular = [], []
    for (idx, v), u in zip(frame.v._pieces(), q._stacks):
        w = _ct(v) @ u
        wd_star = _ct(_slot(w, d, 0, k))
        lam, vec = np.linalg.eigh(_slot(w, d, 0, k) @ wd_star)  # Q_dd
        bad = lam[:, 0] <= 0
        singular.extend(idx[j] for j in np.flatnonzero(bad))
        corners.append((idx, _slot(w, im, 0, k) @ wd_star, lam, vec, w))  # Q_id
    if singular:
        raise NotAGraphProjection(f"{name}: domain corner singular", min(singular))
    # ||R||_2 <= ||R||_F: a block whose Frobenius residual is at most
    # CHECK_TOL / 2 passes without an SVD; the margin keeps the decision
    # the one its spectral norm gives
    pieces, failed = [], []
    for idx, qid, lam, vec, w in corners:
        x = qid @ (vec / lam[..., None, :]) @ _ct(vec)
        pieces.append((idx, x))
        rows = [_slot(w, im, 0, k) - x @ _slot(w, d, 0, k)] + [_slot(w, o, 0, k) for o in others]
        r = np.concatenate(rows, axis=1)
        rest = np.flatnonzero(np.linalg.norm(r, axis=(1, 2)) > CHECK_TOL / 2)
        if rest.size:
            norms = _singular_values(r[rest])[:, 0]
            failed.extend((idx[j], s) for j, s in zip(rest, norms) if s > CHECK_TOL)
    if failed:
        b, residual = min(failed)
        raise NotAGraphProjection(
            f"{name}: not a graph projection (residual {residual:.3e})", b
        )
    return Element._of(frame.corner_shape, pieces)


def lattice_product(frame: Frame, x: Element, y: Element) -> Projection:
    """Graph projection of the product x y, computed only with meet/join:

    (P_23[-x] v P_12[y]) ^ (e1 v e3) = P_13[x y].
    """
    e = frame.projections
    left = join(graph_projection(frame, -x, (1, 2)), graph_projection(frame, y, (0, 1)))
    return meet(left, join(e[0], e[2]))


def lattice_sum(frame: Frame, x: Element, y: Element) -> Projection:
    """Graph projection of the sum x + y, computed only with meet/join.

    With f = P_{x,1} = (P_12[x] v e3) ^ (P_13[1] v e2) and
    g = (P_12[y] v P_13[1]) ^ (e2 v e3), the projection
    (f v g) ^ (e1 v e2) equals P_12[x + y].
    """
    e = frame.projections
    one = Element.identity(frame.corner_shape)
    f = _two_slot(frame, x, one)
    g = meet(
        join(graph_projection(frame, y, (0, 1)), graph_projection(frame, one, (0, 2))),
        join(e[1], e[2]),
    )
    return meet(join(f, g), join(e[0], e[1]))


def _two_slot(frame: Frame, x: Element, y: Element) -> Projection:
    """The non-graph projection P_{x,y} = (P_12[x] v e3) ^ (P_13[y] v e2)."""
    e = frame.projections
    left = join(graph_projection(frame, x, (0, 1)), e[2])
    return meet(left, join(graph_projection(frame, y, (0, 2)), e[1]))


def inverse_coincidence(frame: Frame, x: Element) -> bool:
    """Invertibility of x read off the lattice: P_12[x] is also a
    slot-21 graph projection exactly when x is invertible (and the
    slot-21 recovery then returns the inverse)."""
    q = graph_projection(frame, x, (0, 1))
    return is_slot_graph_projection(frame, q, (1, 0))
