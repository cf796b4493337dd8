"""Frames of three equivalent orthogonal projections and graph projections.

A ThreeFrame splits every block into three equal slots via matrix units
w_ij (w_ij maps the j-th slot onto the i-th).  Internally the frame
carries one unitary V per block whose column groups are coordinates for
the slots (its SlotCoordinates), so that every slot operation reduces
to the standard picture of 3x3 operator matrices over the corner
algebra.

The graph projection in slot (d, i) of a corner operator x is the
projection onto { xi in slot d, x xi in slot i }; concretely, in
standard coordinates for slot 12,

    P_12[x] = [[c, c x*, 0], [x c, x c x*, 0], [0, 0, 0]],
    c = (1 + x* x)^{-1}.

A projection Q is such a graph exactly when Q v e_i = e_d v e_i and Q
is LS-orthogonal to e_i; the operator is then recovered from the corner
ratio Q_{id} Q_{dd}^{-1} and certified on Q's range basis W in slot
coordinates, with no graph projection rebuilt: [W_d; x W_d; 0] lies in
the graph and the third slot is orthogonal to it, so the distance of Q
from the graph of x is at most the norm of [W_i - x W_d; W_o].
Products and sums of corner operators are realized by pure meet/join
expressions on graph projections, which is what makes the lattice
remember the ring.
"""

from __future__ import annotations

import numpy as np

from .core import (
    CHECK_TOL,
    DEFAULT_TOL,
    AlgebraShape,
    Element,
    Projection,
    Tolerances,
    _ct,
    _direct_sum,
    _singular_values,
    distance,
)
from .errors import NotAFrame, NotAGraphProjection, ShapeMismatch
from .halmos import ls_orthogonal
from .lattice import join, meet

__all__ = [
    "SlotCoordinates",
    "ThreeFrame",
    "SLOTS",
    "graph_projection",
    "is_slot_graph_projection",
    "recover_operator",
    "lattice_product",
    "lattice_sum",
    "inverse_coincidence",
]

# slot name -> (domain, image), zero-indexed
SLOTS: dict[int, tuple[int, int]] = {12: (0, 1), 13: (0, 2), 23: (1, 2), 21: (1, 0)}


def _slot(c: np.ndarray, i: int, j: int) -> np.ndarray:
    """The (i, j) slot of each 3x3 slot matrix of a stack, as a view."""
    k = c.shape[1] // 3
    return c[:, i * k : (i + 1) * k, j * k : (j + 1) * k]


class SlotCoordinates:
    """One unitary V per block whose column thirds span the three slots.

    V is kept as an element: one stack per block size, which the corner
    algebra (block sizes divided by 3) groups the same way.  These
    coordinates are all that graph projections and their recovery read
    off a frame, so tile(c) serves the direct sum of c copies of the
    algebra without building c-fold frame projections and units.
    """

    __slots__ = ("shape", "corner_shape", "_v")

    def __init__(self, shape: AlgebraShape, vmats):
        """vmats: one unitary per block, or an element holding them."""
        self.shape = shape
        self.corner_shape = AlgebraShape(n // 3 for n in shape.blocks)
        self._v = vmats if isinstance(vmats, Element) else Element(shape, vmats)

    @property
    def _vmats(self) -> tuple[np.ndarray, ...]:
        return self._v.data

    def tile(self, c: int) -> "SlotCoordinates":
        """The coordinates of the direct sum of c copies of the algebra."""
        if c == 1:
            return self
        v = _direct_sum([self._v] * c)
        return SlotCoordinates(v.shape, v)

    def _rotate(self, x: Element, back: bool = False) -> Element:
        """x, of this algebra, in slot coordinates: V* x V per block; back
        rotates the other way, V x V*."""
        vs = self._v._stacks
        return x._like([v @ a @ _ct(v) if back else _ct(v) @ a @ v for v, a in zip(vs, x._stacks)])

    def to_coords(self, x) -> list[np.ndarray]:
        """Standard 3x3 slot coordinates of an element, one read-only
        matrix per block."""
        if isinstance(x, Projection):
            x = x.element
        if x.shape != self.shape:
            raise ShapeMismatch("element does not live in the frame's algebra")
        return list(self._rotate(x).data)

    def from_coords(self, mats) -> Element:
        """Inverse of to_coords."""
        return self._rotate(Element(self.shape, mats), back=True)


class ThreeFrame(SlotCoordinates):
    """Three equivalent orthogonal projections summing to 1, with units."""

    __slots__ = ("e1", "e2", "e3", "units")

    def __init__(
        self,
        shape: AlgebraShape,
        projections: tuple[Projection, Projection, Projection],
        units: tuple[tuple[Element, ...], ...],
        vmats,
    ):
        super().__init__(shape, vmats)
        self.e1, self.e2, self.e3 = projections
        self.units = units

    @classmethod
    def standard(cls, shape: AlgebraShape) -> "ThreeFrame":
        """Frame from contiguous index thirds of every block; exact, so no
        tolerance enters."""
        if any(n % 3 for n in shape.blocks):
            raise NotAFrame(f"every block size must be divisible by 3, got {shape}")
        eye = Element.identity(shape)
        thirds = [np.split(e, 3, axis=2) for e in eye._stacks]  # column thirds
        projections = tuple(
            Projection._of(shape, [(idx, cols[i]) for idx, cols in zip(eye._groups, thirds)])
            for i in range(3)
        )

        def unit(i: int, j: int) -> Element:
            stacks = [np.zeros_like(e) for e in eye._stacks]
            for w, e in zip(stacks, eye._stacks):
                _slot(w, i, j)[...] = _slot(e, i, i)
            return eye._like(stacks)

        units = tuple(tuple(unit(i, j) for j in range(3)) for i in range(3))
        return cls(shape, projections, units, eye)

    @classmethod
    def from_projections(
        cls,
        p1: Projection,
        p2: Projection,
        p3: Projection,
        w12: Element,
        w13: Element,
        tol: Tolerances = DEFAULT_TOL,
    ) -> "ThreeFrame":
        """Assemble a frame from projections and two isometry witnesses.

        w12, w13 must be partial isometries from the second/third slot
        onto the first: w w* = p1 and w* w = p2 (resp. p3).

        Raises:
            NotAFrame: the pieces do not satisfy the frame relations.
        """
        shape = p1.shape
        if p2.shape != shape or p3.shape != shape:
            raise NotAFrame("frame projections live in different algebras")
        if any(n % 3 for n in shape.blocks):
            raise NotAFrame(f"every block size must be divisible by 3, got {shape}")
        ps = (p1, p2, p3)
        for i in range(3):
            for j in range(i + 1, 3):
                if (ps[i].element * ps[j].element).norm() > tol.proj_tol:
                    raise NotAFrame(f"projections {i + 1} and {j + 1} not orthogonal")
        total = p1.element + p2.element + p3.element
        if distance(total, Element.identity(shape)) > tol.proj_tol:
            raise NotAFrame("frame projections do not sum to 1")
        for w, target, name in ((w12, p2, "w12"), (w13, p3, "w13")):
            if distance(w * w.adjoint(), p1) > tol.proj_tol:
                raise NotAFrame(f"{name} w* is not p1")
            if distance(w.adjoint() * w, target) > tol.proj_tol:
                raise NotAFrame(f"{name}* {name} is not the slot projection")

        w1 = [p1.element, w12, w13]
        units = tuple(
            tuple(w1[i].adjoint() * w1[j] for j in range(3)) for i in range(3)
        )
        vmats = []
        for b, n in enumerate(shape.blocks):
            u1 = p1.basis[b]
            cols = [u1] + [w1[j].data[b].conj().T @ u1 for j in (1, 2)]
            v = np.concatenate(cols, axis=1)
            if v.shape != (n, n):
                raise NotAFrame(f"slot ranks do not fill block {b}")
            defect = np.linalg.norm(v.conj().T @ v - np.eye(n), 2)
            if defect > 1e3 * tol.proj_tol:
                raise NotAFrame(
                    f"frame coordinates not unitary on block {b} (defect {defect:.3e})"
                )
            vmats.append(v)
        return cls(shape, ps, units, tuple(vmats))

    @property
    def projections(self) -> tuple[Projection, Projection, Projection]:
        return (self.e1, self.e2, self.e3)


def graph_projection(frame: SlotCoordinates, x: Element, slot: int = 12) -> Projection:
    """Projection onto the graph of a corner operator in the given slot,
    orthonormalized by QR; no tolerance enters."""
    if slot not in SLOTS:
        raise ValueError(f"slot must be one of {sorted(SLOTS)}, got {slot}")
    if x.shape != frame.corner_shape:
        raise ShapeMismatch("graph operand must be a corner element of the frame")
    d, im = SLOTS[slot]
    pieces = []
    for (idx, v), a in zip(frame._v._pieces(), x._stacks):
        k = a.shape[1]
        std = np.zeros((len(idx), 3 * k, k), dtype=np.complex128)
        std[:, d * k : (d + 1) * k] = np.eye(k)
        std[:, im * k : (im + 1) * k] = a
        pieces.append((idx, np.linalg.qr(v @ std)[0]))
    return Projection._of(frame.shape, pieces)


def is_slot_graph_projection(
    frame: ThreeFrame, q: Projection, slot: int = 12, tol: Tolerances = DEFAULT_TOL
) -> bool:
    """Lattice-side recognition of slot graph projections.

    Q is the graph of some corner operator in slot (d, i) exactly when
    join(Q, e_i) = e_d v e_i and Q is LS-orthogonal to e_i.
    """
    if slot not in SLOTS:
        raise ValueError(f"slot must be one of {sorted(SLOTS)}, got {slot}")
    d, im = SLOTS[slot]
    ps = frame.projections
    lhs = join(q, ps[im], tol)
    rhs = join(ps[d], ps[im], tol)
    if lhs.ranks != rhs.ranks or distance(lhs, rhs) > tol.proj_tol:
        return False
    return ls_orthogonal(q, ps[im], tol)


def recover_operator(
    frame: SlotCoordinates,
    q: Projection,
    slot: int = 12,
    tol: Tolerances = DEFAULT_TOL,
) -> Element:
    """Read the corner operator off a slot graph projection.

    In slot coordinates the operator is the ratio x = Q_{id} Q_{dd}^{-1}.
    It is certified on Q's range basis in slot coordinates, W = V* U,
    block by block, with no graph projection rebuilt: [W_d; x W_d; 0]
    lies in the graph of x and the slot o outside (d, i) is orthogonal
    to it, so the spectral norm of the 2k x k certificate
    [W_i - x W_d; W_o], which must be within CHECK_TOL, bounds the
    distance of Q from the graph projection of x (the ranks being
    equal).  A block whose certificate has Frobenius norm within
    CHECK_TOL / 2 passes on that bound, with no SVD.

    Raises:
        ShapeMismatch: q does not live in the frame's algebra.
        NotAGraphProjection: wrong rank, singular domain corner, or
            certification residual above CHECK_TOL, on the block the
            exception names.
    """
    if slot not in SLOTS:
        raise ValueError(f"slot must be one of {sorted(SLOTS)}, got {slot}")
    if q.shape != frame.shape:
        raise ShapeMismatch("projection does not live in the frame's algebra")
    d, im = SLOTS[slot]
    out = 3 - d - im
    for b, (r, k) in enumerate(zip(q.ranks, frame.corner_shape.blocks)):
        if r != k:
            raise NotAGraphProjection(f"rank {r} does not match the slot rank {k}", b)
    # every rank is the slot rank, so q's bases are stacked as V is
    ws = [_ct(v) @ u for v, u in zip(frame._v._stacks, q._stacks)]
    corners, singular = [], []
    for (idx, m), w in zip(frame._rotate(q.element)._pieces(), ws):
        qdd = _slot(m, d, d)
        lam, vec = np.linalg.eigh((qdd + _ct(qdd)) / 2)
        bad = (lam[:, -1] <= 0) | (lam[:, 0] <= tol.rank_rel * lam[:, -1])
        singular.extend(idx[j] for j in np.flatnonzero(bad))
        corners.append((idx, _slot(m, im, d), lam, vec, w))
    if singular:
        raise NotAGraphProjection("domain corner singular", min(singular))
    # ||R||_2 <= ||R||_F: a block whose Frobenius residual is at most
    # CHECK_TOL / 2 passes without an SVD; the margin keeps the decision
    # the one its spectral norm gives
    pieces, failed = [], []
    for idx, qid, lam, vec, w in corners:
        x = qid @ (vec / lam[..., None, :]) @ _ct(vec)
        pieces.append((idx, x))
        # _slot(w, j, 0) is the j-th slot's rows of the (g, 3k, k) bases
        r = np.concatenate([_slot(w, im, 0) - x @ _slot(w, d, 0), _slot(w, out, 0)], axis=1)
        rest = np.flatnonzero(np.linalg.norm(r, axis=(1, 2)) > CHECK_TOL / 2)
        if rest.size:
            norms = _singular_values(r[rest])[:, 0]
            failed.extend((idx[j], s) for j, s in zip(rest, norms) if s > CHECK_TOL)
    if failed:
        b, residual = min(failed)
        raise NotAGraphProjection(
            f"not a slot-{slot} graph projection (residual {residual:.3e})", b
        )
    return Element._of(frame.corner_shape, pieces)


def lattice_product(
    frame: ThreeFrame, x: Element, y: Element, tol: Tolerances = DEFAULT_TOL
) -> Projection:
    """Graph projection of the product x y, computed only with meet/join:

    (P_23[-x] v P_12[y]) ^ (e1 v e3) = P_13[x y].
    """
    left = join(graph_projection(frame, -x, 23), graph_projection(frame, y, 12), tol)
    return meet(left, join(frame.e1, frame.e3, tol), tol)


def lattice_sum(
    frame: ThreeFrame, x: Element, y: Element, tol: Tolerances = DEFAULT_TOL
) -> Projection:
    """Graph projection of the sum x + y, computed only with meet/join.

    With f = (P_12[x] v e3) ^ (P_13[1] v e2) and
    g = (P_12[y] v P_13[1]) ^ (e2 v e3), the projection
    (f v g) ^ (e1 v e2) equals P_12[x + y].
    """
    one = Element.identity(frame.corner_shape)
    f = meet(
        join(graph_projection(frame, x, 12), frame.e3, tol),
        join(graph_projection(frame, one, 13), frame.e2, tol),
        tol,
    )
    g = meet(
        join(graph_projection(frame, y, 12), graph_projection(frame, one, 13), tol),
        join(frame.e2, frame.e3, tol),
        tol,
    )
    return meet(join(f, g, tol), join(frame.e1, frame.e2, tol), tol)


def inverse_coincidence(
    frame: ThreeFrame, x: Element, tol: Tolerances = DEFAULT_TOL
) -> bool:
    """Invertibility of x read off the lattice: P_12[x] is also a
    slot-21 graph projection exactly when x is invertible (and the
    slot-21 recovery then returns the inverse)."""
    q = graph_projection(frame, x, 12)
    return is_slot_graph_projection(frame, q, 21, tol)
