"""Block-diagonal complex matrix algebra.

An algebra here is a finite direct sum of full complex matrix algebras,
described by an :class:`AlgebraShape`.  A value groups its blocks once,
when it is built: an element keeps one read-only ``(k, n, n)`` stack per
block size, a projection one ``(k, n, r)`` stack of range bases per
block size and rank, and ``data``/``basis`` are per-block views into
them.  Operations call numpy on the stacks; its linalg gufuncs and
matmul call LAPACK/BLAS once per slice, with the same bits as one call
per block.  Where a rank cutoff splits a group, :func:`_regroup` cuts
the results into the new value's stacks.  Everything is pure: results
are fresh values whose arrays are read-only and checked finite.

Many values of one shape can go through one call per stack as well: a
batch concatenates their stacks per size group, value by value, and
:func:`_left_supports` and :func:`_norms` take one SVD per group of a
batch, each value keeping its own cutoff.  left_support and distance
are their one-value cases; :func:`_distances` batches the differences
of many pairs.

Supports, polar parts and the center-valued norm are computed per block
with a relative singular-value cutoff: singular values at or below
``RANK_REL * sigma_max`` count as zero.  The cutoff is what makes ranks
(and hence the whole projection lattice) discrete and stable.

A range basis comes one of two ways.  A span of known rank (a sampled
or graph projection, the image of a range under an invertible map)
goes through :func:`_bases`: one QR per size and rank across all
values, with no cutoff.  A span of unknown rank goes through a thin SVD
cut at RANK_REL, in lattice.orth, lattice.meet and :func:`_left_supports`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import NotInvertible, ShapeMismatch

__all__ = [
    "RANK_REL",
    "PROJ_TOL",
    "EQ_TOL",
    "CHECK_TOL",
    "AlgebraShape",
    "Element",
    "Projection",
    "distance",
    "left_support",
    "right_support",
    "invert",
    "polar_decompose",
    "center_valued_norm",
    "is_central",
    "cond",
]


# The numerical cutoffs shared by every operation.  Singular values at
# or below RANK_REL times the largest count as zero (ranks, supports,
# invertibility); PROJ_TOL is the operator-norm deviation an input may
# have from an exact projection; EQ_TOL the operator-norm distance at
# which two elements are equal.
RANK_REL = 1e-9
PROJ_TOL = 1e-8
EQ_TOL = 1e-8

# Absolute bound on the residuals of the sampled certification checks:
# lattice-iso and orthogonality sampling, Skolem-Noether probes, slot
# graph recovery, and the real-linearity, multiplicativity and image-of-i
# checks of ring isomorphisms.
CHECK_TOL = 1e-6


@dataclass(frozen=True, init=False)
class AlgebraShape:
    """Block sizes of a direct sum of full matrix algebras."""

    blocks: tuple[int, ...]

    def __init__(self, blocks: Iterable[int]):
        blocks = tuple(int(n) for n in blocks)
        if not blocks:
            raise ValueError("a shape needs at least one block")
        if any(n < 1 for n in blocks):
            raise ValueError(f"block sizes must be positive, got {blocks}")
        object.__setattr__(self, "blocks", blocks)
        groups: dict[int, list[int]] = {}
        for i, n in enumerate(blocks):
            groups.setdefault(n, []).append(i)
        # the block indices of each size, sizes in order of first use
        object.__setattr__(self, "_groups", tuple(tuple(idx) for idx in groups.values()))

    @classmethod
    def parse(cls, text: str) -> "AlgebraShape":
        """Parse a comma-separated list of block sizes, e.g. "2,3"."""
        parts = [p for p in text.replace(" ", "").split(",") if p]
        if not parts:
            raise ValueError(f"cannot parse shape from {text!r}")
        return cls(int(p) for p in parts)

    @property
    def total_dim(self) -> int:
        return sum(self.blocks)

    def __str__(self) -> str:
        return ",".join(str(n) for n in self.blocks)


@functools.lru_cache(maxsize=1024)
def _layout(shape: AlgebraShape, keys: tuple) -> tuple[tuple[int, ...], ...]:
    """The block indices of each size split by keys[i], ascending: a
    projection's stack layout when keys are its ranks (memoized: a
    computation meets few layouts, and each many times)."""
    out = []
    for idx in shape._groups:
        for key in sorted({keys[i] for i in idx}):
            out.append(tuple([i for i in idx if keys[i] == key]))
    return tuple(out)


def _regroup(pieces: Sequence[tuple], layout: Sequence[tuple]) -> list[np.ndarray]:
    """One stack per group of layout, from pieces (block indices, stack)
    that hold the blocks grouped another way: a piece's own stack where
    it is a group, else each run of consecutive slices of one stack is
    cut as a view, and the runs are concatenated."""
    whole = dict(pieces)
    if all(idx in whole for idx in layout):
        return [whole[idx] for idx in layout]
    at = {i: (s, j) for idx, s in pieces for j, i in enumerate(idx)}
    out = []
    for idx in layout:
        runs: list[list] = []
        for i in idx:
            s, j = at[i]
            if runs and runs[-1][0] is s and runs[-1][2] == j:
                runs[-1][2] += 1
            else:
                runs.append([s, j, j + 1])
        parts = [s[a:b] for s, a, b in runs]
        out.append(parts[0] if len(parts) == 1 else np.concatenate(parts))
    return out


def _split(idx: tuple, keep: np.ndarray) -> list[tuple]:
    """The blocks idx of one stack grouped by their widths, the counts of
    True in each row of keep, as (width, positions in the stack, block
    indices); a stack of one width stays whole, its positions a slice."""
    widths = keep.sum(axis=-1).tolist()
    if widths.count(widths[0]) == len(widths):
        return [(widths[0], slice(None), idx)]
    pos = {w: [j for j, v in enumerate(widths) if v == w] for w in sorted(set(widths))}
    return [(w, p, tuple(idx[j] for j in p)) for w, p in pos.items()]


def _freeze(arr) -> np.ndarray:
    """arr as a C-contiguous complex array made read-only, after
    checking that its entries are finite."""
    arr = np.ascontiguousarray(arr, dtype=np.complex128)
    if not np.isfinite(arr).all():
        raise ValueError("non-finite entries")
    arr.setflags(write=False)
    return arr


def _ct(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def _singular_values(a: np.ndarray) -> np.ndarray:
    return np.linalg.svd(a, compute_uv=False)


def _thin_svd(a: np.ndarray):
    return np.linalg.svd(a, full_matrices=False)


def _stacked(shape: AlgebraShape, blocks: Sequence, fits) -> list[tuple]:
    """Copies of per-block arrays stacked in their layout, once
    fits(array shape, n) holds for each array and its block size n."""
    if len(blocks) != len(shape.blocks):
        raise ShapeMismatch(f"shape {shape} wants {len(shape.blocks)} blocks, got {len(blocks)}")
    shapes = [np.shape(b) for b in blocks]
    for s, n in zip(shapes, shape.blocks):
        if not fits(s, n):
            raise ShapeMismatch(f"a block of shape {s} does not fit n={n}")
    layout = _layout(shape, tuple(s[1] for s in shapes))
    return [(idx, np.array([blocks[i] for i in idx], dtype=np.complex128)) for idx in layout]


class _Blocks:
    """One complex matrix per block, kept as read-only stacks: the
    blocks of each size and width form one (k, n, w) stack, in the
    layout _layout(shape, widths)."""

    __slots__ = ("shape", "_widths", "_groups", "_stacks", "_views")

    @classmethod
    def _of(cls, shape: AlgebraShape, pieces: Sequence[tuple]):
        """The value whose blocks pieces (block indices, stack) hold."""
        x = cls.__new__(cls)
        x._set(shape, pieces)
        return x

    def _set(self, shape: AlgebraShape, pieces: Sequence[tuple]) -> None:
        widths = [0] * len(shape.blocks)
        for idx, s in pieces:
            w = s.shape[2]
            for i in idx:
                widths[i] = w
        groups = _layout(shape, tuple(widths))
        self._put(shape, tuple(widths), groups, _regroup(pieces, groups))

    def _put(self, shape: AlgebraShape, widths: tuple, groups: tuple, stacks) -> None:
        """Store stacks already in the layout groups of these widths."""
        self.shape, self._widths, self._groups, self._views = shape, widths, groups, None
        self._stacks = tuple(map(_freeze, stacks))

    def _pieces(self) -> list[tuple]:
        return list(zip(self._groups, self._stacks))

    def _blocks(self) -> tuple[np.ndarray, ...]:
        """One view per block, in block order."""
        if self._views is None:
            views: list = [None] * len(self.shape.blocks)
            for idx, s in self._pieces():
                for i, a in zip(idx, s):
                    views[i] = a
            self._views = tuple(views)
        return self._views


class Element(_Blocks):
    """A block-diagonal operator: one complex matrix per block.

    The blocks of each size are one read-only (k, n, n) stack; data is
    one (n, n) view into them per block, in block order.
    """

    __slots__ = ()

    def __init__(self, shape: AlgebraShape, blocks: Sequence[np.ndarray]):
        pieces = _stacked(shape, blocks, lambda s, n: s == (n, n))
        self._put(shape, shape.blocks, shape._groups, [s for _, s in pieces])

    data = property(_Blocks._blocks)

    def _like(self, stacks: Sequence[np.ndarray]) -> "Element":
        """The element of this shape with the given stacks."""
        x = Element.__new__(Element)
        x._put(self.shape, self._widths, self._groups, stacks)
        return x

    @classmethod
    def zeros(cls, shape: AlgebraShape) -> "Element":
        return cls(shape, [np.zeros((n, n)) for n in shape.blocks])

    @classmethod
    def identity(cls, shape: AlgebraShape) -> "Element":
        return cls(shape, [np.eye(n) for n in shape.blocks])

    @classmethod
    def from_scalars(cls, shape: AlgebraShape, scalars: Sequence[complex]) -> "Element":
        """Central element: one scalar multiple of the identity per block."""
        if len(scalars) != len(shape.blocks):
            raise ShapeMismatch("one scalar per block required")
        return cls(shape, [c * np.eye(n) for c, n in zip(scalars, shape.blocks)])

    def _zip(self, other, fn):
        other = _coerce(other)
        if not isinstance(other, Element):
            return NotImplemented
        if self.shape != other.shape:
            raise ShapeMismatch(f"shapes differ: {self.shape} vs {other.shape}")
        return self._like([fn(a, b) for a, b in zip(self._stacks, other._stacks)])

    def __add__(self, other):
        return self._zip(other, np.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._zip(other, np.subtract)

    def __neg__(self):
        return self._like([-a for a in self._stacks])

    def __mul__(self, other):
        if isinstance(other, (int, float, complex, np.number)):
            c = complex(other)
            return self._like([c * a for a in self._stacks])
        return self._zip(other, np.matmul)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex, np.number)):
            return self.__mul__(other)
        return NotImplemented

    def adjoint(self) -> "Element":
        return self._like([_ct(a) for a in self._stacks])

    def conj(self) -> "Element":
        """Entrywise complex conjugate."""
        return self._like([a.conj() for a in self._stacks])

    def transpose(self) -> "Element":
        return self._like([a.swapaxes(-1, -2) for a in self._stacks])

    def block_norms(self) -> tuple[float, ...]:
        norms = np.empty(len(self.shape.blocks))
        for idx, a in self._pieces():
            norms[list(idx)] = _singular_values(a)[:, 0]
        return tuple(norms.tolist())

    def norm(self) -> float:
        """Operator norm: the largest block operator norm."""
        return max(self.block_norms())

    def is_zero(self) -> bool:
        """Every entry zero; read off the entries, with no SVD, so an
        element with any nonzero entry is not zero."""
        return not any(a.any() for a in self._stacks)

    def __repr__(self) -> str:
        return f"Element(shape=[{self.shape}], norm={self.norm():.3g})"


def _coerce(value):
    if isinstance(value, Projection):
        return value.element
    return value


def distance(x, y) -> float:
    """Operator-norm distance, accepting elements or projections."""
    if x.shape != y.shape:
        raise ShapeMismatch(f"shapes differ: {x.shape} vs {y.shape}")
    return _norms(x.shape, _difference(x, y))[0]


def _stack(arrays: Sequence[np.ndarray]) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _dense(v) -> list[np.ndarray]:
    """The dense stacks of an element or projection, one per size group.
    A projection whose element is not built yet gets fresh writable
    stacks, u u* per group as in Projection.element, and keeps none."""
    if isinstance(v, Projection) and v._element is None:
        return _regroup([(idx, u @ _ct(u)) for idx, u in v._pieces()], v.shape._groups)
    return list(_coerce(v)._stacks)


def _batch(shape: AlgebraShape, values) -> list[np.ndarray]:
    """A batch: the dense stacks of values of one shape concatenated per
    size group, value by value, so group g holds k_g slices per value."""
    stacks = []
    for v in values:
        if v.shape != shape:
            raise ShapeMismatch(f"shapes differ: {shape} vs {v.shape}")
        stacks.append(_dense(v))
    return [_stack(g) for g in zip(*stacks)]


def _norms(shape: AlgebraShape, batch: Sequence[np.ndarray]) -> list[float]:
    """The operator norm of each element of a batch: one SVD per size
    group."""
    return _tops(shape, [_singular_values(a) for a in batch])


def _tops(shape: AlgebraShape, s: Sequence[np.ndarray]) -> list[float]:
    """Each value's largest singular value, from the singular values s of
    a batch's groups."""
    tops: list[float] = []
    for a, idx in zip(s, shape._groups):
        col, k = a[:, 0].tolist(), len(idx)
        group = [max(col[i : i + k]) for i in range(0, len(col), k)]
        tops = list(map(max, tops, group)) if tops else group
    return tops


def _difference(x, y) -> list[np.ndarray]:
    """The dense stacks of x - y, checked finite, subtracted in place
    into x's where _dense built them fresh."""
    if isinstance(x, Projection) and x._element is None:
        return [_freeze(np.subtract(s, t, out=s)) for s, t in zip(_dense(x), _dense(y))]
    return [_freeze(s - t) for s, t in zip(_coerce(x)._stacks, _dense(y))]


def _distances(pairs) -> list[float]:
    """distance(x, y) for each pair, all of one shape: one SVD per size
    group across all pairs.  Pairs are read one at a time and only their
    differences are kept."""
    diffs = []
    for x, y in pairs:
        if x.shape != y.shape or diffs and x.shape != shape:
            raise ShapeMismatch(f"shapes differ: {x.shape} vs {y.shape}")
        shape = x.shape
        diffs.append(_difference(x, y))
    return _norms(shape, [np.concatenate(g) for g in zip(*diffs)]) if diffs else []


def _fits_basis(s: tuple, n: int) -> bool:
    return len(s) == 2 and s[0] == n and s[1] <= n


class Projection(_Blocks):
    """A Hermitian idempotent together with an orthonormal range basis.

    The range bases of the blocks of each size and rank are one
    read-only (k, n, r) stack; basis is one (n, r) view into them per
    block, in block order.  The basis is what the lattice operations
    actually consume.  A projection has no arithmetic of its own; that
    goes through the dense matrix ``element``.  A projection made from
    a basis builds it, u u* per block, when it is first read: most
    projections met inside a lattice computation are only ever used
    through their basis.
    """

    __slots__ = ("_element",)

    def __init__(self, element: Element, basis: Sequence[np.ndarray]):
        self._set(element.shape, _stacked(element.shape, basis, _fits_basis))
        self._element = element

    @classmethod
    def from_basis(cls, shape: AlgebraShape, bases: Sequence[np.ndarray]) -> "Projection":
        """Projection onto the span of orthonormal columns, per block."""
        return cls._of(shape, _stacked(shape, bases, _fits_basis))

    def _set(self, shape: AlgebraShape, pieces: Sequence[tuple]) -> None:
        super()._set(shape, pieces)
        self._element = None

    basis = property(_Blocks._blocks)
    ranks = property(lambda self: self._widths)

    @property
    def element(self) -> Element:
        if self._element is None:
            x = Element.__new__(Element)
            x._put(self.shape, self.shape.blocks, self.shape._groups, _dense(self))
            self._element = x
        return self._element

    @classmethod
    def zero(cls, shape: AlgebraShape) -> "Projection":
        return cls.from_basis(shape, [np.zeros((n, 0)) for n in shape.blocks])

    @classmethod
    def identity(cls, shape: AlgebraShape) -> "Projection":
        return cls.from_basis(shape, [np.eye(n) for n in shape.blocks])

    def complement(self) -> "Projection":
        pieces = []
        for idx, u in self._pieces():
            _, n, r = u.shape
            if r == 0:
                u = np.broadcast_to(np.eye(n), (len(idx), n, n))
            elif r < n:
                u = np.linalg.svd(u, full_matrices=True)[0]
            pieces.append((idx, u[:, :, r:]))
        p = Projection._of(self.shape, pieces)
        p._element = Element.identity(self.shape) - self.element
        return p

    def rank(self) -> int:
        return sum(self.ranks)

    def __repr__(self) -> str:
        return f"Projection(shape=[{self.shape}], ranks={list(self.ranks)})"


def _cogroups(p: Projection, q: Projection) -> list[tuple]:
    """(block indices, p's bases, q's bases) over groups of blocks of one
    size whose ranks agree in p and in q."""
    layout = _layout(p.shape, tuple(zip(p.ranks, q.ranks)))
    return list(zip(layout, _regroup(p._pieces(), layout), _regroup(q._pieces(), layout)))


def _bases(shape: AlgebraShape, spans: Sequence[Sequence[tuple]]) -> list[Projection]:
    """One projection per value of spans onto the column space of its
    pieces (block indices, (k, n, r) stack of full column rank): the Q
    factors of one QR per (n, r) across all values, with no cutoff, which
    numpy computes slice by slice with the same bits as one QR per block.
    Rank-0 pieces pass through."""
    groups: dict[tuple, list] = {}
    for j, pieces in enumerate(spans):
        for idx, a in pieces:
            groups.setdefault(a.shape[1:], []).append((j, idx, a))
    out: list[list] = [[] for _ in spans]
    for (_, r), members in groups.items():
        q = _stack([a for _, _, a in members])
        if r:
            q = np.linalg.qr(q)[0]
        at = 0
        for j, idx, _ in members:
            out[j].append((idx, q[at : at + len(idx)]))
            at += len(idx)
    return [Projection._of(shape, p) for p in out]


def left_support(x: Element) -> Projection:
    """Smallest projection p with p x = x (column-space projection).

    The rank cutoff is relative to the norm of the whole element, not
    of each block: a block that only carries roundoff from operations
    on the other blocks must contribute rank zero.  The norm is read off
    the same thin SVDs that give the bases, so each stack costs one SVD.
    """
    x = _coerce(x)
    return _left_supports(x.shape, x._stacks)[0]


def _left_supports(shape: AlgebraShape, batch: Sequence[np.ndarray]) -> list[Projection]:
    """left_support of each element of a batch (see _batch): one thin SVD
    per size group across all of them, each element keeping its own
    cutoff RANK_REL * sigma_max."""
    svds = [_thin_svd(a) for a in batch]
    out = []
    for j, top in enumerate(_tops(shape, [s for _, s, _ in svds])):
        cutoff, pieces = RANK_REL * top, []
        for idx, (u, s, _) in zip(shape._groups, svds):
            at = slice(j * len(idx), (j + 1) * len(idx))
            for r, pos, sub in _split(idx, s[at] > cutoff):
                pieces.append((sub, u[at][pos, :, :r]))
        out.append(Projection._of(shape, pieces))
    return out


def right_support(x: Element) -> Projection:
    """Smallest projection q with x q = x; equals left_support(x*)."""
    return left_support(_coerce(x).adjoint())


def _require_invertible(x: Element) -> None:
    """Raises NotInvertible on the first singular block of x."""
    singular = []
    for idx, a in x._pieces():
        s = _singular_values(a)
        bad = (s[:, -1] <= RANK_REL * s[:, 0]) | (s[:, 0] == 0)
        singular.extend((idx[j], float(s[j, -1])) for j in np.flatnonzero(bad))
    if singular:
        raise NotInvertible(*min(singular))


def invert(x: Element) -> Element:
    """Blockwise inverse; raises NotInvertible on the first singular block."""
    x = _coerce(x)
    _require_invertible(x)
    return x._like([np.linalg.inv(a) for a in x._stacks])


def polar_decompose(x: Element) -> tuple[Element, Element]:
    """Polar form x = v |x|.

    Returns (v, abs_x) where abs_x = (x* x)^(1/2) is positive
    semidefinite and v is the partial isometry with
    v* v = right_support(x) and v v* = left_support(x).  The cutoff's
    norm is read off the same SVDs, as in left_support.
    """
    x = _coerce(x)
    svds = [(idx, np.linalg.svd(a)) for idx, a in x._pieces()]
    cutoff = RANK_REL * max(s[:, 0].max() for _, (_, s, _) in svds)
    vs, abss = [], []
    for idx, (u, s, vh) in svds:
        for r, pos, sub in _split(idx, s > cutoff):
            vs.append((sub, u[pos, :, :r] @ vh[pos, :r, :]))
        abss.append((_ct(vh) * s[:, None, :]) @ vh)
    return Element._of(x.shape, vs), x._like(abss)


def center_valued_norm(x: Element) -> Element:
    """Per-block operator norm times the block identity.

    This is the smallest central positive element c with x* x <= c^2,
    i.e. the center-valued analogue of the operator norm.
    """
    x = _coerce(x)
    return Element.from_scalars(x.shape, x.block_norms())


def is_central(x: Element) -> bool:
    """True when every block is within EQ_TOL of a scalar matrix."""
    x = _coerce(x)
    for a in x._stacks:
        n = a.shape[1]
        lam = np.trace(a, axis1=1, axis2=2) / n
        if (_singular_values(a - lam[:, None, None] * np.eye(n))[:, 0] > EQ_TOL).any():
            return False
    return True


def cond(x: Element) -> float:
    """Largest blockwise 2-norm condition number (inf on singular blocks)."""
    x = _coerce(x)
    worst = 1.0
    for a in x._stacks:
        s = _singular_values(a)
        if (s[:, -1] == 0).any():
            return float("inf")
        worst = max(worst, float((s[:, 0] / s[:, -1]).max()))
    return worst
