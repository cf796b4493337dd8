"""Block-diagonal complex matrix algebra.

An algebra here is a finite direct sum of full complex matrix algebras,
described by an :class:`AlgebraShape`.  Its elements store the k > 1
blocks of one size as one stacked ``(k, n, n)`` array and expose them
as one dense complex matrix per block.  Everything is pure: inputs are
never mutated and results are fresh values whose arrays are read-only.

Per-block linear algebra runs through :func:`_batched`, one numpy
gufunc call per group of equal-shape blocks.  numpy's linalg gufuncs
and matmul call LAPACK/BLAS once per slice of a stack, so a stacked
call returns the same bits as one call per block.

Supports, polar parts and the center-valued norm are computed per block
with a relative singular-value cutoff: singular values at or below
``rank_rel * sigma_max`` count as zero.  The cutoff is what makes ranks
(and hence the whole projection lattice) discrete and stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NotInvertible, ShapeMismatch

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "AlgebraShape",
    "Element",
    "Projection",
    "distance",
    "close",
    "left_support",
    "right_support",
    "invert",
    "polar_decompose",
    "center_valued_norm",
    "is_central",
    "cond",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical cutoffs shared by every operation.

    rank_rel: relative singular-value cutoff for ranks and supports.
    proj_tol: allowed operator-norm deviation from an exact projection.
    eq_tol: operator-norm tolerance for equality of elements.
    """

    rank_rel: float = 1e-9
    proj_tol: float = 1e-8
    eq_tol: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("rank_rel", "proj_tol", "eq_tol"):
            value = getattr(self, name)
            if not (value > 0):
                raise ValueError(f"{name} must be positive, got {value!r}")
        if self.rank_rel >= 1:
            raise ValueError("rank_rel must be below 1")


DEFAULT_TOL = Tolerances()


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
        # (size, block indices) per block size, in order of first use
        object.__setattr__(
            self, "_size_groups", tuple((n, tuple(idx)) for n, idx in groups.items())
        )

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

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def __str__(self) -> str:
        return ",".join(str(n) for n in self.blocks)


def _as_stack(blocks: list, n: int):
    """Validated read-only copies of k blocks of size n.

    k > 1 blocks are copied into one (k, n, n) stack; one block is
    copied as it is.  Iterating the result yields the (n, n) blocks.
    """
    for b in blocks:
        if np.shape(b) != (n, n):
            raise ShapeMismatch(f"expected a {n}x{n} block, got shape {np.shape(b)}")
    if len(blocks) == 1:
        return (_freeze(np.array(blocks[0], dtype=np.complex128)),)
    return _freeze(np.array(blocks, dtype=np.complex128))


def _freeze(arr: np.ndarray) -> np.ndarray:
    """arr made read-only, after checking that its entries are finite."""
    if not np.isfinite(arr).all():
        raise ValueError("non-finite entries")
    arr.setflags(write=False)
    return arr


def _batched(fn: Callable, *operands: Sequence[np.ndarray]) -> list:
    """fn at every position of the aligned operand lists, one call per
    group of positions whose operands have equal shapes.

    fn must broadcast over a leading stack axis, as numpy's linalg
    gufuncs and matmul do (write conjugate transposes with :func:`_ct`).
    A group of one is passed through unstacked.  Returns fn's result per
    position: an array, or a tuple when fn returns several.
    """
    if len(operands[0]) == 1:  # one block: skip the grouping
        return [fn(*[op[0] for op in operands])]
    groups: dict[tuple, list[int]] = {}
    for i, ops in enumerate(zip(*operands)):
        groups.setdefault(tuple([a.shape for a in ops]), []).append(i)
    out: list = [None] * len(operands[0])
    for idx in groups.values():
        if len(idx) == 1:
            out[idx[0]] = fn(*[op[idx[0]] for op in operands])
            continue
        res = fn(*[np.array([op[i] for i in idx]) for op in operands])
        for i, part in zip(idx, zip(*res) if isinstance(res, tuple) else res):
            out[i] = part
    return out


def _ct(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def _singular_values(a: np.ndarray) -> np.ndarray:
    return np.linalg.svd(a, compute_uv=False)


def _thin_svd(a: np.ndarray):
    return np.linalg.svd(a, full_matrices=False)


class Element:
    """A block-diagonal operator: one complex matrix per block.

    The k > 1 blocks of one size are copied into one read-only (k, n, n)
    stack and data holds one (n, n) view into it per block; a block of
    a size met once is copied on its own.  data is in block order.
    """

    __slots__ = ("shape", "data")

    def __init__(self, shape: AlgebraShape, blocks: Sequence[np.ndarray]):
        if len(blocks) != len(shape.blocks):
            raise ShapeMismatch(
                f"shape {shape} wants {len(shape.blocks)} blocks, got {len(blocks)}"
            )
        self.shape = shape
        data: list = [None] * len(blocks)
        for n, idx in shape._size_groups:
            for i, block in zip(idx, _as_stack([blocks[i] for i in idx], n)):
                data[i] = block
        self.data = tuple(data)

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

    def _require_same_shape(self, other: "Element") -> None:
        if self.shape != other.shape:
            raise ShapeMismatch(f"shapes differ: {self.shape} vs {other.shape}")

    def map_blocks(self, fn: Callable[[np.ndarray], np.ndarray]) -> "Element":
        return Element(self.shape, [fn(b) for b in self.data])

    def __add__(self, other):
        other = _coerce(other)
        if not isinstance(other, Element):
            return NotImplemented
        self._require_same_shape(other)
        return Element(self.shape, [a + b for a, b in zip(self.data, other.data)])

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if not isinstance(other, Element):
            return NotImplemented
        self._require_same_shape(other)
        return Element(self.shape, [a - b for a, b in zip(self.data, other.data)])

    def __rsub__(self, other):
        other = _coerce(other)
        if not isinstance(other, Element):
            return NotImplemented
        return other.__sub__(self)

    def __neg__(self):
        return Element(self.shape, [-a for a in self.data])

    def __mul__(self, other):
        if isinstance(other, (int, float, complex, np.number)):
            return Element(self.shape, [complex(other) * a for a in self.data])
        other = _coerce(other)
        if not isinstance(other, Element):
            return NotImplemented
        self._require_same_shape(other)
        return Element(self.shape, [a @ b for a, b in zip(self.data, other.data)])

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex, np.number)):
            return self.__mul__(other)
        return NotImplemented

    def adjoint(self) -> "Element":
        return Element(self.shape, [a.conj().T for a in self.data])

    def conj(self) -> "Element":
        """Entrywise complex conjugate."""
        return Element(self.shape, [a.conj() for a in self.data])

    def transpose(self) -> "Element":
        return Element(self.shape, [a.T for a in self.data])

    def block_norms(self) -> tuple[float, ...]:
        return tuple(float(s[0]) for s in _batched(_singular_values, self.data))

    def norm(self) -> float:
        """Operator norm: the largest block operator norm."""
        return max(self.block_norms())

    def is_zero(self, tol: float = 0.0) -> bool:
        """Norm at most tol; at tol 0 the test reads the entries, with no
        SVD, so an element with any nonzero entry is not zero."""
        if tol == 0.0:
            return not any(a.any() for a in self.data)
        return self.norm() <= tol

    def __repr__(self) -> str:
        return f"Element(shape=[{self.shape}], norm={self.norm():.3g})"


def _coerce(value):
    if isinstance(value, Projection):
        return value.element
    return value


def distance(x, y) -> float:
    """Operator-norm distance, accepting elements or projections."""
    a, b = _coerce(x), _coerce(y)
    return (a - b).norm()


def close(x, y, tol: float) -> bool:
    return distance(x, y) <= tol


def _complement_basis(u: np.ndarray, n: int) -> np.ndarray:
    r = u.shape[1]
    if r == 0:
        return np.eye(n, dtype=np.complex128)
    if r == n:
        return np.zeros((n, 0), dtype=np.complex128)
    full, _, _ = np.linalg.svd(u, full_matrices=True)
    return full[:, r:]


class Projection:
    """A Hermitian idempotent together with an orthonormal range basis.

    The basis is what the lattice operations actually consume; the dense
    matrix ``element`` serves arithmetic against plain elements.  A
    projection made from a basis builds it, u u* per block, when it is
    first read: most projections met inside a lattice computation are
    only ever used through their basis.
    """

    __slots__ = ("shape", "basis", "ranks", "_element")

    def __init__(self, element: Element, basis: Sequence[np.ndarray]):
        self._set_basis(element.shape, basis)
        self._element = element

    def _set_basis(self, shape: AlgebraShape, basis: Sequence[np.ndarray]) -> None:
        if len(basis) != len(shape.blocks):
            raise ShapeMismatch(
                f"shape {shape} wants {len(shape.blocks)} basis blocks, got {len(basis)}"
            )
        bases = [np.asarray(u, dtype=np.complex128) for u in basis]
        for u, n in zip(bases, shape.blocks):
            if u.ndim != 2 or u.shape[0] != n or u.shape[1] > n:
                raise ShapeMismatch(f"basis block {u.shape} does not fit n={n}")
        self.shape = shape
        # _batched hands a group to fn as a stack it has just built, and a
        # lone block as the caller's array, which alone needs a copy
        self.basis = tuple(
            _batched(lambda u: _freeze(u if u.ndim == 3 else u.copy()), bases)
        )
        self.ranks = tuple(u.shape[1] for u in self.basis)

    @classmethod
    def from_basis(cls, shape: AlgebraShape, bases: Sequence[np.ndarray]) -> "Projection":
        """Projection onto the span of orthonormal columns, per block."""
        p = cls.__new__(cls)
        p._set_basis(shape, bases)
        p._element = None
        return p

    @property
    def element(self) -> Element:
        if self._element is None:
            blocks = _batched(lambda u: u @ _ct(u), self.basis)
            self._element = Element(self.shape, blocks)
        return self._element

    @classmethod
    def zero(cls, shape: AlgebraShape) -> "Projection":
        return cls.from_basis(shape, [np.zeros((n, 0)) for n in shape.blocks])

    @classmethod
    def identity(cls, shape: AlgebraShape) -> "Projection":
        return cls.from_basis(shape, [np.eye(n) for n in shape.blocks])

    def complement(self) -> "Projection":
        bases = [
            _complement_basis(u, n) for u, n in zip(self.basis, self.shape.blocks)
        ]
        return Projection(Element.identity(self.shape) - self.element, bases)

    def rank(self) -> int:
        return sum(self.ranks)

    def is_zero(self) -> bool:
        return self.rank() == 0

    def is_identity(self) -> bool:
        return self.ranks == tuple(self.shape.blocks)

    # Arithmetic on projections drops down to elements; the results are
    # generally not projections, so they come back as plain elements.
    def __add__(self, other):
        return self.element + _coerce(other)

    def __radd__(self, other):
        return _coerce(other) + self.element

    def __sub__(self, other):
        return self.element - _coerce(other)

    def __rsub__(self, other):
        return _coerce(other) - self.element

    def __neg__(self):
        return -self.element

    def __mul__(self, other):
        return self.element * _coerce(other)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex, np.number)):
            return self.element * other
        return _coerce(other) * self.element

    def __repr__(self) -> str:
        return f"Projection(shape=[{self.shape}], ranks={list(self.ranks)})"


def _direct_sum(parts: Sequence):
    """The parts, elements or projections, as one value of the direct
    sum of their algebras, blocks in order; one part is returned as is."""
    if len(parts) == 1:
        return parts[0]
    shape = AlgebraShape([n for x in parts for n in x.shape.blocks])
    if isinstance(parts[0], Projection):
        return Projection.from_basis(shape, [u for p in parts for u in p.basis])
    return Element(shape, [a for x in parts for a in x.data])


def _summands(x, c: int) -> list:
    """x, an element or projection of a c-fold direct sum, split into its
    c summands (the inverse of :func:`_direct_sum`)."""
    if c == 1:
        return [x]
    k = len(x.shape.blocks) // c
    shape = AlgebraShape(x.shape.blocks[:k])
    if isinstance(x, Projection):
        return [Projection.from_basis(shape, x.basis[m * k : (m + 1) * k]) for m in range(c)]
    return [Element(shape, x.data[m * k : (m + 1) * k]) for m in range(c)]


def left_support(x: Element, tol: Tolerances = DEFAULT_TOL) -> Projection:
    """Smallest projection p with p x = x (column-space projection).

    The rank cutoff is relative to the norm of the whole element, not
    of each block: a block that only carries roundoff from operations
    on the other blocks must contribute rank zero.
    """
    x = _coerce(x)
    cutoff = tol.rank_rel * x.norm()
    bases = [np.zeros((n, 0), dtype=np.complex128) for n in x.shape.blocks]
    live = [i for i, a in enumerate(x.data) if a.any()]
    for i, (u, s, _) in zip(live, _batched(_thin_svd, [x.data[i] for i in live])):
        bases[i] = u[:, : int(np.count_nonzero(s > cutoff))]
    return Projection.from_basis(x.shape, bases)


def right_support(x: Element, tol: Tolerances = DEFAULT_TOL) -> Projection:
    """Smallest projection q with x q = x; equals left_support(x*)."""
    return left_support(_coerce(x).adjoint(), tol)


def invert(x: Element, tol: Tolerances = DEFAULT_TOL) -> Element:
    """Blockwise inverse; raises NotInvertible on the first singular block."""
    x = _coerce(x)
    for i, s in enumerate(_batched(_singular_values, x.data)):
        if s[-1] <= tol.rank_rel * s[0] or s[0] == 0:
            raise NotInvertible(i, float(s[-1]))
    return Element(x.shape, _batched(np.linalg.inv, x.data))


def polar_decompose(
    x: Element, tol: Tolerances = DEFAULT_TOL
) -> tuple[Element, Element]:
    """Polar form x = v |x|.

    Returns (v, abs_x) where abs_x = (x* x)^(1/2) is positive
    semidefinite and v is the partial isometry with
    v* v = right_support(x) and v v* = left_support(x).
    """
    x = _coerce(x)
    cutoff = tol.rank_rel * x.norm()
    vs, abss = [], []
    for a in x.data:
        u, s, vh = np.linalg.svd(a)
        r = int(np.count_nonzero(s > cutoff))
        vs.append(u[:, :r] @ vh[:r, :])
        abss.append((vh.conj().T * s) @ vh)
    return Element(x.shape, vs), Element(x.shape, abss)


def center_valued_norm(x: Element) -> Element:
    """Per-block operator norm times the block identity.

    This is the smallest central positive element c with x* x <= c^2,
    i.e. the center-valued analogue of the operator norm.
    """
    x = _coerce(x)
    return Element.from_scalars(x.shape, x.block_norms())


def is_central(x: Element, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when every block is within eq_tol of a scalar matrix."""
    x = _coerce(x)
    for a, n in zip(x.data, x.shape.blocks):
        lam = np.trace(a) / n
        if _singular_values(a - lam * np.eye(n))[0] > tol.eq_tol:
            return False
    return True


def cond(x: Element) -> float:
    """Largest blockwise 2-norm condition number (inf on singular blocks)."""
    x = _coerce(x)
    worst = 1.0
    for a in x.data:
        s = np.linalg.svd(a, compute_uv=False)
        if s.size == 0 or s[-1] == 0:
            return float("inf")
        worst = max(worst, float(s[0] / s[-1]))
    return worst
