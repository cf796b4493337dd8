"""Seeded random generators for elements, projections and maps.

All samplers take a numpy Generator (or a seed) explicitly; nothing in
the library draws from global randomness.
"""

from __future__ import annotations

import numpy as np

from .core import AlgebraShape, Element, Projection, _bases, _layout
from .errors import ShapeMismatch

__all__ = [
    "rng_from",
    "random_element",
    "random_projection",
    "random_pair_with_trivial_meet",
    "random_overlapping_pair",
    "random_pair_with_angles",
    "random_unitary",
    "random_invertible",
]


def rng_from(seed) -> np.random.Generator:
    """Pass Generators through, make a fresh one from anything else."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _cgauss(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (
        rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    ) / np.sqrt(2.0)


def random_element(
    shape: AlgebraShape, rng, norm_bound: float | None = None
) -> Element:
    """Standard complex Gaussian blocks, optionally rescaled so the
    operator norm is uniform on (0, norm_bound]."""
    rng = rng_from(rng)
    x = Element(shape, [_cgauss(rng, n, n) for n in shape.blocks])
    if norm_bound is not None:
        current = x.norm()
        if current > 0:
            x = x * (float(rng.uniform(0.05, 1.0)) * norm_bound / current)
    return x


def random_projection(shape: AlgebraShape, rng, ranks=None) -> Projection:
    """Haar-distributed range of a given (or uniformly drawn) rank profile."""
    return _orthonormalize(shape, [_draw_projection(shape, rng_from(rng), ranks)])[0]


def _draw_projection(shape: AlgebraShape, rng: np.random.Generator, ranks=None) -> tuple:
    """The draws of one random projection, (ranks, one Gaussian (n, r)
    block per block), in random_projection's rng order; a rank-0 block
    is (n, 0) and draws nothing."""
    if ranks is None:
        ranks = [int(rng.integers(0, n + 1)) for n in shape.blocks]
    if len(ranks) < len(shape.blocks):
        raise ShapeMismatch(f"shape {shape} wants {len(shape.blocks)} ranks, got {len(ranks)}")
    return tuple(ranks), [_cgauss(rng, n, r) for n, r in zip(shape.blocks, ranks)]


def _orthonormalize(shape: AlgebraShape, draws) -> list[Projection]:
    """One projection per draw (ranks, one (n, r) block of full column
    rank per block), such as _draw_projection's, onto the span of its
    blocks: core._bases, one QR per size and rank across all draws."""
    spans = [[(idx, np.array([b[i] for i in idx])) for idx in _layout(shape, r)] for r, b in draws]
    return _bases(shape, spans)


def random_pair_with_trivial_meet(
    shape: AlgebraShape, rng
) -> tuple[Projection, Projection]:
    """Random pair with rank(p) + rank(q) <= n per block, which makes
    the meet trivial almost surely."""
    rng = rng_from(rng)
    rp, rq = [], []
    for n in shape.blocks:
        a = int(rng.integers(0, n + 1))
        b = int(rng.integers(0, n - a + 1))
        rp.append(a)
        rq.append(b)
    return random_projection(shape, rng, rp), random_projection(shape, rng, rq)


def random_overlapping_pair(
    shape: AlgebraShape, rng
) -> tuple[Projection, Projection]:
    """Random pair sharing a random subspace, so meets are nontrivial.

    Per block, p spans the first rp columns of a random unitary (the Q
    factor of a Gaussian, one QR per block size) and q the first
    `shared` of them plus fresh columns beyond rp.
    """
    rng = rng_from(rng)
    gs, takes = [], []
    for n in shape.blocks:
        gs.append(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        shared = int(rng.integers(0, n + 1))
        rp = shared + int(rng.integers(0, n - shared + 1))
        rq_extra = int(rng.integers(0, n - rp + 1))
        takes.append((rp, list(range(shared)) + list(range(rp, rp + rq_extra))))
    (u,) = _orthonormalize(shape, [(shape.blocks, gs)])
    p = Projection.from_basis(shape, [b[:, :rp] for b, (rp, _) in zip(u.basis, takes)])
    return p, Projection.from_basis(shape, [b[:, take] for b, (_, take) in zip(u.basis, takes)])


def random_pair_with_angles(
    shape: AlgebraShape, rng, angles_per_block
) -> tuple[Projection, Projection]:
    """Pair of equal-rank projections with prescribed principal angles.

    angles_per_block: one sequence of angles (radians) per block; block
    n must satisfy 2 * len(angles) <= n.  The pair is put in canonical
    position on the first 2r coordinates and conjugated by a random
    unitary.
    """
    rng = rng_from(rng)
    p_bases, q_bases = [], []
    for n, angles in zip(shape.blocks, angles_per_block):
        angles = np.asarray(angles, dtype=float)
        r = angles.size
        if 2 * r > n:
            raise ValueError(f"need 2*{r} <= {n} for the prescribed angles")
        u = _haar_unitary(rng, n)
        up = np.zeros((n, r), dtype=np.complex128)
        uq = np.zeros((n, r), dtype=np.complex128)
        for i, theta in enumerate(angles):
            up[i, i] = 1.0
            uq[i, i] = np.cos(theta)
            uq[r + i, i] = np.sin(theta)
        p_bases.append(u @ up)
        q_bases.append(u @ uq)
    return (
        Projection.from_basis(shape, p_bases),
        Projection.from_basis(shape, q_bases),
    )


def _haar(g: np.ndarray) -> np.ndarray:
    """Haar unitaries from complex Gaussian (n, n) matrices, one or a
    stack: Q of the QR, its columns rephased by R's diagonal."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    return _haar(_cgauss(rng, n, n))


def random_unitary(shape: AlgebraShape, rng) -> Element:
    """Haar unitary blocks, drawn in block order; one QR per block size."""
    rng = rng_from(rng)
    g = [_cgauss(rng, n, n) for n in shape.blocks]
    stacks = [_haar(np.array([g[i] for i in idx])) for idx in shape._groups]
    return Element._of(shape, list(zip(shape._groups, stacks)))


def random_invertible(
    shape: AlgebraShape, rng, cond_max: float = 100.0
) -> Element:
    """Invertible element with blockwise condition number <= cond_max.

    Singular values are drawn log-uniformly in [1/sqrt(c), sqrt(c)].
    """
    rng = rng_from(rng)
    half = np.log(np.sqrt(cond_max))
    blocks = []
    for n in shape.blocks:
        u = _haar_unitary(rng, n)
        v = _haar_unitary(rng, n)
        sigma = np.exp(rng.uniform(-half, half, size=n))
        blocks.append((u * sigma) @ v)
    return Element(shape, blocks)
