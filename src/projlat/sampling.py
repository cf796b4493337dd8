"""Seeded random generators for elements, projections and maps.

All samplers take a numpy Generator (or a seed) explicitly; nothing in
the library draws from global randomness.
"""

from __future__ import annotations

import numpy as np

from .core import AlgebraShape, Element, Projection

__all__ = [
    "rng_from",
    "random_element",
    "random_hermitian",
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


def random_hermitian(shape: AlgebraShape, rng) -> Element:
    rng = rng_from(rng)
    blocks = []
    for n in shape.blocks:
        g = _cgauss(rng, n, n)
        blocks.append((g + g.conj().T) / 2)
    return Element(shape, blocks)


def random_projection(shape: AlgebraShape, rng, ranks=None) -> Projection:
    """Haar-distributed range of a given (or uniformly drawn) rank profile."""
    rng = rng_from(rng)
    if ranks is None:
        ranks = [int(rng.integers(0, n + 1)) for n in shape.blocks]
    bases = []
    for n, r in zip(shape.blocks, ranks):
        if r == 0:
            bases.append(np.zeros((n, 0), dtype=np.complex128))
            continue
        q, _ = np.linalg.qr(_cgauss(rng, n, r))
        bases.append(q)
    return Projection.from_basis(shape, bases)


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

    Per block, p spans the first rp columns of a random unitary and q
    the first `shared` of them plus fresh columns beyond rp.
    """
    rng = rng_from(rng)
    bases_p, bases_q = [], []
    for n in shape.blocks:
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        u, _ = np.linalg.qr(g)
        shared = int(rng.integers(0, n + 1))
        rp = shared + int(rng.integers(0, n - shared + 1))
        rq_extra = int(rng.integers(0, n - rp + 1))
        bases_p.append(u[:, :rp])
        take = list(range(shared)) + list(range(rp, rp + rq_extra))
        bases_q.append(u[:, take])
    return Projection.from_basis(shape, bases_p), Projection.from_basis(shape, bases_q)


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


def _haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_cgauss(rng, n, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_unitary(shape: AlgebraShape, rng) -> Element:
    rng = rng_from(rng)
    return Element(shape, [_haar_unitary(rng, n) for n in shape.blocks])


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
