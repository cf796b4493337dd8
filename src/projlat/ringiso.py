"""Analysis of ring isomorphisms between block matrix algebras.

A ring isomorphism of these algebras need not be complex-linear, but
once real-linearity is confirmed by sampling, its failure of
C-linearity is measured by the image of i: a central square root of -1
that splits the target into a linear and a conjugate-linear part.  On
each block the map is then inner over the reference map (identity or
entrywise conjugation), and the conjugating element is built from the
images of the first column of matrix units.

The Dye pipeline sits on top: a lattice isomorphism that also preserves
orthogonality coordinatizes to a ring isomorphism that is a real
*-isomorphism, and the certificate checks exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    DEFAULT_TOL,
    AlgebraShape,
    Element,
    Projection,
    Tolerances,
    distance,
    is_central,
)
from .errors import (
    DegenerateWitness,
    NotRealLinear,
    NotRingIso,
    OrthogonalityNotPreserved,
)
from .coordinatize import coordinatize
from .maps import ConjugationRingIso, LatticeMap, preserves_orthogonality
from .sampling import random_element, random_hermitian, random_projection, rng_from

__all__ = [
    "RingIsoFactorization",
    "classify_linearity",
    "inner_factor",
    "dye_extension",
]


@dataclass(frozen=True)
class RingIsoFactorization:
    """Inner factorization Psi(x) = y psi0(x) y^{-1}.

    q is the central projection carrying the complex-linear part of the
    target; psi0 is the ConjugationRingIso with T = 1: it applies
    identity or entrywise conjugation per source block and routes it to
    the matching target block (block_map); residual is the worst
    sampled deviation of the factorized form, the ConjugationRingIso
    with T = y.
    """

    q: Projection
    y: Element
    psi0_kind: tuple[str, ...]
    residual: float
    psi0: ConjugationRingIso
    block_map: tuple[int, ...]


def _central_blocks(shape: AlgebraShape):
    for b in range(len(shape.blocks)):
        blocks = [np.zeros((n, n), dtype=np.complex128) for n in shape.blocks]
        blocks[b] = np.eye(shape.blocks[b], dtype=np.complex128)
        yield b, Element(shape, blocks)


def classify_linearity(
    psi_full: Callable[[Element], Element],
    shape: AlgebraShape,
    tol: Tolerances = DEFAULT_TOL,
    check_tol: float = 1e-6,
) -> Projection:
    """Central projection q with psi_full(i 1) = q i - q^perp i.

    Raises:
        NotRingIso: the image of i is not central or squares away
            from -1.
    """
    j = psi_full(1j * Element.identity(shape))
    target = j.shape
    if not is_central(j, tol):
        raise NotRingIso("image of i is not central")
    if distance(j * j, -1.0 * Element.identity(target)) > check_tol:
        raise NotRingIso("image of i does not square to -1")
    bases = []
    for jb, m in zip(j.data, target.blocks):
        lam = np.trace(jb) / m
        if abs(abs(lam) - 1.0) > check_tol:
            raise NotRingIso("image of i is not a central unimodular scalar")
        eye = np.eye(m, dtype=np.complex128)
        bases.append(eye if lam.imag > 0 else eye[:, :0])
    q = Projection.from_basis(target, bases)
    model = 1j * q.element - 1j * q.complement().element
    if distance(j, model) > check_tol:
        raise NotRingIso("image of i is not i on a central projection and -i off it")
    return q


def _check_real_linear(
    psi_full: Callable[[Element], Element],
    shape: AlgebraShape,
    rng: np.random.Generator,
    samples: int,
    check_tol: float,
) -> float:
    worst = 0.0
    scalars = [0.5, -3.0, float(np.sqrt(2.0)), float(np.pi) / 3.0]
    for k in range(samples):
        x = random_element(shape, rng, norm_bound=2.0)
        y = random_element(shape, rng, norm_bound=2.0)
        if k < len(scalars):
            r, s = scalars[k], -scalars[-1 - k]
        else:
            r, s = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
        res = distance(psi_full(r * x + s * y), r * psi_full(x) + s * psi_full(y))
        worst = max(worst, res)
        if res > check_tol * (1.0 + abs(r) + abs(s)):
            raise NotRealLinear(
                f"additivity over real scalars fails (residual {res:.3e})"
            )
    return worst


def inner_factor(
    psi_full: Callable[[Element], Element],
    shape: AlgebraShape,
    samples: int = 16,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
    check_tol: float = 1e-6,
) -> RingIsoFactorization:
    """Skolem-Noether factorization psi_full = Ad_y composed with psi0.

    psi0 is entrywise identity or conjugation per source block, moved
    to the target block that receives the block's central projection;
    y conjugates it onto psi_full.  y is normalized so its largest
    entry is real positive (it is only determined up to a central
    scalar).

    Raises:
        NotRealLinear: sampled real-linearity fails.
        NotRingIso: multiplicativity fails, central routing is not a
            bijection, or the image of i is malformed.
        DegenerateWitness: the image of a minimal idempotent kills
            every probe vector (bad input, not a ring isomorphism).
    """
    rng = rng_from(seed)
    _check_real_linear(psi_full, shape, rng, max(4, samples), check_tol)
    for _ in range(max(4, samples // 2)):
        x = random_element(shape, rng, norm_bound=2.0)
        y = random_element(shape, rng, norm_bound=2.0)
        res = distance(psi_full(x * y), psi_full(x) * psi_full(y))
        if res > check_tol * 10:
            raise NotRingIso(f"multiplicativity fails (residual {res:.3e})")

    target = psi_full(Element.identity(shape)).shape
    if len(target.blocks) != len(shape.blocks):
        raise NotRingIso(
            f"block counts differ: source {shape}, target {target}"
        )

    # Route each source block through its central projection.
    block_map: list[int] = []
    signs: list[str] = []
    for b, z in _central_blocks(shape):
        fz = psi_full(z)
        norms = fz.block_norms()
        t = int(np.argmax(norms))
        eye_t = np.eye(target.blocks[t], dtype=np.complex128)
        off = max((v for i, v in enumerate(norms) if i != t), default=0.0)
        if (
            np.linalg.norm(fz.data[t] - eye_t, 2) > check_tol
            or off > check_tol
            or shape.blocks[b] != target.blocks[t]
        ):
            raise NotRingIso(
                f"central projection of source block {b} is not a single "
                "matching target block"
            )
        fiz = psi_full(1j * z)
        d_lin = distance(fiz, 1j * fz)
        d_conj = distance(fiz, -1j * fz)
        if min(d_lin, d_conj) > check_tol:
            raise NotRingIso(f"image of i on block {b} is neither i nor -i")
        signs.append("linear" if d_lin <= d_conj else "conjugate")
        block_map.append(t)
    if len(set(block_map)) != len(block_map):
        raise NotRingIso("central routing of blocks is not a bijection")

    y_blocks: list[np.ndarray | None] = [None] * len(target.blocks)
    for b, n in enumerate(shape.blocks):
        t = block_map[b]
        f11 = _unit_image(psi_full, shape, b, 0).data[t]
        xi = None
        for k in range(n):
            cand = np.zeros(n, dtype=np.complex128)
            cand[k] = 1.0
            if np.linalg.norm(f11 @ cand) > tol.rank_rel * np.linalg.norm(f11, 2):
                xi = cand
                break
        if xi is None:
            u, _, _ = np.linalg.svd(f11)
            xi = u[:, 0]
            if np.linalg.norm(f11 @ xi) <= tol.rank_rel * max(
                np.linalg.norm(f11, 2), 1e-300
            ):
                raise DegenerateWitness(
                    f"image of the minimal idempotent on block {b} kills all probes"
                )
        yb = np.zeros((n, n), dtype=np.complex128)
        for j in range(n):
            yb[:, j] = _unit_image(psi_full, shape, b, j).data[t] @ xi
        sv = np.linalg.svd(yb, compute_uv=False)
        if sv[-1] <= tol.rank_rel * sv[0]:
            raise DegenerateWitness(f"conjugating element singular on block {b}")
        y_blocks[t] = yb
    y = Element(target, [blk for blk in y_blocks])
    flat = np.concatenate([blk.ravel() for blk in y.data])
    top = flat[np.argmax(np.abs(flat))]
    y = (top.conjugate() / abs(top)) * y

    kinds = tuple(signs)
    bmap = tuple(block_map)
    sigma = ["conj" if k == "conjugate" else "id" for k in kinds]
    factored = ConjugationRingIso(y, sigma, tol, bmap)
    worst = 0.0
    for _ in range(samples):
        x = random_element(shape, rng, norm_bound=10.0)
        worst = max(worst, distance(psi_full(x), factored(x)))

    q_bases = []
    for t, m in enumerate(target.blocks):
        eye = np.eye(m, dtype=np.complex128)
        src = bmap.index(t)
        q_bases.append(eye if kinds[src] == "linear" else eye[:, :0])
    q = Projection.from_basis(target, q_bases)

    return RingIsoFactorization(
        q=q,
        y=y,
        psi0_kind=kinds,
        residual=float(worst),
        psi0=ConjugationRingIso(Element.identity(target), sigma, tol, bmap),
        block_map=bmap,
    )


def _unit_image(
    psi_full: Callable[[Element], Element],
    shape: AlgebraShape,
    b: int,
    j: int,
) -> Element:
    blocks = [np.zeros((n, n), dtype=np.complex128) for n in shape.blocks]
    blocks[b][j, 0] = 1.0
    return psi_full(Element(shape, blocks))


def dye_extension(
    phi: LatticeMap,
    samples: int = 12,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[Callable[[Element], Element], dict]:
    """Upgrade an orthogonality-preserving lattice iso to a real *-iso.

    Runs the coordinatization engine, then certifies on seeded samples
    that the result extends phi on projections, preserves adjoints and
    the unit, and preserves order on Hermitian elements.  Returns the
    ring isomorphism and the certificate.

    Raises:
        OrthogonalityNotPreserved: with the witness pair.
        Any coordinatization error.
    """
    ok, witness = preserves_orthogonality(phi, max(8, samples), seed, tol)
    if not ok:
        raise OrthogonalityNotPreserved(witness)
    result = coordinatize(phi, samples=samples, seed=seed, tol=tol)
    psi_full = result.Psi
    rng = rng_from(seed)
    src, tgt = phi.source, phi.target

    proj_res = 0.0
    for _ in range(samples):
        p = random_projection(src, rng)
        proj_res = max(proj_res, distance(psi_full(p.element), phi(p).element))

    star_res = 0.0
    for _ in range(samples):
        x = random_element(src, rng, norm_bound=2.0)
        star_res = max(star_res, distance(psi_full(x.adjoint()), psi_full(x).adjoint()))

    unit_res = distance(psi_full(Element.identity(src)), Element.identity(tgt))

    order_res = 0.0
    for _ in range(samples):
        a = random_hermitian(src, rng)
        c = random_element(src, rng)
        gap = psi_full(a + c.adjoint() * c) - psi_full(a)
        for blk in gap.data:
            lam = np.linalg.eigvalsh((blk + blk.conj().T) / 2)
            if lam.size:
                order_res = max(order_res, max(0.0, -float(lam[0])))

    certificate = {
        "preserves_orthogonality": True,
        "checks": [
            {"name": "projection-extension", "max_residual": float(proj_res)},
            {"name": "star-preservation", "max_residual": float(star_res)},
            {"name": "unit", "max_residual": float(unit_res)},
            {"name": "hermitian-order", "max_residual": float(order_res)},
        ],
        "coordinatization": dict(result.diagnostics),
        "seed": seed,
        "samples": samples,
    }
    return psi_full, certificate
