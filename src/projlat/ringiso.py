"""Analysis of ring isomorphisms between block matrix algebras.

A ring isomorphism of these algebras need not be complex-linear.  Once
real-linearity and multiplicativity are confirmed by sampling, the
Skolem-Noether reading in `maps._skolem_noether` factors it as
Ad(y) composed with psi0: psi0 sends each source block to the target
block that receives its central projection and is there either the
identity or entrywise conjugation.  Which one (sigma) is read per
block: for the block's central projection z, psi(i z) is +i or -i
times psi(z).  The conjugating element y is built from the images of
the first column of matrix units.  The result is one
ConjugationRingIso with T = y.

The Dye pipeline sits on top: a lattice isomorphism that also preserves
orthogonality coordinatizes to a ring isomorphism that is a real
*-isomorphism; Psi = Ad(T) sigma is one exactly when every T_b* T_b is
a scalar, so T decides it.  dye_extension runs the halves probe of
preserves_orthogonality (one batch of two), then coordinatize (which
alone reads samples), then replays through phi the orthogonal pair
whose images overlap most, by (k^2 - 1) / (k^2 + 1) with k = cond(T_b)
on the worst block (Wielandt's inequality); the time of its stage
"orthogonality-preservation" covers the probe and the replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

from .core import (
    CHECK_TOL,
    AlgebraShape,
    Element,
    Projection,
    cond,
    distance,
)
from .errors import (
    NotRealLinear,
    NotRingIso,
    OrthogonalityNotPreserved,
)
from .coordinatize import coordinatize
from .maps import (
    ConjugationRingIso,
    LatticeMap,
    _overlap_witness,
    _product_norm,
    _skolem_noether,
    preserves_orthogonality,
)
from .sampling import random_element, rng_from

__all__ = [
    "RingIsoFactorization",
    "inner_factor",
    "dye_extension",
]


@dataclass(frozen=True)
class RingIsoFactorization:
    """Inner factorization Psi(x) = y psi0(x) y^{-1}.

    iso is the ConjugationRingIso with T = y: its sigma says, per source
    block, whether psi0 is the identity or entrywise conjugation there,
    and its block_map routes source blocks to target blocks.  residual
    is the worst sampled deviation of Psi from iso.  y and q are read
    off iso.
    """

    iso: ConjugationRingIso
    residual: float
    y = property(lambda self: self.iso.T)

    @property
    def q(self) -> Projection:
        """Central projection onto the target blocks on which Psi is
        complex-linear."""
        target = self.iso.T.shape
        sigma, bmap = self.iso.sigma, self.iso.block_map
        bases = []
        for t, m in enumerate(target.blocks):
            eye = np.eye(m, dtype=np.complex128)
            bases.append(eye if sigma[bmap.index(t)] == "id" else eye[:, :0])
        return Projection.from_basis(target, bases)


def _check_real_linear(
    psi_full: Callable[[Element], Element],
    shape: AlgebraShape,
    rng: np.random.Generator,
    samples: int,
) -> list[tuple[Element, Element, Element, Element]]:
    """The sampled pairs (x, y, psi_full(x), psi_full(y)), on each of
    which psi_full(r x + s y) = r psi_full(x) + s psi_full(y) held."""
    pairs = []
    scalars = [0.5, -3.0, float(np.sqrt(2.0)), float(np.pi) / 3.0]
    for k in range(samples):
        x = random_element(shape, rng, norm_bound=2.0)
        y = random_element(shape, rng, norm_bound=2.0)
        if k < len(scalars):
            r, s = scalars[k], -scalars[-1 - k]
        else:
            r, s = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
        fx, fy = psi_full(x), psi_full(y)
        res = distance(psi_full(r * x + s * y), r * fx + s * fy)
        if res > CHECK_TOL * (1.0 + abs(r) + abs(s)):
            raise NotRealLinear(
                f"additivity over real scalars fails (residual {res:.3e})"
            )
        pairs.append((x, y, fx, fy))
    return pairs


def inner_factor(
    psi_full: Callable[[Element], Element],
    shape: AlgebraShape,
    samples: int = 16,
    seed: int = 0,
) -> RingIsoFactorization:
    """Skolem-Noether factorization psi_full = Ad_y composed with psi0.

    psi0 is entrywise identity or conjugation per source block, moved
    to the target block that receives the block's central projection;
    y conjugates it onto psi_full.  y is normalized so its largest
    entry is real positive (it is only determined up to a central
    scalar).  Real-linearity holds within CHECK_TOL (1 + |r| + |s|) on
    max(4, samples) pairs, and multiplicativity within 10 CHECK_TOL on
    the first max(4, samples // 2) of them, reusing their images.  One
    round of max_b n_b + 2 calls of psi_full (maps._skolem_noether)
    then reads the target shape, psi0 and y.

    Raises:
        NotRealLinear: sampled real-linearity fails.
        NotRingIso: multiplicativity fails, or a Skolem-Noether probe
            does (block counts, routing, the image of i).
        DegenerateWitness: the image of a minimal idempotent kills
            every probe vector, or y is singular (bad input, not a ring
            isomorphism).
    """
    rng = rng_from(seed)
    pairs = _check_real_linear(psi_full, shape, rng, max(4, samples))
    for x, y, fx, fy in pairs[: max(4, samples // 2)]:
        res = distance(psi_full(x * y), fx * fy)
        if res > CHECK_TOL * 10:
            raise NotRingIso(f"multiplicativity fails (residual {res:.3e})")

    factored = _skolem_noether(psi_full, shape)
    worst = 0.0
    for _ in range(samples):
        x = random_element(shape, rng, norm_bound=10.0)
        worst = max(worst, distance(psi_full(x), factored(x)))

    return RingIsoFactorization(iso=factored, residual=float(worst))


def _worst_pair(iso: ConjugationRingIso) -> tuple[Projection, Projection]:
    """The orthogonal pair of rank-one projections whose images under
    iso's lattice map overlap most.

    On the target block t with the largest defect 1 - (s_min / s_max)^2
    of T_t, take the right singular vectors v1, v2 of T_t for s_max and
    s_min, conjugated if sigma conjugates the source block b routed to
    t; p and q are the spans of v1 + v2 and v1 - v2 in block b.  Their
    images overlap by (k^2 - 1) / (k^2 + 1), k = s_max / s_min, which by
    Wielandt's inequality is the largest overlap of the images of any
    orthogonal pair in that block.
    """
    # per size group of T: its most ill-conditioned block and that block's vh
    worst = []
    for idx, a in iso.T._pieces():
        _, s, vh = np.linalg.svd(a)
        k = s[:, 0] / s[:, -1]
        j = int(np.argmax(k))
        worst.append((k[j], idx[j], vh[j]))
    _, t, vh = max(worst, key=lambda w: w[0])
    b = iso.block_map.index(t)
    # rows of vh are v*, so vh itself holds sigma(v) on a "conj" block
    v1, v2 = (vh[0], vh[-1]) if iso.sigma[b] == "conj" else (vh[0].conj(), vh[-1].conj())
    bases, pair = [np.zeros((n, 0)) for n in iso.source.blocks], []
    for w in (v1 + v2, v1 - v2):
        bases[b] = (w / np.sqrt(2.0))[:, None]
        pair.append(Projection.from_basis(iso.source, bases))
    return pair[0], pair[1]


def dye_extension(
    phi: LatticeMap,
    samples: int = 12,
    seed: int = 0,
) -> tuple[ConjugationRingIso, dict]:
    """Upgrade an orthogonality-preserving lattice iso to a real *-iso.

    Decides in three steps.  The halves probe,
    preserves_orthogonality(phi, 0, seed), maps the coordinate halves
    of each block (one batch of two).  The coordinatization engine then
    compiles Psi = Ad(T) sigma; samples and seed feed it alone.  By
    Dye's theorem phi preserves orthogonality exactly when every
    T_b* T_b is a scalar, and by Wielandt's inequality the largest
    overlap ||phi(p) phi(q)|| over orthogonal p, q in a block is
    (k^2 - 1) / (k^2 + 1), k = cond(T_b).  So the last step replays the
    pair that attains it on the worst block (_worst_pair) through phi
    (one more batch of two) and refuses when the images overlap by more than
    CHECK_TOL; a sampled pair could only find a smaller overlap.

    Returns the ring isomorphism (the compiled ConjugationRingIso Psi)
    and a certificate read off Psi and the coordinatization, with no
    second sampling: "projection-extension" is the coordinatization's
    projection_intertwining (||phi(p) - range Psi(p)|| over its random
    projections); "star-preservation" is the T-defect 1 - cond(T)^-2 =
    max_b ||T_b* T_b / ||T_b||^2 - 1||, zero exactly when every T_b* T_b
    is a scalar, that is when Psi(x*) = Psi(x)*; "unit" is the
    coordinatization's ||Psi(1) - 1||; "hermitian-order" is the same
    T-defect, since Ad(T) sigma is positive exactly when it preserves
    adjoints.  Its "stages" and each of its checks carry their wall time
    in "seconds", the only entries that differ between identical runs:
    "orthogonality-preservation" covers the halves probe and the
    replay, "coordinatization" the engine.

    Raises:
        OrthogonalityNotPreserved: with the witness pair, from the
            halves probe or the replay.
        Any coordinatization error: a map that passes the halves probe
            but is no lattice isomorphism induced by an invertible T is
            refused by the engine.
    """
    # clock[k + 1] - clock[k] is the wall time of the halves probe, the
    # engine, the replay, then each check
    clock = [perf_counter()]
    ok, witness = preserves_orthogonality(phi, 0, seed)
    if not ok:
        raise OrthogonalityNotPreserved(witness)
    clock.append(perf_counter())
    result = coordinatize(phi, samples=samples, seed=seed)
    clock.append(perf_counter())
    psi_full = result.Psi
    p, q = _worst_pair(psi_full)
    overlap = _product_norm(*phi.images([p, q]))
    if overlap > CHECK_TOL:
        raise OrthogonalityNotPreserved(_overlap_witness(p, q, overlap))
    clock.append(perf_counter())
    residuals = {"projection-extension": result.diagnostics["projection_intertwining"]}
    clock.append(perf_counter())
    residuals["star-preservation"] = 1.0 - cond(psi_full.T) ** -2
    clock.append(perf_counter())
    residuals["unit"] = result.diagnostics["unit"]
    clock.append(perf_counter())
    # Ad(T) sigma is positive exactly when it preserves adjoints
    residuals["hermitian-order"] = residuals["star-preservation"]
    clock.append(perf_counter())
    seconds = [t1 - t0 for t0, t1 in zip(clock, clock[1:])]
    certificate = {
        "preserves_orthogonality": True,
        "stages": [
            {"name": "orthogonality-preservation", "seconds": seconds[0] + seconds[2]},
            {"name": "coordinatization", "seconds": seconds[1]},
        ],
        "checks": [
            {"name": name, "max_residual": float(res), "seconds": dt}
            for (name, res), dt in zip(residuals.items(), seconds[3:])
        ],
        "coordinatization": dict(result.diagnostics),
        "seed": seed,
        "samples": samples,
    }
    return psi_full, certificate
