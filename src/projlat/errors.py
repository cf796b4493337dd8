"""Exception types shared across the library.

Every domain failure derives from ProjlatError so callers can catch one
base class at the CLI boundary; the subclasses carry enough data to
rebuild a useful diagnostic (block index, offending value, witness).
"""

from __future__ import annotations


class ProjlatError(Exception):
    """Base class for all library errors."""


class ShapeMismatch(ProjlatError):
    """Operands live in algebras with different block structure."""


class NotInvertible(ProjlatError):
    """An element has a singular block.

    Attributes:
        block: index of the offending block.
        sigma_min: its smallest singular value.
    """

    def __init__(self, block: int, sigma_min: float):
        self.block = block
        self.sigma_min = sigma_min
        super().__init__(
            f"block {block} is numerically singular (sigma_min={sigma_min:.3e})"
        )


class NotAProjection(ProjlatError):
    """Input cannot be snapped to a projection (eigenvalue in the
    forbidden middle band, or not Hermitian)."""


class PreconditionViolated(ProjlatError):
    """A documented operation precondition failed on the given input."""


class NotLSOrthogonal(ProjlatError):
    """The orthogonalizer needs an LS-orthogonal pair."""


class NotAFrame(ProjlatError):
    """No frame of order k: a block size is not divisible by k, the
    slot coordinates V are not unitary, or the given projections and
    witnesses do not assemble into k equivalent orthogonal projections
    summing to 1."""


class NotAGraphProjection(ProjlatError):
    """Recovery was asked on a projection that is not the graph of an
    operator in the requested slot.

    Attributes:
        reason: what failed, without the block.
        block: index of the first offending block.
    """

    def __init__(self, reason: str, block: int):
        self.reason = reason
        self.block = block
        super().__init__(f"{reason} on block {block}")


class NotOrderThree(ProjlatError):
    """Coordinatization needs a frame of some order k (the pipeline
    seeds k = 3, so every block size must be divisible by 3) and frame
    images that are k independent k-ths of every target block: each
    image has rank n/k on a block of size n, and the concatenation of
    their range bases passes the rank cutoff."""


class FrameAssemblyFailed(ProjlatError):
    """Normalization onto the standard target frame failed: a slot unit
    read through the first normalizer does not recover or invert, or
    the normalizer S_k S0 fails the rank cutoff on the block the message
    names."""


class SlotMismatch(ProjlatError):
    """The coordinate maps extracted through different slots disagree,
    which means the input was not a lattice isomorphism.

    Attributes:
        slot: the slot, (0, 2) or (1, 2), whose recovery disagrees most
            with slot 12.
        residual: ||psi(x) - psi(x, slot)||, the worst seen.
        x: the corner element at which it was seen.
    """

    def __init__(self, slot: tuple[int, int], residual: float, x):
        self.slot = slot
        self.residual = residual
        self.x = x
        super().__init__(
            f"slot {slot[0] + 1}{slot[1] + 1} recovery disagrees with slot 12 "
            f"(residual {residual:.3e}); the map is not induced by a ring isomorphism"
        )


class IntertwiningFailure(ProjlatError):
    """The reconstructed ring map Psi does not meet the theorem's
    identity phi(p) = range Psi(p) within tolerance.

    Attributes:
        residual: worst ||phi(p) - range Psi(p)|| seen.
        probe: the probe p with that distance.
        image: range Psi(p), Psi's lattice-map image of that probe.
    """

    def __init__(self, residual: float, probe, image):
        self.residual, self.probe, self.image = residual, probe, image
        super().__init__(f"range intertwining failed: ||phi(p) - range Psi(p)|| = {residual:.3e}")


class NotRingIso(ProjlatError):
    """The sampled map is not a unital ring isomorphism."""


class NotRealLinear(ProjlatError):
    """The sampled map is not real-linear."""


class DegenerateWitness(ProjlatError):
    """The Skolem-Noether witness construction degenerated (zero image
    of a matrix unit, or a singular candidate witness)."""


class OrthogonalityNotPreserved(ProjlatError):
    """A lattice map failed the orthogonality test.

    Attributes:
        witness: dict with the offending pair and residual.
    """

    def __init__(self, witness: dict):
        self.witness = witness
        super().__init__(
            "map does not preserve orthogonality "
            f"(residual={witness.get('residual', float('nan')):.3e})"
        )


class NotInvertibleProvenance(ProjlatError):
    """invert_map was called on a lattice map whose provenance does not
    carry an inverse."""
