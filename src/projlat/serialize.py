"""JSON serialization for elements, projections, maps, and reports.

Complex entries are stored as [re, im] pairs, row-major per block, so a
round trip through json preserves every bit at double precision (Python
floats print in shortest exact form).  Projections are stored with
their rank profile; loading validates the projection laws but keeps the
stored bits exactly instead of re-snapping the spectrum.
"""

from __future__ import annotations

import json

import numpy as np

from .core import PROJ_TOL, AlgebraShape, Element, Projection
from .errors import NotAProjection
from .graphs import Frame
from .halmos import HalmosDecomposition
from .lattice import canonicalize
from .maps import ConjugationRingIso, LatticeMap

__all__ = [
    "element_to_obj",
    "element_from_obj",
    "projection_to_obj",
    "projection_from_obj",
    "pair_to_obj",
    "pair_from_obj",
    "map_to_obj",
    "map_from_obj",
    "ring_iso_to_obj",
    "ring_iso_from_obj",
    "halmos_to_obj",
    "frame_to_obj",
    "frame_from_obj",
    "save_json",
    "load_json",
]


def _int(v, field: str) -> int:
    """v, a JSON integer; a bool, a float or a string is a ValueError
    naming field."""
    if not isinstance(v, int) or isinstance(v, bool):
        raise ValueError(f"{field}: expected an integer, got {v!r}")
    return v


def _dict(v, field: str, *keys: str) -> dict:
    """v, a JSON object holding every key of keys; anything else is a
    ValueError naming field."""
    if not isinstance(v, dict):
        raise ValueError(f"{field}: expected an object, got {v!r}")
    for k in keys:
        if k not in v:
            raise ValueError(f"{field}: lacks the field {k!r}")
    return v


def _list(v, field: str) -> list:
    """v, a JSON list; anything else is a ValueError naming field."""
    if not isinstance(v, list):
        raise ValueError(f"{field}: expected a list, got {v!r}")
    return v


def _matrix_to_lists(a: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def _matrix_from_lists(rows, n: int, where: str) -> np.ndarray:
    """rows, n x n [re, im] pairs of numbers, as a complex matrix;
    anything else is a ValueError naming where."""
    try:
        a = np.asarray(rows, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{where}: expected {n}x{n} [re, im] entries of numbers ({exc})") from None
    if a.shape != (n, n, 2):
        raise ValueError(f"{where}: expected {n}x{n} [re, im] entries, got {a.shape}")
    return a[..., 0] + 1j * a[..., 1]


def element_to_obj(x: Element) -> dict:
    return {
        "shape": list(x.shape.blocks),
        "blocks": [_matrix_to_lists(b) for b in x.data],
    }


def element_from_obj(d: dict) -> Element:
    d = _dict(d, "element", "shape", "blocks")
    shape = AlgebraShape(_int(n, "shape") for n in _list(d["shape"], "shape"))
    raw = _list(d["blocks"], "blocks")
    if len(raw) != len(shape.blocks):
        raise ValueError(
            f"element has {len(raw)} blocks for shape {shape}"
        )
    blocks = [
        _matrix_from_lists(rows, n, f"block {i}")
        for i, (rows, n) in enumerate(zip(raw, shape.blocks))
    ]
    return Element(shape, blocks)


def projection_to_obj(p: Projection) -> dict:
    d = element_to_obj(p.element)
    d["ranks"] = list(p.ranks)
    return d


def projection_from_obj(d: dict) -> Projection:
    """Load a projection, validating the laws but keeping the bits;
    the range basis is read off the spectrum by lattice.canonicalize.

    Raises:
        NotAProjection: the payload fails Hermiticity/idempotence within
            PROJ_TOL, or its spectrum disagrees with the stored ranks.
    """
    x = element_from_obj(_dict(d, "projection", "ranks"))
    ranks = [_int(r, "ranks") for r in _list(d["ranks"], "ranks")]
    if len(ranks) != len(x.shape.blocks):
        raise ValueError("ranks field does not match the shape")
    herm = max(np.linalg.norm(b - b.conj().T, 2) for b in x.data)
    idem = max(np.linalg.norm(b @ b - b, 2) for b in x.data)
    if herm > PROJ_TOL or idem > PROJ_TOL:
        raise NotAProjection(
            f"stored element violates the projection laws "
            f"(hermiticity {herm:.3e}, idempotence {idem:.3e})"
        )
    snapped = canonicalize(x)
    if list(snapped.ranks) != ranks:
        raise NotAProjection(
            f"stored ranks {ranks} disagree with the spectrum {list(snapped.ranks)}"
        )
    return Projection(x, snapped.basis)


def pair_to_obj(p: Projection, q: Projection) -> dict:
    return {
        "kind": "projection-pair",
        "p": projection_to_obj(p),
        "q": projection_to_obj(q),
    }


def pair_from_obj(d: dict) -> tuple[Projection, Projection]:
    if _dict(d, "projection-pair").get("kind") != "projection-pair":
        raise ValueError(f'expected kind "projection-pair", got {d.get("kind")!r}')
    _dict(d, "projection-pair", "p", "q")
    return projection_from_obj(d["p"]), projection_from_obj(d["q"])


def _iso_to_obj(kind: str, T: Element, sigma, block_map=None) -> dict:
    """One codec for both kinds: a sigma that is the same on every
    block is written as one string, and block_map only when it is not
    the identity."""
    if not isinstance(sigma, str):
        uniform = len(sigma) == len(T.shape.blocks) and len(set(sigma)) == 1
        sigma = sigma[0] if uniform else list(sigma)
    obj = {"kind": kind, "T": element_to_obj(T), "sigma": sigma}
    if block_map is not None and list(block_map) != list(range(len(block_map))):
        obj["block_map"] = list(block_map)
    return obj


def _iso_from_obj(kind: str, d: dict) -> ConjugationRingIso:
    if _dict(d, kind).get("kind") != kind:
        raise ValueError(f'expected kind "{kind}", got {d.get("kind")!r}')
    _dict(d, kind, "T")
    block_map = d.get("block_map")
    if block_map is not None:
        block_map = [_int(t, "block_map") for t in _list(block_map, "block_map")]
    sigma = d.get("sigma", "id")
    if not isinstance(sigma, (str, list)):
        raise ValueError(f"sigma: expected a string or a list, got {sigma!r}")
    return ConjugationRingIso(element_from_obj(d["T"]), sigma, block_map)


def map_to_obj(phi: LatticeMap) -> dict:
    """Serialize by provenance; opaque and composite maps have none."""
    prov = phi.provenance
    if not isinstance(prov, ConjugationRingIso):
        raise ValueError(
            f"maps with {type(prov).__name__} provenance are not serializable"
        )
    return _iso_to_obj("conjugation", prov.T, prov.sigma, prov.block_map)


def map_from_obj(d: dict) -> LatticeMap:
    return _iso_from_obj("conjugation", d).lattice_map()


def ring_iso_to_obj(T: Element, sigma, block_map=None) -> dict:
    return _iso_to_obj("ring-iso", T, sigma, block_map)


def ring_iso_from_obj(d: dict) -> ConjugationRingIso:
    return _iso_from_obj("ring-iso", d)


def halmos_to_obj(dec: HalmosDecomposition) -> dict:
    return {
        "kind": "halmos",
        "p_and_q": projection_to_obj(dec.p_and_q),
        "p_and_qc": projection_to_obj(dec.p_and_qc),
        "pc_and_q": projection_to_obj(dec.pc_and_q),
        "pc_and_qc": projection_to_obj(dec.pc_and_qc),
        "e1": projection_to_obj(dec.e1),
        "e2": projection_to_obj(dec.e2),
        "a": element_to_obj(dec.a),
        "b": element_to_obj(dec.b),
        "v": element_to_obj(dec.v),
        "angles": [[float(t) for t in blk] for blk in dec.angles],
    }


def frame_to_obj(frame: Frame) -> dict:
    """A frame of any order k: k and its slot coordinates V."""
    return {"kind": "frame", "order": frame.order, "v": element_to_obj(frame.v)}


def frame_from_obj(d: dict) -> Frame:
    """Load a frame from its order and V, keeping V's bits.  The older
    formats load through Frame.from_projections, with range bases
    re-derived: a "frame" of k projections and units w_12 ... w_1k,
    and an order-3 "three-frame" (p1, p2, p3, w12, w13)."""
    kind = _dict(d, "frame").get("kind")
    if kind == "frame" and "v" in d:
        return Frame(element_from_obj(d["v"]), _int(d.get("order"), "frame order"))
    if kind == "three-frame":
        _dict(d, kind, "p1", "p2", "p3", "w12", "w13")
        ps, ws = [d["p1"], d["p2"], d["p3"]], [d["w12"], d["w13"]]
    elif kind == "frame":
        _dict(d, kind, "projections", "units")
        ps, ws = _list(d["projections"], "projections"), _list(d["units"], "units")
    else:
        raise ValueError(f'expected kind "frame", got {kind!r}')
    return Frame.from_projections(
        [projection_from_obj(p) for p in ps], [element_from_obj(w) for w in ws]
    )


def save_json(obj: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
