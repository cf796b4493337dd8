"""JSON round trips must be bit-exact and validation must be loud."""

import json
from pathlib import Path

import numpy as np
import pytest

import projlat as pl
from projlat import AlgebraShape, Element
from projlat.cli import main


S23 = AlgebraShape([2, 3])


def test_element_roundtrip_is_bit_exact(rng):
    x = pl.random_element(S23, rng)
    obj = pl.element_to_obj(x)
    y = pl.element_from_obj(json.loads(json.dumps(obj)))
    assert all(np.array_equal(a, b) for a, b in zip(x.data, y.data))


def test_projection_roundtrip_is_bit_exact(rng):
    p = pl.random_projection(S23, rng)
    obj = pl.projection_to_obj(p)
    q = pl.projection_from_obj(json.loads(json.dumps(obj)))
    assert q.ranks == p.ranks
    assert all(np.array_equal(a, b) for a, b in zip(p.element.data, q.element.data))


def test_projection_load_rejects_tampering(rng):
    p = pl.random_projection(S23, rng, ranks=[1, 2])
    obj = pl.projection_to_obj(p)
    obj["blocks"][1][0][0] = [0.7, 0.1]  # no longer idempotent
    with pytest.raises(pl.NotAProjection):
        pl.projection_from_obj(obj)


def test_element_load_rejects_ragged_matrix():
    obj = {
        "kind": "element",
        "shape": [2],
        "blocks": [[[[1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]],
    }
    with pytest.raises(ValueError):
        pl.element_from_obj(obj)


def test_wrong_kind_tag_is_rejected(rng):
    p = pl.random_projection(S23, rng)
    obj = pl.pair_to_obj(p, p)
    obj["kind"] = "element"
    with pytest.raises(ValueError):
        pl.pair_from_obj(obj)
    fr_obj = pl.frame_to_obj(pl.Frame.standard(AlgebraShape([6]), 3))
    fr_obj["kind"] = "pair"
    with pytest.raises(ValueError):
        pl.frame_from_obj(fr_obj)


def test_projection_load_rejects_wrong_rank_count(rng):
    p = pl.random_projection(S23, rng)
    obj = pl.projection_to_obj(p)
    obj["ranks"] = obj["ranks"][:1]
    with pytest.raises(ValueError):
        pl.projection_from_obj(obj)
    del obj["ranks"]
    with pytest.raises(ValueError):
        pl.projection_from_obj(obj)


def test_pair_roundtrip(rng):
    p = pl.random_projection(S23, rng)
    q = pl.random_projection(S23, rng)
    p2, q2 = pl.pair_from_obj(json.loads(json.dumps(pl.pair_to_obj(p, q))))
    assert pl.distance(p, p2) == 0.0
    assert pl.distance(q, q2) == 0.0


def test_map_roundtrip_conjugation(rng):
    t = pl.random_invertible(S23, rng, cond_max=20.0)
    phi = pl.from_conjugation(t)
    phi2 = pl.map_from_obj(json.loads(json.dumps(pl.map_to_obj(phi))))
    p = pl.random_projection(S23, rng)
    assert pl.distance(phi(p), phi2(p)) < 1e-12


def test_map_roundtrip_semilinear(rng):
    phi = pl.from_semilinear(Element.identity(S23), "conj")
    phi2 = pl.map_from_obj(json.loads(json.dumps(pl.map_to_obj(phi))))
    p = pl.random_projection(S23, rng)
    assert pl.distance(phi(p), phi2(p)) < 1e-12


def test_map_to_obj_needs_provenance(rng):
    t = pl.random_invertible(S23, rng, cond_max=20.0)
    phi = pl.from_conjugation(t)
    composite = pl.compose(phi, pl.invert_map(phi))
    with pytest.raises(ValueError):
        pl.map_to_obj(composite)


def test_ring_iso_sigma_spellings(rng):
    t = pl.random_invertible(S23, rng, cond_max=10.0)
    whole = pl.ring_iso_from_obj(pl.ring_iso_to_obj(t, "conj"))
    assert whole.sigma == ("conj", "conj")
    per_block = pl.ring_iso_from_obj(pl.ring_iso_to_obj(t, ["id", "conj"]))
    assert per_block.sigma == ("id", "conj")
    with pytest.raises(ValueError):
        pl.ring_iso_from_obj(pl.ring_iso_to_obj(t, "transpose"))


def test_halmos_obj_carries_all_parts(rng):
    p = pl.random_projection(AlgebraShape([4]), rng, ranks=[2])
    q = pl.random_projection(AlgebraShape([4]), rng, ranks=[2])
    dec = pl.halmos_decompose(p, q)
    obj = pl.halmos_to_obj(dec)
    assert obj["kind"] == "halmos"
    for key in ("p_and_q", "pc_and_qc", "e1", "e2", "a", "b", "v", "angles"):
        assert key in obj
    json.dumps(obj)  # JSON-safe throughout


def test_frame_roundtrip(rng):
    fr = pl.Frame.standard(AlgebraShape([6]), 3)
    fr2 = pl.frame_from_obj(json.loads(json.dumps(pl.frame_to_obj(fr))))
    assert pl.distance(fr.projections[0], fr2.projections[0]) == 0.0
    one = Element.identity(fr.corner_shape)
    assert pl.distance(pl.graph_projection(fr, one), pl.graph_projection(fr2, one)) < 1e-12


def _bytes(frame):
    """The projections, units and coordinates of a frame, as bytes."""
    values = [p.element for p in frame.projections] + list(frame.units) + [frame.v]
    return [a.tobytes() for x in values for a in x._stacks]


def test_order_four_frame_round_trips_bit_for_bit():
    shape = AlgebraShape([4, 8])
    base = pl.Frame.standard(shape, 4)
    u = pl.random_unitary(shape, np.random.default_rng(3))
    ps = [
        pl.Projection.from_basis(shape, [ub @ eb for ub, eb in zip(u.data, p.basis)])
        for p in base.projections
    ]
    fr = pl.Frame.from_projections(ps, [u * w * u.adjoint() for w in base.units])
    obj = json.loads(json.dumps(pl.frame_to_obj(fr)))
    assert set(obj) == {"kind", "order", "v"} and obj["kind"] == "frame" and obj["order"] == 4
    back = pl.frame_from_obj(obj)
    # V is stored, and the projections and units are read off it
    assert back.order == 4 and _bytes(back) == _bytes(fr)
    one = Element.identity(fr.corner_shape)
    for slot in [(0, 1), (0, 3), (2, 1), (3, 2)]:
        graphs = [pl.graph_projection(f, one, slot) for f in (fr, back)]
        assert pl.distance(*graphs) < 1e-12


def test_reloaded_seeded_frame_coordinatizes_bit_for_bit():
    shape = AlgebraShape([6])
    t = pl.random_invertible(shape, np.random.default_rng(5), cond_max=20.0)
    phi = pl.from_conjugation(t)
    first = pl.coordinatize(phi, samples=2, seed=7)
    obj = json.loads(json.dumps(pl.frame_to_obj(first.source_frame)))
    again = pl.coordinatize(phi, pl.frame_from_obj(obj), samples=2, seed=7)
    assert [a.tobytes() for a in again.Psi.T.data] == [a.tobytes() for a in first.Psi.T.data]


def test_frame_with_projections_and_units_still_loads():
    # a "frame" object of projections with their range bases and units,
    # the format before frames were written as V, for a seeded frame on [6]
    obj = pl.load_json(str(Path(__file__).parent / "data" / "frame_v1.json"))
    assert obj["kind"] == "frame" and "basis" in obj["projections"][0]
    fr = pl.frame_from_obj(obj)
    assert fr.order == 3 and len(fr.units) == 2
    # the stored projection bits are kept; V is built from re-derived bases
    for p, stored in zip(fr.projections, obj["projections"]):
        assert pl.distance(p, pl.element_from_obj(stored)) < pl.PROJ_TOL
    for w, stored in zip(fr.units, obj["units"]):
        assert pl.distance(w, pl.element_from_obj(stored)) < pl.PROJ_TOL
    # and written again in the format of V
    again = pl.frame_from_obj(json.loads(json.dumps(pl.frame_to_obj(fr))))
    assert _bytes(again) == _bytes(fr)


def test_malformed_frame_objects_are_refused():
    obj = pl.frame_to_obj(pl.Frame.standard(AlgebraShape([6]), 3))
    for order in (None, "three", 3.7, True, "3"):
        with pytest.raises(ValueError):
            pl.frame_from_obj({**obj, "order": order})
    with pytest.raises(ValueError):
        pl.frame_from_obj({k: v for k, v in obj.items() if k != "order"})
    for order in (0, 4):
        with pytest.raises(pl.NotAFrame):
            pl.frame_from_obj({**obj, "order": order})


def test_malformed_integer_fields_are_refused(tmp_path, rng, capsys):
    # shapes, ranks and block maps are JSON integers: a float, a bool or
    # a string is refused, not truncated, and the CLI calls it a usage error
    p = pl.random_projection(AlgebraShape([3]), rng, ranks=[1])
    pair = pl.pair_to_obj(p, p)
    iso = pl.ring_iso_to_obj(pl.random_invertible(AlgebraShape([3, 3]), rng), "id", [1, 0])
    bad = [
        ("halmos", pl.pair_from_obj, {**pair, "p": {**pair["p"], "shape": [n]}})
        for n in (3.9, 3.0, "3")
    ]
    bad += [
        ("halmos", pl.pair_from_obj, {**pair, "q": {**pair["q"], "ranks": [r]}})
        for r in (1.8, True, "1")
    ]
    for bm in ([True, False], [1.0, 0.0]):
        bad.append(("factor", pl.ring_iso_from_obj, {**iso, "block_map": bm}))
        conj = {**iso, "kind": "conjugation", "block_map": bm}
        bad.append(("coordinatize", pl.map_from_obj, conj))
    path = tmp_path / "bad.json"
    for command, loader, obj in bad:
        with pytest.raises(ValueError):
            loader(obj)
        path.write_text(json.dumps(obj))
        assert main([command, str(path)]) == 2
        assert "expected an integer" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["ranks", "block_map", "sigma", "projections"])
def test_list_fields_that_are_not_lists_are_refused(field, tmp_path, rng, capsys):
    # iterating a scalar would raise TypeError inside the library; the
    # loaders' contract is ValueError, which the CLI calls a usage error
    shape = AlgebraShape([3, 3])
    iso = pl.ring_iso_to_obj(pl.random_invertible(shape, rng), ["id", "conj"], [1, 0])
    if field == "ranks":
        p = pl.random_projection(shape, rng, ranks=[1, 1])
        pair = pl.pair_to_obj(p, p)
        cases = [("halmos", pl.pair_from_obj, pair | {"p": pair["p"] | {"ranks": 1}})]
    elif field == "projections":
        # the older frame format, and its units field
        obj = {"kind": "frame", "projections": 1, "units": []}
        cases = [(None, pl.frame_from_obj, obj), (None, pl.frame_from_obj, obj | {"projections": [], "units": 1})]
    else:
        value = 1 if field == "block_map" else 5
        cases = [
            ("factor", pl.ring_iso_from_obj, iso | {field: value}),
            ("coordinatize", pl.map_from_obj, iso | {"kind": "conjugation", field: value}),
        ]
    path = tmp_path / "bad.json"
    for command, loader, obj in cases:
        with pytest.raises(ValueError, match="expected a"):
            loader(obj)
        if command:
            path.write_text(json.dumps(obj))
            assert main([command, str(path)]) == 2
            assert "expected a" in capsys.readouterr().err


def test_three_frame_file_loads_bit_equal_to_its_pieces():
    # a "three-frame" object, the frame format before frames of any
    # order, written for a seeded frame on [6]
    obj = pl.load_json(str(Path(__file__).parent / "data" / "three_frame_v0.json"))
    assert obj["kind"] == "three-frame"
    fr = pl.frame_from_obj(obj)
    pieces = pl.Frame.from_projections(
        [pl.projection_from_obj(obj[p]) for p in ("p1", "p2", "p3")],
        [pl.element_from_obj(obj[w]) for w in ("w12", "w13")],
    )
    assert fr.order == 3 and _bytes(fr) == _bytes(pieces)
    # the units are read off V, so they agree with the stored ones to rounding
    for w, stored in zip(fr.units, (obj["w12"], obj["w13"])):
        assert pl.distance(w, pl.element_from_obj(stored)) <= pl.PROJ_TOL


def test_save_and_load_json(tmp_path, rng):
    x = pl.random_element(S23, rng)
    path = tmp_path / "x.json"
    pl.save_json(pl.element_to_obj(x), str(path))
    y = pl.element_from_obj(pl.load_json(str(path)))
    assert all(np.array_equal(a, b) for a, b in zip(x.data, y.data))
    # files end with a newline so shell cat output stays tidy
    assert path.read_bytes().endswith(b"\n")


def test_block_map_is_written_only_when_routing(rng):
    shape = AlgebraShape([3, 3])
    t = pl.random_invertible(shape, rng, cond_max=10.0)
    plain = pl.map_to_obj(pl.from_semilinear(t, "conj"))
    assert "block_map" not in plain and plain["sigma"] == "conj"
    iso = pl.ConjugationRingIso(t, ["conj", "id"], [1, 0])
    obj = json.loads(json.dumps(pl.map_to_obj(iso.lattice_map())))
    assert obj["block_map"] == [1, 0] and obj["sigma"] == ["conj", "id"]
    phi = pl.map_from_obj(obj)
    p = pl.random_projection(shape, rng)
    assert pl.distance(phi(p), iso.lattice_map()(p)) == 0.0
    back = pl.ring_iso_from_obj(pl.ring_iso_to_obj(t, iso.sigma, iso.block_map))
    x = pl.random_element(shape, rng)
    assert pl.distance(back(x), iso(x)) == 0.0
