"""End-to-end CLI runs through main(argv), no subprocesses."""

import dataclasses
import inspect
import json

import numpy as np
import pytest

import projlat as pl
from projlat import AlgebraShape, cli
from projlat.cli import main


def _strip_seconds(obj):
    if isinstance(obj, dict):
        return {k: _strip_seconds(v) for k, v in obj.items() if k != "seconds"}
    if isinstance(obj, list):
        return [_strip_seconds(v) for v in obj]
    return obj


def _gen(tmp_path, kind, name, *extra):
    path = tmp_path / name
    rc = main(["gen", kind, "--out", str(path), *extra])
    assert rc == 0
    return str(path)


def test_gen_is_deterministic(tmp_path):
    a = _gen(tmp_path, "projection-pair", "a.json", "--seed", "7")
    b = _gen(tmp_path, "projection-pair", "b.json", "--seed", "7")
    c = _gen(tmp_path, "projection-pair", "c.json", "--seed", "8")
    a_bytes = open(a, "rb").read()
    assert a_bytes == open(b, "rb").read()
    assert a_bytes != open(c, "rb").read()


def test_gen_writes_stdout_without_out(capsys):
    rc = main(["gen", "projection-pair", "--seed", "3"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["kind"] == "projection-pair"


def test_gen_respects_shape(tmp_path):
    path = _gen(tmp_path, "projection-pair", "p.json", "--shape", "2,3")
    obj = json.loads(open(path).read())
    assert obj["p"]["shape"] == [2, 3]


def test_halmos_passes_on_generated_pair(tmp_path, capsys):
    path = _gen(tmp_path, "projection-pair", "pair.json", "--shape", "4")
    rc = main(["halmos", path, "--json"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["status"] == "PASS"
    assert rep["checks"][0]["name"] == "halmos-roundtrip"
    assert "decomposition" in rep


def test_halmos_human_output_lines(tmp_path, capsys):
    path = _gen(tmp_path, "projection-pair", "pair.json")
    rc = main(["halmos", path])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert out.strip().endswith("status: PASS")


def test_coordinatize_command(tmp_path, capsys):
    path = _gen(tmp_path, "lattice-map", "map.json", "--seed", "2")
    rc = main(["coordinatize", path, "--json", "--samples", "4"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["status"] == "PASS"
    probes = rep["result"]["probes"]
    assert len(probes) >= 2
    assert {"input", "output"} <= set(probes[0])


def test_dye_rejects_nonunitary_map(tmp_path, capsys):
    # a generated lattice-map conjugates by a non-unitary almost surely
    path = _gen(tmp_path, "lattice-map", "map.json", "--seed", "2")
    rc = main(["dye", path, "--json"])
    captured = capsys.readouterr()
    assert rc == 1
    rep = json.loads(captured.out)
    assert rep["status"] == "FAIL"
    assert "first failing check: orthogonality-preservation" in captured.err
    failing = [c for c in rep["checks"] if c["status"] == "FAIL"]
    assert failing[0]["counterexample"]["kind"].startswith("orthogonal")


def test_factor_command(tmp_path, capsys):
    path = _gen(tmp_path, "ring-iso", "iso.json", "--seed", "5")
    rc = main(["factor", path, "--json"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["status"] == "PASS"
    fac = rep["factorization"]
    assert set(fac["psi0_kind"]) <= {"linear", "conjugate"}
    assert sorted(fac["block_map"]) == list(range(len(fac["block_map"])))


def test_verify_suite_skips_low_order_families(capsys):
    rc = main(["verify-suite", "--shape", "2", "--samples", "4", "--json"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    statuses = {c["name"]: c["status"] for c in rep["checks"]}
    assert statuses["coordinatize-conjugation"] == "SKIPPED(NotOrderThree)"
    assert statuses["lattice-axioms"] == "PASS"


@pytest.mark.parametrize(
    "args, code",
    [
        (["verify-suite", "--shape", "3", "--samples", "4", "--seed", "9"], 0),
        (["coordinatize", "lattice-map"], 0),
        # a generated lattice-map conjugates by a non-unitary, so dye refuses it
        (["dye", "lattice-map"], 1),
        (["factor", "ring-iso"], 0),
    ],
    ids=["verify-suite", "coordinatize", "dye-refusing", "factor"],
)
def test_verify_suite_reports_are_stable_modulo_timing(args, code, tmp_path, capsys):
    if args[0] != "verify-suite":
        path = _gen(tmp_path, args[1], "input.json", "--seed", "2")
        args = [args[0], path, "--samples", "4"]
    reports = []
    for _ in range(2):
        assert main([*args, "--json"]) == code
        reports.append(_strip_seconds(json.loads(capsys.readouterr().out)))
    assert reports[0] == reports[1]


def test_config_records_the_tolerance_constants(capsys):
    assert main(["verify-suite", "--shape", "3", "--samples", "2", "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["config"]["tolerances"] == {
        "rank_rel": pl.RANK_REL,
        "proj_tol": pl.PROJ_TOL,
        "eq_tol": pl.EQ_TOL,
    }


def test_tolerance_flags_are_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-suite", "--shape", "3", "--samples", "2", "--tol-rank", "1e-9"])
    assert exc.value.code == 2
    assert "--tol-rank" in capsys.readouterr().err


def test_no_exported_callable_takes_a_tolerance():
    for name in pl.__all__:
        obj = getattr(pl, name)
        if not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        assert "tol" not in params, name


def test_out_flag_writes_report(tmp_path, capsys):
    path = _gen(tmp_path, "projection-pair", "pair.json")
    out = tmp_path / "report.json"
    rc = main(["halmos", path, "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["status"] == "PASS"


def test_missing_input_file_is_usage_error(tmp_path, capsys):
    rc = main(["halmos", str(tmp_path / "nope.json")])
    assert rc == 2
    assert capsys.readouterr().err


def test_corrupt_input_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["halmos", str(path)]) == 2
    path.write_text('{"kind": "pair"}')
    assert main(["halmos", str(path)]) == 2


@pytest.mark.parametrize("command", ["halmos", "coordinatize", "dye", "factor"])
def test_non_object_payload_is_usage_error(command, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("[1]")
    assert main([command, str(path)]) == 2
    assert "expected an object" in capsys.readouterr().err


def test_wrong_payload_kind_is_usage_error(tmp_path, capsys):
    path = _gen(tmp_path, "lattice-map", "map.json")
    assert main(["halmos", path]) == 2


def test_env_seed_fallback(tmp_path, monkeypatch, capsys):
    flagged = _gen(tmp_path, "projection-pair", "flag.json", "--seed", "11")
    monkeypatch.setenv("PROJLAT_SEED", "11")
    via_env = _gen(tmp_path, "projection-pair", "env.json")
    assert open(flagged, "rb").read() == open(via_env, "rb").read()
    # explicit flag wins over the environment
    monkeypatch.setenv("PROJLAT_SEED", "99")
    again = _gen(tmp_path, "projection-pair", "again.json", "--seed", "11")
    assert open(flagged, "rb").read() == open(again, "rb").read()


def test_invalid_env_seed_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PROJLAT_SEED", "eleven")
    rc = main(["gen", "projection-pair", "--out", str(tmp_path / "x.json")])
    assert rc == 2
    assert "PROJLAT_SEED" in capsys.readouterr().err


def test_bad_shape_flag_is_usage_error(capsys):
    assert main(["gen", "projection-pair", "--shape", "3,zebra"]) == 2


def test_factor_reads_routed_ring_isos(tmp_path, capsys):
    path = _gen(tmp_path, "ring-iso", "iso.json", "--shape", "3,3", "--seed", "1")
    obj = json.loads(open(path).read())
    obj["block_map"] = [1, 0]
    with open(path, "w") as fh:
        json.dump(obj, fh)
    assert main(["factor", path, "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["status"] == "PASS"
    assert rep["factorization"]["block_map"] == [1, 0]
    for bad in ([0, 0], [0.5, 1]):
        obj["block_map"] = bad
        with open(path, "w") as fh:
            json.dump(obj, fh)
        assert main(["factor", path]) == 2


def test_factor_reports_routed_mixed_kinds(tmp_path, capsys):
    # blocks swapped and the second source block conjugated
    shape = AlgebraShape([3, 3])
    t = pl.random_invertible(shape, np.random.default_rng(2), cond_max=30.0)
    path = tmp_path / "iso.json"
    pl.save_json(pl.ring_iso_to_obj(t, ("id", "conj"), (1, 0)), str(path))
    assert main(["factor", str(path), "--json"]) == 0
    fac = json.loads(capsys.readouterr().out)["factorization"]
    assert fac["psi0_kind"] == ["linear", "conjugate"]
    assert fac["block_map"] == [1, 0]
    assert pl.projection_from_obj(fac["q"]).ranks == (0, 3)


def _unitary_map(tmp_path, name, blocks):
    shape = AlgebraShape(blocks)
    u = pl.random_unitary(shape, np.random.default_rng(4))
    path = tmp_path / name
    pl.save_json(pl.map_to_obj(pl.from_conjugation(u)), str(path))
    return str(path)


def test_dye_reports_measured_check_times(tmp_path, capsys):
    path = _unitary_map(tmp_path, "unitary.json", [3])
    assert main(["dye", path, "--json"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["status"] == "PASS"
    assert [c["name"] for c in first["checks"]] == [
        "orthogonality-preservation", "coordinatization",
        "projection-extension", "star-preservation", "unit", "hermitian-order",
    ]
    assert [c["max_residual"] for c in first["checks"][:2]] == [None, None]
    assert all(c["seconds"] > 0 for c in first["checks"])
    # timings stay out of the certificate, so it repeats exactly
    assert _strip_seconds(first["certificate"]) == first["certificate"]
    assert main(["dye", path, "--json"]) == 0
    second = json.loads(capsys.readouterr().out)
    assert first["certificate"] == second["certificate"]


def test_dye_text_report_shows_every_stage_time(tmp_path, capsys):
    path = _unitary_map(tmp_path, "unitary.json", [3])
    assert main(["dye", path]) == 0
    lines = capsys.readouterr().out.splitlines()[:-1]
    assert len(lines) == 6
    for line in lines:
        assert float(line.rsplit("(", 1)[1].rstrip("s)")) > 0, line


def test_dye_grades_a_non_unitary_t_as_failed(tmp_path, monkeypatch, capsys):
    # past a halves probe that missed the non-unitary conjugation, T's
    # worst orthogonal pair refuses it, with a witness that replays
    monkeypatch.setattr(pl.ringiso, "preserves_orthogonality", lambda *a: (True, None))
    rng = np.random.default_rng(6)
    shape = AlgebraShape([3])
    u, w = pl.random_unitary(shape, rng), pl.random_unitary(shape, rng)
    t = u * pl.Element(shape, [np.diag([2.0, 1.0, 1.0])]) * w
    phi = pl.from_conjugation(t)
    with pytest.raises(pl.OrthogonalityNotPreserved) as exc_info:
        pl.dye_extension(phi, samples=4, seed=1)
    witness = exc_info.value.witness
    p, q = (pl.projection_from_obj(witness[k]) for k in "pq")
    assert pl.maps._product_norm(p, q) <= 1e-15
    # cond(T) = 2, so Wielandt's bound (4 - 1) / (4 + 1) is attained
    assert abs(witness["residual"] - 0.6) <= 1e-12
    assert abs(pl.maps._product_norm(phi(p), phi(q)) - witness["residual"]) <= 1e-14
    path = tmp_path / "nonunitary.json"
    pl.save_json(pl.map_to_obj(phi), str(path))
    assert main(["dye", str(path), "--json", "--samples", "4"]) == 1
    captured = capsys.readouterr()
    (check,) = json.loads(captured.out)["checks"]
    assert (check["name"], check["status"]) == ("orthogonality-preservation", "FAIL")
    assert check["counterexample"]["kind"] == "orthogonal-pair-mapped-to-overlapping"
    assert "first failing check: orthogonality-preservation" in captured.err


def test_dye_refusal_reports_the_time_until_refusal(tmp_path, capsys):
    path = _gen(tmp_path, "lattice-map", "map.json", "--seed", "2")
    assert main(["dye", path, "--json"]) == 1
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert check["name"] == "orthogonality-preservation"
    assert check["seconds"] > 0


def test_dye_reports_an_engine_refusal_as_coordinatize_does(tmp_path, capsys):
    # [4] has no frame of order 3: the halves probe passes the unitary
    # map, then the engine refuses it
    path = _unitary_map(tmp_path, "unitary4.json", [4])
    assert main(["coordinatize", path, "--json"]) == 1
    refused = json.loads(capsys.readouterr().out)["checks"][0]["counterexample"]
    assert refused["error"].startswith("NotOrderThree: ")
    assert main(["dye", path, "--json"]) == 1
    captured = capsys.readouterr()
    rep = json.loads(captured.out)
    assert rep["status"] == "FAIL"
    (check,) = rep["checks"]
    assert (check["name"], check["status"], check["max_residual"]) == ("coordinatization", "FAIL", None)
    assert check["counterexample"] == refused
    assert "first failing check: coordinatization" in captured.err
    assert main(["dye", path]) == 1
    assert capsys.readouterr().out.endswith("status: FAIL\n")


def test_coordinatize_grades_every_diagnostic(tmp_path, monkeypatch, capsys):
    path = _gen(tmp_path, "lattice-map", "map.json", "--seed", "2")
    real = cli.coordinatize

    def with_new_residual(*args, **kwargs):
        result = real(*args, **kwargs)
        return dataclasses.replace(
            result, diagnostics={**result.diagnostics, "new_residual": 1.0}
        )

    monkeypatch.setattr(cli, "coordinatize", with_new_residual)
    assert main(["coordinatize", path, "--samples", "2"]) == 1
    assert "first failing check: coordinatize" in capsys.readouterr().err


def test_compiled_psi_is_accepted_by_factor(tmp_path, capsys):
    shape = AlgebraShape([3, 3])
    t = pl.random_invertible(shape, np.random.default_rng(6), cond_max=50.0)
    psi = pl.coordinatize(pl.from_semilinear(t, ["id", "conj"]), samples=2).Psi
    path = tmp_path / "psi.json"
    pl.save_json(pl.ring_iso_to_obj(psi.T, psi.sigma, psi.block_map), str(path))
    assert main(["factor", str(path), "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["status"] == "PASS"
    assert rep["factorization"]["psi0_kind"] == ["linear", "conjugate"]
