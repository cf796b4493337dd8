"""Suite plumbing: skip reasons, measured residuals, and the names
that tooling looks up in the library modules."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import projlat as pl
from projlat import AlgebraShape, suite
from projlat.report import run_check


def test_skip_is_a_named_not_order_three():
    with pytest.raises(pl.NotOrderThree) as info:
        suite._skip_not_order3(AlgebraShape([4]))
    assert info.value.skip_reason == "NotOrderThree"


def test_only_the_precondition_skips():
    def family():
        suite._skip_not_order3(AlgebraShape([2, 3]))
        return 0.0, None

    def broken_family():
        raise pl.NotOrderThree("raised by the family body")

    assert run_check("f", "a", family, 1.0).status == "SKIPPED(NotOrderThree)"
    failed = run_check("f", "a", broken_family, 1.0)
    assert failed.status == "FAIL" and "NotOrderThree" in failed.counterexample["error"]
    assert failed.counterexample["frame"] == "tests/test_suite.py:broken_family"


def test_lattice_map_family_reports_a_measured_residual():
    residual, ce = suite._check_map_family(AlgebraShape([3]), 0, 8)
    assert ce is None
    assert 0.0 < residual <= 1e-8


YES_NO = {"principal-ideal": "principal_ideal_leq", "ls-equivalence": "ls_orthogonal"}


def _family(name):
    return next(row for row in suite._FAMILIES if row[0] == name)


def test_yes_no_families_report_no_residual():
    for name in YES_NO:
        assert _family(name)[2](AlgebraShape([3]), 0, 4) == (None, None)
    report = suite.verify_suite(AlgebraShape([2, 3]), seed=1, samples=2).to_obj()
    checks = {c["name"]: c for c in report["checks"]}
    for name in YES_NO:
        assert checks[name]["status"] == "PASS"
        assert checks[name]["max_residual"] is None


def test_a_family_has_no_gate_exactly_when_it_reports_no_residual():
    gates = {name: gate for name, _, _, gate in suite._FAMILIES}
    assert {name for name, gate in gates.items() if gate is None} == set(YES_NO)
    report = suite.verify_suite(AlgebraShape([3]), seed=1, samples=2)
    for check in report.checks:
        assert check.status == "PASS", check.name
        assert (gates[check.name] is None) == (check.max_residual is None), check.name


def test_a_yes_no_counterexample_still_fails(monkeypatch):
    for name, verdict in YES_NO.items():
        real = getattr(suite, verdict)
        monkeypatch.setattr(suite, verdict, lambda *a, _real=real: not _real(*a))
        _, anchor, fn, gate = _family(name)
        result = run_check(name, anchor, lambda fn=fn: fn(AlgebraShape([3]), 0, 4), gate)
        assert result.status == "FAIL" and result.max_residual is None, name
        assert result.counterexample["sample"] >= 0, name
    failed = run_check("f", "a", lambda: (None, {"sample": 0}), 1.0)
    assert failed.status == "FAIL" and failed.max_residual is None


def test_a_failing_map_family_reports_no_residual(monkeypatch):
    # a shear that keeps orthogonality fails the family by its witness
    monkeypatch.setattr(suite, "preserves_orthogonality", lambda *a: (True, None))
    _, anchor, fn, gate = _family("lattice-maps")
    assert gate == pl.CHECK_TOL
    result = run_check("lattice-maps", anchor, lambda: fn(AlgebraShape([3]), 0, 8), gate)
    assert result.status == "FAIL" and result.max_residual is None
    assert result.counterexample == {"check": "shear-map-should-break-orthogonality"}


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(pl.__path__):
        mod = importlib.import_module(f"projlat.{info.name}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"projlat.{info.name}.__all__ lists {name}"
    for name in pl.__all__:
        assert hasattr(pl, name), name


def test_suite_binds_the_map_constructors():
    # tooling wraps the maps verify_suite builds by patching these names
    for name in ("from_conjugation", "from_semilinear", "from_ring_iso"):
        assert getattr(suite, name) is getattr(pl, name)


def test_no_public_function_ignores_a_parameter():
    """Every parameter of a public function, or of a method of a public
    class, is read somewhere in its body: a knob that changes nothing
    is not offered."""
    ignored = []
    for path in sorted(Path(pl.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        defs = [("", node) for node in tree.body]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                defs += [(f"{cls.name}.", node) for node in cls.body]
        for owner, fn in defs:
            if not isinstance(fn, ast.FunctionDef) or (owner + fn.name).startswith("_"):
                continue
            a = fn.args
            params = [p for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
            read = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            ignored += [
                f"{path.name}: {owner}{fn.name}({p.arg})"
                for p in params
                if p.arg not in read and p.arg not in ("self", "cls")
            ]
    assert ignored == []


def test_no_module_imports_an_unread_name():
    """Every name a module imports is read in it or re-exported through
    its __all__: an import left behind by deleted code is deleted too."""
    unread = []
    for path in sorted(Path(pl.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported = set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read and name not in exported:
                        unread.append(f"{path.name}: {name}")
    assert unread == []
