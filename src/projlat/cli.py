"""Command line front end.

Subcommands:
  gen            write a seeded random instance (projection pair, lattice
                 map, or ring isomorphism) as JSON
  halmos         two-projection canonical form of a stored pair
  coordinatize   run the lattice-to-ring pipeline on a stored lattice map
  dye            orthogonality-preserving extension with certificate
  factor         inner factorization of a stored ring isomorphism
  verify-suite   run every property family and report

Exit codes: 0 all checks pass, 1 a check failed, 2 input or usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .core import (
    AlgebraShape,
    Element,
    cond,
    distance,
)
from .coordinatize import coordinatize
from .errors import OrthogonalityNotPreserved, ProjlatError
from .halmos import halmos_decompose, reconstruct
from .maps import ConjugationRingIso, from_conjugation
from .report import CheckResult, Report, run_check
from .ringiso import dye_extension, inner_factor
from .sampling import random_element, random_invertible, random_projection, rng_from
from .serialize import (
    element_to_obj,
    frame_to_obj,
    halmos_to_obj,
    load_json,
    map_from_obj,
    map_to_obj,
    pair_from_obj,
    pair_to_obj,
    projection_to_obj,
    ring_iso_from_obj,
    ring_iso_to_obj,
    save_json,
)
from .suite import _FAMILIES, verify_suite

__all__ = ["main"]


class _InputError(Exception):
    pass


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("PROJLAT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise _InputError(f"PROJLAT_SEED is not an integer: {env!r}") from None
    return 0


def _family(name: str) -> tuple[str, float | None]:
    """Anchor and gate of the verify-suite family called name, so that a
    command and the suite grade one property alike (a yes/no family has
    no gate)."""
    return next((anchor, gate) for fam, anchor, _, gate in _FAMILIES if fam == name)


def _parse_shape(text: str) -> AlgebraShape:
    try:
        return AlgebraShape.parse(text)
    except ValueError as exc:
        raise _InputError(str(exc)) from None


def _load(path: str, loader):
    try:
        return loader(load_json(path))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise _InputError(f"{path}: {exc}") from exc
    except ProjlatError as exc:
        raise _InputError(f"{path}: {type(exc).__name__}: {exc}") from exc


def _emit(report: Report, args) -> int:
    obj = report.to_obj()
    if args.out:
        save_json(obj, args.out)
    if args.json:
        print(report.to_json())
    else:
        for c in report.checks:
            res = "-" if c.max_residual is None else f"{c.max_residual:.3e}"
            print(f"{c.status:<22} {c.name:<26} residual={res:<11} ({c.seconds:.3g}s)")
        print(f"status: {obj['status']}")
    if not report.passed:
        first = report.first_failure()
        if first is not None:
            print(f"first failing check: {first.name}", file=sys.stderr)
        return 1
    return 0


def _cmd_gen(args) -> int:
    shape = _parse_shape(args.shape)
    seed = _resolve_seed(args)
    rng = rng_from(seed)
    if args.kind == "projection-pair":
        obj = pair_to_obj(random_projection(shape, rng), random_projection(shape, rng))
    elif args.kind == "lattice-map":
        t = random_invertible(shape, rng, cond_max=100.0)
        obj = map_to_obj(from_conjugation(t))
    elif args.kind == "ring-iso":
        t = random_invertible(shape, rng, cond_max=100.0)
        obj = ring_iso_to_obj(t, "id" if seed % 2 == 0 else "conj")
    else:  # argparse choices guard this
        raise _InputError(f"unknown kind {args.kind!r}")
    if args.out:
        save_json(obj, args.out)
    else:
        print(json.dumps(obj, indent=2))
    return 0


def _cmd_halmos(args) -> int:
    p, q = _load(args.input, pair_from_obj)
    report = Report(
        command="halmos",
        shape=list(p.shape.blocks),
        seed=_resolve_seed(args),
        samples=1,
    )
    dec_holder = {}

    def body():
        dec = halmos_decompose(p, q)
        dec_holder["dec"] = dec
        p2, q2 = reconstruct(dec)
        return max(distance(p, p2), distance(q, q2)), None

    anchor, gate = _family("halmos-roundtrip")
    report.checks.append(run_check("halmos-roundtrip", anchor, body, gate))
    if "dec" in dec_holder:
        report.extra["decomposition"] = halmos_to_obj(dec_holder["dec"])
    return _emit(report, args)


def _cmd_coordinatize(args) -> int:
    phi = _load(args.input, map_from_obj)
    seed = _resolve_seed(args)
    samples = args.samples if args.samples is not None else 8
    report = Report(
        command="coordinatize",
        shape=list(phi.source.blocks),
        seed=seed,
        samples=samples,
    )
    scale = 1.0
    prov = phi.provenance
    if isinstance(prov, ConjugationRingIso) and all(s == "id" for s in prov.sigma):
        scale = max(1.0, cond(prov.T))
    holder = {}

    def body():
        result = coordinatize(phi, samples=samples, seed=seed)
        holder["result"] = result
        residuals = (
            float(v)
            for k, v in result.diagnostics.items()
            if k not in ("seed", "samples")
        )
        return max(residuals) / scale, None

    anchor, gate = _family("coordinatize-conjugation")
    report.checks.append(run_check("coordinatize", anchor, body, gate))
    if "result" in holder:
        result = holder["result"]
        rng = rng_from(seed)
        probes = [Element.identity(phi.source)] + [
            random_element(phi.source, rng, norm_bound=2.0) for _ in range(samples)
        ]
        report.extra["result"] = {
            "target_frame": frame_to_obj(result.target_frame),
            "normalizers": [element_to_obj(s) for s in result.normalizers],
            "diagnostics": dict(result.diagnostics),
            "probes": [
                {"input": element_to_obj(x), "output": element_to_obj(result.Psi(x))}
                for x in probes
            ],
        }
    return _emit(report, args)


def _cmd_dye(args) -> int:
    phi = _load(args.input, map_from_obj)
    seed = _resolve_seed(args)
    samples = args.samples if args.samples is not None else 12
    report = Report(command="dye", shape=list(phi.source.blocks), seed=seed, samples=samples)
    anchor, gate = _family("dye")
    t0 = time.perf_counter()
    try:
        _, cert = dye_extension(phi, samples=samples, seed=seed)
    except OrthogonalityNotPreserved as exc:
        report.checks.append(
            CheckResult(
                "orthogonality-preservation",
                anchor,
                "FAIL",
                None,
                time.perf_counter() - t0,
                exc.witness,
            )
        )
        return _emit(report, args)
    # timings go to the checks, so the certificate is the same on every run
    for stage in cert.pop("stages"):
        report.checks.append(
            CheckResult(stage["name"], anchor, "PASS", None, stage["seconds"])
        )
    entries = []
    for entry in cert["checks"]:
        entry = dict(entry)
        seconds = entry.pop("seconds")
        res = float(entry["max_residual"])
        status = "PASS" if res <= gate else "FAIL"
        report.checks.append(CheckResult(entry["name"], anchor, status, res, seconds))
        entries.append(entry)
    report.extra["certificate"] = {**cert, "checks": entries}
    return _emit(report, args)


def _cmd_factor(args) -> int:
    psi = _load(args.input, ring_iso_from_obj)
    seed = _resolve_seed(args)
    samples = args.samples if args.samples is not None else 16
    shape = psi.source
    report = Report(command="factor", shape=list(shape.blocks), seed=seed, samples=samples)
    holder = {}

    def body():
        fac = inner_factor(psi, shape, samples=samples, seed=seed)
        holder["fac"] = fac
        return fac.residual / max(1.0, cond(fac.y)), None

    anchor, gate = _family("inner-factor")
    report.checks.append(run_check("inner-factor", anchor, body, gate))
    if "fac" in holder:
        fac = holder["fac"]
        report.extra["factorization"] = {
            "q": projection_to_obj(fac.q),
            "y": element_to_obj(fac.y),
            "psi0_kind": ["linear" if s == "id" else "conjugate" for s in fac.iso.sigma],
            "block_map": list(fac.iso.block_map),
            "residual": float(fac.residual),
        }
    return _emit(report, args)


def _cmd_verify_suite(args) -> int:
    shape = _parse_shape(args.shape)
    seed = _resolve_seed(args)
    samples = args.samples if args.samples is not None else 25
    report = verify_suite(shape, seed=seed, samples=samples)
    return _emit(report, args)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--samples", type=int, default=None)
    sub.add_argument("--out", type=str, default=None)
    sub.add_argument("--json", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projlat",
        description="projection lattices, two-projection canonical forms, "
        "and lattice-to-ring coordinatization at desk scale",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="write a seeded random instance")
    gen.add_argument(
        "kind", choices=["projection-pair", "lattice-map", "ring-iso"]
    )
    gen.add_argument("--shape", type=str, default="3")
    _add_common(gen)
    gen.set_defaults(fn=_cmd_gen)

    hal = subs.add_parser("halmos", help="two-projection canonical form")
    hal.add_argument("input", help="projection-pair JSON file")
    _add_common(hal)
    hal.set_defaults(fn=_cmd_halmos)

    coo = subs.add_parser("coordinatize", help="lattice map to ring isomorphism")
    coo.add_argument("input", help="lattice-map JSON file")
    _add_common(coo)
    coo.set_defaults(fn=_cmd_coordinatize)

    dye = subs.add_parser("dye", help="orthogonality-preserving extension")
    dye.add_argument("input", help="lattice-map JSON file")
    _add_common(dye)
    dye.set_defaults(fn=_cmd_dye)

    fac = subs.add_parser("factor", help="inner factorization of a ring iso")
    fac.add_argument("input", help="ring-iso JSON file")
    _add_common(fac)
    fac.set_defaults(fn=_cmd_factor)

    ver = subs.add_parser("verify-suite", help="run every property family")
    ver.add_argument("--shape", type=str, default="3")
    _add_common(ver)
    ver.set_defaults(fn=_cmd_verify_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ProjlatError as exc:
        print(f"check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
