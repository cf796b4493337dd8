"""Workload inputs, operation cycles and the ground-truth checks.

Every input is drawn once from the benchmark seed and reused in a fixed
cycle, so every run of a workload executes the same mix.  An operation
is one library call plus the checks of its output against ground truth
computed here with plain numpy; a check that fails raises CheckFailed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable

import numpy as np
import projlat as pl
from projlat import suite as pl_suite

WORKLOADS = ("single-block", "many-blocks", "suite")
SHAPES = {
    "single-block": ([12], [24]),
    "many-blocks": ([3, 3, 3, 3], [3, 3, 3, 3, 3, 3]),
}
SUITE_SHAPES = ([3], [6], [2, 3])
SUITE_SAMPLES = 25
PROBES = 3
COND_MAX = 100.0

# Gates, taken from the acceptance criteria and the library's own checks.
GATE_PSI = 1e-6  # ||Psi(x) - T sigma(x) T^-1|| / cond(T), criterion 05
GATE_EXACT = 1e-8  # unitary or permutation ground truth, Dye certificate
GATE_SLOT = 1e-5  # coordinatize's slot agreement
GATE_INTERTWINING = 1e-3  # coordinatize's support intertwining
GATE_WITNESS = 1e-6  # a rejection's witness residual must exceed this
GATE_FACTOR = 1e-7  # inner_factor residual / cond(y), criterion 09
GATE_COLLINEAR = 1e-8  # 1 - |<y_b, T_b>| / (|y_b| |T_b|), criterion 09
SUITE_GATES = {name: gate for name, _, _, gate in pl_suite._FAMILIES}


class CheckFailed(Exception):
    """An output disagrees with ground truth beyond its gate."""


@dataclasses.dataclass(frozen=True)
class Op:
    kind: str
    fn: Callable[["Recorder"], tuple[int, list[str]] | None]


class Recorder:
    """What one run measures: latency samples by timing class, residual
    ratios of the current operation, suite reports and family times.

    A timing class is (kind, position of the operation in the cycle,
    position of the call within the operation), so each class repeats
    one computation on one input.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        # per timing class: (index of the operation in the run, seconds)
        self.samples: dict[tuple, list[tuple[int, float]]] = defaultdict(list)
        self.family_seconds: Counter = Counter()
        self.op = -1
        self.slot = 0
        self.ratios: list[float] = []
        self.reports: list[str] = []
        self._calls: Counter = Counter()

    def begin(self, slot: int) -> None:
        self.op += 1
        self.slot = slot
        self.ratios = []
        self.reports = []
        self._calls.clear()

    def timed(self, kind: str, fn):
        """fn, timing each call that returns into the kind's samples."""

        def call(*args, **kwargs):
            key = (kind, self.slot, self._calls[kind])
            self._calls[kind] += 1
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            self.samples[key].append((self.op, perf_counter() - t0))
            return out

        return call

    def call(self, kind: str, fn, *args, **kwargs):
        """One timed library call; the tracer, if any, is active only here."""
        if self.tracer is not None:
            return self.timed(kind, self.tracer.span)(f"op.{kind}", fn, *args, **kwargs)
        return self.timed(kind, fn)(*args, **kwargs)

    def check(self, residual: float, gate: float) -> None:
        """Record residual / gate and fail the operation above 1."""
        ratio = float(residual) / gate
        self.ratios.append(ratio)
        if not ratio <= 1.0:
            raise CheckFailed(f"residual {residual:.3e} exceeds gate {gate:.0e}")


# The reference kernel: blockwise products, spectral norms and QR on six
# fixed 3x3 complex blocks, the shape of the library's own inner loops.
# It calls no projlat code and its blocks come from a fixed generator,
# so it is the same work on every seed and every commit.
_REF_RNG = np.random.default_rng(20060895)
_REF_BLOCKS = [_REF_RNG.standard_normal((3, 3)) + 1j * _REF_RNG.standard_normal((3, 3)) for _ in range(6)]
_REF_EYE = np.eye(3)
# Bound now, so the tracer's wrappers on numpy.linalg never slow the kernel.
_svd, _qr = np.linalg.svd, np.linalg.qr
REF_REPEATS = 60


def reference_kernel() -> float:
    """Seconds the reference kernel takes now."""
    t0 = perf_counter()
    for _ in range(REF_REPEATS):
        prods = [a @ b.conj().T for a, b in zip(_REF_BLOCKS, _REF_BLOCKS[1:])]
        sum(float(_svd(p, compute_uv=False)[0]) for p in prods)
        for p in prods[:2]:
            _qr(_REF_EYE - p)
    return perf_counter() - t0


@dataclasses.dataclass(frozen=True)
class Inputs:
    workload: str
    cases: tuple  # per shape: a dict of inputs and ground truth
    suite_seeds: tuple[int, ...] = ()


def _dist(x: pl.Element, blocks) -> float:
    return max(float(np.linalg.norm(a - b, 2)) for a, b in zip(x.data, blocks))


def _reverse_blocks(x: pl.Element) -> pl.Element:
    return pl.Element(x.shape, x.data[::-1])


def make_inputs(workload: str, seed: int) -> Inputs:
    rng = np.random.default_rng(seed)
    if workload == "suite":
        seeds = tuple(int(s) for s in rng.integers(0, 2**20, size=len(SUITE_SHAPES)))
        return Inputs(workload, (), seeds)
    cases = []
    for blocks in SHAPES[workload]:
        shape = pl.AlgebraShape(blocks)
        t = pl.random_invertible(shape, rng, cond_max=COND_MAX)
        u = pl.random_unitary(shape, rng)
        probes = [pl.random_element(shape, rng) for _ in range(PROBES)]
        t_inv = [np.linalg.inv(b) for b in t.data]
        if min(np.linalg.norm(b.conj().T @ b - np.eye(len(b)), 2) for b in t.data) <= 1e-3:
            raise ValueError("drawn conjugation is too close to unitary to be rejected")
        truth = {
            "conj": [[tb @ xb @ ib for tb, xb, ib in zip(t.data, x.data, t_inv)] for x in probes],
            "semi": [[tb @ xb.conj() @ ib for tb, xb, ib in zip(t.data, x.data, t_inv)] for x in probes],
            "swap": [list(x.data[::-1]) for x in probes],
        }
        cases.append(
            {
                "shape": shape,
                "T": t,
                "cond_T": max(float(np.linalg.cond(b)) for b in t.data),
                "probes": probes,
                "truth": truth,
                "unitary_probe": (probes[0], [ub @ xb @ ub.conj().T for ub, xb in zip(u.data, probes[0].data)]),
                "maps": {
                    "conj": pl.from_conjugation(t),
                    "semi": pl.from_semilinear(t, "conj"),
                    "swap": pl.from_ring_iso(_reverse_blocks, shape, shape, psi_inverse=_reverse_blocks),
                    "unitary": pl.from_conjugation(u),
                },
                "isos": {s: pl.ConjugationRingIso(t, s) for s in ("id", "conj")},
                "seeds": [int(s) for s in rng.integers(0, 2**20, size=8)],
            }
        )
    return Inputs(workload, tuple(cases))


def build_cycle(inputs: Inputs, wrap_map=lambda phi: phi) -> list[Op]:
    """The workload's fixed cycle of operations.

    wrap_map is applied to every lattice map the benchmark supplies, so
    the traced run can count and time its applications.
    """
    if inputs.workload == "suite":
        return [_suite_op(pl.AlgebraShape(b), s) for b, s in zip(SUITE_SHAPES, inputs.suite_seeds)]
    cycle = []
    labels = ("conj", "semi", "swap") if inputs.workload == "many-blocks" else ("conj", "semi")
    for case in inputs.cases:
        maps = {k: wrap_map(phi) for k, phi in case["maps"].items()}
        seeds = iter(case["seeds"])
        scale = max(1.0, case["cond_T"])
        for label in labels:
            gate_scale = (GATE_EXACT, 1.0) if label == "swap" else (GATE_PSI, scale)
            cycle.append(_coordinatize_op(maps[label], next(seeds), case["probes"], case["truth"][label], *gate_scale))
        cycle.append(_dye_op(maps["unitary"], next(seeds), *case["unitary_probe"]))
        cycle.append(_reject_op(maps["conj"], next(seeds)))
        for sigma in ("id", "conj"):
            cycle.append(_inner_op(case["isos"][sigma], case["shape"], case["T"], next(seeds)))
    return cycle


def _coordinatize_op(phi, seed, probes, truth, gate, scale) -> Op:
    def fn(rec: Recorder):
        result = rec.call("coordinatize", pl.coordinatize, phi, seed=seed)
        diag = result.diagnostics
        rec.check(diag["slot_agreement"], GATE_SLOT)
        rec.check(max(diag["support_intertwining"], diag["projection_intertwining"]), GATE_INTERTWINING)
        for x, y in zip(probes, truth):
            rec.check(_dist(rec.call("psi", result.Psi, x), y) / scale, gate)

    return Op("coordinatize", fn)


def _dye_op(phi, seed, probe, truth) -> Op:
    def fn(rec: Recorder):
        psi, cert = rec.call("dye", pl.dye_extension, phi, seed=seed)
        for c in cert["checks"]:
            rec.check(c["max_residual"], GATE_EXACT)
        rec.check(_dist(psi(probe), truth), GATE_EXACT)

    return Op("dye", fn)


def _reject_op(phi, seed) -> Op:
    def fn(rec: Recorder):
        try:
            rec.call("reject", pl.dye_extension, phi, seed=seed)
        except pl.OrthogonalityNotPreserved as exc:
            witness = exc.witness or {}
            # the witness must exceed its gate, so the ratio is inverted
            rec.check(GATE_WITNESS, witness.get("residual", 0.0))
            return
        raise CheckFailed("a non-unitary conjugation was extended to a *-isomorphism")

    return Op("reject", fn)


def _inner_op(psi, shape, t, seed) -> Op:
    def fn(rec: Recorder):
        fac = rec.call("inner", pl.inner_factor, psi, shape, seed=seed)
        cond_y = max(float(np.linalg.cond(b)) for b in fac.y.data)
        rec.check(fac.residual / max(1.0, cond_y), GATE_FACTOR)
        for yb, tb in zip(fac.y.data, t.data):
            overlap = abs(np.vdot(yb, tb)) / (np.linalg.norm(yb) * np.linalg.norm(tb))
            rec.check(max(0.0, 1.0 - overlap), GATE_COLLINEAR)

    return Op("inner", fn)


def _suite_op(shape, seed) -> Op:
    def fn(rec: Recorder):
        report = rec.call("suite", pl.verify_suite, shape, seed=seed, samples=SUITE_SAMPLES)
        obj = report.to_obj()
        obj.pop("seconds")
        for check in obj["checks"]:
            check.pop("seconds")
        rec.reports.append(json.dumps(obj, sort_keys=True))
        for c in report.checks:
            rec.family_seconds[c.name] += c.seconds
            if c.max_residual is not None:
                rec.ratios.append(c.max_residual / SUITE_GATES[c.name])
        return len(report.checks), [c.name for c in report.checks if not c.passed]

    return Op("suite", fn)


@contextlib.contextmanager
def suite_timers(rec: Recorder):
    """Time the calls verify_suite makes to the four timed kinds.

    Clock reads only, no spans or counters: verify_suite makes these
    calls itself, so on the suite workload this is the only way to see
    them.  Failing calls are not timed, so the dye samples hold only
    certified extensions, as on the other workloads.
    """
    saved = {name: getattr(pl_suite, name) for name in ("coordinatize", "dye_extension", "inner_factor")}

    def coordinatize_timed(*args, **kwargs):
        result = rec.timed("coordinatize", saved["coordinatize"])(*args, **kwargs)
        return dataclasses.replace(result, Psi=rec.timed("psi", result.Psi))

    pl_suite.coordinatize = coordinatize_timed
    pl_suite.dye_extension = rec.timed("dye", saved["dye_extension"])
    pl_suite.inner_factor = rec.timed("inner", saved["inner_factor"])
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(pl_suite, name, fn)
