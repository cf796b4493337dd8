"""projlat benchmark: certified-reconstruction latency and throughput.

Run from the repository root:

    python3 bench/run.py [--workload single-block|many-blocks|suite|all]
                         [--seed N] [--seconds S] [--trace 0|1]

Each workload is a closed loop with one client that repeats a fixed
cycle of operations, whole cycles only, for about --seconds.
Every output is checked against ground truth.  A fixed reference kernel
runs between operations, and every end-to-end timing is scaled to the
host speed at which that kernel takes REF_NOMINAL_S.  --trace 0 reports
the end-to-end metrics; --trace 1 runs one untraced cycle, then traced
cycles, and reports the per-layer metrics.  The last line of standard
output is one JSON object; the exit code is 1 when a check failed or a
cycle did not repeat the first one exactly, 2 when the library source
is missing.
"""

from __future__ import annotations

import os

# BLAS must be pinned before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
SETUP_REPEATS = 3  # this process plus two fresh ones
TAIL_BEYOND = 10
# A shared host's speed drifts by +-20% over tens of seconds, so 30 s runs
# of the same code differ by that much.  The reference kernel, run after
# every operation for about REF_SHARE of its time, tracks the drift: an
# operation's times are scaled by REF_NOMINAL_S over the mean kernel time
# in the REF_WINDOW gaps on each side of it.  REF_NOMINAL_S is about the
# kernel's mean time during runs on the 2-vCPU 2.1 GHz Xeon the benchmark
# was tuned on, so scaled times read as typical times on that host.
REF_NOMINAL_S = 0.008
REF_WINDOW = 2
REF_SHARE = 0.02
SETUP_REF_RUNS = 10

# The layers' span metrics: (span name, statistics reported).
SPAN_METRICS = (
    ("maps.apply", ("calls", "us_per_call", "self_ms")),
    ("graphs.graph_projection", ("calls", "us_per_call")),
    ("graphs.recover_operator", ("calls", "us_per_call")),
    ("coordinatize.normalize_map", ("self_ms",)),
    ("lattice.meet", ("calls", "us_per_call")),
    ("lattice.join", ("calls", "us_per_call")),
    ("lattice.canonicalize", ("calls", "us_per_call")),
    ("core.Element.mul", ("us_per_call",)),
    ("core.left_support", ("calls",)),
    ("core.invert", ("calls",)),
    ("core.distance", ("calls",)),
    ("halmos.halmos_decompose", ("calls",)),
    ("halmos.ls_orthogonal", ("calls",)),
    ("halmos.orthogonalizer", ("calls",)),
    ("maps.preserves_orthogonality", ("self_ms",)),
    ("ringiso.dye_extension", ("self_ms",)),
    ("ringiso.inner_factor", ("self_ms",)),
)
COUNTERS = ("core.Element.new", "linalg.svd", "linalg.qr", "linalg.eigh", "linalg.other")
UNITS = {"calls": "count", "us_per_call": "us", "self_ms": "ms"}
# kind -> (metric name stem, unit, scale from seconds).  Only the p50s are
# bounded metrics; tails are printed, since on a shared 2-core box they
# spread too far between runs to gate on.
LATENCIES = {
    "coordinatize": ("coordinatize", "ms", 1e3),
    "psi": ("psi_eval", "us", 1e6),
    "dye": ("dye", "ms", 1e3),
    "inner": ("inner_factor", "ms", 1e3),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=("single-block", "many-blocks", "suite", "all"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "projlat" / "__init__.py").is_file():
        print(f"error: library source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import numpy as np
    import projlat

    if Path(projlat.__file__).resolve().parent != SRC / "projlat":
        print(f"error: imported projlat from {projlat.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads as wl

    import_s = perf_counter() - t0
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)

    if args.setup_only:
        t0 = perf_counter()
        _warm_up(wl, wl.make_inputs(args.workload, args.seed))
        print(json.dumps({"setup_s": _scaled_setup(wl, import_s + perf_counter() - t0)}))
        return 0

    _print_machine(np)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        res = run_workload(wl, name, args, import_s)
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_workload(wl, name: str, args, import_s: float) -> dict:
    t0 = perf_counter()
    inputs = wl.make_inputs(name, args.seed)
    _warm_up(wl, inputs)
    setups = [_scaled_setup(wl, import_s + perf_counter() - t0)]
    if not args.trace:
        setups += [_child_setup(name, args.seed) for _ in range(SETUP_REPEATS - 1)]

    tally = Tally()
    if args.trace:
        plain = run_cycles(wl.build_cycle(inputs), wl.Recorder(), tally, 0.0, wl.reference_kernel)
        untraced_ops = tally.attempted
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            rec = wl.Recorder(tracer)
            remaining = args.seconds - sum(plain["durations"])
            out = run_cycles(wl.build_cycle(inputs, tracer.wrap_map), rec, tally, remaining, wl.reference_kernel, tracer)
        finally:
            tracer.uninstall()
        metrics = layer_metrics(tracer, tally.attempted - untraced_ops, out, plain)
        _save_trace(tracer, name, args.seed, metrics, rec, out)
    else:
        rec = wl.Recorder()
        with wl.suite_timers(rec):
            out = run_cycles(wl.build_cycle(inputs), rec, tally, args.seconds, wl.reference_kernel)
        metrics = end_to_end_metrics(rec, tally, out, setups)

    _print_workload(name, args, tally, out, metrics, rec)
    ok = tally.failed == 0 and out["repeatable"]
    return {"correct": ok, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.completed = 0
        self.failures: Counter = Counter()

    def run(self, op, rec) -> None:
        try:
            result = op.fn(rec)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, the run goes on
            self.attempted += 1
            self.failed += 1
            self.failures[f"{op.kind}: {type(exc).__name__}: {exc}"] += 1
            return
        attempted, bad = result or (1, [])
        self.attempted += attempted
        self.completed += attempted - len(bad)
        self.failed += len(bad)
        for check in bad:
            self.failures[f"{op.kind}: check {check} failed"] += 1


def run_cycles(cycle, rec, tally: Tally, seconds: float, reference, tracer=None) -> dict:
    """Whole cycles, as many as fit `seconds` best (at least one).

    Each cycle must repeat the first exactly: the same residuals, the
    same suite reports up to timings, and under the tracer the same
    call counts.  `reference` runs once before the first operation and,
    after each, as often as takes about REF_SHARE of the operation's
    time; `refs` holds the kernel's times in each of these gaps.
    """
    durations, op_seconds, refs = [], [], [[reference()]]
    first, repeatable, worst = None, True, 0.0
    t_start = perf_counter()
    while True:
        before = tracer.snapshot() if tracer else {}
        signature = []
        for slot, op in enumerate(cycle):
            rec.begin(slot)
            t0 = perf_counter()
            tally.run(op, rec)
            op_seconds.append(perf_counter() - t0)
            repeats = max(1, round(REF_SHARE * op_seconds[-1] / REF_NOMINAL_S))
            refs.append([reference() for _ in range(repeats)])
            signature.append((tuple(rec.ratios), tuple(rec.reports)))
            worst = max([worst, *rec.ratios])
        durations.append(sum(op_seconds[-len(cycle):]))
        if tracer:
            signature.append({k: v - before.get(k, 0) for k, v in tracer.snapshot().items()})
        if first is None:
            first = signature
        repeatable &= signature == first
        # stop where the run ends nearest to `seconds`
        if perf_counter() - t_start + statistics.fmean(durations) / 2 >= seconds:
            break
    fingerprint = hashlib.sha256(repr(first).encode()).hexdigest()[:16]
    return {
        "durations": durations,
        "op_seconds": op_seconds,
        "refs": refs,
        "repeatable": repeatable,
        "fingerprint": fingerprint,
        "max_ratio": worst,
        "ops_per_cycle": len(cycle),
    }


def speed_factors(refs: list[list[float]]) -> list[float]:
    """Per operation, REF_NOMINAL_S over the mean reference time around it.

    refs[i] ran just before operation i and refs[i + 1] just after it.
    The mean, not the median: the host switches between a fast and a
    slow state many times within one operation, which therefore takes
    the time-average speed.
    """
    return [
        REF_NOMINAL_S / statistics.fmean(t for gap in refs[max(0, i + 1 - REF_WINDOW) : i + 1 + REF_WINDOW] for t in gap)
        for i in range(len(refs) - 1)
    ]


def scaled_passes(out: dict) -> tuple[list[float], list[float]]:
    """Each operation's seconds and each whole cycle's, scaled."""
    ops = [t * f for t, f in zip(out["op_seconds"], speed_factors(out["refs"]))]
    n = out["ops_per_cycle"]
    return ops, [sum(ops[i : i + n]) for i in range(0, len(ops), n)]


def scaled_samples(samples: dict, factors: list[float]) -> dict:
    """Each timing class's seconds, scaled by its operation's factor."""
    return {key: [t * factors[op] for op, t in v] for key, v in samples.items()}


def latency(samples: dict, kind: str, scale: float) -> tuple[float, float, float, int]:
    """(p50, tail, tail level, n) of one kind's calls, scaled.

    p50 is the geometric mean over timing classes of each class's
    median.  The tail is p50 times the pooled ratio of each call to its
    class median at the highest percentile with TAIL_BEYOND calls
    beyond it.  Classes keep different inputs from mixing into one
    bimodal sample.
    """
    classes = [v for k, v in samples.items() if k[0] == kind]
    if not classes:
        return 0.0, 0.0, 0.0, 0
    medians = [statistics.median(v) for v in classes]
    p50 = math.exp(statistics.fmean(math.log(m) for m in medians)) * scale
    ratios = sorted(t / m for v, m in zip(classes, medians) for t in v)
    n = len(ratios)
    idx = max(0, n - 1 - TAIL_BEYOND)
    return p50, p50 * ratios[idx], 100.0 * (idx + 1) / n if n > TAIL_BEYOND else 100.0, n


def end_to_end_metrics(rec, tally: Tally, out: dict, setups: list[float]) -> dict:
    """Every timing scaled to the nominal host speed (setup_s already is)."""
    ops, passes = scaled_passes(out)
    samples = scaled_samples(rec.samples, speed_factors(out["refs"]))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (tally.completed / sum(ops), "1/s"),
        "pass_s": (statistics.median(passes), "s"),
    }
    for kind, (stem, unit, scale) in LATENCIES.items():
        metrics[f"{stem}_p50_{unit}"] = (latency(samples, kind, scale)[0], unit)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def layer_metrics(tracer, ops: int, out: dict, plain: dict) -> dict:
    """Per-layer metrics of the traced cycles, which attempted `ops` operations."""
    metrics = {}
    for span, stats in SPAN_METRICS:
        calls, total, self_s = tracer.stats(span)
        values = {
            "calls": calls / ops,
            "us_per_call": 1e6 * total / calls if calls else 0.0,
            "self_ms": 1e3 * self_s / ops,
        }
        for stat in stats:
            metrics[f"{span}.{stat}"] = (values[stat], UNITS[stat])
    for key in COUNTERS:
        metrics[f"{key}.calls"] = (tracer.counts[key] / ops, "count")
    sampling_self = sum(s for n, s in zip(tracer.names, tracer.self_time) if n.startswith("sampling."))
    metrics["sampling.self_ms"] = (1e3 * sampling_self / ops, "ms")
    traced = statistics.median(scaled_passes(out)[1])
    metrics["trace.overhead_frac"] = (traced / statistics.median(scaled_passes(plain)[1]) - 1.0, "frac")
    metrics["check.max_residual_ratio"] = (out["max_ratio"], "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def _warm_up(wl, inputs) -> None:
    """One operation of each kind and the reference kernel, so lazy set-up
    is done before timing."""
    wl.reference_kernel()
    seen, tally = set(), Tally()
    for op in wl.build_cycle(inputs):
        if op.kind not in seen:
            seen.add(op.kind)
            tally.run(op, wl.Recorder())  # a failure here recurs, and counts, in the timed cycles


def _scaled_setup(wl, seconds: float) -> float:
    """Set-up seconds scaled, like every timing, by the mean of
    SETUP_REF_RUNS reference kernel runs right after the set-up."""
    return seconds * REF_NOMINAL_S / statistics.fmean(wl.reference_kernel() for _ in range(SETUP_REF_RUNS))


def _child_setup(name: str, seed: int) -> float:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _save_trace(tracer, name: str, seed: int, metrics: dict, rec, out: dict) -> None:
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    summary = {
        "workload": name,
        "seed": seed,
        "metrics": metrics,
        "fingerprint": out["fingerprint"],
        "suite_family_s_per_pass": {k: v / len(out["durations"]) for k, v in rec.family_seconds.items()},
    }
    tracer.save(str(out_dir / f"trace-{name}-seed{seed}"), summary)


def _print_machine(np) -> None:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/self/status", encoding="ascii") as fh:
        threads = next(line.split()[1] for line in fh if line.startswith("Threads:"))
    print(f"machine: python {platform.python_version()}, numpy {np.__version__}, "
          f"blas {blas.get('name')} {blas.get('version')}, nproc {os.cpu_count()}, "
          f"affinity {len(os.sched_getaffinity(0))}, threads {threads}, "
          f"loadavg {' '.join(f'{x:.2f}' for x in os.getloadavg())}")
    print("env: " + " ".join(f"{v}={os.environ[v]}" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")))


def _print_workload(name: str, args, tally: Tally, out: dict, metrics: dict, rec) -> None:
    print(f"== {name}  seed {args.seed}  trace {args.trace}  cycles {len(out['durations'])} "
          f"x {out['ops_per_cycle']} ops")
    for key, m in metrics.items():
        print(f"  {key:40s} {m['value']:14.6g} {m['unit']}")
    refs = [t for gap in out["refs"] for t in gap]
    print(f"  reference kernel median {1e3 * statistics.median(refs):.3g} ms (nominal {1e3 * REF_NOMINAL_S:.3g} ms), "
          f"quartiles {' '.join(f'{1e3 * q:.3g}' for q in statistics.quantiles(refs, n=4))} ms over {len(refs)} runs")
    if not args.trace:
        print(f"  unscaled ops_per_s {tally.completed / sum(out['op_seconds']):.6g}")
        samples = scaled_samples(rec.samples, speed_factors(out["refs"]))
        for kind, (stem, unit, scale) in LATENCIES.items():
            p50, tail, level, n = latency(samples, kind, scale)
            name = f"{stem}_tail_{unit}"
            print(f"  {name:40s} {tail:14.6g} {unit}  (p{level:.1f} over n={n} calls)")
    for fam, secs in rec.family_seconds.items():
        print(f"  suite.{fam}.s {secs / len(out['durations']):.6g} s (mean per pass)")
    print(f"  failed_frac {tally.failed / max(1, tally.attempted):.6g} ({tally.failed}/{tally.attempted})"
          f"  max_residual_ratio {out['max_ratio']:.6g}")
    print(f"  cycles repeat exactly: {out['repeatable']}  fingerprint {out['fingerprint']}")
    for failure, count in tally.failures.items():
        print(f"  FAILED x{count}: {failure}")


if __name__ == "__main__":
    sys.exit(main())
