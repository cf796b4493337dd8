"""Span tracer installed from outside the library.

The traced run replaces every public function of the projlat layers,
under every name a projlat module bound it to, with a wrapper that
records a span (name, start, end, parent).  Spans live in flat arrays
and are written once when the run ends.  Element.__init__ and the
LAPACK entry points of numpy.linalg (by factorization family) are
counted, not spanned, because a span per call would swamp the trace.
The tracer records nothing while it is inactive, so the benchmark's
own ground-truth checks never enter the counts.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# Layers whose public functions get spans, in import order.
LAYERS = ("core", "lattice", "halmos", "graphs", "maps", "coordinatize", "ringiso", "sampling", "suite")

# numpy.linalg entry points that run a LAPACK factorization, by family.
# norm, cond, pinv and matrix_rank are left out: they factorize through
# svd, which is counted where they call it.
LINALG = {
    "svd": "svd",
    "qr": "qr",
    "eigh": "eigh",
    "eigvalsh": "eigh",
    "eig": "other",
    "eigvals": "other",
    "inv": "other",
    "solve": "other",
    "lstsq": "other",
    "det": "other",
    "slogdet": "other",
    "cholesky": "other",
}


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._child: list[float] = []
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.counts: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return self._ids[name]

    def run(self, name_id: int, fn, args, kwargs):
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self._child.append(0.0)
        t0 = perf_counter()
        self.span_start.append(t0)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self.span_end[idx] = t1
            self._stack.pop()
            dur = t1 - t0
            self.calls[name_id] += 1
            self.total[name_id] += dur
            self.self_time[name_id] += dur - self._child.pop()
            if self._child:
                self._child[-1] += dur

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a root span; the tracer is active only here."""
        self.active = True
        try:
            return self.run(self._id(name), fn, args, kwargs)
        finally:
            self.active = False

    def wrap(self, name: str, fn):
        name_id = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            return self.run(name_id, fn, args, kwargs)

        return traced

    def counter(self, key: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.active:
                self.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def wrap_map(self, phi):
        """The lattice map the benchmark supplies, with its apply traced."""
        return dataclasses.replace(phi, apply=self.wrap("maps.apply", phi.apply))

    def install(self) -> None:
        """Patch projlat and numpy.linalg in place until uninstall()."""
        from projlat import core, suite

        modules = [m for k, m in sorted(sys.modules.items()) if k == "projlat" or k.startswith("projlat.")]
        for layer in LAYERS:
            mod = sys.modules[f"projlat.{layer}"]
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn):
                    self._rebind(modules, fn, self.wrap(f"{layer}.{name}", fn))
        self._set(core.Element, "__init__", self.counter("core.Element.new", core.Element.__init__))
        self._set(core.Element, "__mul__", self.wrap("core.Element.mul", core.Element.__mul__))
        linalg_modules = [np.linalg, sys.modules["numpy.linalg._linalg"]]
        for name, family in LINALG.items():
            fn = getattr(np.linalg, name)
            self._rebind(linalg_modules, fn, self.counter(f"linalg.{family}", fn))
        # Maps that verify_suite builds itself are the ones it supplies.
        for name in ("from_conjugation", "from_semilinear", "from_ring_iso"):
            make = getattr(suite, name)
            self._set(suite, name, functools.wraps(make)(lambda *a, _make=make, **k: self.wrap_map(_make(*a, **k))))

    def uninstall(self) -> None:
        for obj, name, old in reversed(self._patched):
            setattr(obj, name, old)
        self._patched.clear()

    def _set(self, obj, name: str, new) -> None:
        self._patched.append((obj, name, getattr(obj, name)))
        setattr(obj, name, new)

    def _rebind(self, modules, old, new) -> None:
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is old:
                    self._set(mod, name, new)

    def stats(self, name: str) -> tuple[int, float, float]:
        """(calls, inclusive seconds, self seconds) of one span name."""
        i = self._ids.get(name)
        if i is None:
            return 0, 0.0, 0.0
        return self.calls[i], self.total[i], self.self_time[i]

    def snapshot(self) -> dict[str, int]:
        """Every call count so far, for comparing one cycle with the next."""
        return {**dict(zip(self.names, self.calls)), **self.counts}

    def save(self, path_stem: str, summary: dict) -> None:
        np.savez_compressed(
            path_stem + ".npz",
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
        layers = {
            n: {"calls": c, "total_s": t, "self_s": s}
            for n, c, t, s in zip(self.names, self.calls, self.total, self.self_time)
        }
        with open(path_stem + ".json", "w", encoding="utf-8") as fh:
            json.dump({**summary, "spans": len(self.span_name), "layers": layers, "counts": dict(self.counts)}, fh, indent=1)
            fh.write("\n")
