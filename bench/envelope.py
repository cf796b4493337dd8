"""Conditioning envelope of coordinatize on [6].

For each target condition number c, conjugate by T = U diag(s) V with
singular values spread geometrically over [c^-1/2, c^1/2], so cond(T)
is c exactly, and record either the worst reconstruction error
||Psi(x) - T x T^-1|| over seeded probes or the name of the error
coordinatize raised.  This runs outside the benchmark's operations, so
a failure here never counts as a failed operation.

    python3 bench/envelope.py [--seed N]
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
import projlat as pl  # noqa: E402

SHAPE = [6]
CONDS = (1e2, 1e4, 1e6, 1e8)
PROBES = 8
GATE = 1e-6  # criterion 05 allows 1e-6 * cond(T)


def envelope(seed: int) -> list[dict]:
    shape = pl.AlgebraShape(SHAPE)
    rows = []
    for c in CONDS:
        rng = np.random.default_rng(seed)
        u, v = pl.random_unitary(shape, rng), pl.random_unitary(shape, rng)
        s = np.geomspace(c**-0.5, c**0.5, SHAPE[0])
        t = pl.Element(shape, [(ub * s) @ vb for ub, vb in zip(u.data, v.data)])
        t_inv = pl.invert(t)
        row = {"cond": c, "measured_cond": pl.cond(t), "gate": GATE * c}
        try:
            result = pl.coordinatize(pl.from_conjugation(t), seed=seed)
        except pl.ProjlatError as exc:
            row["failure"] = f"{type(exc).__name__}: {exc}"
        else:
            probes = [pl.random_element(shape, rng) for _ in range(PROBES)]
            row["error"] = max(pl.distance(result.Psi(x), t * x * t_inv) for x in probes)
        rows.append(row)
    return rows


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="conditioning envelope of coordinatize on [6]")
    ap.add_argument("--seed", type=int, default=1)
    print(json.dumps(envelope(ap.parse_args().seed), indent=1))
