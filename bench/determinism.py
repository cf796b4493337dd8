"""Check that two traced runs with the same seed agree exactly.

Each workload runs twice for a single traced cycle.  Every count metric
(*.calls), check.max_residual_ratio and the fingerprint of the cycle
(residuals, suite reports without their timings, call counts) must be
identical.  Exits 1 on the first difference.

    python3 bench/determinism.py [--seed N]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("single-block", "many-blocks", "suite")


def traced_run(workload: str, seed: int) -> tuple[dict, str]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run failed with exit code {proc.returncode}\n{proc.stdout}{proc.stderr}")
    fingerprint = next(line.split()[-1] for line in lines if "fingerprint" in line)
    exact = {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items() if k.endswith(".calls") or k == "check.max_residual_ratio"}
    return exact, fingerprint


def main() -> int:
    ap = argparse.ArgumentParser(description="same seed, same counts and residuals")
    ap.add_argument("--seed", type=int, default=1)
    seed = ap.parse_args().seed
    ok = True
    for workload in WORKLOADS:
        first, second = traced_run(workload, seed), traced_run(workload, seed)
        diff = sorted(k for k in first[0] if first[0][k] != second[0].get(k))
        same = not diff and first[1] == second[1]
        ok &= same
        print(f"{workload}: {len(first[0])} exact metrics, fingerprint {first[1]} vs {second[1]}: "
              + ("identical" if same else f"DIFFERENT {diff}"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
