"""Regenerate ``bench/reference.json``: high-replication limit-law quantiles.

The benchmark checks every critical value a ``detect`` job reports against
these quantiles (see ``checks.cv_band``).  Each kernel's table comes from one
``lrdustat limit`` run at ``REPS`` replications, under a seed that no
benchmark run uses.  Run from the repository root:

    python3 bench/make_reference.py

It takes a few minutes on two cores.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "reference.json"

KERNELS = ["wilcoxon", "cusum", "gaussian_bump", "huber:1.345"]
D = 0.4
FAMILY = "fgn"
GRID_SIZE = 256
REPS = 4000
SEED = 987654
LEVELS = [round(0.002 * i, 3) for i in range(1, 500)]


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    tables = {}
    for kernel in KERNELS:
        argv = [sys.executable, "-m", "lrdustat.cli", "limit",
                "--kernel", kernel, "--D", str(D), "--family", FAMILY,
                "--grid-size", str(GRID_SIZE), "--reps", str(REPS),
                "--seed", str(SEED), "--no-cache",
                "--levels", ",".join(repr(lv) for lv in LEVELS)]
        out = subprocess.run(argv, env=env, check=True, capture_output=True,
                             text=True).stdout
        table = json.loads(out)
        tables[kernel] = {
            "levels": table["quantiles"]["levels"],
            "values": [float(f"{v:.7g}") for v in table["quantiles"]["values"]],
        }
        print(f"{kernel}: q50={tables[kernel]['values'][249]:.4f} "
              f"q95={tables[kernel]['values'][474]:.4f}", file=sys.stderr)
    OUT.write_text(json.dumps({
        "D": D, "family": FAMILY, "grid_size": GRID_SIZE, "reps": REPS,
        "seed": SEED, "kernels": tables}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
