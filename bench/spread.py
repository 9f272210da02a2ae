"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/spread.py --workload detect_cold --seeds 1-10
    python3 bench/spread.py --workload detect_warm --seeds 1-2 --trace 1

For every metric it prints the median over the seeds, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median, next to the metric's bound in ``BENCHMARK.json``.  With
``--baseline`` the medians and quartiles are stored in ``bench/baseline.json``
under the workload and trace mode, replacing what was there.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = Path(__file__).resolve().parent / "baseline.json"


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values, failed, attempted = {}, 0, 0
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, *spec["command"][1:], "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout, proc.stderr, file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        machine = next((json.loads(line[len("# machine "):]) for line in lines
                        if line.startswith("# machine ")), None)
        failed += result["failed"]
        attempted += result["attempted"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()
            if args.trace == 0), flush=True)

    rows = {}
    print(f"{args.workload} trace={args.trace} failed {failed}/{attempted}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med,) * 3
        spread = (q3 - q1) / med if med else 0.0
        rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                      "runs": len(vals)}
        bound = bounds.get(name)
        flag = "" if bound is None else (
            f" bound {bound} {'ok' if spread < bound / 3 else 'WIDE'}")
        print(f"  {name:28s} median {med:<12.6g} q1 {q1:<12.6g} "
              f"q3 {q3:<12.6g} spread {spread:.4f}{flag}")
    if args.baseline:
        data = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
        data.setdefault(args.workload, {})[f"trace{args.trace}"] = {
            "seeds": args.seeds, "failed": failed, "attempted": attempted,
            "machine": machine, "metrics": rows}
        BASELINE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
