"""The benchmark's workloads: their inputs, jobs and output checks.

A workload is a fixed batch of ``lrdustat`` invocations.  :func:`prepare`
writes the inputs for one seed into a work directory and returns the batch
plus the ``lrdustat`` calls that set-up runs first (filling the critical-value
cache for ``detect_warm``).
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs

LEVELS = [0.25, 0.5, 0.75, 0.9, 0.95, 0.99]
COLD_REPS = 200        # limit-law replications of each cold detect job
WARM_TABLE_REPS = 100  # replications of the tables the warm cache holds
REDUCTION_N = [500, 1000, 2000, 4000]
REDUCTION_REPS = 10
WEAK_N, WEAK_REPS, WEAK_LIMIT_REPS = 2000, 200, 20

#: per CLI kernel spec: name in the report, a00, Hermite rank, whether the
#: detector targets a location shift, and the numpy reference path
KERNELS = {
    "wilcoxon": ("wilcoxon", 0.5, 1, True, inputs.wilcoxon_path),
    "cusum": ("cusum", 0.0, 1, True, inputs.cusum_path),
    "huber:1.345": ("huber_1.345", 0.0, 1, True,
                    lambda x: inputs.pair_path(x, inputs.huber(1.345))),
    "gaussian_bump": ("gaussian_bump", 0.0, 2, False,
                      lambda x: inputs.pair_path(x, inputs.gaussian_bump)),
}

WORKLOADS = ("detect_cold", "detect_warm", "verify_mc")

REFERENCE_FILE = Path(__file__).parent / "reference.json"


@dataclass
class Job:
    """One ``lrdustat`` invocation and the check of the file it writes."""

    name: str
    argv: list
    out: Path
    cache: Path
    reps: int                       # Monte Carlo replications the job runs
    check: Callable[[dict], list] = field(repr=False)
    fresh_cache: bool = True        # empty the cache before every execution

    def reset(self) -> None:
        """Remove the previous output and, for cold jobs, the cache."""
        self.out.unlink(missing_ok=True)
        if self.fresh_cache:
            shutil.rmtree(self.cache, ignore_errors=True)
        self.cache.mkdir(parents=True, exist_ok=True)

    def problems(self, exit_code) -> list:
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        try:
            report = json.loads(self.out.read_text())
        except (OSError, ValueError) as exc:
            return [f"unreadable output: {exc}"]
        try:
            return self.check(report)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return [f"malformed output: {exc!r}"]


@dataclass
class Plan:
    jobs: list
    setup_calls: list               # lrdustat argv lists set-up runs
    setup_cache: Path               # LRDUSTAT_CACHE of those calls


def _levels_arg() -> str:
    return ",".join(repr(lv) for lv in LEVELS)


def _detect_job(work: Path, name: str, data: Path, kernel: str, n: int,
                x: np.ndarray, tau: int, reps: int, seed: int,
                cold: bool, reference: dict) -> Job:
    report_name, a00, m, locates, path_fn = KERNELS[kernel]
    expected = {"n": n, "kernel": report_name, "cli_kernel": kernel,
                "path": path_fn(x), "a00": a00, "m": m,
                "tau": tau if locates else None, "levels": LEVELS,
                "reps": reps}
    out = work / f"{name}.json"
    return Job(name=name, out=out, cache=work / f"cache-{name}",
               argv=["detect", "--input", str(data), "--kernel", kernel,
                     "--D", repr(inputs.D), "--reps", str(reps),
                     "--seed", str(seed), "--levels", _levels_arg(),
                     "-o", str(out)],
               reps=reps if cold else 0, fresh_cache=cold,
               check=lambda report: checks.check_detect(report, expected,
                                                        reference))


def _limit_call(kernel: str, reps: int, seed: int) -> list:
    return ["limit", "--kernel", kernel, "--D", repr(inputs.D),
            "--reps", str(reps), "--seed", str(seed),
            "--levels", _levels_arg()]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def prepare(workload: str, seed: int, work: Path) -> Plan:
    """Write the inputs and reference answers of ``workload`` into ``work``."""
    work.mkdir(parents=True, exist_ok=True)
    setup_cache = work / "setup-cache"
    reference = json.loads(REFERENCE_FILE.read_text())
    if workload == "detect_cold":
        x, tau = inputs.shifted_series(2000, _rng(seed, 0))
        data = work / "series-2000.csv"
        inputs.write_csv(x, data)
        jobs = [_detect_job(work, f"{k}-n2000", data, k, 2000, x, tau,
                            COLD_REPS, seed, cold=True, reference=reference)
                for k in ("wilcoxon", "cusum", "gaussian_bump")]
        return Plan(jobs, [], setup_cache)

    if workload == "detect_warm":
        big, tau_big = inputs.shifted_series(100_000, _rng(seed, 1))
        mid, tau_mid = inputs.shifted_series(4000, _rng(seed, 2))
        big_csv, big_bin = work / "series-100000.csv", work / "series-100000.bin"
        mid_csv = work / "series-4000.csv"
        inputs.write_csv(big, big_csv)
        inputs.write_binary(big, big_bin)
        inputs.write_csv(mid, mid_csv)
        specs = [("wilcoxon-n100000-csv", big_csv, "wilcoxon", big, tau_big),
                 ("wilcoxon-n100000-bin", big_bin, "wilcoxon", big, tau_big),
                 ("cusum-n100000-csv", big_csv, "cusum", big, tau_big),
                 ("huber-n4000-csv", mid_csv, "huber:1.345", mid, tau_mid),
                 ("gaussian_bump-n4000-csv", mid_csv, "gaussian_bump", mid,
                  tau_mid)]
        jobs = [_detect_job(work, name, data, kernel, x.size, x, tau,
                            WARM_TABLE_REPS, seed, cold=False,
                            reference=reference)
                for name, data, kernel, x, tau in specs]
        calls = [_limit_call(k, WARM_TABLE_REPS, seed) for k in KERNELS]
        return Plan(jobs, calls, setup_cache)

    if workload == "verify_mc":
        red_out, weak_out = work / "reduction.json", work / "weak.json"
        n_args = [a for n in REDUCTION_N for a in ("--n", str(n))]
        jobs = [
            Job(name="reduction-gaussian_bump", out=red_out,
                cache=work / "cache-reduction",
                argv=["verify", "reduction", "--kernel", "gaussian_bump",
                      "--D", repr(inputs.D), *n_args,
                      "--reps", str(REDUCTION_REPS), "--seed", str(seed),
                      "-o", str(red_out)],
                reps=REDUCTION_REPS * len(REDUCTION_N),
                check=lambda r: checks.check_reduction(r, REDUCTION_N,
                                                       REDUCTION_REPS)),
            Job(name="weak-wilcoxon-n2000", out=weak_out,
                cache=work / "cache-weak",
                argv=["verify", "weak", "--kernel", "wilcoxon",
                      "--D", repr(inputs.D), "--n", str(WEAK_N),
                      "--reps", str(WEAK_REPS),
                      "--limit-reps", str(WEAK_LIMIT_REPS),
                      "--seed", str(seed), "-o", str(weak_out)],
                reps=WEAK_REPS + WEAK_LIMIT_REPS,
                check=lambda r: checks.check_weak(r, WEAK_N, WEAK_REPS,
                                                  WEAK_LIMIT_REPS)),
        ]
        return Plan(jobs, [], setup_cache)

    raise ValueError(f"unknown workload {workload!r}")


def fill_caches(plan: Plan) -> None:
    """Give every warm job its own copy of the cache set-up filled."""
    for job in plan.jobs:
        if not job.fresh_cache:
            shutil.rmtree(job.cache, ignore_errors=True)
            shutil.copytree(plan.setup_cache, job.cache)
