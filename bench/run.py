"""Benchmark of the ``lrdustat`` command line.

    python3 bench/run.py --workload detect_cold --seed 1 --seconds 25 --trace 0

Run from a checkout of the repository; the package under test is the one in
``src/``.  Workloads are defined in ``workloads.py``.

``--trace 0`` runs the workload's batch of jobs the way users do: one
``python -m lrdustat.cli`` child per job, one at a time, repeating the batch
while the next one fits in ``--seconds``.  Set-up (inputs, reference
answers, the warm cache) runs three times before timing; ``setup_s`` is the
median.  ``wall_s`` and ``cpu_s`` are the batch's totals of each job's
median over the batches; ``job_p50_s`` is the median of all job times.

``--trace 1`` prepares the inputs once, then runs each job of the batch
three times in this process through ``lrdustat.cli.main``: untraced as a
warm-up, with the wrappers of ``tracing.py`` installed, and untraced again.
It reports per-layer metrics from the traced pass and the tracing overhead
as traced minus untraced wall time.  Its counts do not depend on
``--seconds``.

Every job's output is checked (``checks.py``); the last line of standard
output is the JSON result.  Details of the run, and the spans of a traced
run, are written under ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
JOB_TIMEOUT = 60.0   # a job takes under 5 s; a hung one is killed


def _thread_env() -> dict:
    """Thread caps for BLAS/OpenMP pools: the inherited value, at most nproc.
    The CLI's --threads flag cannot do this: it runs after numpy is imported."""
    caps = {}
    for var in THREAD_VARS:
        try:
            caps[var] = str(max(1, min(int(os.environ[var]), NPROC)))
        except (KeyError, ValueError):
            caps[var] = str(NPROC)
    return caps


# numpy reads the caps when it is first imported, here and in every child
os.environ.update(_thread_env())

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

# ROADMAP item 1 re-anchor figures, printed next to this run's in traced runs
ROADMAP_ANCHORS = {"anchor.draw_ms_n32768": "9.7 ms",
                   "anchor.draw_ms_n2000": "0.63 ms",
                   "anchor.wilcoxon_s_n100000": "0.3-0.9 s",
                   "anchor.incremental_s_n4000": "0.10 s",
                   "limit_law.ms_per_rep": "8.2 ms (4.1 s / 500 reps)"}

CHECK_IMPORT = ("import json, sys, lrdustat, lrdustat.cli as cli; "
                "print(lrdustat.__file__); "
                "sys.exit(max([cli.main(a) for a in json.loads(sys.argv[1])], default=0))")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def machine_info() -> dict:
    model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": NPROC, "cpu_model": model,
            "platform": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": version("scipy"),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def child_env(cache: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), LRDUSTAT_CACHE=str(cache))


def run_child(argv: list, env: dict, log: Path, cwd: Path):
    """Run one child to completion.  Returns (exit code, wall s, user+sys
    CPU s, max RSS in KiB); a child past JOB_TIMEOUT is killed."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out,
                                stderr=subprocess.STDOUT, cwd=cwd)
        try:
            fd = os.pidfd_open(proc.pid)
            try:
                if not select.select([fd], [], [], JOB_TIMEOUT)[0]:
                    proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                os.close(fd)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss)


def setup(workload: str, seed: int, work: Path) -> workloads.Plan:
    """Inputs and reference answers, then one child that checks the package
    imports from this checkout and runs the plan's set-up calls."""
    plan = workloads.prepare(workload, seed, work)
    log = work / "setup.log"
    code, _, _, _ = run_child(
        [sys.executable, "-c", CHECK_IMPORT, json.dumps(plan.setup_calls)],
        child_env(plan.setup_cache), log, work)
    text = log.read_text(errors="replace")
    if code != 0:
        raise BenchError(f"set-up child exited {code}:\n{text[-2000:]}")
    if not Path(text.splitlines()[0]).resolve().is_relative_to(SRC):
        raise BenchError(f"lrdustat imported from outside {SRC}: {text[:200]}")
    workloads.fill_caches(plan)
    return plan


def run_job(job: workloads.Job, work: Path) -> dict:
    job.reset()
    code, wall, cpu, rss = run_child(
        [sys.executable, "-m", "lrdustat.cli", *job.argv],
        child_env(job.cache), work / f"{job.name}.log", work)
    return {"job": job.name, "exit": code, "wall_s": wall, "cpu_s": cpu,
            "max_rss_kb": rss, "reps": job.reps, "problems": job.problems(code)}


def measure(workload: str, seed: int, seconds: float, work: Path):
    setup_times = []
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        plan = setup(workload, seed, work / f"setup{i}")
        setup_times.append(time.perf_counter() - start)
    batches = []
    start = time.perf_counter()
    while True:
        batches.append([run_job(job, work) for job in plan.jobs])
        elapsed = time.perf_counter() - start
        if elapsed * (len(batches) + 1) / len(batches) > seconds:
            break
    records = [r for batch in batches for r in batch]

    def batch_total(key):
        """One batch's total, from each job's median over the batches, so a
        single disturbed job does not move it."""
        return sum(statistics.median(b[i][key] for b in batches)
                   for i in range(len(plan.jobs)))

    wall_s = batch_total("wall_s")
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall_s,
        "job_p50_s": statistics.median(r["wall_s"] for r in records),
        "cpu_s": batch_total("cpu_s"),
        "peak_rss_mb": max(r["max_rss_kb"] for r in records) / 1024.0,
    }
    reps = sum(r["reps"] for r in batches[0])
    summary = {"batches": len(batches), "jobs": len(records),
               "batch_wall_s": [sum(r["wall_s"] for r in b) for b in batches],
               "setup_runs_s": setup_times,
               "reps_per_batch": reps,
               "reps_per_s": reps / wall_s if reps else None}
    return metrics, records, summary


def run_inprocess(job: workloads.Job, main) -> dict:
    job.reset()
    os.environ["LRDUSTAT_CACHE"] = str(job.cache)
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(job.argv)
        except SystemExit as exc:
            code = exc.code
    wall = time.perf_counter() - start
    return {"job": job.name, "exit": code, "wall_s": wall,
            "problems": job.problems(code)}


def measure_traced(workload: str, seed: int, work: Path):
    plan = setup(workload, seed, work / "setup")
    import_times = []
    for _ in range(IMPORT_REPEATS):
        code, wall, _, _ = run_child(
            [sys.executable, "-c", "import lrdustat.cli"],
            child_env(plan.setup_cache), work / "import.log", work)
        if code != 0:
            raise BenchError("import lrdustat.cli failed")
        import_times.append(wall)
    sys.path.insert(0, str(SRC))
    from lrdustat import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"lrdustat imported from {cli.__file__}")

    # an untraced pass warms lazy imports and caches; the traced pass and
    # a second untraced pass then run under the same conditions
    warmup = [run_inprocess(job, cli.main) for job in plan.jobs]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = []
        for job in plan.jobs:
            tracer.job = job.name
            traced.append(run_inprocess(job, cli.main))
    finally:
        tracer.uninstall()
    untraced = [run_inprocess(job, cli.main) for job in plan.jobs]
    metrics = tracing.layer_metrics(tracer.spans)
    untraced_wall = sum(r["wall_s"] for r in untraced)
    traced_wall = sum(r["wall_s"] for r in traced)
    metrics.update({"cli.import_s": statistics.median(import_times),
                    "trace.untraced_wall_s": untraced_wall,
                    "trace.traced_wall_s": traced_wall,
                    "trace.overhead_s": traced_wall - untraced_wall})
    summary = {"jobs": len(plan.jobs),
               "passes": ["warm-up", "traced", "untraced"],
               "import_runs_s": import_times}
    return metrics, warmup + traced + untraced, summary, tracer.spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps the job it is waiting for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "lrdustat" / "cli.py").is_file():
        print(f"error: no lrdustat sources under {SRC}", file=sys.stderr)
        return 2
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    spans = None
    try:
        if args.trace:
            metrics, records, summary, spans = measure_traced(
                args.workload, args.seed, work)
            units = tracing.UNITS
        else:
            metrics, records, summary = measure(args.workload, args.seed,
                                                args.seconds, work)
            units = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s",
                     "cpu_s": "s", "peak_rss_mb": "MB"}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for r in records if r["problems"])
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    info = machine_info()
    result = {"correct": failed == 0, "attempted": len(records),
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    (WORK / "results" / f"{tag}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed,
         "seconds": args.seconds, "trace": args.trace, "machine": info,
         "summary": summary, "jobs": records, **result}, indent=1))
    if spans is not None:
        (WORK / "results" / f"{tag}-spans.json").write_text(json.dumps(
            [asdict(s) for s in spans]))

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"# machine {json.dumps(info)}")
    print(f"# summary {json.dumps(summary)}")
    print(f"# fail_frac {failed / len(records):.4f} ({failed} of "
          f"{len(records)} jobs)")
    if summary.get("reps_per_s"):
        print(f"# reps_per_s {summary['reps_per_s']:.6g} 1/s "
              f"({summary['reps_per_batch']} replications per batch)")
    for r in records:
        for problem in r["problems"]:
            print(f"# FAIL {r['job']}: {problem}")
    for key, value in metrics.items():
        anchor = ROADMAP_ANCHORS.get(key)
        note = f"  (ROADMAP re-anchor: {anchor})" if anchor and value else ""
        print(f"# {key} {value:.6g} {units[key]}{note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
